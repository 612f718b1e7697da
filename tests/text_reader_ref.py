"""The text-model reader as it was before its load path was cut to one edge
walk, kept as a reference for tests: a line loop that strips each line
before splitting it, a second pass for the implied outputs, a ``validate``
that only links consumers, and a ``topo_order`` that recounts in-degrees and
sorts every id. ``parse_text_model`` here must give the package's graph, or
its error, for every text.
"""

from __future__ import annotations

import heapq

from lbound.errors import GraphStructureError, ModelParseError
from lbound.model_ir import (
    OP_ALIASES,
    SUPPORTED_OPS,
    LayerNode,
    ModelGraph,
    parse_attr_value,
    parse_dims,
)


def validate(graph: ModelGraph) -> None:
    input_names = {n for n, _ in graph.graph_inputs}
    for node in graph.nodes.values():
        node.output_ids = []
    for node in graph.nodes.values():
        if not node.input_ids:
            raise GraphStructureError(
                f"node {node.id!r} has no inputs; only declared graph inputs may lack a producer"
            )
        for src in node.input_ids:
            if src in graph.nodes:
                graph.nodes[src].output_ids.append(node.id)
            elif src not in input_names:
                raise GraphStructureError(f"node {node.id!r} references unknown input {src!r}")
    for out in graph.graph_outputs:
        if out not in graph.nodes:
            raise GraphStructureError(f"graph output {out!r} is not a node")
    graph.order = tuple(topo_order(graph))


def topo_order(graph: ModelGraph) -> list[str]:
    indeg = {node.id: sum(src in graph.nodes for src in node.input_ids)
             for node in graph.nodes.values()}
    ready = [nid for nid, d in sorted(indeg.items()) if d == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(nid)
        for consumer in graph.nodes[nid].output_ids:
            indeg[consumer] -= 1
            if indeg[consumer] == 0:
                heapq.heappush(ready, consumer)
    if len(order) != len(graph.nodes):
        remaining = sorted(set(graph.nodes) - set(order))
        culprit = remaining[0]
        back = next(
            (s for s in graph.nodes[culprit].input_ids if s in remaining), remaining[-1]
        )
        raise GraphStructureError(f"graph has a cycle: back edge {back!r} -> {culprit!r}")
    return order


def parse_text_model(text: str, name: str = "model") -> ModelGraph:
    nodes: dict[str, LayerNode] = {}
    graph_inputs: list[tuple[str, tuple[int, ...]]] = []
    outputs: list[str] = []
    graph_name = name

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        try:
            if kind == "graph":
                graph_name = tokens[1]
            elif kind == "input":
                graph_inputs.append((tokens[1], parse_dims(tokens[2])))
            elif kind == "output":
                outputs.append(tokens[1])
            elif kind == "node":
                nid, op = tokens[1], tokens[2]
                op = OP_ALIASES.get(op, op)
                params: dict = {}
                if op not in SUPPORTED_OPS:
                    params["op"] = op
                    op = "Opaque"
                inputs: list[str] = []
                for tok in tokens[3:]:
                    if tok.startswith("inputs="):
                        csv = tok[len("inputs="):]
                        inputs = [s for s in csv.split(",") if s]
                    elif tok.startswith("attrs="):
                        for pair in tok[len("attrs="):].split(";"):
                            if not pair:
                                continue
                            k, _, v = pair.partition("=")
                            params[k] = parse_attr_value(v)
                    else:
                        raise ValueError(f"unknown token {tok!r}")
                if nid in nodes:
                    raise ValueError(f"duplicate node id {nid!r}")
                nodes[nid] = LayerNode(id=nid, op_type=op, params=params, input_ids=inputs)
            else:
                raise ValueError(f"unknown directive {kind!r}")
        except (IndexError, ValueError) as exc:
            raise ModelParseError(f"bad model line {raw.strip()!r}: {exc}", offset=lineno) from exc

    if not outputs:
        consumed = {src for n in nodes.values() for src in n.input_ids}
        outputs = [nid for nid in nodes if nid not in consumed]
    graph = ModelGraph(graph_name, nodes, graph_inputs, outputs)
    validate(graph)
    return graph
