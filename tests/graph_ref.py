"""The critical path and the DOT export as they were before the rebuild
stepped straight to a lone consumer, kept as a reference for tests: the
forward pass subtracts a node's latency from each producer distance before
taking the least, the rebuild runs a generator ``min`` at every node, and
the export marks path edges with a set of edge tuples. The package's
``critical_path`` must give the same path and total, and its ``export_dot``
the same bytes, for every graph.
"""

from __future__ import annotations

from lbound.analyzer import CriticalPath, LatencyAnnotatedGraph
from lbound.model_ir import ModelGraph


def critical_path(graph: ModelGraph, latencies: dict[str, float]) -> CriticalPath:
    """Highest-total source-to-sink simple path under per-node latencies."""
    order = graph.order
    if not order:
        return CriticalPath([], 0.0)
    nodes, lat = graph.nodes, latencies
    # dist[v]: shortest distance from the virtual source using weights
    # -latency(v); producers precede consumers, so ``p in dist`` tells
    # graph nodes from graph inputs.
    dist: dict[str, float] = {}
    sources: list[str] = []
    for nid in order:
        lv = lat[nid]
        d = None
        for p in nodes[nid].input_ids:
            if p in dist:
                cand = dist[p] - lv
                if d is None or cand < d:
                    d = cand
        if d is None:
            sources.append(nid)
            d = 0.0 - lv
        dist[nid] = d
    best = min(dist[nid] for nid in order if not nodes[nid].output_ids)
    # on: nodes with a tight path to a sink at distance ``best``.
    on: set[str] = set()
    for nid in reversed(order):
        outs = nodes[nid].output_ids
        if not outs:
            if dist[nid] == best:
                on.add(nid)
            continue
        d = dist[nid]
        for c in outs:
            if c in on and d - lat[c] == dist[c]:
                on.add(nid)
                break
    nid = min(s for s in sources if s in on)
    path = [nid]
    while nodes[nid].output_ids:
        d = dist[nid]
        nid = min(c for c in nodes[nid].output_ids if c in on and d - lat[c] == dist[c])
        path.append(nid)
    return CriticalPath(path, -best)


def export_dot(ann: LatencyAnnotatedGraph, path: CriticalPath | None = None) -> str:
    """DOT rendering with name, type, latency per node; critical path in red."""
    graph = ann.graph
    on_path = set(path.node_ids) if path else set()
    path_edges = set(zip(path.node_ids, path.node_ids[1:])) if path else set()
    lines = [f'digraph "{graph.name}" {{',
             "  rankdir=TB;",
             '  node [shape=box, fontname="Helvetica"];']
    for nid in graph.order:
        node = graph.nodes[nid]
        label = f"{nid}\\n{node.op_type}\\n{ann.latencies.get(nid, 0.0):.3f} us"
        style = ' color=red penwidth=2.0' if nid in on_path else ""
        lines.append(f'  "{nid}" [label="{label}"{style}];')
    for nid in graph.order:
        for src in graph.nodes[nid].input_ids:
            if src not in graph.nodes:
                continue
            style = " [color=red penwidth=2.0]" if (src, nid) in path_edges else ""
            lines.append(f'  "{src}" -> "{nid}"{style};')
    lines.append("}")
    return "\n".join(lines) + "\n"
