"""Model graph IR: loading, shape inference, topological order, MAC counts.

A model is a DAG of layer nodes. Two loaders produce the same IR: a binary
ONNX-format reader (see :mod:`lbound.onnx_reader`) and a line-based text
format used for fixtures and small experiments. Weight tensors are recorded
by shape only; their values are discarded at load time. Graphs are treated
as immutable after construction: ``infer_shapes`` returns a new graph.
Both loaders end in :func:`validate`, which owns the topological order: it
stores its one :func:`topo_order` result as ``ModelGraph.order``, which
``infer_shapes`` carries over and every walk over the graph reads.

Each operator has one rule in the ``_RULES`` table. A rule takes the
recorded params, the data-input dims and the node id, and returns the
canonical params, the output dims and the MAC count, so everything the
package knows about an op sits in one function. :func:`infer_layer` looks
the op up there once. ``SUPPORTED_OPS`` is the table's key set; a loader
turns any other op into ``Opaque``, which is kept for connectivity and
excluded from lower-bound latency.

Text model grammar (one directive per line, ``#`` starts a comment)::

    graph <name>
    input <name> <d0>x<d1>x...
    node <id> <op_type> inputs=<csv> attrs=<k=v;...>
    output <id>

Attribute values parse as int, float, ``AxBx...`` integer tuples, or raw
strings. ``w<slot>=<dims>`` records a weight tensor (by shape) feeding the
given input slot, e.g. ``w1=64x3x7x7`` for a convolution filter.
"""

from __future__ import annotations

import functools
import heapq
import math
from collections.abc import Callable
from dataclasses import dataclass, field

from .errors import (
    GraphStructureError,
    ModelParseError,
    ShapeInferenceError,
    ShapeStateError,
)

DTYPES = ("f32", "f16")
DTYPE_BYTES = {"f32": 4, "f16": 2}
LAYOUTS = ("NCHW", "NHWC")

# Op groups that spec generation and the API mapping treat alike. The full
# vocabulary is ``SUPPORTED_OPS``, the keys of the rule table below.
ACTIVATION_OPS = ("Relu", "Sigmoid", "Tanh")
POOL_OPS = ("MaxPool", "AveragePool", "GlobalAveragePool")

# Accepted spellings from other toolchains, normalized at load time.
OP_ALIASES = {"BatchNormalization": "BatchNorm"}


@dataclass(frozen=True)
class TensorShape:
    """Shape of one activation tensor, NCHW order for 4-D tensors."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) < 1:
            raise ShapeInferenceError(f"rank must be >= 1, got {self.dims!r}")
        if any(not isinstance(d, int) or d < 1 for d in self.dims):
            raise ShapeInferenceError(f"all dims must be positive integers, got {self.dims!r}")

    def render(self) -> str:
        return "x".join(str(d) for d in self.dims)


@dataclass
class LayerNode:
    """One layer operator.

    ``input_ids`` reference producing nodes or named graph inputs; weight
    tensors never appear as edges, only as ``w<slot>`` shape params.
    """

    id: str
    op_type: str
    params: dict = field(default_factory=dict)
    input_ids: list[str] = field(default_factory=list)
    output_ids: list[str] = field(default_factory=list)
    in_shapes: list[TensorShape] | None = None
    out_shapes: list[TensorShape] | None = None
    macs: int = 0


@dataclass
class ModelGraph:
    name: str
    nodes: dict[str, LayerNode]
    graph_inputs: list[tuple[str, TensorShape]]
    graph_outputs: list[str]
    order: tuple[str, ...] = ()  # topological order of ``nodes``, set by ``validate``


def validate(graph: ModelGraph) -> None:
    """Check edge integrity and acyclicity; fill consumer lists and ``order``."""
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
    graph.order = tuple(topo_order(graph))  # raises on cycles


def topo_order(graph: ModelGraph) -> list[str]:
    """Topological order of node ids; ties broken by node id, ascending.

    Follows the consumer lists (``output_ids``) that ``validate`` fills.
    """
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


# ---------------------------------------------------------------------------
# Operator rules
# ---------------------------------------------------------------------------

def _as_pair(value, name: str, node_id: str) -> tuple[int, int]:
    if isinstance(value, int):
        return (value, value)
    if isinstance(value, tuple) and len(value) == 2:
        return (int(value[0]), int(value[1]))
    raise ShapeInferenceError(f"node {node_id!r}: bad {name} value {value!r}")


def _as_pads(value, node_id: str) -> tuple[int, int, int, int]:
    # ONNX 2-D order: (h_begin, w_begin, h_end, w_end); asymmetric allowed.
    if isinstance(value, int):
        return (value,) * 4
    if isinstance(value, tuple):
        if len(value) == 2:
            h, w = value
            return (int(h), int(w), int(h), int(w))
        if len(value) == 4:
            return tuple(int(v) for v in value)  # type: ignore[return-value]
    raise ShapeInferenceError(f"node {node_id!r}: bad pads value {value!r}")


def _as_dims(value) -> tuple[int, ...]:
    if isinstance(value, int):
        return (value,)
    return tuple(int(v) for v in value)


def _resolve_auto_pad(mode: str, in_dim: int, k: int, stride: int, dil: int) -> tuple[int, int]:
    if mode == "VALID":
        return (0, 0)
    out = (in_dim + stride - 1) // stride
    total = max(0, (out - 1) * stride + (k - 1) * dil + 1 - in_dim)
    begin = total // 2
    end = total - begin
    if mode == "SAME_LOWER":
        begin, end = end, begin
    return (begin, end)


def _conv_axis(in_dim: int, k: int, stride: int, pad_b: int, pad_e: int, dil: int,
               ceil_mode: bool = False) -> int:
    eff = dil * (k - 1) + 1
    num = in_dim + pad_b + pad_e - eff
    if num < 0:
        raise ShapeInferenceError(
            f"kernel {k} (dilation {dil}) larger than padded input {in_dim}+{pad_b}+{pad_e}"
        )
    if ceil_mode:
        return -((-num) // stride) + 1
    return num // stride + 1


def _broadcast(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...] | None:
    out = []
    for da, db in zip(reversed((1,) * max(0, len(b) - len(a)) + a),
                      reversed((1,) * max(0, len(a) - len(b)) + b)):
        if da == db or db == 1:
            out.append(da)
        elif da == 1:
            out.append(db)
        else:
            return None
    return tuple(reversed(out))


def _err(node_id: str, op_type: str, msg: str) -> ShapeInferenceError:
    return ShapeInferenceError(f"node {node_id!r} ({op_type}): {msg}")


def is_weight_key(key: str) -> bool:
    """True for a ``w<slot>`` param, which records a weight operand by its dims."""
    return key.startswith("w") and key[1:].isdigit()


def _with_weights(canonical: dict, p: dict) -> dict:
    return {**canonical, **{k: p[k] for k in sorted(p) if is_weight_key(k)}}


def _conv(p, in_dims, node_id):
    strides = _as_pair(p.get("strides", 1), "strides", node_id)
    dilations = _as_pair(p.get("dilations", 1), "dilations", node_id)
    group = int(p.get("group", 1))
    if "w1" in p:
        w1 = p["w1"]
        kernel = _as_pair(p.get("kernel", tuple(w1[2:4])), "kernel", node_id)
    elif "kernel" in p and "filters" in p:
        kernel = _as_pair(p["kernel"], "kernel", node_id)
        cin = in_dims[0][1]
        w1 = (int(p["filters"]), cin // group, kernel[0], kernel[1])
    else:
        raise ShapeInferenceError(
            f"node {node_id!r}: Conv needs w1 dims or kernel+filters attrs"
        )
    if p.get("auto_pad", "") not in ("NOTSET", ""):
        mode = str(p["auto_pad"])
        hb, he = _resolve_auto_pad(mode, in_dims[0][2], kernel[0], strides[0], dilations[0])
        wb, we = _resolve_auto_pad(mode, in_dims[0][3], kernel[1], strides[1], dilations[1])
        pads = (hb, wb, he, we)
    else:
        pads = _as_pads(p.get("pads", 0), node_id)
    w1 = _as_dims(w1)
    canonical = {"dilations": dilations, "group": group, "kernel": kernel,
                 "pads": pads, "strides": strides, "w1": w1}
    if "w2" in p:
        canonical["w2"] = p["w2"]

    (n, c, h, w) = in_dims[0]
    if len(w1) != 4:
        raise _err(node_id, "Conv", f"weight must be rank 4, got {w1}")
    if w1[1] * group != c:
        raise _err(node_id, "Conv",
                   f"input channels {c} do not match weight {w1} with group {group}")
    pt, pl, pb, pr = pads
    out = (n, w1[0],
           _conv_axis(h, kernel[0], strides[0], pt, pb, dilations[0]),
           _conv_axis(w, kernel[1], strides[1], pl, pr, dilations[1]))
    return canonical, out, math.prod(out) * math.prod(w1[1:])  # w1 is (K, C/g, R, S)


def _pool(op_type, p, in_dims, node_id):
    if "kernel" not in p:
        raise ShapeInferenceError(f"node {node_id!r}: {op_type} needs kernel dims")
    kernel = _as_pair(p["kernel"], "kernel", node_id)
    pads = _as_pads(p.get("pads", 0), node_id)
    strides = _as_pair(p.get("strides", 1), "strides", node_id)
    canonical = {"kernel": kernel, "pads": pads, "strides": strides}
    ceil = bool(p.get("ceil_mode"))
    if ceil:
        canonical["ceil_mode"] = 1

    (n, c, h, w) = in_dims[0]
    pt, pl, pb, pr = pads
    return canonical, (n, c,
                       _conv_axis(h, kernel[0], strides[0], pt, pb, 1, ceil),
                       _conv_axis(w, kernel[1], strides[1], pl, pr, 1, ceil)), 0


def _global_average_pool(p, in_dims, node_id):
    (n, c, *_rest) = in_dims[0]
    return {}, (n, c, 1, 1), 0


def _b_operand(p: dict, in_dims) -> tuple[int, ...] | None:
    """The second matrix operand: a recorded weight, else the second data input."""
    return tuple(p["w1"]) if "w1" in p else (in_dims[1] if len(in_dims) > 1 else None)


def _gemm(p, in_dims, node_id):
    canonical = {"transA": int(p.get("transA", 0)), "transB": int(p.get("transB", 0))}
    for k in ("alpha", "beta"):
        if k in p and float(p[k]) != 1.0:
            canonical[k] = float(p[k])
    canonical = _with_weights(canonical, p)

    a = in_dims[0]
    if len(a) != 2:
        raise _err(node_id, "Gemm", f"expects a rank-2 input, got {a}")
    b = _b_operand(canonical, in_dims)
    if b is None or len(b) != 2:
        raise _err(node_id, "Gemm", f"no rank-2 B operand (got {b})")
    m, k = (a[1], a[0]) if canonical["transA"] else a
    kb, n_out = (b[1], b[0]) if canonical["transB"] else b
    if k != kb:
        raise _err(node_id, "Gemm", f"inner dims differ: A gives {k}, B gives {kb} ({a} vs {b})")
    return canonical, (m, n_out), m * n_out * k


def _matmul(p, in_dims, node_id):
    # MatMul keeps every recorded param, as an Opaque layer does.
    canonical = {k: p[k] for k in sorted(p)}
    a = in_dims[0]
    b = _b_operand(canonical, in_dims)
    if b is None:
        raise _err(node_id, "MatMul", "no B operand")
    if len(a) < 2 or len(b) < 2:
        raise _err(node_id, "MatMul", f"operands must be rank >= 2, got {a} and {b}")
    if a[-1] != b[-2]:
        raise _err(node_id, "MatMul", f"inner dims differ: {a} vs {b}")
    batch = _broadcast(a[:-2], b[:-2]) if (len(a) > 2 or len(b) > 2) else ()
    if batch is None:
        raise _err(node_id, "MatMul", f"batch dims do not broadcast: {a} vs {b}")
    out = tuple(batch) + (a[-2], b[-1])
    return canonical, out, math.prod(out) * a[-1]


def _elementwise(op_type, p, in_dims, node_id):
    canonical = _with_weights({}, p)
    out, *rest = [*in_dims, *canonical.values()]
    for d in rest:
        merged = _broadcast(out, d)
        if merged is None:
            raise _err(node_id, op_type, f"shapes {out} and {d} do not broadcast")
        out = merged
    return canonical, out, 0


def _concat(p, in_dims, node_id):
    if "axis" not in p:
        raise ShapeInferenceError(f"node {node_id!r}: Concat needs axis")
    canonical = {"axis": int(p["axis"])}
    base = list(in_dims[0])
    axis = canonical["axis"]
    axis = axis if axis >= 0 else axis + len(base)
    if not 0 <= axis < len(base):
        raise _err(node_id, "Concat",
                   f"axis {canonical['axis']} out of range for rank {len(base)}")
    for d in in_dims[1:]:
        if len(d) != len(base) or any(
            i != axis and d[i] != base[i] for i in range(len(base))
        ):
            raise _err(node_id, "Concat", f"shapes {tuple(base)} and {d} differ off-axis")
        base[axis] += d[axis]
    return canonical, tuple(base), 0


def _reshape(p, in_dims, node_id):
    if "shape" not in p:
        raise ShapeInferenceError(f"node {node_id!r}: Reshape needs target shape")
    target = _as_dims(p["shape"])
    in_numel = math.prod(in_dims[0])
    out = []
    infer_at = None
    for i, d in enumerate(target):
        if d == 0:
            out.append(in_dims[0][i])
        elif d == -1:
            if infer_at is not None:
                raise _err(node_id, "Reshape", "more than one -1 in reshape target")
            infer_at = i
            out.append(1)
        else:
            out.append(d)
    known = math.prod(out)
    if infer_at is not None:
        if in_numel % known:
            raise _err(node_id, "Reshape", f"cannot reshape {in_dims[0]} to {target}")
        out[infer_at] = in_numel // known
        known *= out[infer_at]
    if known != in_numel:
        raise _err(node_id, "Reshape",
                   f"cannot reshape {in_dims[0]} ({in_numel} elems) to {target}")
    return {"shape": target}, tuple(out), 0


def _flatten(p, in_dims, node_id):
    canonical = {"axis": int(p.get("axis", 1))}
    d = in_dims[0]
    axis = canonical["axis"]
    axis = axis if axis >= 0 else axis + len(d)
    return canonical, (math.prod(d[:axis]), math.prod(d[axis:])), 0


def _unsqueeze(p, in_dims, node_id):
    if "axes" not in p:
        raise ShapeInferenceError(f"node {node_id!r}: Unsqueeze needs axes")
    axes = _as_dims(p["axes"])
    out = list(in_dims[0])
    rank = len(out) + len(axes)
    for ax in sorted(a if a >= 0 else a + rank for a in axes):
        out.insert(ax, 1)
    return {"axes": axes}, tuple(out), 0


def _squeeze(p, in_dims, node_id):
    d = in_dims[0]
    if "axes" not in p:
        return {}, tuple(v for v in d if v != 1) or (1,), 0
    axes = _as_dims(p["axes"])
    norm = {a if a >= 0 else a + len(d) for a in axes}
    for a in norm:
        if d[a] != 1:
            raise _err(node_id, "Squeeze", f"cannot squeeze non-1 dim {a} of {d}")
    return {"axes": axes}, tuple(v for i, v in enumerate(d) if i not in norm) or (1,), 0


def _transpose(p, in_dims, node_id):
    d = in_dims[0]
    perm = _as_dims(p["perm"]) if "perm" in p else tuple(reversed(range(len(d))))
    if sorted(perm) != list(range(len(d))):
        raise _err(node_id, "Transpose", f"bad perm {perm} for rank {len(d)}")
    return {"perm": perm}, tuple(d[i] for i in perm), 0


def _passthrough(canonicalize):
    """Rule for an op whose output has its first input's dims and that counts no MACs."""
    return lambda p, in_dims, node_id: (canonicalize(p), in_dims[0], 0)


# op type -> rule: (recorded params, data-input dims, node id) ->
# (canonical params, output dims, MAC count).
_RULES: dict[str, Callable[[dict, list[tuple[int, ...]], str],
                           tuple[dict, tuple[int, ...], int]]] = {
    "Conv": _conv,
    "MaxPool": functools.partial(_pool, "MaxPool"),
    "AveragePool": functools.partial(_pool, "AveragePool"),
    "GlobalAveragePool": _global_average_pool,
    "Gemm": _gemm,
    "MatMul": _matmul,
    "Add": functools.partial(_elementwise, "Add"),
    "Mul": functools.partial(_elementwise, "Mul"),
    "Concat": _concat,
    "Reshape": _reshape,
    "Flatten": _flatten,
    "Unsqueeze": _unsqueeze,
    "Squeeze": _squeeze,
    "Transpose": _transpose,
    "BatchNorm": _passthrough(
        lambda p: _with_weights({"epsilon": float(p.get("epsilon", 1e-5))}, p)),
    "Softmax": _passthrough(lambda p: {"axis": int(p.get("axis", -1))}),
    "Dropout": _passthrough(lambda p: {"ratio": float(p["ratio"])} if "ratio" in p else {}),
    # Opaque layers keep whatever was recorded and pass their first input
    # through, so downstream shapes stay defined; they carry no compute.
    "Opaque": _passthrough(lambda p: {k: p[k] for k in sorted(p)}),
    **{op: _passthrough(lambda p: {}) for op in ("Identity", *ACTIVATION_OPS)},
}
SUPPORTED_OPS = frozenset(_RULES)

# Attributes that do not change a layer's inference-time result.
_DROPPED_PARAMS = ("momentum", "spatial", "is_test", "consumed_inputs")


def weight_elems(params: dict) -> int:
    return sum(math.prod(v) for k, v in params.items() if is_weight_key(k))


def infer_layer(op_type: str, params: dict, in_dims: list[tuple[int, ...]],
                node_id: str) -> tuple[dict, tuple[int, ...], int]:
    """Canonical params, output dims and MAC count of one layer.

    The one path from recorded params to a canonical layer, shared by graph
    shape inference, signature parsing and the simulator. ``in_dims`` holds
    the data-input dims in slot order, at least one; weight operands arrive
    in ``params`` as ``w<slot>`` entries. Params or input ranks that the op's
    rule cannot read, and params that yield an empty or non-positive output
    dim, raise ``ShapeInferenceError`` naming the node and op.
    """
    try:
        p = {k: _as_dims(v) if is_weight_key(k) else v
             for k, v in params.items() if k not in _DROPPED_PARAMS}
        if op_type not in _RULES:
            raise _err(node_id, op_type, "no shape rule")
        canonical, dims, n_macs = _RULES[op_type](p, in_dims, node_id)
        if not dims or min(dims) < 1:
            raise ValueError(f"output dims {dims} are not all positive")
        return canonical, dims, n_macs
    except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
        raise ShapeInferenceError(
            f"node {node_id!r} ({op_type}): params or input ranks do not fit: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# Shape inference over a graph
# ---------------------------------------------------------------------------

def infer_shapes(graph: ModelGraph, batch: int) -> ModelGraph:
    """Return a copy of ``graph`` with all shapes populated at ``batch``.

    The leading dim of every graph input is the batch dim and is replaced
    by ``batch``. Propagation follows ``graph.order``, which the copy keeps;
    idempotent.
    """
    if batch < 1:
        raise ShapeInferenceError(f"batch must be >= 1, got {batch}")
    if len(graph.order) != len(graph.nodes):
        raise GraphStructureError(f"graph {graph.name!r} has no order; run validate first")
    inputs = [
        (name, TensorShape((batch,) + s.dims[1:]))
        for name, s in graph.graph_inputs
    ]
    by_name = dict(inputs)
    nodes: dict[str, LayerNode] = {}
    out = ModelGraph(graph.name, nodes, inputs, list(graph.graph_outputs), graph.order)

    for nid in graph.order:
        node = graph.nodes[nid]
        # validate checked every edge, and producers precede consumers in order.
        in_shapes = [nodes[src].out_shapes[0] if src in nodes else by_name[src]
                     for src in node.input_ids]
        in_dims = [s.dims for s in in_shapes]
        params, dims, n_macs = infer_layer(node.op_type, node.params, in_dims, nid)
        nodes[nid] = LayerNode(
            id=nid, op_type=node.op_type, params=params, input_ids=list(node.input_ids),
            output_ids=list(node.output_ids), in_shapes=in_shapes,
            out_shapes=[TensorShape(dims)], macs=n_macs)
    return out


def macs(graph: ModelGraph) -> tuple[dict[str, int], int]:
    """Per-node MAC counts and their total; requires inferred shapes."""
    per_node: dict[str, int] = {}
    total = 0
    for nid, node in graph.nodes.items():
        if node.out_shapes is None or node.in_shapes is None:
            raise ShapeStateError(f"node {nid!r} has no inferred shapes; run infer_shapes first")
        per_node[nid] = node.macs
        total += node.macs
    return per_node, total


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def parse_attr_value(text: str):
    """An int, float or ``x``-joined int tuple when ``text`` reads as one, else ``text``."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    parts = text.split("x")
    if len(parts) > 1:
        try:
            return tuple(int(p) for p in parts)
        except ValueError:
            pass
    return text


def parse_text_model(text: str, name: str = "model") -> ModelGraph:
    nodes: dict[str, LayerNode] = {}
    graph_inputs: list[tuple[str, TensorShape]] = []
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
                dims = tuple(int(d) for d in tokens[2].split("x"))
                graph_inputs.append((tokens[1], TensorShape(dims)))
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


def render_text_model(graph: ModelGraph) -> str:
    """Serialize a graph back to the text format (parse round-trips)."""
    lines = [f"graph {graph.name}"]
    for name, shape in graph.graph_inputs:
        lines.append(f"input {name} {shape.render()}")
    for node in graph.nodes.values():
        attrs = []
        params = node.params
        op = node.op_type
        if op == "Opaque" and "op" in params:
            op = params["op"]
            params = {k: v for k, v in params.items() if k != "op"}
        for k in sorted(params):
            v = params[k]
            if isinstance(v, tuple):
                attrs.append(f"{k}={'x'.join(str(d) for d in v)}")
            else:
                attrs.append(f"{k}={v}")
        line = f"node {node.id} {op} inputs={','.join(node.input_ids)}"
        if attrs:
            line += f" attrs={';'.join(attrs)}"
        lines.append(line)
    for out in graph.graph_outputs:
        lines.append(f"output {out}")
    return "\n".join(lines) + "\n"


def load_model_file(path) -> ModelGraph:
    """Load a model from disk, sniffing binary ONNX format vs. text."""
    from . import onnx_reader

    with open(path, "rb") as fh:
        data = fh.read()
    name = str(path).rsplit("/", 1)[-1].rsplit(".", 1)[0]
    head = data[:256]
    try:
        text_head = head.decode("utf-8")
    except UnicodeDecodeError:
        return onnx_reader.load_model(data, name=name)
    stripped = text_head.lstrip()
    if stripped.startswith(("graph", "input", "node", "#")):
        return parse_text_model(data.decode("utf-8"), name=name)
    return onnx_reader.load_model(data, name=name)
