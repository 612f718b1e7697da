"""Model graph IR: loading, shape inference, topological order, MAC counts.

A model is a DAG of layer nodes. Two loaders produce the same IR: a binary
ONNX-format reader (see :mod:`lbound.onnx_reader`) and a line-based text
format used for fixtures and small experiments. Weight tensors are recorded
by shape only; their values are discarded at load time. Both loaders end in
:func:`validate`, whose one walk over the edges checks them, fills each
node's consumer list (``output_ids``), counts in-degrees and, for a graph
that declares no output, takes every node without a consumer as one. It
stores the :func:`topo_order` those in-degrees give as ``ModelGraph.order``,
which every walk over the graph reads.

Nodes hold the edges and what was loaded; layers hold what inference found.
:func:`infer_shapes` leaves the loaded graph alone and returns one over the
same node objects with a layer table: one :class:`Layer` per unique layer in
``ModelGraph.layers``, and each node's index into it in ``layer_of``. Graphs
are immutable after construction; only the per-dtype signature cache that
``dedup.layer_signatures`` keeps on a graph fills later.

Each operator has one rule in the ``_RULES`` table. A rule takes the
recorded params and the data-input dims and returns the canonical params,
the output dims and the MAC count, so everything the package knows about an
op sits in one function; its errors say what is wrong, and
:func:`infer_layer`, which looks the op up there once, names the node.
``SUPPORTED_OPS`` is the table's key set; a loader turns any other op into
``Opaque``, which is kept for connectivity and excluded from lower-bound
latency. Graph inputs are ``(name, dims)`` pairs.

Conv, MaxPool and AveragePool share one window rule, ``_window``. With
``auto_pad`` NOTSET or absent it reads ``pads``, and a pool's ``ceil_mode``
rounds the output up; SAME_UPPER and SAME_LOWER pad so that the output is
ceil(in / stride), an odd unit of padding at the end or at the start; VALID
pads nothing; any other ``auto_pad`` raises. A layer records the pads it
resolved and never ``auto_pad``, so its signature re-infers it; a pool
records ``ceil_mode`` only with explicit pads, and ``dilations`` only when
they are not 1x1.

A model declares its batch as the leading dim of its graph inputs.
:func:`infer_shapes` runs it at another batch by replacing that dim, and,
when every input declares the same one, by replacing it in any literal
Reshape target that leads with it; every other literal shape is kept.

The benchmark vocabulary lives here too, beside the dtypes, layouts and op
groups: the convolution algorithms (``ConvAlgorithm``, ``ALGO_BY_TOKEN``) and
the fusion pattern ids (``FUSION_PATTERNS``), all plain values. The database
and profile readers take it from this module, so reading never loads spec
generation. Which library call runs each op is ``dedup``'s table.

Text model grammar (one directive per line, ``#`` starts a comment)::

    graph <name>
    input <name> <d0>x<d1>x...
    node <id> <op_type> inputs=<csv> attrs=<k=v;...>
    output <id>

A model without ``output`` lines has as outputs the nodes that no node consumes.

Attribute values parse as int, float, ``AxBx...`` integer tuples, or raw
strings. A number counts only in the ASCII spelling that ``str`` or
``repr`` writes (``-?[0-9]+``, a decimal with an optional exponent,
``inf``, ``-inf`` or ``nan``), and dims must be ``x``-joined ASCII
integers. ``w<slot>=<dims>`` records a weight tensor (by shape) feeding the
given input slot, e.g. ``w1=64x3x7x7`` for a convolution filter.
"""

from __future__ import annotations

import codecs
import heapq
import math
import re
from collections.abc import Callable
from enum import Enum

from .errors import GraphStructureError, ModelParseError, ShapeInferenceError

DTYPES = ("f32", "f16")
DTYPE_BYTES = {"f32": 4, "f16": 2}
LAYOUTS = ("NCHW", "NHWC")

# Op groups that spec generation and the API mapping treat alike. The full
# vocabulary is ``SUPPORTED_OPS``, the keys of the rule table below.
ACTIVATION_OPS = ("Relu", "Sigmoid", "Tanh")
POOL_OPS = ("MaxPool", "AveragePool", "GlobalAveragePool")

# Accepted spellings from other toolchains, normalized at load time.
OP_ALIASES = {"BatchNormalization": "BatchNorm"}


class Frozen:
    """Base of the immutable records: setting or deleting an attribute raises.

    A subclass's ``__init__`` stores each field once, in declaration order,
    through ``self._set``, which bypasses the refusal. Records are plain
    classes rather than dataclasses, so defining one runs no generated code.
    """

    __slots__ = ()
    _set = object.__setattr__

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class ConvAlgorithm(Enum):
    """The eight convolution algorithm choices, in library order."""

    IGEMM = "IMPLICIT_GEMM"
    IPGEMM = "IMPLICIT_PRECOMP_GEMM"
    GEMM = "GEMM"
    DRCT = "DIRECT"
    FFT = "FFT"
    TFFT = "FFT_TILING"
    WING = "WINOGRAD"
    WINGNF = "WINOGRAD_NONFUSED"

    @property
    def token(self) -> str:
        """Full library constant, e.g. CUDNN_CONVOLUTION_FWD_ALGO_WINOGRAD."""
        return f"CUDNN_CONVOLUTION_FWD_ALGO_{self.value}"


ALGO_BY_TOKEN = {algo.token: algo for algo in ConvAlgorithm}


# The fusion pattern ids: a Conv with its bias Add and activation, or with
# its bias Add alone. Both run through cuDNN's one fused call, bias-only
# fusion with an identity activation; ``benchgen.fusion_candidates`` finds them.
FUSION_PATTERNS = ("conv_bias_act", "conv_bias")


class LayerNode:
    """One operator as loaded: its op, recorded params and edges.

    ``input_ids`` reference producing nodes or named graph inputs; weight
    tensors never appear as edges, only as ``w<slot>`` shape params.
    """

    def __init__(self, id: str, op_type: str, params: dict | None = None,
                 input_ids: list[str] | None = None, output_ids: list[str] | None = None):
        self.id = id
        self.op_type = op_type
        self.params = {} if params is None else params
        self.input_ids = [] if input_ids is None else input_ids
        self.output_ids = [] if output_ids is None else output_ids


class Layer(Frozen):
    """One unique layer, as :func:`infer_layer` found it for its nodes."""

    def __init__(self, op_type: str, params: dict, in_dims: tuple[tuple[int, ...], ...],
                 out_dims: tuple[int, ...], macs: int):
        self._set("op_type", op_type)
        self._set("params", params)  # canonical params
        self._set("in_dims", in_dims)  # data inputs, in slot order
        self._set("out_dims", out_dims)
        self._set("macs", macs)


class ModelGraph:
    def __init__(self, name: str, nodes: dict[str, LayerNode],
                 graph_inputs: list[tuple[str, tuple[int, ...]]], graph_outputs: list[str],
                 order: tuple[str, ...] = (), layers: tuple[Layer, ...] = (),
                 layer_of: dict[str, int] | None = None):
        self.name = name
        self.nodes = nodes
        self.graph_inputs = graph_inputs
        self.graph_outputs = graph_outputs
        self.order = order  # topological order of ``nodes``, set by ``validate``
        # The layer table and each node's index into it, set by ``infer_shapes``;
        # ``dedup.layer_signatures`` keeps per-dtype signatures of ``layers``.
        self.layers = layers
        self.layer_of = {} if layer_of is None else layer_of
        self.signatures: dict[str, list] = {}


def validate(graph: ModelGraph) -> None:
    """Check edge integrity and acyclicity; fill consumer lists, outputs and ``order``.

    One walk over the edges checks each, appends each node to its
    producers' ``output_ids`` and counts each node's in-degree, which
    :func:`topo_order` then spends. A graph that declares no output takes
    every node without a consumer, in node order.
    """
    nodes = graph.nodes
    input_names = {n for n, _ in graph.graph_inputs}
    for node in nodes.values():
        node.output_ids = []
    indeg: dict[str, int] = {}
    for nid, node in nodes.items():
        if not node.input_ids:
            raise GraphStructureError(
                f"node {nid!r} has no inputs; only declared graph inputs may lack a producer"
            )
        count = 0
        for src in node.input_ids:
            producer = nodes.get(src)
            if producer is not None:
                producer.output_ids.append(nid)
                count += 1
            elif src not in input_names:
                raise GraphStructureError(f"node {nid!r} references unknown input {src!r}")
        indeg[nid] = count
    if not graph.graph_outputs:
        graph.graph_outputs = [nid for nid, node in nodes.items() if not node.output_ids]
    for out in graph.graph_outputs:
        if out not in nodes:
            raise GraphStructureError(f"graph output {out!r} is not a node")
    graph.order = tuple(topo_order(graph, indeg))  # raises on cycles


def topo_order(graph: ModelGraph, indeg: dict[str, int]) -> list[str]:
    """Topological order of node ids; ties broken by node id, ascending.

    Follows the consumer lists (``output_ids``) that :func:`validate` fills
    and spends ``indeg``, each node's count of producing nodes, which
    ``validate`` counts in the same walk. The heap starts from the sorted
    sources and holds only the ids that are ready.
    """
    nodes = graph.nodes
    ready = sorted([nid for nid, d in indeg.items() if not d])
    order: list[str] = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(nid)
        for consumer in nodes[nid].output_ids:
            d = indeg[consumer] - 1
            indeg[consumer] = d
            if not d:
                heapq.heappush(ready, consumer)
    if len(order) != len(nodes):
        remaining = sorted(set(nodes) - set(order))
        culprit = remaining[0]
        back = next(
            (s for s in nodes[culprit].input_ids if s in remaining), remaining[-1]
        )
        raise GraphStructureError(f"graph has a cycle: back edge {back!r} -> {culprit!r}")
    return order


# ---------------------------------------------------------------------------
# Operator rules
# ---------------------------------------------------------------------------

def _as_pair(value, name: str) -> tuple[int, int]:
    if isinstance(value, int):
        return (value, value)
    if isinstance(value, tuple) and len(value) == 2:
        return (int(value[0]), int(value[1]))
    raise ShapeInferenceError(f"bad {name} value {value!r}")


def _as_pads(value) -> tuple[int, int, int, int]:
    # ONNX 2-D order: (h_begin, w_begin, h_end, w_end); asymmetric allowed.
    if isinstance(value, int):
        return (value,) * 4
    if isinstance(value, tuple):
        if len(value) == 2:
            h, w = value
            return (int(h), int(w), int(h), int(w))
        if len(value) == 4:
            return tuple(int(v) for v in value)  # type: ignore[return-value]
    raise ShapeInferenceError(f"bad pads value {value!r}")


def _as_dims(value) -> tuple[int, ...]:
    if isinstance(value, int):
        return (value,)
    return tuple(int(v) for v in value)


_EXPLICIT_PADS = ("NOTSET", "")  # the auto_pad values that read ``pads``


def _window(p, dims, kernel, dilations, ceil) -> tuple[tuple, tuple, tuple[int, int]]:
    """Pads, strides and output H x W of a 2-D window over NCHW ``dims``, by
    the window rule above; ``ceil`` rounds up the output of explicit pads."""
    strides = _as_pair(p.get("strides", 1), "strides")
    (_n, _c, h, w) = dims
    mode = p.get("auto_pad", "")
    if mode in _EXPLICIT_PADS:
        pads = _as_pads(p.get("pads", 0))
    elif mode in ("SAME_UPPER", "SAME_LOWER", "VALID"):
        ceil = False
        totals = [0 if mode == "VALID" else
                  max(0, (-(-size // s) - 1) * s + (k - 1) * d + 1 - size)
                  for size, k, s, d in zip((h, w), kernel, strides, dilations)]
        short, long = [t // 2 for t in totals], [t - t // 2 for t in totals]
        pads = tuple(long + short if mode == "SAME_LOWER" else short + long)
    else:
        raise ShapeInferenceError(
            f"auto_pad {mode!r} is not NOTSET, SAME_UPPER, SAME_LOWER or VALID")
    out = []
    for size, k, s, d, begin, end in zip((h, w), kernel, strides, dilations, pads, pads[2:]):
        span = size + begin + end - (k - 1) * d - 1
        if span < 0:
            raise ShapeInferenceError(
                f"kernel {k} (dilation {d}) larger than padded input {size}+{begin}+{end}")
        out.append(-(-span // s) + 1 if ceil else span // s + 1)
    return pads, strides, tuple(out)


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


def _axis(axis: int, rank: int, *, past_end: bool = False) -> int:
    """``axis`` counted from the front, in ONNX's range [-rank, rank - 1].

    ``past_end`` widens the range to [-rank, rank], for Flatten's split point.
    """
    norm = axis + rank if axis < 0 else axis
    if not 0 <= norm < rank + past_end:
        raise ShapeInferenceError(f"axis {axis} out of range for rank {rank}")
    return norm


def is_weight_key(key: str) -> bool:
    """True for a ``w<slot>`` param, which records a weight operand by its dims."""
    return key.startswith("w") and key[1:].isdigit()


def _with_weights(canonical: dict, p: dict) -> dict:
    return {**canonical, **{k: p[k] for k in sorted(p) if is_weight_key(k)}}


def _conv(p, in_dims):
    dilations = _as_pair(p.get("dilations", 1), "dilations")
    group = int(p.get("group", 1))
    if "w1" in p:
        w1 = p["w1"]
        kernel = _as_pair(p.get("kernel", tuple(w1[2:4])), "kernel")
    elif "kernel" in p and "filters" in p:
        kernel = _as_pair(p["kernel"], "kernel")
        cin = in_dims[0][1]
        w1 = (int(p["filters"]), cin // group, kernel[0], kernel[1])
    else:
        raise ShapeInferenceError("needs w1 dims or kernel+filters attrs")
    w1 = _as_dims(w1)
    (n, c, _h, _w) = in_dims[0]
    if len(w1) != 4:
        raise ShapeInferenceError(f"weight must be rank 4, got {w1}")
    if w1[1] * group != c:
        raise ShapeInferenceError(
            f"input channels {c} do not match weight {w1} with group {group}")
    pads, strides, hw = _window(p, in_dims[0], kernel, dilations, False)
    canonical = {"dilations": dilations, "group": group, "kernel": kernel,
                 "pads": pads, "strides": strides, "w1": w1}
    if "w2" in p:
        canonical["w2"] = p["w2"]
    out = (n, w1[0]) + hw
    return canonical, out, math.prod(out) * math.prod(w1[1:])  # w1 is (K, C/g, R, S)


def _pool(p, in_dims):
    if "kernel" not in p:
        raise ShapeInferenceError("needs kernel dims")
    kernel = _as_pair(p["kernel"], "kernel")
    dilations = _as_pair(p.get("dilations", 1), "dilations")
    # ceil_mode rounds explicit pads only; an auto_pad layer records its pads.
    ceil = bool(p.get("ceil_mode")) and p.get("auto_pad", "") in _EXPLICIT_PADS
    pads, strides, hw = _window(p, in_dims[0], kernel, dilations, ceil)
    canonical = {"kernel": kernel, "pads": pads, "strides": strides}
    if dilations != (1, 1):
        canonical["dilations"] = dilations
    if ceil:
        canonical["ceil_mode"] = 1
    return canonical, in_dims[0][:2] + hw, 0


def _global_average_pool(p, in_dims):
    (n, c, *_rest) = in_dims[0]
    return {}, (n, c, 1, 1), 0


def _b_operand(p: dict, in_dims) -> tuple[int, ...] | None:
    """The second matrix operand: a recorded weight, else the second data input."""
    return tuple(p["w1"]) if "w1" in p else (in_dims[1] if len(in_dims) > 1 else None)


def _gemm(p, in_dims):
    canonical = {"transA": int(p.get("transA", 0)), "transB": int(p.get("transB", 0))}
    for k in ("alpha", "beta"):
        if k in p and float(p[k]) != 1.0:
            canonical[k] = float(p[k])
    canonical = _with_weights(canonical, p)

    a = in_dims[0]
    if len(a) != 2:
        raise ShapeInferenceError(f"expects a rank-2 input, got {a}")
    b = _b_operand(canonical, in_dims)
    if b is None or len(b) != 2:
        raise ShapeInferenceError(f"no rank-2 B operand (got {b})")
    m, k = (a[1], a[0]) if canonical["transA"] else a
    kb, n_out = (b[1], b[0]) if canonical["transB"] else b
    if k != kb:
        raise ShapeInferenceError(f"inner dims differ: A gives {k}, B gives {kb} ({a} vs {b})")
    return canonical, (m, n_out), m * n_out * k


def _matmul(p, in_dims):
    # MatMul keeps every recorded param, as an Opaque layer does.
    canonical = {k: p[k] for k in sorted(p)}
    a = in_dims[0]
    b = _b_operand(canonical, in_dims)
    if b is None:
        raise ShapeInferenceError("no B operand")
    if len(a) < 2 or len(b) < 2:
        raise ShapeInferenceError(f"operands must be rank >= 2, got {a} and {b}")
    if a[-1] != b[-2]:
        raise ShapeInferenceError(f"inner dims differ: {a} vs {b}")
    batch = _broadcast(a[:-2], b[:-2]) if (len(a) > 2 or len(b) > 2) else ()
    if batch is None:
        raise ShapeInferenceError(f"batch dims do not broadcast: {a} vs {b}")
    out = tuple(batch) + (a[-2], b[-1])
    return canonical, out, math.prod(out) * a[-1]


def _elementwise(p, in_dims):
    canonical = _with_weights({}, p)
    out, *rest = [*in_dims, *canonical.values()]
    for d in rest:
        merged = _broadcast(out, d)
        if merged is None:
            raise ShapeInferenceError(f"shapes {out} and {d} do not broadcast")
        out = merged
    return canonical, out, 0


def _concat(p, in_dims):
    if "axis" not in p:
        raise ShapeInferenceError("needs axis")
    canonical = {"axis": int(p["axis"])}
    base = list(in_dims[0])
    axis = _axis(canonical["axis"], len(base))
    for d in in_dims[1:]:
        if len(d) != len(base) or any(
            i != axis and d[i] != base[i] for i in range(len(base))
        ):
            raise ShapeInferenceError(f"shapes {tuple(base)} and {d} differ off-axis")
        base[axis] += d[axis]
    return canonical, tuple(base), 0


def _reshape(p, in_dims):
    if "shape" not in p:
        raise ShapeInferenceError("needs target shape")
    target = _as_dims(p["shape"])
    in_numel = math.prod(in_dims[0])
    out = []
    infer_at = None
    for i, d in enumerate(target):
        if d == 0:
            out.append(in_dims[0][i])
        elif d == -1:
            if infer_at is not None:
                raise ShapeInferenceError("more than one -1 in reshape target")
            infer_at = i
            out.append(1)
        else:
            out.append(d)
    known = math.prod(out)
    if infer_at is not None:
        if in_numel % known:
            raise ShapeInferenceError(f"cannot reshape {in_dims[0]} to {target}")
        out[infer_at] = in_numel // known
        known *= out[infer_at]
    if known != in_numel:
        raise ShapeInferenceError(
            f"cannot reshape {in_dims[0]} ({in_numel} elems) to {target}")
    return {"shape": target}, tuple(out), 0


def _flatten(p, in_dims):
    canonical = {"axis": int(p.get("axis", 1))}
    d = in_dims[0]
    axis = _axis(canonical["axis"], len(d), past_end=True)
    return canonical, (math.prod(d[:axis]), math.prod(d[axis:])), 0


def _unsqueeze(p, in_dims):
    if "axes" not in p:
        raise ShapeInferenceError("needs axes")
    axes = _as_dims(p["axes"])
    out = list(in_dims[0])
    rank = len(out) + len(axes)  # axes index the output
    norm = sorted(_axis(a, rank) for a in axes)
    if len(set(norm)) < len(norm):
        raise ShapeInferenceError(f"duplicate axes in {axes}")
    for ax in norm:
        out.insert(ax, 1)
    return {"axes": axes}, tuple(out), 0


def _squeeze(p, in_dims):
    d = in_dims[0]
    if "axes" not in p:
        return {}, tuple(v for v in d if v != 1) or (1,), 0
    axes = _as_dims(p["axes"])
    norm = {_axis(a, len(d)) for a in axes}
    for a in norm:
        if d[a] != 1:
            raise ShapeInferenceError(f"cannot squeeze non-1 dim {a} of {d}")
    return {"axes": axes}, tuple(v for i, v in enumerate(d) if i not in norm) or (1,), 0


def _transpose(p, in_dims):
    d = in_dims[0]
    perm = _as_dims(p["perm"]) if "perm" in p else tuple(reversed(range(len(d))))
    if sorted(perm) != list(range(len(d))):
        raise ShapeInferenceError(f"bad perm {perm} for rank {len(d)}")
    return {"perm": perm}, tuple(d[i] for i in perm), 0


def _softmax(p, in_dims):
    canonical = {"axis": int(p.get("axis", -1))}
    _axis(canonical["axis"], len(in_dims[0]))
    return canonical, in_dims[0], 0


def _passthrough(canonicalize):
    """Rule for an op whose output has its first input's dims and that counts no MACs."""
    return lambda p, in_dims: (canonicalize(p), in_dims[0], 0)


# op type -> rule: (recorded params, data-input dims) ->
# (canonical params, output dims, MAC count).
_RULES: dict[str, Callable[[dict, list[tuple[int, ...]]],
                           tuple[dict, tuple[int, ...], int]]] = {
    "Conv": _conv,
    "MaxPool": _pool,
    "AveragePool": _pool,
    "GlobalAveragePool": _global_average_pool,
    "Gemm": _gemm,
    "MatMul": _matmul,
    "Add": _elementwise,
    "Mul": _elementwise,
    "Concat": _concat,
    "Reshape": _reshape,
    "Flatten": _flatten,
    "Unsqueeze": _unsqueeze,
    "Squeeze": _squeeze,
    "Transpose": _transpose,
    "BatchNorm": _passthrough(
        lambda p: _with_weights({"epsilon": float(p.get("epsilon", 1e-5))}, p)),
    "Softmax": _softmax,
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
                node_id: str | None = None) -> tuple[dict, tuple[int, ...], int]:
    """Canonical params, output dims and MAC count of one layer.

    The one path from recorded params to a canonical layer, run by graph
    shape inference and by signature parsing; the simulator and source
    emission read the :class:`Layer` these build. ``in_dims`` holds
    the data-input dims in slot order, at least one; weight operands arrive
    in ``params`` as ``w<slot>`` entries. What the op's rule refuses, params or
    input ranks it cannot read, and an empty or non-positive output dim raise
    ``ShapeInferenceError``; this is the one place that prefixes its message
    with the node and op, ``node '<id>' (<op>): ``, when a ``node_id`` is
    given.
    """
    where = "" if node_id is None else f"node {node_id!r} ({op_type}): "
    try:
        p = {k: _as_dims(v) if is_weight_key(k) else v
             for k, v in params.items() if k not in _DROPPED_PARAMS}
        if op_type not in _RULES:
            raise ShapeInferenceError("no shape rule")
        canonical, dims, n_macs = _RULES[op_type](p, in_dims)
        if not dims or min(dims) < 1:
            raise ValueError(f"output dims {dims} are not all positive")
        return canonical, dims, n_macs
    except ShapeInferenceError as exc:
        raise ShapeInferenceError(f"{where}{exc}") from exc
    except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
        raise ShapeInferenceError(f"{where}params or input ranks do not fit: {exc}") from exc


# ---------------------------------------------------------------------------
# Shape inference over a graph
# ---------------------------------------------------------------------------

def _exact(value):
    """A hashable stand-in for a recorded value that equals another only for
    the same type and the same rendering; raises ``TypeError`` when unhashable."""
    if isinstance(value, tuple):
        return (tuple, tuple(map(_exact, value)))
    if isinstance(value, float):
        return (float, repr(value))
    return (type(value), value)


def _rebatched_target(params: dict, declared: tuple[int], batch: int) -> dict:
    """A Reshape's ``params``, its literal target leading with ``batch`` if it
    led with the ``declared`` batch."""
    target = params.get("shape")
    target = (target,) if type(target) is int else target
    if type(target) is tuple and target[:1] == declared:
        return {**params, "shape": (batch,) + target[1:]}
    return params


def infer_shapes(graph: ModelGraph, batch: int) -> ModelGraph:
    """Return ``graph`` at ``batch`` with its layer table.

    The leading dim of every graph input is the batch dim and is replaced
    by ``batch``. The result shares ``graph``'s node objects and order and
    adds ``layers`` and ``layer_of``; ``graph`` itself is left as it was.
    Propagation follows ``graph.order``; idempotent.

    A Reshape's literal target is re-batched too: when every graph input
    declares the same leading dim D and ``batch`` is not D, a target whose
    leading dim is D leads with ``batch`` instead, before its layer key is
    built. A leading ``0`` or ``-1`` stays as it is, and a target that then
    does not fit its input still raises ``ShapeInferenceError``.

    Layers are interned: ``infer_layer`` runs once per layer key, which is
    (op, recorded params, input dims), and every node with that key maps to
    the same :class:`Layer`; a node without params keys as (op, (), input
    dims) at once. The key is type-exact, because Python has
    ``1 == 1.0 == True`` and ``0.0 == -0.0`` while a signature renders each
    of them differently: an Opaque node with ``foo=1`` must not take the
    layer of one with ``foo=1.0``. A node with a recorded value that cannot
    be hashed is a layer of its own.
    """
    if batch < 1:
        raise ShapeInferenceError(f"batch must be >= 1, got {batch}")
    if len(graph.order) != len(graph.nodes):
        raise GraphStructureError(f"graph {graph.name!r} has no order; run validate first")
    inputs = [(name, (batch,) + dims[1:]) for name, dims in graph.graph_inputs]
    by_name = dict(inputs)
    # (D,) when every input declares the one leading dim D and it is not ``batch``
    leads = {dims[:1] for _name, dims in graph.graph_inputs}
    declared = leads.pop() if len(leads) == 1 and (batch,) not in leads else ()
    layers: list[Layer] = []
    layer_of: dict[str, int] = {}
    interned: dict[tuple, int] = {}  # layer key -> layer index
    nodes = graph.nodes
    for nid in graph.order:
        node = nodes[nid]
        # validate checked every edge, and producers precede consumers in order.
        in_dims = tuple([layers[layer_of[src]].out_dims if src in layer_of else by_name[src]
                         for src in node.input_ids])
        op, params = node.op_type, node.params
        if declared and op == "Reshape":
            params = _rebatched_target(params, declared, batch)
        try:
            key = (op, tuple([(k, _exact(v)) for k, v in params.items()]) if params else (),
                   in_dims)
            index = interned.get(key)
        except TypeError:
            key = index = None
        if index is None:
            index = len(layers)
            params, dims, n_macs = infer_layer(op, params, list(in_dims), nid)
            layers.append(Layer(op, params, in_dims, dims, n_macs))
            if key is not None:
                interned[key] = index
        layer_of[nid] = index
    return ModelGraph(graph.name, graph.nodes, inputs, graph.graph_outputs, graph.order,
                      tuple(layers), layer_of)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

# The ASCII spellings of numbers that the text format and signatures take:
# what ``str`` writes for an int and ``repr`` for a float.
_INT = re.compile(r"-?[0-9]+")
_FLOAT = re.compile(r"-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?|-?inf|nan")
_INTS = re.compile(r"-?[0-9]+(?:x-?[0-9]+)*")


def parse_attr_value(text: str):
    """An int, float or ``x``-joined int tuple when ``text`` is spelled as one,
    else ``text``. Only ASCII spellings count: ``1_0``, ``+3`` and ``٣`` are strings."""
    if _INT.fullmatch(text):
        return int(text)
    if _FLOAT.fullmatch(text):
        return float(text)
    if _INTS.fullmatch(text):
        return tuple(int(p) for p in text.split("x"))
    return text


def parse_dims(text: str) -> tuple[int, ...]:
    """``AxBx...`` as a dims tuple; ``ValueError`` unless every dim is an int >= 1."""
    if not _INTS.fullmatch(text):
        raise ValueError(f"dims must be x-joined integers, got {text!r}")
    dims = tuple(int(d) for d in text.split("x"))
    if min(dims) < 1:
        raise ValueError(f"all dims must be positive integers, got {dims!r}")
    return dims


def parse_text_model(text: str, name: str = "model") -> ModelGraph:
    """A graph from the text format above; :func:`validate` ends the load.

    A line that does not parse raises ``ModelParseError`` with the line's
    number as its offset.
    """
    nodes: dict[str, LayerNode] = {}
    graph_inputs: list[tuple[str, tuple[int, ...]]] = []
    outputs: list[str] = []
    graph_name = name

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        kind = tokens[0]
        try:
            if kind == "node":
                nid, op = tokens[1], tokens[2]
                op = OP_ALIASES.get(op, op)
                params: dict = {}
                if op not in SUPPORTED_OPS:
                    params["op"] = op
                    op = "Opaque"
                inputs: list[str] = []
                for tok in tokens[3:]:
                    if tok.startswith("inputs="):
                        # a comprehension, not split's list, which reserves 12 slots
                        inputs = [s for s in tok[len("inputs="):].split(",") if s]
                    elif tok.startswith("attrs="):
                        for pair in tok[len("attrs="):].split(";"):
                            if pair:
                                k, _, v = pair.partition("=")
                                params[k] = parse_attr_value(v)
                    else:
                        raise ValueError(f"unknown token {tok!r}")
                if nid in nodes:
                    raise ValueError(f"duplicate node id {nid!r}")
                nodes[nid] = LayerNode(nid, op, params, inputs)
            elif kind == "input":
                graph_inputs.append((tokens[1], parse_dims(tokens[2])))
            elif kind == "output":
                outputs.append(tokens[1])
            elif kind == "graph":
                graph_name = tokens[1]
            else:
                raise ValueError(f"unknown directive {kind!r}")
        except (IndexError, ValueError) as exc:
            raise ModelParseError(f"bad model line {raw.strip()!r}: {exc}", offset=lineno) from exc

    graph = ModelGraph(graph_name, nodes, graph_inputs, outputs)
    validate(graph)  # an empty ``outputs`` takes the nodes without a consumer
    return graph


def render_text_model(graph: ModelGraph) -> str:
    """Serialize a graph back to the text format (parse round-trips)."""
    lines = [f"graph {graph.name}"]
    for name, dims in graph.graph_inputs:
        lines.append(f"input {name} {'x'.join(map(str, dims))}")
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
    """Load a model from disk, sniffing binary ONNX format vs. text.

    The ONNX reader is imported only when the file is binary.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ModelParseError(f"cannot read {path}: {exc}") from exc
    name = str(path).rsplit("/", 1)[-1].rsplit(".", 1)[0]
    try:  # incremental, so a character cut at byte 256 waits for its next byte
        text_head = codecs.getincrementaldecoder("utf-8")().decode(data[:256])
    except UnicodeDecodeError:
        text_head = ""
    if text_head.lstrip().startswith(("graph", "input", "node", "#")):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelParseError(f"cannot read {path}: {exc}") from exc
        return parse_text_model(text, name=name)
    from . import onnx_reader

    return onnx_reader.load_model(data, name=name)
