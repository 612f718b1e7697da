"""Layer canonicalization and deduplication.

Two layers are the same when they share operator type, input shapes,
parameters, and data type; weight values never participate. The canonical
string is the authoritative identity::

    <op>|<dtype>|in=<d0xd1x...>,...|<k=v,...>

with keys sorted lexicographically, integers in decimal, floats in shortest
round-trip decimal, and integer tuples joined with ``x``; numbers are read
back only in those ASCII spellings. Equality is decided on the string. The
64-bit hash (``hash64``) names a layer's emitted source files; the database
stores it beside the signature as record data, and only ``db import``
checks it.

A signature is a layer at a dtype: it holds the :class:`lbound.model_ir.Layer`
that inference found, so consumers read its op, input and output dims,
canonical params and MAC count without parsing or inferring it again. A
graph's signatures hold the graph's own layers. ``parse_signature`` accepts
only a layer a graph could produce: it runs the parsed values through
:func:`lbound.model_ir.infer_layer`, the same shape rules a graph layer
passes, and its signature holds the layer that returns.
"""

from __future__ import annotations

import hashlib
import json
import urllib.parse

from .errors import ModelParseError, ShapeInferenceError, ShapeStateError
from .model_ir import (
    ACTIVATION_OPS,
    DTYPES,
    POOL_OPS,
    Frozen,
    Layer,
    ModelGraph,
    infer_layer,
    parse_attr_value,
    parse_dims,
)

# ---------------------------------------------------------------------------
# Op -> library call
# ---------------------------------------------------------------------------

# The cuDNN or cuBLAS call that runs each supported op; a call's library is
# its name's prefix. A fused spec runs through ``FUSED_API`` instead, with
# an identity activation for bias-only fusion. An f16 spec runs at the
# tensor rate when its call is one of ``TENSOR_CORE_APIS``.
OP_APIS: dict[str, str] = {
    "Conv": "cudnnConvolutionForward",
    "BatchNorm": "cudnnBatchNormalizationForwardInference",
    "Softmax": "cudnnSoftmaxForward",
    "Add": "cudnnAddTensor",
    "Mul": "cudnnOpTensor",
    "Dropout": "cudnnDropoutForward",
    "Gemm": "cublasGemmEx",
    "MatMul": "cublasGemmEx",
}
OP_APIS.update({op: "cudnnActivationForward" for op in ACTIVATION_OPS})
OP_APIS.update({op: "cudnnPoolingForward" for op in POOL_OPS})
FUSED_API = "cudnnConvolutionBiasActivationForward"
TENSOR_CORE_APIS = frozenset({"cudnnConvolutionForward", FUSED_API, "cublasGemmEx"})


def api_for_op(op_type: str) -> str | None:
    """Name of the library call backing an operator, or None for unsupported layers."""
    return OP_APIS.get(op_type)


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

class LayerSignature(Frozen):
    """The unique-layer key shared by spec generation, the database and the analyzer.

    ``layer`` is the inferred layer and ``dtype`` the data type it runs at;
    ``canonical_string`` renders both. Equality and hashing use only
    ``canonical_string``.
    """

    def __init__(self, layer: Layer, dtype: str, canonical_string: str, hash64: str):
        self._set("layer", layer)
        self._set("dtype", dtype)
        self._set("canonical_string", canonical_string)
        self._set("hash64", hash64)

    def __eq__(self, other):
        if not isinstance(other, LayerSignature):
            return NotImplemented
        return self.canonical_string == other.canonical_string

    def __hash__(self):
        return hash(self.canonical_string)

    def with_dtype(self, dtype: str) -> "LayerSignature":
        return self if dtype == self.dtype else signature(self.layer, dtype)


def render_value(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return "x".join(str(int(v)) for v in value)
    return urllib.parse.quote(str(value), safe="")


def signature(layer: Layer, dtype: str) -> LayerSignature:
    """Canonical signature of one inferred layer at ``dtype``.

    Independent of node id, graph position, and weight values.
    """
    in_part = ",".join("x".join(str(d) for d in dims) for dims in layer.in_dims)
    param_part = ",".join(f"{k}={render_value(layer.params[k])}" for k in sorted(layer.params))
    canonical = f"{layer.op_type}|{dtype}|in={in_part}|{param_part}"
    h = hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).hexdigest()
    return LayerSignature(layer, dtype, canonical, h)


def layer_signatures(graph: ModelGraph, dtype: str) -> list[LayerSignature]:
    """The graph's signature table at ``dtype``: one signature per unique layer.

    Nodes hold what was loaded and layers hold what inference found, so the
    table is indexed like ``graph.layers``: a node reads its signature at
    ``graph.layer_of[node_id]``. Built with one :func:`signature` call per
    layer on first use and kept on the graph, so each (graph, dtype) builds
    it once; a graph without a layer table raises ``ShapeStateError``.
    """
    table = graph.signatures.get(dtype)
    if table is None:
        if graph.nodes and not graph.layers:
            raise ShapeStateError(
                f"graph {graph.name!r} has no layer table; run infer_shapes first")
        table = graph.signatures[dtype] = [signature(layer, dtype) for layer in graph.layers]
    return table


def parse_signature(canonical: str) -> LayerSignature:
    """Inverse of ``LayerSignature.canonical_string`` (byte-faithful).

    Accepts only a layer a graph could produce: the params must be what
    ``model_ir.infer_layer`` makes of them for these input dims, rendered in
    key order. Anything else raises ``ModelParseError``.
    """
    parts = canonical.split("|") if isinstance(canonical, str) else ()
    if len(parts) != 4 or not parts[2].startswith("in="):
        raise ModelParseError(f"bad signature string {canonical!r}")
    op_type, dtype = parts[0], parts[1]
    params: dict = {}
    try:
        if dtype not in DTYPES:
            raise ValueError(f"unknown dtype {dtype!r}")
        in_dims = [parse_dims(chunk) for chunk in parts[2][3:].split(",")]
        for pair in parts[3].split(",") if parts[3] else ():
            k, sep, v = pair.partition("=")
            if not sep:
                raise ValueError(f"bad param {pair!r}")
            value = parse_attr_value(v)
            params[k] = urllib.parse.unquote(value) if isinstance(value, str) else value
        params, dims, n_macs = infer_layer(op_type, params, in_dims)
    except (ValueError, ShapeInferenceError) as exc:
        raise ModelParseError(f"bad signature {canonical!r}: {exc}") from exc
    sig = signature(Layer(op_type, params, tuple(in_dims), dims, n_macs), dtype)
    if sig.canonical_string != canonical:
        raise ModelParseError(f"signature string {canonical!r} is not canonical")
    return sig


# ---------------------------------------------------------------------------
# Unique-layer statistics
# ---------------------------------------------------------------------------

class ModelLayerStats(Frozen):
    def __init__(self, model: str, total: int, unique: int):
        self._set("model", model)
        self._set("total", total)
        self._set("unique", unique)

    @property
    def percent(self) -> float:
        return 100.0 * self.unique / self.total if self.total else 0.0


class UniqueLayerReport:
    def __init__(self, signatures: set[LayerSignature], per_model: list[ModelLayerStats],
                 pooled: ModelLayerStats):
        self.signatures = signatures
        self.per_model = per_model
        self.pooled = pooled


def unique_layers(models: list[ModelGraph], dtype: str = "f32") -> UniqueLayerReport:
    """Distinct layer signatures within and across models, with stats."""
    pooled: set[LayerSignature] = set()
    per_model: list[ModelLayerStats] = []
    total = 0
    for model in models:
        sigs = set(layer_signatures(model, dtype))
        n = len(model.nodes)
        per_model.append(ModelLayerStats(model.name, n, len(sigs)))
        pooled |= sigs
        total += n
    return UniqueLayerReport(pooled, per_model, ModelLayerStats("pooled", total, len(pooled)))


class OpCoverage(Frozen):
    def __init__(self, op_type: str, count: int, supported: bool, share_percent: float):
        self._set("op_type", op_type)
        self._set("count", count)
        self._set("supported", supported)
        self._set("share_percent", share_percent)


class CoverageReport:
    def __init__(self, model: str, total: int, supported: int, by_op: list[OpCoverage]):
        self.model = model
        self.total = total
        self.supported = supported
        self.by_op = by_op

    @property
    def percent(self) -> float:
        return 100.0 * self.supported / self.total if self.total else 0.0


def support_coverage(model: ModelGraph) -> CoverageReport:
    """Share of layers backed by a cuDNN/cuBLAS API, with per-op breakdown."""
    counts: dict[str, int] = {}
    for node in model.nodes.values():
        op = node.op_type
        if op == "Opaque" and "op" in node.params:
            op = f"Opaque({node.params['op']})"
        counts[op] = counts.get(op, 0) + 1
    total = len(model.nodes)
    by_op = [
        OpCoverage(op, n, api_for_op(op) is not None, 100.0 * n / total if total else 0.0)
        for op, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    supported = sum(row.count for row in by_op if row.supported)
    return CoverageReport(model.name, total, supported, by_op)


def stats_jsonl(report: UniqueLayerReport) -> str:
    """One record per model plus the pooled row, as JSON lines."""
    lines = []
    for st in report.per_model + [report.pooled]:
        lines.append(json.dumps(
            {"model": st.model, "total": st.total, "unique": st.unique,
             "percent": round(st.percent, 4)},
            separators=(",", ":"),
        ))
    return "\n".join(lines) + "\n"
