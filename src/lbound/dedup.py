"""Layer canonicalization and deduplication.

Two layers are the same when they share operator type, input shapes,
parameters, and data type; weight values never participate. The canonical
string is the authoritative identity::

    <op>|<dtype>|in=<d0xd1x...>,...|<k=v,...>

with keys sorted lexicographically, integers in decimal, floats in shortest
round-trip decimal, and integer tuples joined with ``x``. The 64-bit hash is
an index accelerator only; equality is always decided on the string.

A signature keeps its params as canonical values (ints, floats, int tuples,
strings), not as rendered text, so consumers read them without parsing.
``parse_signature`` accepts only a layer a graph could produce: it runs the
parsed values through :func:`lbound.model_ir.infer_layer`, the same shape
rules a graph layer passes.
"""

from __future__ import annotations

import hashlib
import json
import urllib.parse
from dataclasses import dataclass, field

from .errors import ModelParseError, ShapeInferenceError, ShapeStateError
from .model_ir import (
    ACTIVATION_OPS,
    DTYPES,
    POOL_OPS,
    LayerNode,
    ModelGraph,
    TensorShape,
    infer_layer,
    parse_attr_value,
)

# ---------------------------------------------------------------------------
# Layer-type -> library API mapping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApiMapping:
    layer_type: str
    api_name: str
    library: str  # "cudnn" | "cublas" | "none"
    tensor_core: bool


_ROWS = [
    ApiMapping("Convolution", "cudnnConvolutionForward", "cudnn", True),
    ApiMapping("Activation", "cudnnActivationForward", "cudnn", False),
    ApiMapping("BatchNorm", "cudnnBatchNormalizationForwardInference", "cudnn", False),
    ApiMapping("ConvBiasActivation", "cudnnConvolutionBiasActivationForward", "cudnn", True),
    ApiMapping("RNN", "cudnnRNNForwardInference", "cudnn", True),
    ApiMapping("Dropout", "cudnnDropoutForward", "cudnn", False),
    ApiMapping("Pooling", "cudnnPoolingForward", "cudnn", False),
    ApiMapping("Softmax", "cudnnSoftmaxForward", "cudnn", False),
    ApiMapping("Add", "cudnnAddTensor", "cudnn", False),
    ApiMapping("Elementwise", "cudnnOpTensor", "cudnn", False),
    ApiMapping("Rescale", "cudnnScaleTensor", "cudnn", False),
    ApiMapping("GEMM", "cublasGemmEx", "cublas", True),
    ApiMapping("GEMV", "cublasSgemv", "cublas", False),
]

API_TABLE: dict[str, ApiMapping] = {row.layer_type: row for row in _ROWS}

_OP_TO_ROW: dict[str, str] = {
    "Conv": "Convolution",
    "BatchNorm": "BatchNorm",
    "Softmax": "Softmax",
    "Add": "Add",
    "Mul": "Elementwise",
    "Dropout": "Dropout",
    "Gemm": "GEMM",
    "MatMul": "GEMM",
}
_OP_TO_ROW.update({op: "Activation" for op in ACTIVATION_OPS})
_OP_TO_ROW.update({op: "Pooling" for op in POOL_OPS})


def api_for_op(op_type: str) -> ApiMapping | None:
    """Library API backing an operator, or None for unsupported layers."""
    row = _OP_TO_ROW.get(op_type)
    return API_TABLE[row] if row else None


def is_supported(op_type: str) -> bool:
    return api_for_op(op_type) is not None


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerSignature:
    """The unique-layer key shared by spec generation, the database and the analyzer.

    ``params`` holds key-sorted (key, canonical value) pairs, the values that
    ``model_ir.infer_layer`` produces, and ``parse_signature`` validates a
    string through that same function. Equality and hashing use only
    ``canonical_string``.
    """

    op_type: str = field(compare=False)
    dtype: str = field(compare=False)
    in_dims: tuple[tuple[int, ...], ...] = field(compare=False)
    params: tuple[tuple[str, object], ...] = field(compare=False)
    canonical_string: str
    hash64: str = field(compare=False)

    def with_dtype(self, dtype: str) -> "LayerSignature":
        if dtype == self.dtype:
            return self
        return _build(self.op_type, dtype, self.in_dims, self.params)

    def param(self, key: str, default=None):
        """Canonical value of one param (int, float, int tuple or string)."""
        return next((v for k, v in self.params if k == key), default)


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


def _build(op_type: str, dtype: str, in_dims, params) -> LayerSignature:
    in_part = ",".join("x".join(str(d) for d in dims) for dims in in_dims)
    param_part = ",".join(f"{k}={render_value(v)}" for k, v in params)
    canonical = f"{op_type}|{dtype}|in={in_part}|{param_part}"
    h = hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).hexdigest()
    return LayerSignature(op_type, dtype, tuple(tuple(d) for d in in_dims),
                          tuple(params), canonical, h)


def signature(layer: LayerNode, dtype: str) -> LayerSignature:
    """Canonical signature of a shape-inferred layer.

    Independent of node id, graph position, and weight values.
    """
    if layer.in_shapes is None or layer.out_shapes is None:
        raise ShapeStateError(
            f"node {layer.id!r} has no inferred shapes; run infer_shapes first"
        )
    in_dims = tuple(s.dims for s in layer.in_shapes)
    params = tuple((k, layer.params[k]) for k in sorted(layer.params))
    return _build(layer.op_type, dtype, in_dims, params)


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
        in_dims = [TensorShape(tuple(int(d) for d in chunk.split("x"))).dims
                   for chunk in parts[2][3:].split(",")]
        for pair in parts[3].split(",") if parts[3] else ():
            k, sep, v = pair.partition("=")
            if not sep:
                raise ValueError(f"bad param {pair!r}")
            value = parse_attr_value(v)
            params[k] = urllib.parse.unquote(value) if isinstance(value, str) else value
        params, _dims, _macs = infer_layer(op_type, params, in_dims, "signature")
    except (ValueError, ShapeInferenceError) as exc:
        raise ModelParseError(f"bad signature {canonical!r}: {exc}") from exc
    sig = _build(op_type, dtype, in_dims, sorted(params.items()))
    if sig.canonical_string != canonical:
        raise ModelParseError(f"signature string {canonical!r} is not canonical")
    return sig


# ---------------------------------------------------------------------------
# Unique-layer statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelLayerStats:
    model: str
    total: int
    unique: int

    @property
    def percent(self) -> float:
        return 100.0 * self.unique / self.total if self.total else 0.0


@dataclass
class UniqueLayerReport:
    signatures: set[LayerSignature]
    per_model: list[ModelLayerStats]
    pooled: ModelLayerStats


def unique_layers(models: list[ModelGraph], dtype: str = "f32") -> UniqueLayerReport:
    """Distinct layer signatures within and across models, with stats."""
    pooled: set[LayerSignature] = set()
    per_model: list[ModelLayerStats] = []
    total = 0
    for model in models:
        sigs = {signature(node, dtype) for node in model.nodes.values()}
        n = len(model.nodes)
        per_model.append(ModelLayerStats(model.name, n, len(sigs)))
        pooled |= sigs
        total += n
    return UniqueLayerReport(pooled, per_model, ModelLayerStats("pooled", total, len(pooled)))


@dataclass(frozen=True)
class OpCoverage:
    op_type: str
    count: int
    supported: bool
    share_percent: float


@dataclass
class CoverageReport:
    model: str
    total: int
    supported: int
    by_op: list[OpCoverage]

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
    supported = sum(n for op, n in counts.items() if is_supported(op))
    by_op = [
        OpCoverage(op, n, is_supported(op), 100.0 * n / total if total else 0.0)
        for op, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
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
