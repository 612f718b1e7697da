"""Benchmark spec generation from unique layers.

Every convolution expands over all eight algorithm choices by default; the
runner decides per shape whether an algorithm is actually usable, so
applicability is a result rather than a generation-time filter. NHWC layout
applies only to f16 convolution-family specs. Fused specs carry the
signature of the pattern head (the convolution) plus the pattern id, so
fused and unfused results coexist in the database.

A spec's identity is its signature, its algorithm or fusion pattern, and
its layout. The signature fixes its dtype, and its call comes from
``dedup``: ``FUSED_API`` for a fused spec, else the op's entry in
``OP_APIS``. The manifest's ``dtype`` and ``api`` fields are derived on
write and checked on read.
"""

from __future__ import annotations

import json
import math

from .dedup import (FUSED_API, LayerSignature, api_for_op, layer_signatures, parse_signature,
                    render_value)
from .errors import ConfigError, LboundError, ModelParseError
from .model_ir import (  # the vocabulary is re-bound here for spec callers
    ACTIVATION_OPS, DTYPES, FUSION_PATTERNS, LAYOUTS, ConvAlgorithm, Frozen, ModelGraph,
    _b_operand, is_weight_key)


class BenchmarkSpec(Frozen):
    """One benchmark of a layer; ``dtype`` and ``api_name`` derive from the rest."""

    def __init__(self, signature: LayerSignature, algorithm: ConvAlgorithm | None,
                 layout: str, fused: str | None):
        if layout not in LAYOUTS:
            raise ConfigError(f"unknown layout {layout!r}")
        if fused is not None and fused not in FUSION_PATTERNS:
            raise ConfigError(f"unknown fusion pattern {fused!r}")
        if api_for_op(signature.layer.op_type) is None:
            raise ConfigError(f"no library API for {signature.layer.op_type} layer "
                              f"{signature.canonical_string!r}")
        if (algorithm is not None) + (fused is not None) != (signature.layer.op_type == "Conv"):
            raise ConfigError(f"{signature.layer.op_type} spec: Conv takes one algorithm "
                              "or fused pattern, other ops neither")
        self._set("signature", signature)
        self._set("algorithm", algorithm)
        self._set("layout", layout)
        self._set("fused", fused)

    @property
    def dtype(self) -> str:
        return self.signature.dtype

    @property
    def api_name(self) -> str:
        """The library call that runs this spec."""
        return FUSED_API if self.fused else api_for_op(self.signature.layer.op_type)


class BenchConfig(Frozen):
    def __init__(self, dtypes: tuple[str, ...] = ("f32", "f16"),
                 layouts: tuple[str, ...] = ("NCHW",),
                 algorithms: tuple[ConvAlgorithm, ...] = tuple(ConvAlgorithm)):
        for name, values in (("dtype", dtypes), ("layout", layouts), ("algorithm", algorithms)):
            if not values:
                raise ConfigError(f"config needs at least one {name}")
        for d in dtypes:
            if d not in DTYPES:
                raise ConfigError(f"unknown dtype {d!r}")
        for lay in layouts:
            if lay not in LAYOUTS:
                raise ConfigError(f"unknown layout {lay!r}")
        self._set("dtypes", dtypes)
        self._set("layouts", layouts)
        self._set("algorithms", algorithms)


class FusionSite(Frozen):
    """One occurrence of a fusion pattern in a graph."""

    def __init__(self, head_signature: LayerSignature, pattern_id: str,
                 member_ids: tuple[str, ...]):
        self._set("head_signature", head_signature)
        self._set("pattern_id", pattern_id)
        self._set("member_ids", member_ids)


def fusion_candidates(graph: ModelGraph, dtype: str = "f32") -> list[FusionSite]:
    """Each Conv fused with the bias Add it alone feeds, and with the
    activation that Add alone feeds when there is one.

    A bias Add has one data input, its bias arriving as a recorded weight
    operand, and the activation one data input too, so each member after
    the head has one producer and no node joins two sites. Sites follow
    topological order.
    """
    sites: list[FusionSite] = []
    sigs = layer_signatures(graph, dtype)
    for nid in graph.order:
        if graph.nodes[nid].op_type != "Conv":
            continue
        add = _sole_consumer(graph, nid, ("Add",))
        if add is None or not any(is_weight_key(k)
                                  for k in graph.layers[graph.layer_of[add]].params):
            continue
        act = _sole_consumer(graph, add, ACTIVATION_OPS)
        sites.append(FusionSite(
            head_signature=sigs[graph.layer_of[nid]],
            pattern_id="conv_bias" if act is None else "conv_bias_act",
            member_ids=(nid, add) if act is None else (nid, add, act),
        ))
    return sites


def _sole_consumer(graph: ModelGraph, nid: str, ops: tuple[str, ...]) -> str | None:
    """The one consumer of ``nid`` when it is one of ``ops`` with one data input."""
    outputs = graph.nodes[nid].output_ids
    if len(outputs) != 1:
        return None
    nxt = graph.nodes[outputs[0]]
    return nxt.id if nxt.op_type in ops and len(nxt.input_ids) == 1 else None


def generate_specs(uniques: set[LayerSignature], config: BenchConfig,
                   fusion_sites: list[FusionSite] | None = None) -> list[BenchmarkSpec]:
    """Expand unique layers into benchmark specs, deterministically ordered."""
    if not uniques:
        raise ConfigError("no unique layers to generate benchmarks for")
    specs: list[BenchmarkSpec] = []
    for sig in sorted(uniques, key=lambda s: s.canonical_string):
        if api_for_op(sig.layer.op_type) is None:
            continue
        conv = sig.layer.op_type == "Conv"
        for typed in map(sig.with_dtype, config.dtypes):  # one signature per dtype
            for layout in _applicable_layouts(config.layouts, typed.dtype) if conv else ["NCHW"]:
                for algo in config.algorithms if conv else (None,):
                    specs.append(BenchmarkSpec(typed, algo, layout, None))
    # Sites with the same head layer and pattern share their specs.
    heads = {(s.head_signature.canonical_string, s.pattern_id): s.head_signature
             for s in fusion_sites or ()}
    for (_canonical, pattern_id), head in sorted(heads.items()):
        for typed in map(head.with_dtype, config.dtypes):
            for layout in _applicable_layouts(config.layouts, typed.dtype):
                specs.append(BenchmarkSpec(typed, None, layout, pattern_id))
    return specs


def _applicable_layouts(layouts: tuple[str, ...], dtype: str) -> list[str]:
    out = [lay for lay in layouts if lay == "NCHW" or dtype == "f16"]
    return out or ["NCHW"]


def delta_specs(specs: list[BenchmarkSpec], db, system: str) -> list[BenchmarkSpec]:
    """Specs with no stored result for ``system``; order preserved."""
    return [spec for spec in specs if not db.has_spec(system, spec)]


# ---------------------------------------------------------------------------
# Manifest (canonical interchange)
# ---------------------------------------------------------------------------

def manifest_lines(specs: list[BenchmarkSpec]) -> str:
    """Serialize specs as JSON lines with a stable field order."""
    lines = []
    for spec in specs:
        lines.append(json.dumps({
            "signature": spec.signature.canonical_string,
            "api": spec.api_name,
            "algorithm": spec.algorithm.name if spec.algorithm else None,
            "dtype": spec.dtype,
            "layout": spec.layout,
            "fused_pattern": spec.fused,
        }, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def parse_manifest(text: str) -> list[BenchmarkSpec]:
    """Inverse of :func:`manifest_lines`.

    A bad line raises ``ModelParseError`` with its line number, and so does
    a ``dtype`` or ``api`` other than the one the spec implies.
    """
    # A layer repeats once per algorithm, dtype and layout. Each signature
    # string is looked up once, and each layer inferred once: a second
    # dtype's signature is rendered from the layer already parsed.
    sigs: dict[str, LayerSignature] = {}
    layers: dict[tuple[str, str], LayerSignature] = {}  # (op, rest) -> parsed
    specs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict) or not isinstance(rec.get("signature"), str):
                raise ValueError("expected a JSON object with a string signature")
            canonical = rec["signature"]
            sig = sigs.get(canonical)
            if sig is None:
                op, _, rest = canonical.partition("|")
                dtype, _, rest = rest.partition("|")
                parsed = layers.get((op, rest))
                if parsed is not None and dtype in DTYPES:
                    sig = parsed.with_dtype(dtype)
                else:  # a new layer, or a line that parse_signature refuses
                    sig = layers[op, rest] = parse_signature(canonical)
                sigs[canonical] = sig
            algo = ConvAlgorithm[rec["algorithm"]] if rec["algorithm"] else None
            spec = BenchmarkSpec(sig, algo, rec["layout"], rec["fused_pattern"])
            for name, implied in (("dtype", spec.dtype), ("api", spec.api_name)):
                if rec[name] != implied:
                    raise ValueError(f"{name} {rec[name]!r} disagrees with the signature "
                                     f"and pattern, which imply {implied!r}")
            specs.append(spec)
        except (KeyError, TypeError, ValueError, LboundError) as exc:
            raise ModelParseError(f"bad manifest line: {exc}", offset=lineno) from exc
    return specs


# ---------------------------------------------------------------------------
# Source emission
# ---------------------------------------------------------------------------

_DTYPE_TOKEN = {"f32": "CUDNN_DATA_FLOAT", "f16": "CUDNN_DATA_HALF"}
_LAYOUT_TOKEN = {"NCHW": "CUDNN_TENSOR_NCHW", "NHWC": "CUDNN_TENSOR_NHWC"}
_TRANS = ("CUBLAS_OP_N", "CUBLAS_OP_T")  # by a Gemm's transA or transB
# A batched GEMM over pointers: operand o's matrix for product i sits at the
# sum over batch dims d of (i's index along d) * steps[o][d] elements.
_POINTER_BATCHED_GEMM = (
    "  for (int i = 0; i < batch; ++i) {",
    "    long long off[3] = {0, 0, 0};",
    "    for (int d = batch_rank - 1, rest = i; d >= 0; rest /= batch_dims[d], --d)",
    "      for (int o = 0; o < 3; ++o) off[o] += rest % batch_dims[d] * steps[o][d];",
    "    a_array[i] = a + off[0], b_array[i] = b + off[1], c_array[i] = c + off[2];",
    "  }",
    "  CUBLAS_CALL(cublasGemmBatchedEx(handle, transa, transb, m, n, k,",
    "      &alpha, a_array, lda, b_array, ldb, &beta, c_array, ldc, batch));",
)


def spec_filename(spec: BenchmarkSpec) -> str:
    slot = spec.fused or (spec.algorithm.name if spec.algorithm else "none")
    suffix = "_nhwc" if spec.layout == "NHWC" else ""
    return f"{spec.signature.hash64}_{slot}_{spec.dtype}{suffix}.gen.cpp"


def emit_benchmark_source(spec: BenchmarkSpec) -> str:
    """Render one C++ micro-benchmark body for a spec.

    Emitted source is a convenience artifact: it is never parsed back or
    compiled here. The header embeds the canonical signature string, so results
    trace to their layer, and ``BENCH`` names ``bench_`` and the file's stem.
    """
    sig, layer = spec.signature, spec.signature.layer
    header = [
        "// auto-generated micro-benchmark, do not edit",
        f"// signature: {sig.canonical_string}",
        f"// api: {spec.api_name}  dtype: {spec.dtype}  layout: {spec.layout}"
        + (f"  fused: {spec.fused}" if spec.fused else ""),
    ]
    cublas = spec.api_name.startswith("cublas")
    include = "#include <cublas_v2.h>" if cublas else "#include <cudnn.h>"
    lines = header + [include, '#include "bench_runtime.h"', ""]
    params = [(key, render_value(layer.params[key])) for key in sorted(layer.params)]
    in_dims = ", ".join("{" + _csv(dims) + "}" for dims in layer.in_dims)
    lines.append(f"// inputs: {in_dims}")
    for key, value in params:
        lines.append(f"// {key}: {value}")
    lines.append(f"BENCH(bench_{spec_filename(spec).removesuffix('.gen.cpp')}) {{")
    lines.append(f"  const cudnnDataType_t data_type = {_DTYPE_TOKEN[spec.dtype]};")
    if layer.op_type == "Conv" or spec.fused:
        lines.append(f"  const cudnnTensorFormat_t layout = {_LAYOUT_TOKEN[spec.layout]};")
        lines.append(f"  const int x_dims[4] = {{{_csv(layer.in_dims[0])}}};")
        lines.append(f"  const int w_dims[4] = {{{_csv(layer.params['w1'])}}};")
        lines.append(f"  const int pads[4] = {{{_csv(layer.params['pads'])}}};")
        lines.append(f"  const int strides[2] = {{{_csv(layer.params['strides'])}}};")
        lines.append(f"  const int dilations[2] = {{{_csv(layer.params['dilations'])}}};")
        lines.append(f"  const int group = {layer.params['group']};")
        if spec.fused:
            # cuDNN documents IMPLICIT_PRECOMP_GEMM as the one algorithm it
            # enables with an identity activation, which conv_bias uses.
            lines.append(f"  const cudnnConvolutionFwdAlgo_t algo = {ConvAlgorithm.IPGEMM.token};")
            lines.append("  // bias and activation applied by the fused call")
            lines.append(f"  CUDNN_CALL({spec.api_name}(handle, &alpha1, x_desc, x, w_desc, w,")
            lines.append("      conv_desc, algo, workspace, workspace_size, &alpha2,")
            lines.append("      z_desc, z, bias_desc, bias, act_desc, y_desc, y));")
        else:
            lines.append(f"  const cudnnConvolutionFwdAlgo_t algo = {spec.algorithm.token};")
            lines.append(f"  CUDNN_CALL({spec.api_name}(handle, &alpha, x_desc, x, w_desc, w,")
            lines.append("      conv_desc, algo, workspace, workspace_size, &beta, y_desc, y));")
    elif cublas:
        gemm = layer.op_type == "Gemm"  # a MatMul never transposes
        transa, transb = (_TRANS[bool(gemm and layer.params[f])] for f in ("transA", "transB"))
        lines.append(f"  const cublasOperation_t transa = {transa}, transb = {transb};")
        out = layer.out_dims
        a, b = layer.in_dims[0], _b_operand(layer.params, layer.in_dims)
        if not gemm and len(b) > 2:
            # B, a weight or a data input, has batch dims: one m x n product per batch.
            m, n, batch = out[-2], out[-1], math.prod(out[:-2])
            k = layer.macs // (batch * m * n)
            operands = ((a, m * k), (b, k * n), (out, m * n))
            lines.append(f"  const int m = {m}, n = {n}, k = {k}, batch = {batch};")
            rank = len(out) - 2
            strided = all(math.prod(dims[:-2]) == 1
                          or (1,) * (rank + 2 - len(dims)) + dims[:-2] == out[:-2]
                          for dims, _size in operands)
            if strided:
                # Each operand has the output's batch dims, its matrices a
                # stride apart, or all-1 batch dims and stride 0.
                sa, sb, sc = (0 if math.prod(dims[:-2]) == 1 else size
                              for dims, size in operands)
                lines.append(
                    f"  const long long stride_a = {sa}, stride_b = {sb}, stride_c = {sc};")
                lines.append("  CUBLAS_CALL(cublasGemmStridedBatchedEx(handle, transa, transb,")
                lines.append("      m, n, k, &alpha, a, lda, stride_a, b, ldb, stride_b,")
                lines.append("      &beta, c, ldc, stride_c, batch));")
            else:
                # An operand broadcasts along some batch dims but not all, so
                # no one stride reaches its matrices: each product gets its
                # own pointers, offset by a step per batch dim.
                steps = ", ".join("{" + _csv(_batch_steps(dims, size, rank)) + "}"
                                  for dims, size in operands)
                lines.append(f"  const int batch_rank = {rank}, "
                             f"batch_dims[{rank}] = {{{_csv(out[:-2])}}};")
                lines.append(f"  const long long steps[3][{rank}] = {{{steps}}};  // a, b, c")
                lines.extend(_POINTER_BATCHED_GEMM)
        else:
            # B is shared: C is m x n with every leading output dim folded
            # into m, and k is the layer's MAC count over the m * n outputs.
            m, n = math.prod(out[:-1]), out[-1]
            lines.append(f"  const int m = {m}, n = {n}, k = {layer.macs // (m * n)};")
            lines.append(f"  CUBLAS_CALL({spec.api_name}(handle, transa, transb, m, n, k,")
            lines.append("      &alpha, a, lda, b, ldb, &beta, c, ldc));")
    else:
        lines.append(f"  const int x_dims[] = {{{_csv(layer.in_dims[0])}}};")
        for key, value in params:
            lines.append(f"  // param {key} = {value}")
        lines.append(f"  CUDNN_CALL({spec.api_name}(handle, /* descriptors from dims above */")
        lines.append("      &alpha, x_desc, x, &beta, y_desc, y));")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _batch_steps(dims: tuple[int, ...], size: int, rank: int) -> list[int]:
    """Elements between an operand's consecutive ``size``-element matrices
    along each of the output's ``rank`` batch dims; 0 where it broadcasts."""
    batch = (1,) * (rank + 2 - len(dims)) + dims[:-2]
    return [0 if d == 1 else size * math.prod(batch[i + 1:]) for i, d in enumerate(batch)]


def _csv(dims: tuple[int, ...]) -> str:
    return ",".join(str(d) for d in dims)
