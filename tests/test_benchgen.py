"""Fusion sites and the manifest round trip over the thirty-model family,
and emitted benchmark source."""

from __future__ import annotations

import hashlib
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modelzoo as mz
import writer_ref
from lbound import benchgen, dedup
from lbound.errors import ModelParseError
from lbound.model_ir import ACTIVATION_OPS, is_weight_key
from records import fields


def test_manifest_round_trips_for_the_family():
    graphs = [mz.load(text) for _name, text in mz.thirty_model_family()]
    uniques = dedup.unique_layers(graphs).signatures
    sites = [site for graph in graphs for site in benchgen.fusion_candidates(graph)]
    config = benchgen.BenchConfig(layouts=("NCHW", "NHWC"))
    specs = benchgen.generate_specs(uniques, config, fusion_sites=sites)
    assert {s.fused for s in specs} > {None} and {s.layout for s in specs} == {"NCHW", "NHWC"}
    assert all(s.api_name == (dedup.FUSED_API if s.fused
                              else dedup.OP_APIS[s.signature.layer.op_type]) for s in specs)
    text = benchgen.manifest_lines(specs)
    parsed = benchgen.parse_manifest(text)
    assert fields(parsed) == fields(specs)
    assert [(s.dtype, s.api_name) for s in parsed] == [(s.dtype, s.api_name) for s in specs]
    assert benchgen.manifest_lines(parsed) == text


# sha256 of the family's fusion sites at f32 and f16, and of the manifest
# and emitted sources of its specs over NCHW and NHWC, by batch. Pinned
# before the fusion scan became a walk from each Conv; the walk finds the
# same sites the pattern engine did.
FAMILY_DIGESTS = {
    1: {"sites-f32": "c786f891139f4431830e9824bceca4f92ae5dc9fe5b4fc97509511393aba8ed5",
        "sites-f16": "d2682a1fe5df65879c2ba0dba0e780d5dc09922b8715f637c49e3bb9103ceb87",
        "manifest": "2585210e9b1064541459fa5b59a0c169c24bbbfcaf93d5334d95a10fd30536d8",
        "sources": "705c97cc7f204a74c4c9e5b2d8de451b73036906a3bf226f193887304e964818"},
    2: {"sites-f32": "d90bc3bda5962e10472ac91e2b65259ff752c2d5d43b6407865115231bdeb6ec",
        "sites-f16": "063b81b09a9b69119663a829c426febad3b82a6ac15b7db58a04e73f6dee14f7",
        "manifest": "757ec39d0444e25d575d9b51157fc9605cd95c6168af0a3bdc3b63480e86c63e",
        "sources": "2fdcb139cf24512f2fbf66fe052ddce5e8715df20ee0a4b371d74c79b83f3453"},
}


def _family_specs(graphs) -> list[benchgen.BenchmarkSpec]:
    sites = [s for g in graphs for s in benchgen.fusion_candidates(g)]
    return benchgen.generate_specs(dedup.unique_layers(graphs).signatures,
                                   benchgen.BenchConfig(layouts=("NCHW", "NHWC")), sites)


def _family_digests(batch: int) -> dict[str, str]:
    def sha(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    graphs = [mz.load(text, batch) for _name, text in mz.thirty_model_family()]
    got = {}
    for dtype in ("f32", "f16"):
        got[f"sites-{dtype}"] = sha(json.dumps([
            (g.name, s.pattern_id, s.head_signature.canonical_string, s.member_ids)
            for g in graphs for s in benchgen.fusion_candidates(g, dtype)]))
    specs = _family_specs(graphs)
    got["manifest"] = sha(benchgen.manifest_lines(specs))
    got["sources"] = sha("".join(benchgen.emit_benchmark_source(s) for s in specs))
    return got


@pytest.mark.parametrize("batch", [1, 2])
def test_family_sites_manifest_and_sources_hold_their_digests(batch):
    assert _family_digests(batch) == FAMILY_DIGESTS[batch]


def test_each_emitted_function_is_named_by_its_file_stem_and_no_two_alike():
    """Over f32 and f16, NCHW and NHWC, every algorithm and the fused specs."""
    specs = _family_specs([mz.load(text) for _name, text in mz.thirty_model_family()])
    names = [re.search(r"^BENCH\((\w+)\) \{$", benchgen.emit_benchmark_source(spec), re.M)[1]
             for spec in specs]
    assert names == ["bench_" + benchgen.spec_filename(spec).removesuffix(".gen.cpp")
                     for spec in specs]
    assert len(set(names)) == len(names)


def _family_manifest(batch: int) -> str:
    text = benchgen.manifest_lines(_family_specs(
        [mz.load(text, batch) for _name, text in mz.thirty_model_family()]))
    assert hashlib.sha256(text.encode()).hexdigest() == FAMILY_DIGESTS[batch]["manifest"]
    return text


@pytest.mark.parametrize("batch", [1, 2])
def test_parse_manifest_infers_each_layer_once_and_equals_a_parse_of_each_line(
        batch, monkeypatch):
    text = _family_manifest(batch)
    parses = []
    monkeypatch.setattr(benchgen, "parse_signature",
                        lambda s: parses.append(s) or dedup.parse_signature(s))
    got = benchgen.parse_manifest(text)
    assert fields(got) == fields(writer_ref.parse_manifest(text))
    assert benchgen.manifest_lines(got) == text
    # One parse per layer; a layer's other dtype shares the parsed layer.
    layers = {s.signature.layer for s in got}
    assert len(parses) == len(layers) < len({s.signature for s in got})
    assert {sig.split("|", 2)[1] for sig in parses} == {"f32"}


def _manifest_case(bad: str) -> str:
    """A Conv layer's specs at f32 and f16, then ``bad`` on line 5, then a Relu spec."""
    graph = mz.load("graph t\ninput data 1x8x4x4\n" + _HEAD + "node r Relu inputs=c\n")
    config = benchgen.BenchConfig(algorithms=(benchgen.ConvAlgorithm.IGEMM,
                                              benchgen.ConvAlgorithm.FFT))
    specs = benchgen.generate_specs(dedup.unique_layers([graph]).signatures, config)
    lines = benchgen.manifest_lines(specs).splitlines()
    conv = [ln for ln in lines if ln.startswith('{"signature":"Conv|')]
    relu = [ln for ln in lines if ln.startswith('{"signature":"Relu|')]
    assert len(conv) == 4
    rec = json.loads(conv[2])  # an f16 spec of the Conv
    assert rec["dtype"] == "f16"
    if bad == "dtype":  # the layer again, at a dtype the package has not got
        rec["signature"] = rec["signature"].replace("|f16|", "|f64|")
        rec["dtype"] = "f64"
    elif bad == "non-canonical":  # the layer again, its params out of key order
        op, dtype, dims, params = rec["signature"].split("|")
        rec["signature"] = "|".join([op, dtype, dims, ",".join(params.split(",")[::-1])])
    else:
        rec["api"] = "cudnnOpTensor"
    return "\n".join(conv + [json.dumps(rec, separators=(",", ":"))] + relu) + "\n"


@pytest.mark.parametrize("bad", ["dtype", "non-canonical", "api"])
def test_a_bad_repeat_of_a_parsed_layer_raises_at_its_own_line(bad):
    text = _manifest_case(bad)
    errors = []
    for parse in (benchgen.parse_manifest, writer_ref.parse_manifest):
        with pytest.raises(ModelParseError) as exc:
            parse(text)
        errors.append((str(exc.value), exc.value.offset))
    assert errors[0] == errors[1]
    assert errors[0][1] == 5
    assert {"dtype": "unknown dtype 'f64'", "non-canonical": "is not canonical",
            "api": "api 'cudnnOpTensor' disagrees"}[bad] in errors[0][0]


_HEAD = "node c Conv inputs=data attrs=kernel=3x3;pads=1x1x1x1;w1=8x8x3x3\n"
_BIAS = "node b Add inputs=c attrs=w1=1x8x1x1\n"


def _sites(body: str) -> list[tuple[str, tuple[str, ...]]]:
    graph = mz.load("graph t\ninput data 1x8x4x4\n" + body)
    return [(s.pattern_id, s.member_ids) for s in benchgen.fusion_candidates(graph)]


@pytest.mark.parametrize("body, expected", [
    (_HEAD + _BIAS + "node r Relu inputs=b\n", [("conv_bias_act", ("c", "b", "r"))]),
    (_HEAD + _BIAS + "node r Relu inputs=b\nnode s Sigmoid inputs=b\n",
     [("conv_bias", ("c", "b"))]),
    (_HEAD + _BIAS + "node n BatchNorm inputs=b attrs=w1=8;w2=8;w3=8;w4=8\n",
     [("conv_bias", ("c", "b"))]),
    (_HEAD + "node b Add inputs=c,data attrs=w1=1x8x1x1\nnode r Relu inputs=b\n", []),
    (_HEAD + _BIAS + "node r Relu inputs=b\nnode t Tanh inputs=c\n", []),
], ids=["conv-bias-act", "bias-add-two-consumers", "bias-add-then-batchnorm",
        "two-input-add", "conv-two-consumers"])
def test_fusion_candidates_cases(body, expected):
    assert _sites(body) == expected


# Each node of a random graph: its kind, and picks among earlier nodes for
# its data inputs. Every tensor is 1x8x4x4, so any wiring infers.
_KINDS = {
    "conv": ("Conv", "kernel=3x3;pads=1x1x1x1;w1=8x8x3x3", 1),
    "bias": ("Add", "w1=1x8x1x1", 1),
    "add": ("Add", None, 2),
    "add_bias": ("Add", "w1=1x8x1x1", 2),
    "relu": ("Relu", None, 1),
    "tanh": ("Tanh", None, 1),
    "bn": ("BatchNorm", "w1=8;w2=8;w3=8;w4=8", 1),
}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(_KINDS)), st.integers(0, 99),
                          st.integers(0, 99)), min_size=1, max_size=16))
def test_fusion_sites_are_disjoint_sole_consumer_chains(nodes):
    ids = ["data"]
    lines = ["graph g", "input data 1x8x4x4"]
    for i, (kind, pick, other) in enumerate(nodes):
        op, attrs, arity = _KINDS[kind]
        srcs = [ids[pick % len(ids)], ids[other % len(ids)]][:arity]
        lines.append(f"node n{i:02d} {op} inputs={','.join(srcs)}"
                     + (f" attrs={attrs}" if attrs else ""))
        ids.append(f"n{i:02d}")
    graph = mz.load("\n".join(lines) + "\n")
    nodes = graph.nodes

    def sole(nid: str, ops) -> str | None:
        out = nodes[nid].output_ids
        ok = len(out) == 1 and nodes[out[0]].op_type in ops \
            and len(nodes[out[0]].input_ids) == 1
        return out[0] if ok else None

    def bias_add(nid: str) -> bool:
        return any(is_weight_key(k) for k in mz.layer(graph, nid).params)

    sites = benchgen.fusion_candidates(graph)
    members = [m for site in sites for m in site.member_ids]
    assert len(members) == len(set(members))
    sigs = dedup.layer_signatures(graph, "f32")
    for site in sites:
        head, add, *act = site.member_ids
        assert nodes[head].op_type == "Conv"
        assert site.head_signature == sigs[graph.layer_of[head]]
        assert sole(head, ("Add",)) == add and bias_add(add)
        if act:
            assert site.pattern_id == "conv_bias_act" and sole(add, ACTIVATION_OPS) == act[0]
        else:
            assert site.pattern_id == "conv_bias" and sole(add, ACTIVATION_OPS) is None
    # Every Conv that a one-input bias Add alone follows heads a site, in order.
    heads = [nid for nid in graph.order if nodes[nid].op_type == "Conv"
             and sole(nid, ("Add",)) and bias_add(sole(nid, ("Add",)))]
    assert [site.member_ids[0] for site in sites] == heads


_CONV = ("Conv|f16|in=2x3x8x8|dilations=1x1,group=1,kernel=3x3,pads=1x1x1x1,"
         "strides=1x1,w1=4x3x3x3")


@pytest.mark.parametrize("canonical, algorithm, layout, fused, expected", [
    (_CONV, benchgen.ConvAlgorithm.WING, "NHWC", None,
     ["#include <cudnn.h>", "api: cudnnConvolutionForward  dtype: f16  layout: NHWC",
      "CUDNN_DATA_HALF", "CUDNN_TENSOR_NHWC", "x_dims[4] = {2,3,8,8}",
      "w_dims[4] = {4,3,3,3}", "algo = CUDNN_CONVOLUTION_FWD_ALGO_WINOGRAD;",
      "CUDNN_CALL(cudnnConvolutionForward(", "BENCH(bench_{hash}_WING_f16_nhwc) {"]),
    (_CONV, None, "NCHW", "conv_bias_act",
     ["#include <cudnn.h>",
      "api: cudnnConvolutionBiasActivationForward  dtype: f16  layout: NCHW  "
      "fused: conv_bias_act",
      "CUDNN_DATA_HALF", "CUDNN_TENSOR_NCHW", "x_dims[4] = {2,3,8,8}",
      "CUDNN_CALL(cudnnConvolutionBiasActivationForward(",
      "BENCH(bench_{hash}_conv_bias_act_f16) {"]),
    (_CONV.replace("f16", "f32"), None, "NHWC", "conv_bias",
     ["#include <cudnn.h>",
      "api: cudnnConvolutionBiasActivationForward  dtype: f32  layout: NHWC  fused: conv_bias",
      "CUDNN_DATA_FLOAT", "CUDNN_TENSOR_NHWC",
      "algo = CUDNN_CONVOLUTION_FWD_ALGO_IMPLICIT_PRECOMP_GEMM;",
      "CUDNN_CALL(cudnnConvolutionBiasActivationForward(",
      "BENCH(bench_{hash}_conv_bias_f32_nhwc) {"]),
    ("Relu|f32|in=2x16x7x7|", None, "NCHW", None,
     ["#include <cudnn.h>", "api: cudnnActivationForward  dtype: f32  layout: NCHW",
      "CUDNN_DATA_FLOAT", "x_dims[] = {2,16,7,7}", "CUDNN_CALL(cudnnActivationForward(",
      "BENCH(bench_{hash}_none_f32) {"]),
    ("Gemm|f32|in=2x64|transA=0,transB=0,w1=64x10", None, "NCHW", None,
     ["#include <cublas_v2.h>", "api: cublasGemmEx  dtype: f32  layout: NCHW",
      "CUDNN_DATA_FLOAT", "m = 2, n = 10, k = 64", "CUBLAS_CALL(cublasGemmEx(",
      "BENCH(bench_{hash}_none_f32) {"]),
], ids=["conv", "fused", "bias-only", "relu", "gemm"])
def test_emitted_source_names_the_spec(canonical, algorithm, layout, fused, expected):
    sig = dedup.parse_signature(canonical)
    spec = benchgen.BenchmarkSpec(sig, algorithm, layout, fused)
    src = benchgen.emit_benchmark_source(spec)
    assert f"// signature: {canonical}\n" in src
    assert "// inputs: " + ", ".join(
        "{" + ",".join(map(str, dims)) + "}" for dims in sig.layer.in_dims) + "\n" in src
    for token in expected:
        assert token.replace("{hash}", sig.hash64) in src, token
    if sig.layer.op_type != "Conv":
        assert "cudnnTensorFormat_t" not in src and "algo" not in src
    if "conv_desc, algo," in src:
        assert src.count("const cudnnConvolutionFwdAlgo_t algo = ") == 1
    assert src.count("BENCH(") == 1 and src.endswith("}\n")


# Each GEMM's MAC count by hand: C = A x B is M x N with a K-long dot
# product per element, whichever operand is transposed, and a batched
# MatMul does one such product per batch. A B with batch dims takes one
# batched call, strided unless an operand broadcasts along some batch dims
# but not all; a shared B folds the batch into M.
HAND_MACS = {
    "Gemm|f32|in=2x64|transA=0,transB=0,w1=64x10": 2 * 10 * 64,
    "Gemm|f32|in=64x2|transA=1,transB=0,w1=64x10": 2 * 10 * 64,
    "Gemm|f32|in=2x64|transA=0,transB=1,w1=10x64": 2 * 10 * 64,
    "Gemm|f32|in=64x2|transA=1,transB=1,w1=10x64": 2 * 10 * 64,
    "Gemm|f32|in=2x64,10x64|transA=0,transB=1": 2 * 10 * 64,
    "MatMul|f16|in=5x6|w1=6x7": 5 * 7 * 6,
    "MatMul|f32|in=4x5x6|w1=6x7": 4 * 5 * 7 * 6,
    "MatMul|f32|in=4x5x6,4x6x7|": 4 * 5 * 7 * 6,
    "MatMul|f32|in=5x6,4x6x7|": 4 * 5 * 7 * 6,
}

# (A, B, C) strides of each strided-batched call: one M x K, K x N and
# M x N matrix apart, or 0 for an operand that every product shares.
HAND_STRIDES = {
    "MatMul|f32|in=4x5x6,4x6x7|": (5 * 6, 6 * 7, 5 * 7),
    "MatMul|f32|in=5x6,4x6x7|": (0, 6 * 7, 5 * 7),
}


@pytest.mark.parametrize("canonical", list(HAND_MACS))
def test_emitted_gemm_shape_does_the_layers_macs(canonical):
    sig = dedup.parse_signature(canonical)
    src = benchgen.emit_benchmark_source(benchgen.BenchmarkSpec(sig, None, "NCHW", None))
    m, n, k, batch = re.search(
        r"const int m = (\d+), n = (\d+), k = (\d+)(?:, batch = (\d+))?;", src).groups()
    assert math.prod((int(m), int(n), int(k), int(batch or 1))) == HAND_MACS[canonical]
    # A call passes the transposes it declares; only a Gemm transposes.
    flags = [sig.layer.params.get(f, 0) if sig.layer.op_type == "Gemm" else 0
             for f in ("transA", "transB")]
    assert "  const cublasOperation_t transa = CUBLAS_OP_{}, transb = CUBLAS_OP_{};\n".format(
        *("NT"[f] for f in flags)) in src
    assert src.count("CUBLAS_CALL(") == 1
    strides = re.search(r"stride_a = (\d+), stride_b = (\d+), stride_c = (\d+);", src)
    assert ("cublasGemmStridedBatchedEx(" in src) == (batch is not None) == (strides is not None)
    if strides:
        assert tuple(map(int, strides.groups())) == HAND_STRIDES[canonical]



# A pointer-array batched GEMM: operand o's matrix for product i is
# offset by the sum over batch dims d of (i's index along d) * steps[o][d].
_OFFSET_LOOP = (
    "    for (int d = batch_rank - 1, rest = i; d >= 0; rest /= batch_dims[d], --d)\n"
    "      for (int o = 0; o < 3; ++o) off[o] += rest % batch_dims[d] * steps[o][d];\n"
    "    a_array[i] = a + off[0], b_array[i] = b + off[1], c_array[i] = c + off[2];\n")


def _emitted_offsets(src: str) -> list[tuple[int, int, int]]:
    """Each product's (A, B, C) element offsets, read back from the emitted
    strides or steps and replayed as the emitted loop computes them."""
    batch = int(re.search(r"batch = (\d+);", src).group(1))
    strides = re.search(r"stride_a = (\d+), stride_b = (\d+), stride_c = (\d+);", src)
    if strides:
        assert src.count("cublasGemmStridedBatchedEx(") == 1
        return [tuple(i * int(s) for s in strides.groups()) for i in range(batch)]
    assert src.count("CUBLAS_CALL(cublasGemmBatchedEx(") == 1 and _OFFSET_LOOP in src
    rank, dims = re.search(r"batch_rank = (\d+), batch_dims\[\d+\] = \{([\d,]+)\};",
                           src).groups()
    dims = [int(d) for d in dims.split(",")]
    table = re.search(r"steps\[3\]\[\d+\] = \{(.*)\};", src).group(1)
    steps = [[int(v) for v in row.split(",")] for row in re.findall(r"\{([\d,]+)\}", table)]
    assert len(dims) == int(rank) and [len(row) for row in steps] == [int(rank)] * 3
    offsets = []
    for i in range(batch):
        off, rest = [0, 0, 0], i
        for d in reversed(range(int(rank))):
            for o in range(3):
                off[o] += rest % dims[d] * steps[o][d]
            rest //= dims[d]
        offsets.append(tuple(off))
    return offsets


def _broadcast_offset(index: tuple[int, ...], dims: tuple[int, ...]) -> int:
    """Elements before the matrix that a batch ``index`` of the output reads
    in an operand of ``dims``: NumPy's broadcast indexing, row-major."""
    batch = dims[:-2]
    flat = 0
    for i, d in zip(index[len(index) - len(batch):], batch):
        flat = flat * d + (i if d > 1 else 0)
    return flat * dims[-2] * dims[-1]


def _check_batched_matmul(canonical: str) -> None:
    sig = dedup.parse_signature(canonical)
    src = benchgen.emit_benchmark_source(benchgen.BenchmarkSpec(sig, None, "NCHW", None))
    assert f"// api: cublasGemmEx  dtype: {sig.dtype}" in src
    layer = sig.layer
    b = layer.params["w1"] if "w1" in layer.params else layer.in_dims[1]
    operands = (layer.in_dims[0], b, layer.out_dims)
    m, n, k = (int(v) for v in re.search(r"m = (\d+), n = (\d+), k = (\d+)", src).groups())
    assert (m, n, k) == (layer.out_dims[-2], layer.out_dims[-1], layer.in_dims[0][-1])
    out_batch = layer.out_dims[:-2]
    indices = [()]
    for d in out_batch:
        indices = [(*index, i) for index in indices for i in range(d)]
    offsets = _emitted_offsets(src)
    assert len(offsets) == len(indices) == math.prod(out_batch)
    for index, offset in zip(indices, offsets):
        for dims, off in zip(operands, offset):
            assert off + dims[-2] * dims[-1] <= math.prod(dims), (index, dims, off)
            assert off == _broadcast_offset(index, dims), (index, dims, off)


@pytest.mark.parametrize("canonical", [
    "MatMul|f32|in=2x3x5x6,3x6x7|",
    "MatMul|f32|in=4x1x5x6,1x3x6x7|",
    "MatMul|f32|in=3x1x5x6,2x6x7|",
    "MatMul|f16|in=2x5x6,2x1x6x7|",
    "MatMul|f32|in=1x4x5x6,4x6x7|",
    "MatMul|f32|in=5x6|w1=3x6x7",
    "MatMul|f32|in=2x5x6|w1=2x6x7",
])
def test_a_batched_matmul_reads_each_operand_by_broadcast_index(canonical):
    _check_batched_matmul(canonical)


_BATCH_DIM = st.sampled_from((1, 2, 3))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.booleans(), st.booleans()),
                min_size=1, max_size=3), st.integers(0, 3), st.integers(0, 2), st.booleans())
def test_any_batched_matmul_stays_inside_its_operands(batch, drop_a, drop_b, weight_b):
    """Each output batch dim has a size, and A or B may broadcast along it
    (size 1 there); each operand may also lack some leading batch dims, but
    B keeps at least one, so it takes a batched call. B is a data input or
    a recorded weight."""
    a = tuple(1 if a_one else d for d, a_one, _b_one in batch)[drop_a:]
    b = tuple(1 if b_one else d for d, _a_one, b_one in batch)[min(drop_b, len(batch) - 1):]
    a, b = "x".join(map(str, (*a, 5, 6))), "x".join(map(str, (*b, 6, 7)))
    _check_batched_matmul(f"MatMul|f32|in={a}|w1={b}" if weight_b
                          else f"MatMul|f32|in={a},{b}|")
