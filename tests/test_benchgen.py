"""Manifest round trip over the thirty-model family, and emitted benchmark source."""

from __future__ import annotations

import math
import re

import pytest

import modelzoo as mz
from lbound import benchgen, dedup
from records import fields


def test_manifest_round_trips_for_the_family():
    graphs = [mz.load(text) for _name, text in mz.thirty_model_family()]
    uniques = dedup.unique_layers(graphs).signatures
    sites = [site for graph in graphs for site in benchgen.fusion_candidates(graph)]
    config = benchgen.BenchConfig(layouts=("NCHW", "NHWC"))
    specs = benchgen.generate_specs(uniques, config, fusion_sites=sites)
    assert {s.fused for s in specs} > {None} and {s.layout for s in specs} == {"NCHW", "NHWC"}
    fused_row = dedup.API_TABLE["ConvBiasActivation"]
    assert all(s.api is (fused_row if s.fused else dedup.api_for_op(s.signature.layer.op_type))
               for s in specs)
    text = benchgen.manifest_lines(specs)
    parsed = benchgen.parse_manifest(text)
    assert fields(parsed) == fields(specs)
    assert [(s.dtype, s.api_name) for s in parsed] == [(s.dtype, s.api_name) for s in specs]
    assert benchgen.manifest_lines(parsed) == text


_CONV = ("Conv|f16|in=2x3x8x8|dilations=1x1,group=1,kernel=3x3,pads=1x1x1x1,"
         "strides=1x1,w1=4x3x3x3")


@pytest.mark.parametrize("canonical, algorithm, layout, fused, expected", [
    (_CONV, benchgen.ConvAlgorithm.WING, "NHWC", None,
     ["#include <cudnn.h>", "api: cudnnConvolutionForward  dtype: f16  layout: NHWC",
      "CUDNN_DATA_HALF", "CUDNN_TENSOR_NHWC", "x_dims[4] = {2,3,8,8}",
      "w_dims[4] = {4,3,3,3}", "algo = CUDNN_CONVOLUTION_FWD_ALGO_WINOGRAD;",
      "CUDNN_CALL(cudnnConvolutionForward(", "BENCH(bench_{hash}_WING_f16) {"]),
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
      "BENCH(bench_{hash}_conv_bias_f32) {"]),
    ("Relu|f32|in=2x16x7x7|", None, "NCHW", None,
     ["#include <cudnn.h>", "api: cudnnActivationForward  dtype: f32  layout: NCHW",
      "CUDNN_DATA_FLOAT", "x_dims[] = {2,16,7,7}", "CUDNN_CALL(cudnnActivationForward(",
      "BENCH(bench_{hash}_base_f32) {"]),
    ("Gemm|f32|in=2x64|transA=0,transB=0,w1=64x10", None, "NCHW", None,
     ["#include <cublas_v2.h>", "api: cublasGemmEx  dtype: f32  layout: NCHW",
      "CUDNN_DATA_FLOAT", "m = 2, n = 10, k = 64", "CUBLAS_CALL(cublasGemmEx(",
      "BENCH(bench_{hash}_base_f32) {"]),
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
# strided-batched call; a shared B folds the batch into M.
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

