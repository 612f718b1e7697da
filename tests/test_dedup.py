from __future__ import annotations

import json

import pytest

import modelzoo as mz
from lbound import dedup, synth_runner
from lbound.errors import ModelParseError, ShapeStateError
from lbound.model_ir import parse_text_model


def oracle_unique(graphs, dtype="f32"):
    """Independent dedup by raw tuple identity (no canonical rendering)."""
    pooled = set()
    per_model = []
    for g in graphs:
        sigs = set()
        for node in g.nodes.values():
            key = (node.op_type, dtype,
                   tuple(s.dims for s in node.in_shapes),
                   tuple(sorted((k, repr(v)) for k, v in node.params.items())))
            sigs.add(key)
        per_model.append(len(sigs))
        pooled |= sigs
    return per_model, len(pooled)


def _conv_graph(stride=1, batch=1):
    text = (f"graph t\ninput data 1x3x8x8\n"
            f"node c Conv inputs=data "
            f"attrs=kernel=3x3;strides={stride}x{stride};pads=1x1x1x1;w1=4x3x3x3")
    return mz.load(text, batch=batch)


class TestSignature:
    def test_independent_of_node_id(self):
        a = mz.load("graph t\ninput d 1x3x8x8\nnode left Conv inputs=d "
                    "attrs=kernel=3x3;w1=4x3x3x3")
        b = mz.load("graph t\ninput d 1x3x8x8\nnode right Conv inputs=d "
                    "attrs=kernel=3x3;w1=4x3x3x3")
        assert dedup.signature(a.nodes["left"], "f32") == dedup.signature(b.nodes["right"], "f32")

    def test_stride_changes_signature(self):
        s1 = dedup.signature(_conv_graph(1).nodes["c"], "f32")
        s2 = dedup.signature(_conv_graph(2).nodes["c"], "f32")
        assert s1 != s2

    def test_batch_changes_signature(self):
        s1 = dedup.signature(_conv_graph(batch=1).nodes["c"], "f32")
        s32 = dedup.signature(_conv_graph(batch=32).nodes["c"], "f32")
        assert s1 != s32

    def test_dtype_changes_signature(self):
        node = _conv_graph().nodes["c"]
        assert dedup.signature(node, "f32") != dedup.signature(node, "f16")

    def test_canonical_string_layout(self):
        sig = dedup.signature(_conv_graph().nodes["c"], "f32")
        assert sig.canonical_string == (
            "Conv|f32|in=1x3x8x8|dilations=1x1,group=1,kernel=3x3,"
            "pads=1x1x1x1,strides=1x1,w1=4x3x3x3")
        assert len(sig.hash64) == 16
        int(sig.hash64, 16)  # hex

    def test_round_trip_parse(self):
        sig = dedup.signature(_conv_graph().nodes["c"], "f32")
        again = dedup.parse_signature(sig.canonical_string)
        assert again == sig
        assert again.param("group") == 1
        assert again.param("w1") == (4, 3, 3, 3)

    def test_parse_rejects_non_canonical(self):
        sig = dedup.signature(_conv_graph().nodes["c"], "f32")
        shuffled = sig.canonical_string.replace("dilations=1x1,group=1",
                                                "group=1,dilations=1x1")
        with pytest.raises(ModelParseError):
            dedup.parse_signature(shuffled)
        with pytest.raises(ModelParseError, match="unknown dtype 'f64'"):
            dedup.parse_signature(sig.canonical_string.replace("|f32|", "|f64|"))

    def test_with_dtype(self):
        sig = dedup.signature(_conv_graph().nodes["c"], "f32")
        f16 = sig.with_dtype("f16")
        assert f16.dtype == "f16"
        assert f16.canonical_string == sig.canonical_string.replace("|f32|", "|f16|")
        assert f16.with_dtype("f16") is f16

    def test_requires_inferred_shapes(self):
        g = parse_text_model("graph t\ninput d 1x3x4x4\nnode a Relu inputs=d")
        with pytest.raises(ShapeStateError):
            dedup.signature(g.nodes["a"], "f32")

    def test_float_params_render_shortest_round_trip(self):
        g = mz.load("graph t\ninput d 1x3x4x4\nnode b BatchNorm inputs=d "
                    "attrs=w1=3;w2=3;w3=3;w4=3")
        sig = dedup.signature(g.nodes["b"], "f32")
        assert "epsilon=1e-05" in sig.canonical_string

    def test_string_params_are_escaped(self):
        g = mz.load("graph t\ninput d 1x3x4x4\nnode x Weird|Op inputs=d")
        sig = dedup.signature(g.nodes["x"], "f32")
        assert sig.canonical_string.count("|") == 3
        assert dedup.parse_signature(sig.canonical_string) == sig


_FAMILY = dict(mz.thirty_model_family())


@pytest.mark.parametrize("name", sorted(_FAMILY))
def test_every_unique_layer_round_trips(name):
    """Parsed signatures equal the graph's, values and all, and cost its MACs.

    The family holds ResNet-18/50/152, the fusion tower and the coverage
    fixture; ``node.macs`` is pinned to hand counts in ``test_model_ir``.
    """
    graph = mz.load(_FAMILY[name])
    nodes = {dedup.signature(node, "f32"): node for node in graph.nodes.values()}
    for sig, node in nodes.items():
        again = dedup.parse_signature(sig.canonical_string)
        assert again == sig
        assert dict(again.params) == dict(sig.params)
        assert synth_runner.signature_cost(sig).macs == node.macs


class TestApiTable:
    def test_exactly_thirteen_mapped_rows(self):
        mapped = [row for row in dedup.API_TABLE.values() if row.library != "none"]
        assert len(mapped) == 13
        assert sum(1 for r in mapped if r.library == "cudnn") == 11
        assert sum(1 for r in mapped if r.library == "cublas") == 2

    def test_tensor_core_rows(self):
        tc = {name for name, row in dedup.API_TABLE.items() if row.tensor_core}
        assert tc == {"Convolution", "ConvBiasActivation", "RNN", "GEMM"}

    def test_op_routing(self):
        assert dedup.api_for_op("Conv").api_name == "cudnnConvolutionForward"
        assert dedup.api_for_op("Relu").api_name == "cudnnActivationForward"
        assert dedup.api_for_op("Gemm").api_name == "cublasGemmEx"
        assert dedup.api_for_op("MatMul").library == "cublas"
        assert dedup.api_for_op("Add").api_name == "cudnnAddTensor"
        assert dedup.api_for_op("Mul").api_name == "cudnnOpTensor"
        assert dedup.api_for_op("Dropout").api_name == "cudnnDropoutForward"
        for unsupported in ("Concat", "Reshape", "Flatten", "Unsqueeze",
                            "Squeeze", "Transpose", "Identity", "Opaque"):
            assert dedup.api_for_op(unsupported) is None


class TestUniqueLayers:
    def test_resnet50_counts_match_oracle(self):
        g = mz.load(mz.resnet_v1_text(50))
        report = dedup.unique_layers([g])
        (oracle_per, oracle_pooled) = oracle_unique([g])
        assert report.pooled.total == 175
        assert report.pooled.unique == oracle_per[0] == oracle_pooled
        assert report.per_model[0].percent == pytest.approx(
            100.0 * report.per_model[0].unique / 175)

    def test_v1_family_pooled_against_oracle(self):
        graphs = [mz.load(mz.resnet_v1_text(d)) for d in (18, 34, 50, 101, 152)]
        report = dedup.unique_layers(graphs)
        per, pooled = oracle_unique(graphs)
        assert report.pooled.total == 1229
        assert [st.unique for st in report.per_model] == per
        assert report.pooled.unique == pooled
        # heavy cross-model sharing: far fewer than the per-model sum
        assert pooled < sum(per)

    def test_idempotent_under_duplication(self):
        g = mz.load(mz.resnet_v1_text(18))
        once = dedup.unique_layers([g])
        twice = dedup.unique_layers([g, g])
        assert twice.pooled.unique == once.pooled.unique
        assert twice.pooled.total == 2 * once.pooled.total

    def test_union_bound(self):
        a = mz.load(mz.conv_chain_text("a", [3, 8, 8]))
        b = mz.load(mz.conv_chain_text("b", [3, 16, 16]))
        ua = dedup.unique_layers([a]).pooled.unique
        ub = dedup.unique_layers([b]).pooled.unique
        uab = dedup.unique_layers([a, b]).pooled.unique
        assert uab <= ua + ub

    def test_disjoint_models_hit_equality(self):
        a = mz.load("graph a\ninput d 1x3x4x4\nnode r Relu inputs=d")
        b = mz.load("graph b\ninput d 1x5x4x4\nnode r Sigmoid inputs=d")
        assert dedup.unique_layers([a, b]).pooled.unique == 2

    def test_thirty_model_family_against_oracle(self):
        graphs = [mz.load(text) for _, text in mz.thirty_model_family()]
        assert len(graphs) == 30
        report = dedup.unique_layers(graphs)
        per, pooled = oracle_unique(graphs)
        assert [st.unique for st in report.per_model] == per
        assert report.pooled.unique == pooled
        assert report.pooled.total == sum(len(g.nodes) for g in graphs)
        # repetition dominates: pooled uniques well under the total
        assert report.pooled.unique < 0.5 * report.pooled.total


class TestCoverage:
    def test_all_supported_model(self):
        g = mz.load("graph t\ninput d 1x3x8x8\n"
                    "node c Conv inputs=d attrs=kernel=3x3;w1=4x3x3x3\n"
                    "node r Relu inputs=c")
        cov = dedup.support_coverage(g)
        assert cov.percent == 100.0

    def test_unsqueeze_heavy_fixture_matches_published_shares(self):
        cov = dedup.support_coverage(mz.load(mz.coverage_fixture_text()))
        assert cov.total == 509
        assert cov.percent == pytest.approx(70.73, abs=0.05)
        unsq = next(r for r in cov.by_op if r.op_type == "Unsqueeze")
        assert not unsq.supported
        assert unsq.share_percent == pytest.approx(26.92, abs=0.05)

    def test_dropout_counts_as_supported(self):
        g = mz.load("graph t\ninput d 1x3x8x8\nnode x Dropout inputs=d")
        assert dedup.support_coverage(g).percent == 100.0

    def test_breakdown_sums_to_total(self):
        cov = dedup.support_coverage(mz.load(mz.resnet_v1_text(18)))
        assert sum(r.count for r in cov.by_op) == cov.total
        assert sum(r.share_percent for r in cov.by_op) == pytest.approx(100.0)

    def test_works_without_inference(self):
        g = parse_text_model(mz.resnet_v1_text(18))
        assert dedup.support_coverage(g).total == 69


class TestStatsExport:
    def test_jsonl_one_record_per_model_plus_pooled(self):
        graphs = [mz.load(mz.resnet_v1_text(18)), mz.load(mz.mnist_text())]
        report = dedup.unique_layers(graphs)
        lines = dedup.stats_jsonl(report).strip().splitlines()
        assert len(lines) == 3
        recs = [json.loads(line) for line in lines]
        assert recs[0]["model"] == "resnet18-v1"
        assert recs[-1]["model"] == "pooled"
        assert recs[-1]["total"] == 69 + 11
