from __future__ import annotations

import json

import pytest

import modelzoo as mz
from lbound import analyzer, benchgen, dedup, model_ir
from lbound.errors import ModelParseError, ShapeStateError
from lbound.model_ir import (LayerNode, ModelGraph, infer_shapes,
                             parse_text_model, validate)
from lbound.perfdb import PerfDb


def oracle_unique(graphs, dtype="f32"):
    """Independent dedup by raw tuple identity (no canonical rendering)."""
    pooled = set()
    per_model = []
    for g in graphs:
        sigs = set()
        for node in g.nodes.values():
            layer = mz.layer(g, node.id)
            key = (node.op_type, dtype, layer.in_dims,
                   tuple(sorted((k, repr(v)) for k, v in layer.params.items())))
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
        assert dedup.signature(mz.layer(a, "left"), "f32") \
            == dedup.signature(mz.layer(b, "right"), "f32")

    def test_stride_changes_signature(self):
        s1 = dedup.signature(mz.layer(_conv_graph(1), "c"), "f32")
        s2 = dedup.signature(mz.layer(_conv_graph(2), "c"), "f32")
        assert s1 != s2

    def test_batch_changes_signature(self):
        s1 = dedup.signature(mz.layer(_conv_graph(batch=1), "c"), "f32")
        s32 = dedup.signature(mz.layer(_conv_graph(batch=32), "c"), "f32")
        assert s1 != s32

    def test_dtype_changes_signature(self):
        layer = mz.layer(_conv_graph(), "c")
        assert dedup.signature(layer, "f32") != dedup.signature(layer, "f16")

    def test_equality_and_hash_read_only_the_canonical_string(self):
        sig = dedup.signature(mz.layer(_conv_graph(), "c"), "f32")
        relu = dedup.parse_signature("Relu|f16|in=1x8|").layer
        same = dedup.LayerSignature(relu, "f16", sig.canonical_string, "00")
        other = dedup.LayerSignature(sig.layer, sig.dtype, sig.canonical_string + ",x=1",
                                     sig.hash64)
        assert same == sig and hash(same) == hash(sig) and len({sig, same}) == 1
        assert other != sig and sig != sig.canonical_string

    def test_canonical_string_layout(self):
        sig = dedup.signature(mz.layer(_conv_graph(), "c"), "f32")
        assert sig.canonical_string == (
            "Conv|f32|in=1x3x8x8|dilations=1x1,group=1,kernel=3x3,"
            "pads=1x1x1x1,strides=1x1,w1=4x3x3x3")
        assert len(sig.hash64) == 16
        int(sig.hash64, 16)  # hex

    def test_round_trip_parse(self):
        sig = dedup.signature(mz.layer(_conv_graph(), "c"), "f32")
        again = dedup.parse_signature(sig.canonical_string)
        assert again == sig
        assert again.layer.params["group"] == 1
        assert again.layer.params["w1"] == (4, 3, 3, 3)

    def test_parse_rejects_non_canonical(self):
        sig = dedup.signature(mz.layer(_conv_graph(), "c"), "f32")
        shuffled = sig.canonical_string.replace("dilations=1x1,group=1",
                                                "group=1,dilations=1x1")
        with pytest.raises(ModelParseError):
            dedup.parse_signature(shuffled)
        with pytest.raises(ModelParseError, match="unknown dtype 'f64'"):
            dedup.parse_signature(sig.canonical_string.replace("|f32|", "|f64|"))

    @pytest.mark.parametrize("canonical, message", [
        ("Conv|f32|in=1x3x2x2|dilations=1x1,group=1,kernel=3x3,pads=0x0x0x0,strides=1x1,"
         "w1=4x3x3x3", "kernel 3 (dilation 1) larger than padded input 2+0+0"),
        ("Gemm|f32|in=2x64|transA=0,transB=0", "no rank-2 B operand (got None)"),
        ("Relu|f32|in=1_0x3|", "dims must be x-joined integers, got '1_0x3'"),
        ("Relu|f32|in=1x\u0663|", "dims must be x-joined integers, got '1x\u0663'"),
    ])
    def test_a_refused_signature_names_no_node(self, canonical, message):
        with pytest.raises(ModelParseError) as exc:
            dedup.parse_signature(canonical)
        assert str(exc.value) == f"bad signature {canonical!r}: {message}"

    def test_with_dtype(self):
        sig = dedup.signature(mz.layer(_conv_graph(), "c"), "f32")
        f16 = sig.with_dtype("f16")
        assert f16.dtype == "f16"
        assert f16.canonical_string == sig.canonical_string.replace("|f32|", "|f16|")
        assert f16.with_dtype("f16") is f16

    def test_requires_inferred_shapes(self):
        g = parse_text_model("graph t\ninput d 1x3x4x4\nnode a Relu inputs=d")
        with pytest.raises(ShapeStateError):
            dedup.unique_layers([g])

    def test_float_params_render_shortest_round_trip(self):
        g = mz.load("graph t\ninput d 1x3x4x4\nnode b BatchNorm inputs=d "
                    "attrs=w1=3;w2=3;w3=3;w4=3")
        sig = dedup.signature(mz.layer(g, "b"), "f32")
        assert "epsilon=1e-05" in sig.canonical_string

    def test_string_params_are_escaped(self):
        g = mz.load("graph t\ninput d 1x3x4x4\nnode x Weird|Op inputs=d")
        sig = dedup.signature(mz.layer(g, "x"), "f32")
        assert sig.canonical_string.count("|") == 3
        assert dedup.parse_signature(sig.canonical_string) == sig


_FAMILY = dict(mz.thirty_model_family())


@pytest.mark.parametrize("name", sorted(_FAMILY))
def test_every_unique_layer_round_trips(name):
    """A parsed signature holds the graph's layer: op, dims, params, MACs and all.

    At each dtype and at batch 1 and 4. The family holds ResNet-18/50/152,
    the fusion tower and the coverage fixture; a layer's MACs are pinned to
    hand counts in ``test_model_ir``.
    """
    for batch in (1, 4):
        for layer in mz.load(_FAMILY[name], batch=batch).layers:
            for dtype in ("f32", "f16"):
                sig = dedup.signature(layer, dtype)
                again = dedup.parse_signature(sig.canonical_string)
                assert again == sig and again.dtype == dtype
                assert vars(again.layer) == vars(layer)


class TestApiTable:
    def test_op_keys_are_supported_ops_and_calls_name_their_library(self):
        assert set(dedup.OP_APIS) <= set(model_ir.SUPPORTED_OPS)
        calls = {*dedup.OP_APIS.values(), dedup.FUSED_API}
        assert all(call.startswith(("cudnn", "cublas")) for call in calls)
        assert dedup.TENSOR_CORE_APIS <= calls

    def test_tensor_core_rows(self):
        assert dedup.TENSOR_CORE_APIS == {"cudnnConvolutionForward",
                                          "cudnnConvolutionBiasActivationForward",
                                          "cublasGemmEx"}

    def test_op_routing(self):
        assert dedup.api_for_op("Conv") == "cudnnConvolutionForward"
        assert dedup.api_for_op("Relu") == "cudnnActivationForward"
        assert dedup.api_for_op("Gemm") == "cublasGemmEx"
        assert dedup.api_for_op("MatMul") == "cublasGemmEx"
        assert dedup.api_for_op("Add") == "cudnnAddTensor"
        assert dedup.api_for_op("Mul") == "cudnnOpTensor"
        assert dedup.api_for_op("Dropout") == "cudnnDropoutForward"
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


# ---------------------------------------------------------------------------
# The signature table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(_FAMILY))
def test_table_gives_each_node_its_own_signature(name):
    graph = mz.load(_FAMILY[name], batch=2)
    for dtype in ("f32", "f16"):
        table = dedup.layer_signatures(graph, dtype)
        assert dedup.layer_signatures(graph, dtype) is table
        by_key: dict = {}
        for nid, index in graph.layer_of.items():
            layer = graph.layers[index]
            sig = table[index]
            assert sig == dedup.signature(layer, dtype)
            key = (graph.nodes[nid].op_type, layer.in_dims,
                   tuple((k, type(v), repr(v)) for k, v in layer.params.items()))
            assert by_key.setdefault(key, sig) is sig  # equal keys, one object


def test_opaque_values_that_compare_equal_keep_their_layers():
    """1 == 1.0 == True and 0.0 == -0.0, but each renders its own way."""
    values = [1, 1.0, True, 0.0, -0.0, (1, 2), (1.0, 2), "1", [1], [1], 1]
    ids = [f"n{i:02d}" for i in range(len(values))]
    nodes = {nid: LayerNode(id=nid, op_type="Opaque", params={"foo": v},
                            input_ids=[ids[i - 1] if i else "in"])
             for i, (nid, v) in enumerate(zip(ids, values))}
    raw = ModelGraph("exact", nodes, [("in", (1, 4))], [ids[-1]])
    validate(raw)
    graph = infer_shapes(raw, 1)
    # Only the last 1 shares a layer; each unhashable list is a layer of its own.
    assert [graph.layer_of[nid] for nid in ids] == list(range(len(values) - 1)) + [0]
    table = dedup.layer_signatures(graph, "f32")
    rendered = []
    for nid, v in zip(ids, values):
        layer = mz.layer(graph, nid)
        assert type(layer.params["foo"]) is type(v) and repr(layer.params["foo"]) == repr(v)
        assert table[graph.layer_of[nid]] == dedup.signature(layer, "f32")
        rendered.append(table[graph.layer_of[nid]].canonical_string.rsplit("|", 1)[1])
    assert rendered[:5] == ["foo=1", "foo=1.0", "foo=1", "foo=0.0", "foo=-0.0"]


def test_signature_runs_once_per_dtype_on_a_relu_chain(db_builder, v100, monkeypatch):
    text = "graph chain\ninput d 1x16x8x8\n" + "".join(
        f"node r{i:04d} Relu inputs={'d' if i == 0 else f'r{i - 1:04d}'}\n"
        for i in range(2000))
    graph = mz.load(text)
    calls = []
    real = dedup.signature
    monkeypatch.setattr(dedup, "signature", lambda *a: calls.append(a) or real(*a))
    path = db_builder([graph], v100, config=benchgen.BenchConfig(dtypes=("f32",)),
                      fusion=True)
    assert len(calls) == 1
    with PerfDb(path) as db:
        anns = analyzer.Annotator(graph, db)
        assert analyzer.sequential_total(graph, anns.annotation("Tesla_V100", "f32")
                                         .latencies) > 0
        assert benchgen.fusion_candidates(graph, "f32") == []
        assert dedup.unique_layers([graph], "f32").pooled.unique == 1
        f16 = anns.annotation("Tesla_V100", "f16")
        assert len(f16.missing) == 2000
    assert [dtype for _node, dtype in calls] == ["f32", "f16"]
