from __future__ import annotations

import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modelzoo as mz
from cli_run import invoke
from lbound import analyzer, dedup
from lbound.benchgen import BenchConfig, ConvAlgorithm
from lbound.errors import ConfigError, DomainError
from lbound import model_ir
from lbound.model_ir import LayerNode, ModelGraph, validate
from lbound.perfdb import PerfDb
from lbound.profile_ingest import ApiCall, ExecutionProfile, KernelRecord


def oracle_critical_path(graph, latencies):
    """Enumerate every source-to-sink path with its running forward sums.

    Returns the largest total and, among the paths reaching it, the smallest
    id sequence, plus that choice restricted to paths whose every running
    sum is the largest seen at its layer. With exact sums both choices are
    the same path; with rounding, a path that falls behind at one layer can
    still tie at the end, and the single pass never sees it.
    """
    sources = sorted(nid for nid, node in graph.nodes.items()
                     if not any(s in graph.nodes for s in node.input_ids))
    paths = []

    def walk(path, sums):
        outs = graph.nodes[path[-1]].output_ids
        if not outs:
            paths.append((path, sums))
        for c in outs:
            walk(path + [c], sums + [sums[-1] + latencies[c]])

    for s in sources:
        walk([s], [latencies[s]])
    top = max(sums[-1] for _, sums in paths)
    best_at: dict[str, float] = {}
    for path, sums in paths:
        for nid, total in zip(path, sums):
            best_at[nid] = max(best_at.get(nid, total), total)
    tied = [path for path, sums in paths if sums[-1] == top]
    kept = [path for path, sums in paths if sums[-1] == top
            and all(total == best_at[nid] for nid, total in zip(path, sums))]
    return top, min(tied), min(kept)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["int", "tenths"]))
def test_critical_path_matches_enumeration(seed, kind):
    rng = random.Random(seed)
    graph, _ = mz.random_dag(rng, max_nodes=12)
    if kind == "int":
        latencies = {nid: float(rng.randint(0, 4)) for nid in graph.nodes}
    else:  # non-integral values whose sums tie or miss by rounding
        latencies = {nid: rng.choice((0.1, 0.2, 0.3, 0.7)) for nid in graph.nodes}
    cp = analyzer.critical_path(graph, latencies)
    total, smallest_tied, smallest_kept = oracle_critical_path(graph, latencies)
    assert cp.total_latency_us == total
    assert cp.total_latency_us == mz.brute_force_critical_total(graph, latencies)
    assert cp.node_ids == smallest_kept
    if kind == "int":
        assert cp.node_ids == smallest_tied


def test_rounding_tie_keeps_the_larger_prefix():
    # 0.2 + 0.1 rounds above 0.3, so n01 -> n03 leads at n04; adding n05
    # rounds both totals to 0.8, but the smaller id sequence through n00
    # fell behind at n04 and does not compete.
    inputs = {"n00": "in", "n01": "in", "n03": "n01", "n04": "n00,n03", "n05": "n04"}
    nodes = {nid: LayerNode(id=nid, op_type="Opaque", input_ids=src.split(","))
             for nid, src in inputs.items()}
    graph = ModelGraph("tie", nodes, [("in", (1,))], ["n05"])
    validate(graph)
    lat = {"n00": 0.3, "n01": 0.2, "n03": 0.1, "n04": 0.3, "n05": 0.2}
    assert 0.3 + 0.3 + 0.2 == 0.2 + 0.1 + 0.3 + 0.2
    cp = analyzer.critical_path(graph, lat)
    assert cp.node_ids == ["n01", "n03", "n04", "n05"]
    assert cp.total_latency_us == 0.8


def test_critical_path_on_random_dag_latencies():
    rng = random.Random(5)
    for _ in range(200):
        graph, latencies = mz.random_dag(rng)
        cp = analyzer.critical_path(graph, latencies)
        assert cp.total_latency_us == mz.brute_force_critical_total(graph, latencies)
        assert sum(latencies[n] for n in cp.node_ids) == pytest.approx(cp.total_latency_us)


def test_long_chain_returns_whole_chain():
    n = 20_000
    ids = [f"r{i:05d}" for i in range(n)]
    nodes = {nid: LayerNode(id=nid, op_type="Relu", input_ids=[ids[i - 1] if i else "in"])
             for i, nid in enumerate(ids)}
    graph = ModelGraph("chain", nodes, [("in", (1,))], [ids[-1]])
    validate(graph)
    cp = analyzer.critical_path(graph, {nid: 0.5 for nid in ids})
    assert cp.node_ids == ids
    assert cp.total_latency_us == n * 0.5


def test_empty_graph():
    graph = ModelGraph("empty", {}, [], [])
    assert vars(analyzer.critical_path(graph, {})) == vars(analyzer.CriticalPath([], 0.0))


def test_annotation_shares_signatures_and_order(db_builder, v100, monkeypatch):
    path = db_builder([mz.load(mz.resnet_v1_text(18))], v100, fusion=True)
    graph = mz.load(mz.resnet_v1_text(18))  # a fresh graph, with no signature table yet
    calls = {"annotate": 0, "signature": 0, "topo_order": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    modules = {"annotate": analyzer, "signature": dedup, "topo_order": model_ir}
    for name, module in modules.items():
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    with PerfDb(path) as db:
        anns = analyzer.Annotator(graph, db)
        ann = anns.annotation("Tesla_V100", "f32")
        assert anns.annotation("Tesla_V100", "f32") is ann
        analyzer.critical_path(graph, ann.latencies)
        analyzer.export_dot(ann)
        analyzer.fusion_analysis(anns, "Tesla_V100", "f32")
        analyzer.tensorcore_analysis(anns, "Tesla_V100")
        analyzer.joint_analysis(anns, "Tesla_V100", "f32", analyzer.Scenario(
            parallel=True, fusion=True, tensor_core=True))
        rows = analyzer.advise_systems(anns, ["Tesla_V100", "TITAN_V"], "f32")
    # (f32, any), (f32, NCHW), (f16, NCHW) on V100, then (f32, any) on TITAN_V
    assert calls["annotate"] == 4
    # One signature table per dtype, one signature per unique layer in each.
    assert len(graph.layers) < len(graph.nodes)
    assert calls["signature"] == 2 * len(graph.layers)
    # The graph carries the order validate computed; no analysis sorts again.
    assert calls["topo_order"] == 0
    assert [r.system for r in rows] == ["Tesla_V100", "TITAN_V"]
    assert rows[1].has_misses and not rows[0].has_misses
    supported = sum(dedup.api_for_op(n.op_type) is not None for n in graph.nodes.values())
    assert [(r.covered, r.supported) for r in rows] == [(supported, supported), (0, supported)]


@pytest.mark.parametrize("measured", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
def test_benanza_ratio_rejects_bad_measurements(measured):
    with pytest.raises(DomainError):
        analyzer.benanza_ratio(100.0, measured)


@pytest.mark.parametrize("lb, measured", [(1e-300, 1e300), (1e300, 1e-300)])
def test_benanza_ratio_rejects_out_of_range_ratio(lb, measured):
    with pytest.raises(DomainError):
        analyzer.benanza_ratio(lb, measured)


def test_benanza_ratio():
    br = analyzer.benanza_ratio(50.0, 200.0)
    assert (br.br, br.speedup, br.warning) == (0.25, 4.0, None)
    assert analyzer.benanza_ratio(300.0, 200.0).warning


# ---------------------------------------------------------------------------
# Scenario engine: every what-if view agrees with the joint analysis
# ---------------------------------------------------------------------------

def _logged_profile(anns, algos):
    """A profile logging ``algos[i]`` (a ConvAlgorithm name, or "") for the i-th conv."""
    convs = [nid for nid in anns.graph.order if anns.graph.nodes[nid].op_type == "Conv"]
    calls = []
    for i in range(len(convs)):
        algo = algos[i % len(algos)]
        calls.append(ApiCall(i + 1, "cudnnConvolutionForward", {"algo": algo} if algo else {}))
    return ExecutionProfile(anns.graph.name, "Tesla_V100", 1, 10.0, calls)


def test_views_agree_with_the_joint_analysis(db_builder, v100):
    r50 = mz.load(mz.resnet_v1_text(50))
    tower = mz.load(mz.fusion_tower_text(6, 40))
    path = db_builder([r50, tower], v100, fusion=True)
    algos = [""] + [a.name for a in ConvAlgorithm]
    with PerfDb(path) as db:
        for graph in (r50, tower):
            anns = analyzer.Annotator(graph, db)
            for dtype in ("f16", "f32"):  # f32 last: its fusion rows are checked below
                fusion = analyzer.fusion_analysis(anns, "Tesla_V100", dtype)
                joint = analyzer.joint_analysis(anns, "Tesla_V100", dtype,
                                                analyzer.Scenario(fusion=True))
                assert (joint.dtype, joint.lb_us) == (dtype, fusion.fused_lb_us)
            tc = analyzer.tensorcore_analysis(anns, "Tesla_V100")
            joint = analyzer.joint_analysis(anns, "Tesla_V100", "f32",
                                            analyzer.Scenario(tensor_core=True))
            assert joint.lb_us == tc.lb_f16_us
            prof = _logged_profile(anns, algos)
            q3 = analyzer.algorithm_advice(prof, anns, "Tesla_V100", "f32")
            joint = analyzer.joint_analysis(anns, "Tesla_V100", "f32",
                                            analyzer.Scenario(ideal_algo=False), profile=prof)
            assert math.isclose(joint.lb_us, q3.lb_chosen_us, rel_tol=1e-12)
            assert q3.lb_chosen_us >= q3.lb_ideal_us and q3.unknown
    applied = [s for s in fusion.sites if s.applied]  # the tower's six Conv->Add pairs
    assert len(applied) == 6 and fusion.fused_layer_count == 12
    assert fusion.fused_lb_us == pytest.approx(
        fusion.unfused_lb_us - sum(s.profit_us for s in applied))


@pytest.fixture(scope="module")
def scenario_db(tmp_path_factory):
    root = tmp_path_factory.mktemp("scenarios")
    models = {"r18": mz.resnet_v1_text(18), "tower": mz.fusion_tower_text(6, 40)}
    db = root / "perf.db"
    for name, text in models.items():
        (root / f"{name}.txt").write_text(text, "utf-8")
        res = invoke([
            "bench", str(root / f"{name}.txt"), "--db", str(db), "--system", "Tesla_V100",
            "--layouts", "NCHW,NHWC", "--fusion", "--simulate", "--jitter-seed", "3"])
        assert res.exit_code == 0, res.output
    return {name: mz.load(text) for name, text in models.items()}, db


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["r18", "tower"]), st.sampled_from(["NCHW", "NHWC"]),
       st.lists(st.sampled_from([a.name for a in ConvAlgorithm] + [""]), min_size=1))
def test_scenario_properties(scenario_db, model, layout, algos):
    graphs, path = scenario_db
    with PerfDb(path) as db:
        anns = analyzer.Annotator(graphs[model], db)
        prof = _logged_profile(anns, algos)
        lb = {}
        for parallel, ideal, fusion, tc in itertools.product((False, True), repeat=4):
            scenario = analyzer.Scenario(parallel, ideal, fusion, tc, layout)
            joint = analyzer.joint_analysis(anns, "Tesla_V100", "f32", scenario, profile=prof)
            assert math.isfinite(joint.lb_us) and joint.lb_us > 0
            lb[parallel, ideal, fusion, tc] = joint.lb_us
            if fusion:
                plain = analyzer.sequential_total(
                    anns.graph, anns.annotation("Tesla_V100", joint.dtype).latencies)
                assert analyzer.fusion_analysis(
                    anns, "Tesla_V100", joint.dtype).unfused_lb_us == plain
    for ideal, fusion, tc in itertools.product((False, True), repeat=3):
        assert lb[True, ideal, fusion, tc] <= lb[False, ideal, fusion, tc]
    plain = analyzer.sequential_total(anns.graph, anns.annotation("Tesla_V100", "f32").latencies)
    assert lb[False, True, False, False] == plain


def test_a_report_pairs_the_logged_convolutions_once(scenario_db, monkeypatch):
    """Q3 and a logged-algorithm joint row share one pairing: one record
    lookup per logged convolution."""
    graphs, path = scenario_db
    lookups = []
    record_for = PerfDb.record_for
    monkeypatch.setattr(PerfDb, "record_for",
                        lambda self, key: lookups.append(key) or record_for(self, key))
    with PerfDb(path) as db:
        anns = analyzer.Annotator(graphs["r18"], db)
        prof = _logged_profile(anns, [a.name for a in ConvAlgorithm])
        report = analyzer.build_report(anns, "Tesla_V100", "f32", 1,
                                       analyzer.Scenario(ideal_algo=False), profile=prof)
    convs = sum(node.op_type == "Conv" for node in graphs["r18"].nodes.values())
    assert len(lookups) == convs
    assert report.joint.lb_us == report.algorithm_advice.lb_chosen_us


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["r18", "tower"]), st.sampled_from(["f32", "f16"]),
       st.sampled_from(["NCHW", "NHWC"]))
def test_joint_with_every_toggle_off_is_the_sequential_bound(scenario_db, model, dtype, layout):
    graphs, path = scenario_db
    scenario = analyzer.Scenario(layout=layout)
    with PerfDb(path) as db:
        anns = analyzer.Annotator(graphs[model], db)
        joint = analyzer.joint_analysis(anns, "Tesla_V100", dtype, scenario)
        report = analyzer.build_report(anns, "Tesla_V100", dtype, 1, scenario)
    assert (joint.dtype, joint.lb_us) == (dtype, report.lb_sequential_us)


def test_report_sections_follow_the_scenario_and_the_profile(scenario_db):
    graphs, path = scenario_db
    with PerfDb(path) as db:
        anns = analyzer.Annotator(graphs["r18"], db)
        prof = _logged_profile(anns, [a.name for a in ConvAlgorithm])
        for toggles in itertools.product((False, True), repeat=4):
            scenario = analyzer.Scenario(*toggles)
            parallel, ideal, fusion, tc = toggles
            for profile in (prof, None):
                if profile is None and not ideal:
                    with pytest.raises(ConfigError, match="--profile"):
                        analyzer.build_report(anns, "Tesla_V100", "f32", 1, scenario)
                    continue
                report = analyzer.build_report(anns, "Tesla_V100", "f32", 1, scenario,
                                               profile=profile)
                sections = json.loads(analyzer.report_to_json(report)).keys()
                assert ("fusion" in sections) == fusion
                assert ("tensorcore" in sections) == tc
                assert ("joint" in sections) == (parallel or not ideal or fusion or tc)
                assert ("algorithm_advice" in sections) == (profile is not None)
                assert ("framework_deviations" in sections) == (profile is not None)


def test_missing_lists_each_key_once_over_the_annotations_built(db_builder, v100):
    """ResNet-50 on an f32 ResNet-18 database; a layout of None renders as NCHW."""
    path = db_builder([mz.load(mz.resnet_v1_text(18))], v100,
                      config=BenchConfig(dtypes=("f32",)))
    with PerfDb(path) as db:
        anns = analyzer.Annotator(mz.load(mz.resnet_v1_text(50)), db)
        assert anns.missing() == []
        f32 = anns.annotation("Tesla_V100", "f32")
        assert f32.missing and anns.annotation("Tesla_V100", "f32", "NCHW").missing == f32.missing
        f16 = anns.annotation("Tesla_V100", "f16", "NCHW")
        assert len(f16.missing) > len(f32.missing)
        assert anns.missing() == f32.missing + f16.missing


def test_apply_without_toggles_is_the_annotation(db_builder, v100):
    graph = mz.load(mz.fusion_tower_text(6, 40))
    with PerfDb(db_builder([graph], v100, fusion=True)) as db:
        anns = analyzer.Annotator(graph, db)
        ann, latencies, sites = analyzer.apply(anns, "Tesla_V100", "f16", "NCHW")
        assert ann is anns.annotation("Tesla_V100", "f16", "NCHW")
        assert latencies == ann.latencies and latencies is not ann.latencies
        assert sites == []


# ---------------------------------------------------------------------------
# Q4: framework inefficiency inspection
# ---------------------------------------------------------------------------

_Q4_MODEL = """graph q4
input in 1x3x8x8
node c1 Conv inputs=in attrs=w1=4x3x3x3;pads=1
node r1 Relu inputs=c1
node p MaxPool inputs=r1 attrs=kernel=2x2;strides=2x2
node c2 Conv inputs=p attrs=w1=4x4x3x3;pads=1
"""


def test_framework_diff_reports_every_kind_of_deviation():
    graph = mz.load(_Q4_MODEL)
    expected = analyzer.expected_api_sequence(graph)
    assert [(e.node_id, e.api_name) for e in expected] == [
        ("c1", "cudnnConvolutionForward"), ("r1", "cudnnActivationForward"),
        ("p", "cudnnPoolingForward"), ("c2", "cudnnConvolutionForward")]
    assert expected[0].params == {"x": "1x3x8x8", "w": "4x3x3x3", "strides": "1x1",
                                  "pads": "1x1x1x1", "dilations": "1x1", "group": "1"}
    calls = [
        ApiCall(1, "cudnnConvolutionForward", {"x": "1x3x8x8", "w": "4x3x3x3"}),
        ApiCall(2, "cudnnActivationForward", {"mode": "RELU"}),
        ApiCall(3, "cudaStreamWaitEvent"),
        ApiCall(4, "cudnnAddTensor", backtrace=["frame_a", "frame_b"]),
        # the pooling call never happens
        ApiCall(5, "cudnnConvolutionForward", {"x": "1x4x4x4", "w": "9x4x3x3"}),
        ApiCall(6, "cudaMemcpyAsync", backtrace=["copy"]),
    ]
    kernels = [KernelRecord("volta_scudnn_128x64", 20.0),
               KernelRecord("memcpy_kernel", 3.5, (1, 2))]
    profile = ExecutionProfile("q4", "Tesla_V100", 1, 1.0, calls, kernels)
    got = [(d.kind, d.detail, d.count, d.backtrace)
           for d in analyzer.framework_diff(profile, expected)]
    assert got == [
        ("param_mismatch", "cudnnConvolutionForward (seq 5, layer 'c2'): "
                           "w expected 4x4x3x3, logged 9x4x3x3", 1, None),
        ("missing_call", "expected cudnnPoolingForward for layer 'p' never appeared", 1, None),
        ("extra_call", "unexpected cudnnAddTensor at seq 4", 1, ["frame_a", "frame_b"]),
        ("foreign_api", "cudaMemcpyAsync at seq 6", 1, ["copy"]),
        ("excessive_sync", "cudaStreamWaitEvent between consecutive library calls", 1, None),
        ("unexpected_kernel", "kernel memcpy_kernel (3.5 us) between calls 1 and 2", 1, None),
    ]


def test_framework_diff_of_a_faithful_profile_is_empty():
    graph = mz.load(_Q4_MODEL)
    expected = analyzer.expected_api_sequence(graph)
    calls = [ApiCall(i + 1, e.api_name, dict(e.params)) for i, e in enumerate(expected)]
    profile = ExecutionProfile("q4", "Tesla_V100", 1, 1.0, calls)
    assert analyzer.framework_diff(profile, expected) == []


def test_framework_diff_breaks_ties_by_dropping_the_expected_call():
    # Expected (A, B) against logged (B, A): either call could pair up. The
    # walk drops the expected A, so B pairs and A is both missing and extra.
    expected = [analyzer.ExpectedCall("a", "cudnnAddTensor", {}),
                analyzer.ExpectedCall("b", "cudnnOpTensor", {})]
    calls = [ApiCall(1, "cudnnOpTensor"), ApiCall(2, "cudnnAddTensor")]
    profile = ExecutionProfile("tie", "Tesla_V100", 1, 1.0, calls)
    assert [(d.kind, d.detail) for d in analyzer.framework_diff(profile, expected)] == [
        ("missing_call", "expected cudnnAddTensor for layer 'a' never appeared"),
        ("extra_call", "unexpected cudnnAddTensor at seq 2"),
    ]


def quadratic_lcs_pairs(expected, actual):
    """The full-table LCS walk that ``_lcs_pairs`` must reproduce pair for pair."""
    n, m = len(expected), len(actual)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            if expected[i] == actual[j]:
                table[i][j] = table[i + 1][j + 1] + 1
            else:
                table[i][j] = max(table[i + 1][j], table[i][j + 1])
    pairs = []
    i = j = 0
    while i < n and j < m:
        if expected[i] == actual[j]:
            pairs.append((i, j))
            i += 1
            j += 1
        elif table[i + 1][j] >= table[i][j + 1]:
            i += 1
        else:
            j += 1
    return pairs


def _edited(rng, calls, alphabet, edits):
    out = list(calls)
    for _ in range(edits):
        pick = rng.random()
        if pick < 0.4 and out:
            del out[rng.randrange(len(out))]
        elif pick < 0.8:
            out.insert(rng.randint(0, len(out)), rng.choice(alphabet))
        elif out:
            out[rng.randrange(len(out))] = rng.choice(alphabet)
    return out


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from("abc"), max_size=12), st.lists(st.sampled_from("abcd"),
       max_size=12), st.integers(0, 2**32 - 1), st.booleans())
def test_lcs_pairs_match_the_full_table(expected, actual, seed, related):
    if related:  # a few edits away, as a faithful profile is
        actual = _edited(random.Random(seed), expected, "abcd", seed % 5)
    assert analyzer._lcs_pairs(expected, actual) == quadratic_lcs_pairs(expected, actual)


@pytest.mark.parametrize("name, text", mz.thirty_model_family(),
                         ids=[name for name, _ in mz.thirty_model_family()])
def test_lcs_pairs_match_the_full_table_on_zoo_profiles(name, text):
    """Each model's expected calls against logs that skip, add and swap a few."""
    expected = [e.api_name for e in analyzer.expected_api_sequence(mz.load(text))]
    alphabet = sorted(set(expected)) + ["cudnnAddTensor", "cublasSgemv"]
    rng = random.Random(name)
    for edits in (0, 1, 3, 10, 40):
        actual = _edited(rng, expected, alphabet, edits)
        assert analyzer._lcs_pairs(expected, actual) == quadratic_lcs_pairs(expected, actual)
