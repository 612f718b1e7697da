from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from click.testing import CliRunner

import modelzoo as mz
from lbound import analyzer
from lbound.benchgen import ConvAlgorithm
from lbound.cli import main
from lbound.errors import DomainError
from lbound import model_ir
from lbound.model_ir import LayerNode, ModelGraph, TensorShape, validate
from lbound.perfdb import PerfDb
from lbound.profile_ingest import ApiCall, ExecutionProfile


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
    graph = ModelGraph("tie", nodes, [("in", TensorShape((1,)))], ["n05"])
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
    graph = ModelGraph("chain", nodes, [("in", TensorShape((1,)))], [ids[-1]])
    validate(graph)
    cp = analyzer.critical_path(graph, {nid: 0.5 for nid in ids})
    assert cp.node_ids == ids
    assert cp.total_latency_us == n * 0.5


def test_empty_graph():
    graph = ModelGraph("empty", {}, [], [])
    assert analyzer.critical_path(graph, {}) == analyzer.CriticalPath([], 0.0)


def test_annotation_shares_signatures_and_order(db_builder, v100, monkeypatch):
    graph = mz.load(mz.resnet_v1_text(18))
    path = db_builder([graph], v100, fusion=True)
    calls = {"annotate": 0, "signature": 0, "topo_order": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in calls:
        module = model_ir if name == "topo_order" else analyzer
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    with PerfDb(path) as db:
        anns = analyzer.Annotator(graph, db)
        ann = anns.annotation("Tesla_V100", "f32")
        assert anns.annotation("Tesla_V100", "f32") is ann
        analyzer.critical_path(graph, ann.latencies)
        analyzer.export_dot(ann)
        analyzer.fusion_analysis(anns, "Tesla_V100", "f32")
        analyzer.tensorcore_analysis(anns, "Tesla_V100")
        analyzer.joint_analysis(anns, "Tesla_V100", analyzer.Scenario(
            parallel=True, fusion=True, tensor_core=True))
        rows = analyzer.advise_systems(anns, ["Tesla_V100", "TITAN_V"], "f32")
    supported = sum(1 for node in graph.nodes.values() if analyzer.api_for_op(node.op_type))
    # (f32, any), (f32, NCHW), (f16, NCHW) on V100, then (f32, any) on TITAN_V
    assert calls["annotate"] == 4
    assert calls["signature"] == 2 * supported
    # The graph carries the order validate computed; no analysis sorts again.
    assert calls["topo_order"] == 0
    assert [r.system for r in rows] == ["Tesla_V100", "TITAN_V"]
    assert rows[1].has_misses and not rows[0].has_misses


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
            fusion = analyzer.fusion_analysis(anns, "Tesla_V100", "f32")
            joint = analyzer.joint_analysis(anns, "Tesla_V100", analyzer.Scenario(fusion=True))
            assert joint.lb_us == fusion.fused_lb_us
            tc = analyzer.tensorcore_analysis(anns, "Tesla_V100")
            joint = analyzer.joint_analysis(anns, "Tesla_V100",
                                            analyzer.Scenario(tensor_core=True))
            assert joint.lb_us == tc.lb_f16_us
            prof = _logged_profile(anns, algos)
            q3 = analyzer.algorithm_advice(prof, anns, "Tesla_V100", "f32")
            joint = analyzer.joint_analysis(anns, "Tesla_V100",
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
        res = CliRunner().invoke(main, [
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
            joint = analyzer.joint_analysis(anns, "Tesla_V100", scenario, profile=prof)
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


def test_apply_without_toggles_is_the_annotation(db_builder, v100):
    graph = mz.load(mz.fusion_tower_text(6, 40))
    with PerfDb(db_builder([graph], v100, fusion=True)) as db:
        anns = analyzer.Annotator(graph, db)
        ann, latencies, sites = analyzer.apply(anns, "Tesla_V100", "f16", "NCHW")
        assert ann is anns.annotation("Tesla_V100", "f16", "NCHW")
        assert latencies == ann.latencies and latencies is not ann.latencies
        assert sites == []
