from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modelzoo as mz
from lbound import analyzer
from lbound.errors import DomainError
from lbound.model_ir import LayerNode, ModelGraph, TensorShape, topo_order, validate


def _ann(graph, latencies):
    return analyzer.LatencyAnnotatedGraph(graph, latencies, {}, topo_order(graph))


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
    cp = analyzer.critical_path(_ann(graph, latencies))
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
    cp = analyzer.critical_path(_ann(graph, lat))
    assert cp.node_ids == ["n01", "n03", "n04", "n05"]
    assert cp.total_latency_us == 0.8


def test_critical_path_on_random_dag_latencies():
    rng = random.Random(5)
    for _ in range(200):
        graph, latencies = mz.random_dag(rng)
        cp = analyzer.critical_path(_ann(graph, latencies))
        assert cp.total_latency_us == mz.brute_force_critical_total(graph, latencies)
        assert sum(latencies[n] for n in cp.node_ids) == pytest.approx(cp.total_latency_us)


def test_long_chain_returns_whole_chain():
    n = 20_000
    ids = [f"r{i:05d}" for i in range(n)]
    nodes = {nid: LayerNode(id=nid, op_type="Relu", input_ids=[ids[i - 1] if i else "in"])
             for i, nid in enumerate(ids)}
    graph = ModelGraph("chain", nodes, [("in", TensorShape((1,)))], [ids[-1]])
    validate(graph)
    cp = analyzer.critical_path(_ann(graph, {nid: 0.5 for nid in ids}))
    assert cp.node_ids == ids
    assert cp.total_latency_us == n * 0.5


def test_empty_graph():
    graph = ModelGraph("empty", {}, [], [])
    assert analyzer.critical_path(_ann(graph, {})) == analyzer.CriticalPath([], 0.0)


def test_annotation_shares_signatures_and_order(db_builder, v100, monkeypatch):
    from lbound.perfdb import PerfDb

    graph = mz.load(mz.resnet_v1_text(18))
    path = db_builder([graph], v100, fusion=True)
    calls = {"annotate": 0, "signature": 0, "topo_order": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(analyzer, name, counting(name, getattr(analyzer, name)))
    with PerfDb(path) as db:
        anns = analyzer.Annotator(graph, db)
        ann = anns.annotation("Tesla_V100", "f32")
        assert anns.annotation("Tesla_V100", "f32") is ann
        analyzer.critical_path(ann)
        analyzer.export_dot(ann)
        analyzer.fusion_analysis(anns, "Tesla_V100", "f32", mode="parallel")
        analyzer.tensorcore_analysis(anns, "Tesla_V100")
        analyzer.joint_analysis(anns, "Tesla_V100", analyzer.Scenario(
            parallel=True, fusion=True, tensor_core=True))
        rows = analyzer.advise_systems(anns, ["Tesla_V100", "TITAN_V"], "f32")
    supported = sum(1 for sig in ann.order if analyzer.api_for_op(graph.nodes[sig].op_type))
    # (f32, any), (f32, NCHW), (f16, NCHW) on V100, then (f32, any) on TITAN_V
    assert calls["annotate"] == 4
    assert calls["signature"] == 2 * supported
    assert calls["topo_order"] == 1
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
