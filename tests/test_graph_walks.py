"""The critical path and the DOT export agree with the walks they replaced.

``graph_ref`` keeps the earlier ``critical_path`` and ``export_dot``, which
subtract before taking the least producer distance, run a ``min`` at every
node of the rebuild and mark path edges by tuple. The package's walks must
give the same path, the same total (compared with ``==``) and the same DOT
bytes on every family model, on long Relu chains, and on random graphs with
tied latencies, zero latencies, forks and repeated edges.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graph_ref
import modelzoo as mz
from lbound import analyzer
from lbound.model_ir import validate

_FAMILY = mz.thirty_model_family()


def _assert_same_walks(graph, latencies):
    ref = graph_ref.critical_path(graph, latencies)
    got = analyzer.critical_path(graph, latencies)
    assert got.node_ids == ref.node_ids
    assert got.total_latency_us == ref.total_latency_us
    ann = analyzer.LatencyAnnotatedGraph(graph, latencies, {})
    assert analyzer.export_dot(ann, got) == graph_ref.export_dot(ann, ref)
    assert analyzer.export_dot(ann) == graph_ref.export_dot(ann)


def _latencies(graph, rng: random.Random, kind: str) -> dict[str, float]:
    pool = {"tied": (1.0, 2.0), "zero": (0.0,), "mixed": (0.0, 0.1, 0.2, 0.3, 2.5)}[kind]
    return {nid: rng.choice(pool) for nid in graph.order}


@pytest.mark.parametrize("name, text", _FAMILY, ids=[name for name, _ in _FAMILY])
def test_family_walks_match_the_reference(name, text):
    graph = mz.load(text)
    rng = random.Random(name)
    for kind in ("tied", "zero", "mixed"):
        _assert_same_walks(graph, _latencies(graph, rng, kind))
    _assert_same_walks(graph, {nid: rng.uniform(0.1, 100.0) for nid in graph.order})


def _relu_chain(n: int) -> str:
    lines = ["graph relu-chain", "input data 1x16x8x8"]
    prev = "data"
    for i in range(n):
        lines.append(f"node r{i:05d} Relu inputs={prev}")
        prev = f"r{i:05d}"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [2000, 4000, 8000])
def test_relu_chain_walks_match_the_reference(n):
    graph = mz.load(_relu_chain(n))
    _assert_same_walks(graph, {nid: 1.234 for nid in graph.order})
    _assert_same_walks(graph, _latencies(graph, random.Random(n), "mixed"))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["tied", "zero", "mixed"]), st.booleans())
def test_random_dag_walks_match_the_reference(seed, kind, repeat_edges):
    rng = random.Random(seed)
    graph, _ = mz.random_dag(rng, max_nodes=24)
    if repeat_edges:  # a node may read one producer twice, as Add(x, x) does
        for node in graph.nodes.values():
            producers = [p for p in node.input_ids if p in graph.nodes]
            if producers and rng.random() < 0.3:
                node.input_ids = [*node.input_ids, rng.choice(producers)]
        validate(graph)
    _assert_same_walks(graph, _latencies(graph, rng, kind))
