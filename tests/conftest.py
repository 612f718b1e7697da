from __future__ import annotations

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from lbound import benchgen, dedup, perfdb, synth_runner, systems  # noqa: E402


@pytest.fixture
def v100():
    return systems.load_system_profile("Tesla_V100")


@pytest.fixture
def titan_v():
    return systems.load_system_profile("TITAN_V")


@pytest.fixture
def db_builder(tmp_path):
    """Build a simulated performance database for a set of inferred graphs."""

    def build(graphs, profile, config=None, fusion=False, name="perf.db",
              jitter_seed=None):
        config = config or benchgen.BenchConfig()
        uniques = set()
        sites = []
        for graph in graphs:
            uniques |= dedup.unique_layers([graph], config.dtypes[0]).signatures
            if fusion:
                sites.extend(benchgen.fusion_candidates(graph, config.dtypes[0]))
        specs = benchgen.generate_specs(uniques, config, fusion_sites=sites)
        path = tmp_path / name
        with perfdb.PerfDb(path, mode="rw") as db:
            synth_runner.run_specs(specs, profile, db, jitter_seed=jitter_seed)
        return path

    return build
