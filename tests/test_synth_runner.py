"""The simulator: a jittered record depends on its spec and seed, not on run order."""

from __future__ import annotations

import random

import modelzoo as mz
from lbound import benchgen, dedup, synth_runner


def _simulated(specs, profile, seed):
    records = [synth_runner.simulate(spec, profile, jitter_seed=seed) for spec in specs]
    return sorted((r.key.render(), r.status, r.latency_us, r.metadata) for r in records)


def test_jittered_records_do_not_depend_on_spec_order(v100):
    graph = mz.load(mz.resnet_v1_text(18))
    specs = benchgen.generate_specs(dedup.unique_layers([graph]).signatures,
                                    benchgen.BenchConfig(layouts=("NCHW", "NHWC")),
                                    fusion_sites=benchgen.fusion_candidates(graph))
    shuffled = list(specs)
    random.Random(3).shuffle(shuffled)
    assert shuffled != specs
    jittered = _simulated(specs, v100, 5)
    assert _simulated(shuffled, v100, 5) == jittered
    assert _simulated(reversed(specs), v100, 5) == jittered
    assert _simulated(specs, v100, None) != jittered  # the seed does change latencies
