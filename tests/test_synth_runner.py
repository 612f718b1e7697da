"""The simulator: a jittered record depends on its spec and seed, not on run order.

A bundled system name reads the same file as its path through ``systems``,
and the package holds the seven systems.
"""

from __future__ import annotations

import json
import random
from importlib import resources

import pytest

import modelzoo as mz
from lbound import benchgen, dedup, synth_runner, systems

SYSTEMS = resources.files("lbound") / "data" / "systems"
BUNDLED = ["Quadro_RTX", "TITAN_V", "TITAN_Xp", "Tesla_K80", "Tesla_M60", "Tesla_T4",
           "Tesla_V100"]


def _simulated(specs, profile, seed):
    records = [synth_runner.simulate(spec, profile,
                                     synth_runner.touched_elements(spec.signature.layer),
                                     jitter_seed=seed) for spec in specs]
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


def test_the_package_bundles_the_seven_systems():
    on_disk = sorted(entry.name[:-5] for entry in SYSTEMS.iterdir()
                     if entry.name.endswith(".json"))
    assert systems.builtin_systems() == on_disk == BUNDLED


@pytest.mark.parametrize("name", BUNDLED)
def test_a_bundled_name_loads_as_its_file(name):
    path = SYSTEMS / f"{name}.json"
    obj = json.loads(path.read_text("utf-8"))
    assert sorted(obj) == sorted(systems.SYSTEM_KEYS)  # every file spells every key
    by_name = systems.load_system_profile(name)
    assert vars(by_name) == vars(systems.load_system_profile(str(path))) == {
        key: obj[key] for key in ("system_id", "fp32_tflops", "mem_bw_gbps", "tensor_tflops",
                                  "kernel_overhead_us")}
    assert by_name.system_id == name
