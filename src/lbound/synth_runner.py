"""Deterministic analytic cost model standing in for GPU benchmark runs.

This is a simulator, not a predictor: it exists so the full pipeline runs
and is testable at desk scale. Latency follows a roofline shape::

    latency_us = max(compute_us, memory_us) * f + kernel_overhead_us
    compute_us = 2 * MACs / (peak_tflops * 1e6)
    memory_us  = bytes_touched / (mem_bw_gbps * 1e3)

where peak is the tensor rate for an f16 spec whose call is Tensor-Core
capable, on a system that has a tensor rate, and the fp32 rate otherwise;
bytes_touched covers input, output, and weight elements at the dtype width,
and f is a per-algorithm factor (1.0 for non-convolutions). The factor
table, ``ALGO_FACTOR``, is synthetic and the same on every system; it makes
a nontrivial, shape-dependent optimal-algorithm landscape. Winograd variants
only earn their discount on 3x3 stride-1 shapes, FFT variants refuse strides
above 1 entirely, and a fused spec runs its convolution at the best
applicable factor with the kernel overhead paid once.

A system is one JSON object, ``data/systems/<name>.json`` for a bundled one.
The simulator reads its ``system_id``, rates and ``kernel_overhead_us``;
``gpu``, ``architecture`` and ``mem_gb`` (named for ROADMAP item 20) describe
the part. ``_profile_from_json`` gives each key's type.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import TYPE_CHECKING

from .dedup import TENSOR_CORE_APIS
from .errors import ConfigError, read_text
from .model_ir import DTYPE_BYTES, ConvAlgorithm, weight_elems
from .perfdb import PerfRecord, make_record

if TYPE_CHECKING:
    from .benchgen import BenchmarkSpec
    from .model_ir import Layer

ALGO_FACTOR = {
    ConvAlgorithm.IPGEMM: 1.0,
    ConvAlgorithm.IGEMM: 1.15,
    ConvAlgorithm.GEMM: 1.25,
    ConvAlgorithm.WING: 0.8,
    ConvAlgorithm.WINGNF: 0.9,
    ConvAlgorithm.FFT: 1.4,
    ConvAlgorithm.TFFT: 1.1,
    ConvAlgorithm.DRCT: 2.0,
}
# Winograd discount applies to 3x3 stride-1 convolutions only.
_WINOGRAD_PENALTY = 10.0
_SYSTEMS_DIR = os.path.join(os.path.dirname(__file__), "data", "systems")
SYSTEM_KEYS = ("system_id", "gpu", "architecture", "mem_gb", "mem_bw_gbps", "fp32_tflops",
               "tensor_tflops", "tensor_core", "kernel_overhead_us")


class SystemProfile:
    """A system's rates; it has Tensor Cores exactly when it has a tensor rate."""

    def __init__(self, system_id: str, fp32_tflops: float, mem_bw_gbps: float,
                 tensor_tflops: float | None = None, kernel_overhead_us: float = 2.0):
        if not (0 < fp32_tflops < math.inf and 0 < mem_bw_gbps < math.inf):
            raise ConfigError(f"system {system_id!r}: rates must be positive and finite")
        if not 0 <= kernel_overhead_us < math.inf:
            raise ConfigError(f"system {system_id!r}: overhead must be finite and >= 0")
        if tensor_tflops is not None and not 0 < tensor_tflops < math.inf:
            raise ConfigError(
                f"system {system_id!r}: tensor_tflops must be positive and finite")
        self.system_id = system_id
        self.fp32_tflops = fp32_tflops
        self.mem_bw_gbps = mem_bw_gbps
        self.tensor_tflops = tensor_tflops
        self.kernel_overhead_us = kernel_overhead_us


def effective_factor(layer: Layer, algo: ConvAlgorithm) -> float | None:
    """Algorithm factor for this Conv layer; None when the algorithm refuses it."""
    kernel, strides = layer.params["kernel"], layer.params["strides"]  # pairs on every Conv
    if algo in (ConvAlgorithm.FFT, ConvAlgorithm.TFFT) and max(strides) > 1:
        return None
    if algo in (ConvAlgorithm.WING, ConvAlgorithm.WINGNF) \
            and (kernel, strides) != ((3, 3), (1, 1)):
        return _WINOGRAD_PENALTY
    return ALGO_FACTOR[algo]


def _ideal_factor(layer: Layer) -> float:
    """The least factor of the algorithms that take this Conv layer; IPGEMM takes every one."""
    return min(f for a in ConvAlgorithm if (f := effective_factor(layer, a)) is not None)


def touched_elements(layer: Layer) -> int:
    """Input, output and weight elements of a layer, which its roofline reads."""
    return (sum(math.prod(d) for d in layer.in_dims) + math.prod(layer.out_dims)
            + weight_elems(layer.params))


def simulate(spec: BenchmarkSpec, sys: SystemProfile, elements: int,
             jitter_seed: int | None = None) -> PerfRecord:
    """Produce one benchmark record; same inputs, identical output.

    ``elements`` is ``touched_elements`` of the spec's layer.
    """
    layer = spec.signature.layer

    if spec.algorithm is not None:
        f = effective_factor(layer, spec.algorithm)
        if f is None:
            return make_record(sys.system_id, spec, None, status="unsupported",
                               metadata={"reason": "algorithm unsupported for shape"})
    elif spec.fused:
        f = _ideal_factor(layer)
    else:
        f = 1.0

    if spec.dtype == "f16" and sys.tensor_tflops is not None and spec.api_name in TENSOR_CORE_APIS:
        peak = sys.tensor_tflops
    else:
        peak = sys.fp32_tflops
    compute_us = 2.0 * layer.macs / (peak * 1e6)
    touched = elements * DTYPE_BYTES[spec.dtype]
    memory_us = touched / (sys.mem_bw_gbps * 1e3)
    latency = max(compute_us, memory_us) * f + sys.kernel_overhead_us

    if jitter_seed is not None:
        latency *= _jitter(jitter_seed, sys.system_id, spec)
    if latency <= 0:
        latency = 1e-6  # zero-cost layers on zero-overhead systems still take time
    return make_record(sys.system_id, spec, latency, metadata={
        "macs": layer.macs,
        "bytes": touched,
        "model": "roofline-synthetic",
    })


def _jitter(seed: int, system_id: str, spec: BenchmarkSpec) -> float:
    # +/-3% multiplicative, keyed on (seed, record identity) so results do
    # not depend on simulation order.
    ident = f"{seed}|{system_id}|{spec.signature.canonical_string}|" \
            f"{spec.algorithm.name if spec.algorithm else '-'}|{spec.layout}|{spec.fused or '-'}"
    digest = hashlib.blake2b(ident.encode("utf-8"), digest_size=8).digest()
    u = int.from_bytes(digest, "big") / float(1 << 64)
    return 0.97 + 0.06 * u


def run_specs(specs: list[BenchmarkSpec], sys: SystemProfile, db,
              jitter_seed: int | None = None) -> int:
    """Simulate every spec, then append all the records in one ``insert``
    call; returns the count. A layer's touched elements are counted once,
    for all of its specs."""
    elements: dict[Layer, int] = {}  # by layer identity; dtypes share a layer
    records = []
    for spec in specs:
        layer = spec.signature.layer
        n = elements.get(layer)
        if n is None:
            n = elements[layer] = touched_elements(layer)
        records.append(simulate(spec, sys, n, jitter_seed))
    db.insert(*records)
    return len(records)


# ---------------------------------------------------------------------------
# System profile files
# ---------------------------------------------------------------------------

def load_system_profile(name_or_path: str) -> SystemProfile:
    """Load a profile from a JSON file, or else the bundled system of that name."""
    path = name_or_path
    if not os.path.exists(path):
        path = os.path.join(_SYSTEMS_DIR, f"{name_or_path}.json")
        if not os.path.isfile(path):
            raise ConfigError(f"unknown system profile {name_or_path!r}; "
                              f"builtins: {', '.join(builtin_systems())}")
    return _profile_from_json(read_text(path, ConfigError))


def builtin_systems() -> list[str]:
    return sorted(name[:-5] for name in os.listdir(_SYSTEMS_DIR) if name.endswith(".json"))


def _profile_from_json(text: str) -> SystemProfile:
    """Profile from its JSON object; a key outside ``SYSTEM_KEYS`` is refused.

    The simulator reads ``system_id``, a non-empty JSON string, and
    ``fp32_tflops``, ``mem_bw_gbps``, an optional ``tensor_tflops`` and an
    optional ``kernel_overhead_us`` (2.0), JSON numbers that are not bools or
    strings. An optional ``tensor_core`` is a JSON bool that agrees with
    ``tensor_tflops``. ``gpu``, ``architecture`` and ``mem_gb`` describe the
    part and are not read; ``mem_gb`` is named for ROADMAP item 20's memory fit.
    """
    try:
        obj = json.loads(text)
        system_id = obj["system_id"]
        if not isinstance(system_id, str) or not system_id:
            raise ConfigError(f"bad system profile: system_id must be a non-empty JSON "
                              f"string, got {system_id!r}")
        for key in obj:
            if key not in SYSTEM_KEYS:
                raise ConfigError(f"system {system_id!r}: unknown key {key!r}")

        def number(name: str, value) -> float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"system {system_id!r}: {name} must be a JSON number, "
                                  f"got {value!r}")
            try:
                return float(value)
            except OverflowError:  # an integer beyond the float range
                return math.inf

        has_rate = obj.get("tensor_tflops") is not None
        tensor_core = obj.get("tensor_core", has_rate)
        if not isinstance(tensor_core, bool):
            raise ConfigError(f"system {system_id!r}: tensor_core must be a JSON bool, "
                              f"got {tensor_core!r}")
        if tensor_core != has_rate:
            raise ConfigError(f"system {system_id!r}: tensor_tflops must be present "
                              f"exactly when tensor_core is set")
        return SystemProfile(
            system_id=system_id,
            fp32_tflops=number("fp32_tflops", obj["fp32_tflops"]),
            mem_bw_gbps=number("mem_bw_gbps", obj["mem_bw_gbps"]),
            tensor_tflops=number("tensor_tflops", obj["tensor_tflops"]) if has_rate else None,
            kernel_overhead_us=number("kernel_overhead_us", obj.get("kernel_overhead_us", 2.0)),
        )
    except (KeyError, ValueError, TypeError) as exc:  # TypeError: not an object
        raise ConfigError(f"bad system profile: {exc}") from exc
