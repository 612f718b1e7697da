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

The rates and ``kernel_overhead_us`` are a ``systems.SystemProfile``'s.
"""

from __future__ import annotations

import hashlib
import math
from typing import TYPE_CHECKING

from .dedup import TENSOR_CORE_APIS
from .model_ir import DTYPE_BYTES, ConvAlgorithm, weight_elems
from .perfdb import PerfRecord, make_record

if TYPE_CHECKING:
    from .benchgen import BenchmarkSpec
    from .model_ir import Layer
    from .systems import SystemProfile

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
