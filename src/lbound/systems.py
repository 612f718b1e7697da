"""System profiles: one JSON object per system, read one way.

A bundled system is the file ``data/systems/<name>.json`` beside this module,
and ``--system`` takes either such a name or the path of a file in the same
format. The object holds exactly the keys of ``SYSTEM_KEYS``; any other key
is refused, so a misspelt rate cannot load as a system without it::

    {
      "system_id": "Tesla_V100",        non-empty JSON string, no control character
      "gpu": "Tesla V100 SXM2 (2018)",  describes the part; not read
      "architecture": "Volta",          describes the part; not read
      "mem_gb": 16,                     optional positive finite JSON number
      "mem_bw_gbps": 900.0,             positive finite JSON number
      "fp32_tflops": 15.7,              positive finite JSON number
      "tensor_tflops": 125.0,           optional positive finite number, or null
      "tensor_core": true,              optional JSON bool; true exactly with a tensor rate
      "kernel_overhead_us": 2.0         optional finite JSON number >= 0 (default 2.0)
    }

A number is a JSON number, never a bool or a string. ``mem_gb`` is checked
but not kept: it is named for ROADMAP item 20's memory fit. ``system_id``
names the system in every database record and miss key; it may hold a ``/``,
since a key splits from the right, but no character below U+0020 and no DEL,
which would break a miss file's lines. Every bad value raises
``ConfigError`` (exit 2) before a command opens its database.

Reading a system needs only the standard library and ``errors``, so a
command that only names one (``analyze``) loads no simulator.
"""

from __future__ import annotations

import json
import math
import os

from .errors import ConfigError, read_text

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


def system_id_fault(value) -> str | None:
    """Why ``value`` cannot be a system id, or None when it can."""
    if not isinstance(value, str) or not value:
        return f"must be a non-empty JSON string, got {value!r}"
    for ch in value:
        if ch < " " or ch == "\x7f":
            return f"{value!r} holds control character U+{ord(ch):04X}"
    return None


def _profile_from_json(text: str) -> SystemProfile:
    """Profile from its JSON object, checked as the module docstring states."""
    try:
        obj = json.loads(text)
        system_id = obj["system_id"]
        if fault := system_id_fault(system_id):
            raise ConfigError(f"bad system profile: system_id {fault}")
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

        if "mem_gb" in obj and not 0 < number("mem_gb", obj["mem_gb"]) < math.inf:
            raise ConfigError(f"system {system_id!r}: mem_gb must be positive and finite, "
                              f"got {obj['mem_gb']!r}")
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
