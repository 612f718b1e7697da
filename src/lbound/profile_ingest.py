"""Execution-profile parsing: measured latency, API-call log, kernel trace.

The canonical container is a text file with three sections::

    lbound-profile v1
    [META]
    model: <name>
    system: <id>
    batch: <int >= 1, in decimal digits with no leading zero>
    measured_latency_ms: <digits, with an optional .digits and e exponent>
    [APICALLS]
    {"seq":1,"api":"cudnnConvolutionForward","params":{...},"backtrace":[...]}
    [KERNELS]
    {"name":"...","duration_us":12.5,"between":[3,4]}

META holds each of the four keys above exactly once and no other key. META
and APICALLS are required; KERNELS may be absent (tensor-core detection is
then unavailable). APICALLS and KERNELS hold one JSON object
per line; ``params`` and ``backtrace`` are omitted when empty, ``between``
names the API-call seq pair a foreign kernel ran between and is omitted
for kernels attributed to an API call. ``seq`` and the ``between`` seqs are
integers, ``api``, ``name`` and each backtrace frame strings, ``params`` an
object and ``duration_us`` a number; a bool is none of these, and a value
of another type raises ``ProfileFormatError``. Serialization and parsing
round-trip byte-for-byte.

A lenient parser for the cuDNN/cuBLAS logger style (blocks opened by
``I! CuDNN (v...) function <name>() called:`` with indented
``key: type=<t>; val=<v>;`` lines) converts real logs into ApiCall lists.
"""

from __future__ import annotations

import json
import math
import re
import sys

from .errors import ProfileFormatError
from .model_ir import ALGO_BY_TOKEN

_HEADER = "lbound-profile v1"
_META_KEYS = ("model", "system", "batch", "measured_latency_ms")

# Kernel names matching "_[ish]<digits>" use reduced-precision matrix units.
_TENSOR_CORE_RE = re.compile(r"_[ish][0-9]+")


class ApiCall:
    def __init__(self, seq: int, api_name: str, params: dict | None = None,
                 backtrace: list[str] | None = None):
        self.seq = seq
        self.api_name = api_name
        self.params = {} if params is None else params
        self.backtrace = backtrace


class KernelRecord:
    def __init__(self, name: str, duration_us: float,
                 seq_between: tuple[int, int] | None = None):
        if not 0 < duration_us < math.inf:
            raise ProfileFormatError(
                f"kernel {name!r} needs a positive finite duration, got {duration_us}")
        self.name = name
        self.duration_us = duration_us
        self.seq_between = seq_between


class ExecutionProfile:
    def __init__(self, model: str, system_id: str, batch: int, measured_latency_ms: float,
                 api_calls: list[ApiCall] | None = None,
                 kernels: list[KernelRecord] | None = None):
        if not 0 < measured_latency_ms < math.inf:
            raise ProfileFormatError(
                f"measured latency must be positive and finite, got {measured_latency_ms}")
        if type(batch) is not int or batch < 1:
            raise ProfileFormatError(f"batch must be an integer >= 1, got {batch!r}")
        self.model = model
        self.system_id = system_id
        self.batch = batch
        self.measured_latency_ms = measured_latency_ms
        self.api_calls = [] if api_calls is None else api_calls
        self.kernels = [] if kernels is None else kernels


def detect_tensorcore(kernel_name: str) -> bool:
    """True iff the name contains an underscore, one of i/s/h, then digits."""
    return _TENSOR_CORE_RE.search(kernel_name) is not None


# ---------------------------------------------------------------------------
# Container serialization
# ---------------------------------------------------------------------------

def serialize_profile(profile: ExecutionProfile) -> str:
    lines = [
        _HEADER,
        "[META]",
        f"model: {profile.model}",
        f"system: {profile.system_id}",
        f"batch: {profile.batch}",
        f"measured_latency_ms: {profile.measured_latency_ms!r}",
        "[APICALLS]",
    ]
    for call in profile.api_calls:
        obj: dict = {"seq": call.seq, "api": call.api_name}
        if call.params:
            obj["params"] = call.params
        if call.backtrace is not None:
            obj["backtrace"] = call.backtrace
        lines.append(json.dumps(obj, separators=(",", ":")))
    lines.append("[KERNELS]")
    for kern in profile.kernels:
        obj = {"name": kern.name, "duration_us": kern.duration_us}
        if kern.seq_between is not None:
            obj["between"] = list(kern.seq_between)
        lines.append(json.dumps(obj, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def _check(ok: bool, field: str, kind: str, value) -> None:
    """Refuse ``value``, a profile line's ``field``, unless ``ok``.

    Callers test ``type(value)``, not ``isinstance``, so a bool is neither an
    integer nor a number.
    """
    if not ok:
        raise TypeError(f"{field} must be {kind}, got {value!r}")


def parse_profile(text: str) -> ExecutionProfile:
    """Profile from its text: the header line, then the sections ``[META]``,
    ``[APICALLS]`` and an optional ``[KERNELS]``; any other section is refused."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != _HEADER:
        raise ProfileFormatError(f"missing {_HEADER!r} header line")
    sections: dict[str, list[str]] = {}
    current: str | None = None
    for line in lines[1:]:
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            if current not in ("META", "APICALLS", "KERNELS"):
                raise ProfileFormatError(f"unknown section {current!r}")
            if current in sections:
                raise ProfileFormatError(f"duplicate section {current!r}")
            sections[current] = []
        elif line.strip():
            if current is None:
                raise ProfileFormatError(f"content before first section: {line!r}")
            sections[current].append(line)

    for required in ("META", "APICALLS"):
        if required not in sections:
            raise ProfileFormatError(f"missing required section {required!r}")

    meta: dict[str, str] = {}
    for line in sections["META"]:
        key, sep, value = line.partition(":")
        key = key.strip()
        if not sep:
            raise ProfileFormatError(f"bad META line {line!r}")
        if key not in _META_KEYS:
            raise ProfileFormatError(f"unknown META key {key!r}")
        if key in meta:
            raise ProfileFormatError(f"META key {key!r} appears twice")
        meta[key] = value.strip()
    try:
        model = meta["model"]
        system_id = meta["system"]
        if not re.fullmatch(r"[1-9][0-9]*", meta["batch"]):  # as serialize_profile writes it
            raise ProfileFormatError("batch must be an integer >= 1 in plain decimal "
                                     f"digits, got {meta['batch']!r}")
        batch = int(meta["batch"])
        latency = meta["measured_latency_ms"]
        if not re.fullmatch(r"[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?", latency):
            raise ProfileFormatError(
                f"measured latency must be a plain decimal number, got {latency!r}")
        measured = float(latency)
    except (KeyError, ValueError) as exc:
        raise ProfileFormatError(f"bad or missing META field: {exc}") from exc

    api_calls: list[ApiCall] = []
    last_seq = 0
    for line in sections["APICALLS"]:
        try:
            obj = json.loads(line)
            seq, api = obj["seq"], obj["api"]
            params, backtrace = obj.get("params", {}), obj.get("backtrace")
            _check(type(seq) is int, "seq", "an integer", seq)
            _check(type(api) is str, "api", "a string", api)
            _check(type(params) is dict, "params", "an object", params)
            _check(backtrace is None or type(backtrace) is list
                   and all(type(frame) is str for frame in backtrace),
                   "backtrace", "null or a list of strings", backtrace)
            call = ApiCall(seq, api, params, backtrace)
        except (KeyError, ValueError, TypeError) as exc:
            raise ProfileFormatError(f"bad APICALLS line {line!r}: {exc}") from exc
        if call.seq <= last_seq:
            raise ProfileFormatError(
                f"api call seq {call.seq} not monotonically increasing (after {last_seq})")
        last_seq = call.seq
        api_calls.append(call)

    kernels = parse_kernel_lines("\n".join(sections.get("KERNELS", [])))
    return ExecutionProfile(model, system_id, batch, measured, api_calls, kernels)


# ---------------------------------------------------------------------------
# Library logger parsing
# ---------------------------------------------------------------------------

_BLOCK_RE = re.compile(
    r"^I!\s+(CuDNN|cuBLAS)\s+\(v[\w.]*\)\s+function\s+(\w+)\(\)\s+called:\s*$")
_PARAM_RE = re.compile(r"^\s+(\w+):\s*type=([^;]*);\s*val=([^;]*);")


def parse_cudnn_log(text: str, strict: bool = False) -> list[ApiCall]:
    """One ApiCall per logger block; conv calls capture the algorithm token.

    An unparseable line raises in strict mode; in lenient mode it is
    skipped, with a line on stderr that names it.
    """
    calls: list[ApiCall] = []
    seq = 0
    current: ApiCall | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        m = _BLOCK_RE.match(line)
        if m:
            seq += 1
            current = ApiCall(seq=seq, api_name=m.group(2))
            calls.append(current)
            continue
        m = _PARAM_RE.match(line)
        if m and current is not None:
            key, _type, value = m.group(1), m.group(2).strip(), m.group(3).strip()
            if value.startswith("CUDNN_CONVOLUTION_FWD_ALGO_"):
                token = value.split()[0]
                algo = ALGO_BY_TOKEN.get(token)
                if algo is not None:
                    current.params["algo"] = algo.name
                    continue
            current.params[key] = value
            continue
        # Unknown logger chatter inside or between blocks, or a foreign line.
        if strict:
            raise ProfileFormatError(f"unparseable logger line {lineno}: {line!r}")
        print(f"skipping unparseable logger line {lineno}: {line!r}", file=sys.stderr)
    return calls


def parse_kernel_lines(text: str) -> list[KernelRecord]:
    """Kernel trace in the KERNELS line format, as in a profile's KERNELS section."""
    kernels = []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            name, duration, between = obj["name"], obj["duration_us"], obj.get("between")
            _check(type(name) is str, "name", "a string", name)
            _check(type(duration) in (int, float), "duration_us", "a number", duration)
            _check(between is None or type(between) is list and len(between) == 2
                   and all(type(seq) is int for seq in between),
                   "between", "null or a list of two integers", between)
            kernels.append(KernelRecord(
                name=name,
                duration_us=float(duration),
                seq_between=tuple(between) if between is not None else None,
            ))
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise ProfileFormatError(f"bad kernel line {line!r}: {exc}") from exc
    return kernels


def build_profile(model: str, system_id: str, batch: int, measured_latency_ms: float,
                  cudnn_log: str = "", kernel_lines: str = "",
                  strict: bool = False) -> ExecutionProfile:
    """Assemble a canonical profile from raw logger and trace inputs."""
    return ExecutionProfile(
        model=model,
        system_id=system_id,
        batch=batch,
        measured_latency_ms=measured_latency_ms,
        api_calls=parse_cudnn_log(cudnn_log, strict=strict),
        kernels=parse_kernel_lines(kernel_lines),
    )
