"""The write path as it was before a command appended its records in one
write, kept as a reference for tests: ``insert`` encodes each record with
``json.dumps`` and writes and flushes it on its own, ``parse_manifest``
parses every distinct signature string, and ``simulate`` counts a layer's
touched elements for each spec. One ``bench --from-manifest --simulate``
ran per system, each in its own process and handle. The package's writer
must leave the same database file and layer index.
"""

from __future__ import annotations

import functools
import json

from lbound import synth_runner
from lbound.benchgen import BenchmarkSpec
from lbound.dedup import parse_signature
from lbound.errors import LboundError, ModelParseError
from lbound.model_ir import ConvAlgorithm
from lbound.perfdb import PerfDb, PerfRecord
from lbound.systems import load_system_profile


def record_line(rec: PerfRecord) -> bytes:
    return json.dumps({
        "v": 1,
        "system": rec.key.system,
        "dtype": rec.key.dtype,
        "hash64": rec.hash64,
        "signature": rec.key.signature,
        "algorithm": rec.key.algorithm,
        "layout": rec.key.layout,
        "fused": rec.key.fused,
        "status": rec.status,
        "latency_us": rec.latency_us,
        "source": rec.source,
        "timestamp": rec.timestamp,
        "metadata": rec.metadata,
    }, separators=(",", ":")).encode() + b"\n"


class PerRecordDb(PerfDb):
    """A handle that appends each record in a write and a flush of its own."""

    def insert(self, *records: PerfRecord) -> None:
        for record in records:
            self._writable()
            line = record_line(record)
            self._fh.write(line)
            self._fh.flush()
            self._lines += 1
            self._put(record, (self._end, len(line)))
            self._end += len(line)
            self._sha.update(line)


def parse_manifest(text: str) -> list[BenchmarkSpec]:
    parse = functools.cache(parse_signature)
    specs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict) or not isinstance(rec.get("signature"), str):
                raise ValueError("expected a JSON object with a string signature")
            algo = ConvAlgorithm[rec["algorithm"]] if rec["algorithm"] else None
            spec = BenchmarkSpec(parse(rec["signature"]), algo, rec["layout"],
                                 rec["fused_pattern"])
            for name, implied in (("dtype", spec.dtype), ("api", spec.api_name)):
                if rec[name] != implied:
                    raise ValueError(f"{name} {rec[name]!r} disagrees with the signature "
                                     f"and pattern, which imply {implied!r}")
            specs.append(spec)
        except (KeyError, TypeError, ValueError, LboundError) as exc:
            raise ModelParseError(f"bad manifest line: {exc}", offset=lineno) from exc
    return specs


def bench_from_manifest(text: str, systems: list[str], path, jitter_seed: int | None) -> None:
    """``bench --from-manifest --simulate`` once per system, in order."""
    for name in systems:
        system = load_system_profile(name)
        specs = parse_manifest(text)
        with PerRecordDb(path, mode="rw") as db:
            for spec in specs:
                elements = synth_runner.touched_elements(spec.signature.layer)
                db.insert(synth_runner.simulate(spec, system, elements, jitter_seed=jitter_seed))
