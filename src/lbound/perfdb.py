"""File-backed performance database.

Storage is a single file of line-delimited JSON records plus one in-memory
index built at open: (system, dtype, signature) maps to that layer's live
records, keyed by their full record key. ``query`` and ``best`` read only
the records of one layer, and ``record_for``, ``has_spec``, ``records()``
and ``compact`` read through the same index. ``records()`` and ``compact``
therefore group records by layer, layers in the order they first appeared
and records within a layer in insertion order. ``compact`` drops superseded
records only: the live records, their order and therefore the index are the
same after a reopen.

Appending is the only write path; re-inserting a key replaces the live
record while the superseded one stays on disk until ``compact`` rewrites
the file. The handle keeps only their number, ``superseded``, which is
what ``db stats`` and ``compact`` report. Readers take a snapshot at open;
a writer holds an advisory file lock for the lifetime of the handle and
loads the file under it.

A crash in the middle of an append leaves a torn tail: a last line with no
trailing newline that does not parse. A read-only open skips it; a writer
truncates it so the next append starts on a fresh line. Any other bad line
raises ``StorageError``, and so does a record with a non-string system,
hash64 or signature, a bool or non-finite latency, or an unknown algorithm,
dtype, layout or fusion pattern.

Record fields, in on-disk order: v, system, dtype, hash64, signature,
algorithm, layout, fused, status, latency_us, source, timestamp, metadata.
The canonical signature string is stored alongside its hash as a collision
guard; equality is always decided on the string.

``import_lines`` also rebuilds each record's benchmark spec from its parsed
signature, algorithm, layout and fusion pattern, and requires the record's
key to be that spec's key, so a record that no spec could produce is
refused. An open does not, since it would add to every read, and such a
record can never match a query.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from dataclasses import dataclass, field

from .benchgen import ALGO_RANK, FUSION_PATTERNS, BenchmarkSpec, ConvAlgorithm
from .dedup import LayerSignature, parse_signature
from .errors import ConfigError, MissError, ModelParseError, StorageError
from .model_ir import DTYPES, LAYOUTS

_LAYOUT_RANK = {layout: rank for rank, layout in enumerate(LAYOUTS)}
_ALGO_RANK = {algo.name: rank for algo, rank in ALGO_RANK.items()}
_FUSED_IDS = {p.id for p in FUSION_PATTERNS}


@dataclass(frozen=True)
class RecordKey:
    system: str
    dtype: str
    hash64: str
    signature: str  # canonical string, authoritative
    algorithm: str | None  # ConvAlgorithm name
    layout: str
    fused: str | None

    def index_key(self) -> tuple:
        return (self.system, self.dtype, self.signature, self.algorithm,
                self.layout, self.fused)

    def render(self) -> str:
        algo = self.algorithm or "-"
        fused = self.fused or "-"
        return f"{self.system}/{self.dtype}/{self.layout}/{algo}/{fused}/{self.signature}"


@dataclass
class PerfRecord:
    key: RecordKey
    latency_us: float | None
    status: str = "ok"  # "ok" | "unsupported"
    metadata: dict = field(default_factory=dict)
    source: str = "simulated"  # "simulated" | "imported"
    timestamp: float = 0.0

    def __post_init__(self):
        if self.key.algorithm is not None and self.key.algorithm not in _ALGO_RANK:
            raise StorageError(f"unknown algorithm {self.key.algorithm!r}")
        if self.key.dtype not in DTYPES:
            raise StorageError(f"unknown dtype {self.key.dtype!r}")
        if self.key.layout not in LAYOUTS:
            raise StorageError(f"unknown layout {self.key.layout!r}")
        if self.key.fused is not None and self.key.fused not in _FUSED_IDS:
            raise StorageError(f"unknown fusion pattern {self.key.fused!r}")
        if isinstance(self.latency_us, bool):
            raise StorageError(f"latency must be a number, got {self.latency_us!r}")
        if self.status == "ok":
            if self.latency_us is None or not 0 < self.latency_us < math.inf:
                raise StorageError(
                    f"ok record needs a positive finite latency, got {self.latency_us!r}")
        elif self.status == "unsupported":
            if self.latency_us is not None:
                raise StorageError("unsupported record must not carry a latency")
        else:
            raise StorageError(f"unknown record status {self.status!r}")


def key_for_spec(system: str, spec: BenchmarkSpec) -> RecordKey:
    return RecordKey(
        system=system,
        dtype=spec.dtype,
        hash64=spec.signature.hash64,
        signature=spec.signature.canonical_string,
        algorithm=spec.algorithm.name if spec.algorithm else None,
        layout=spec.layout,
        fused=spec.fused,
    )


def _record_to_json(rec: PerfRecord) -> str:
    return json.dumps({
        "v": 1,
        "system": rec.key.system,
        "dtype": rec.key.dtype,
        "hash64": rec.key.hash64,
        "signature": rec.key.signature,
        "algorithm": rec.key.algorithm,
        "layout": rec.key.layout,
        "fused": rec.key.fused,
        "status": rec.status,
        "latency_us": rec.latency_us,
        "source": rec.source,
        "timestamp": rec.timestamp,
        "metadata": rec.metadata,
    }, separators=(",", ":"))


def _record_from_json(line: str | bytes, lineno: int) -> PerfRecord:
    try:
        obj = json.loads(line.decode("utf-8") if isinstance(line, bytes) else line)
        for name in ("system", "hash64", "signature"):
            if not isinstance(obj[name], str):
                raise TypeError(f"{name} must be a string, got {obj[name]!r}")
        key = RecordKey(
            system=obj["system"],
            dtype=obj["dtype"],
            hash64=obj["hash64"],
            signature=obj["signature"],
            algorithm=obj.get("algorithm"),
            layout=obj.get("layout", "NCHW"),
            fused=obj.get("fused"),
        )
        return PerfRecord(
            key=key,
            latency_us=obj.get("latency_us"),
            status=obj.get("status", "ok"),
            metadata=obj.get("metadata") or {},
            source=obj.get("source", "imported"),
            timestamp=obj.get("timestamp", 0.0),
        )
    except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
        raise StorageError(f"bad database record at line {lineno}: {exc}") from exc


class PerfDb:
    """Open with mode "r" for a read-only snapshot or "rw" to insert."""

    def __init__(self, path, mode: str = "r"):
        if mode not in ("r", "rw"):
            raise StorageError(f"unknown db mode {mode!r}")
        self.path = str(path)
        self.mode = mode
        # (system, dtype, signature) -> {index key: live record}
        self._by_layer: dict[tuple, dict[tuple, PerfRecord]] = {}
        self.superseded = 0  # replaced records still in the file
        self._fh = None
        if mode == "rw":
            self._acquire_writer()
        try:
            self._load()
        except StorageError:
            self.close()
            raise

    # -- lifecycle ----------------------------------------------------------

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return  # empty snapshot; analyzer reports misses
        end = 0  # byte offset just past the last line kept
        raw = b""
        try:
            with open(self.path, "rb") as fh:
                for lineno, raw in enumerate(fh, start=1):
                    line = raw.strip()
                    if line:
                        try:
                            self._put(_record_from_json(line, lineno))
                        except StorageError:
                            if raw.endswith(b"\n"):
                                raise
                            break  # torn tail
                    end += len(raw)
            if self._fh is not None:  # a writer's next append must start a line
                if end != os.path.getsize(self.path):
                    os.truncate(self.path, end)
                elif raw and not raw.endswith(b"\n"):
                    self._fh.write("\n")
                    self._fh.flush()
        except OSError as exc:
            raise StorageError(f"cannot read database {self.path}: {exc}") from exc

    def _acquire_writer(self) -> None:
        import fcntl

        try:
            self._fh = open(self.path, "a", encoding="utf-8")
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError as exc:
            self._fh.close()
            self._fh = None
            raise StorageError(f"database {self.path} is locked by another writer") from exc
        except OSError as exc:
            raise StorageError(f"cannot open database {self.path} for writing: {exc}") from exc

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- writes -------------------------------------------------------------

    def insert(self, record: PerfRecord) -> None:
        if self.mode != "rw" or self._fh is None:
            raise StorageError("database opened read-only")
        try:
            self._fh.write(_record_to_json(record) + "\n")
            self._fh.flush()
        except OSError as exc:
            raise StorageError(f"cannot append to database {self.path}: {exc}") from exc
        self._put(record)

    def _put(self, record: PerfRecord) -> None:
        key = record.key.index_key()
        layer = self._by_layer.setdefault(key[:3], {})
        self.superseded += key in layer
        layer[key] = record

    def import_lines(self, text: str) -> int:
        """Insert records from an external result file, each checked against its spec."""
        parse = functools.cache(parse_signature)  # one parse per distinct signature
        n = 0
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            rec = _record_from_json(line, lineno)
            key = rec.key
            try:
                sig = parse(key.signature)
                algo = ConvAlgorithm[key.algorithm] if key.algorithm else None
                spec = BenchmarkSpec(sig, algo, key.layout, key.fused)
            except (ModelParseError, ConfigError) as exc:
                raise StorageError(f"bad database record at line {lineno}: {exc}") from exc
            if key_for_spec(key.system, spec) != key:  # the other fields built the spec
                raise StorageError(f"bad database record at line {lineno}: dtype and hash64 "
                                   f"must be {sig.dtype!r} and {sig.hash64!r}")
            self.insert(rec)
            n += 1
        return n

    def compact(self) -> int:
        """Rewrite the file with live records only; returns the superseded count."""
        if self.mode != "rw" or self._fh is None:
            raise StorageError("database opened read-only")
        dropped = self.superseded
        tmp = self.path + ".compact"
        try:
            with open(tmp, "w", encoding="utf-8") as out:
                for rec in self.records():
                    out.write(_record_to_json(rec) + "\n")
            os.replace(tmp, self.path)
        except OSError as exc:
            raise StorageError(f"cannot compact database {self.path}: {exc}") from exc
        # Reacquire the append handle on the new inode.
        self.close()
        self.superseded = 0
        self._acquire_writer()
        return dropped

    # -- reads --------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(layer) for layer in self._by_layer.values())

    def records(self) -> list[PerfRecord]:
        return [rec for layer in self._by_layer.values() for rec in layer.values()]

    def record_for(self, key: RecordKey) -> PerfRecord | None:
        index_key = key.index_key()
        return self._by_layer.get(index_key[:3], {}).get(index_key)

    def has_spec(self, system: str, spec: BenchmarkSpec) -> bool:
        return self.record_for(key_for_spec(system, spec)) is not None

    def query(self, system: str, dtype: str,
              signature: LayerSignature | str) -> list[PerfRecord]:
        """All records for a layer across algorithms, layouts and fusion, in hit order."""
        canonical = signature if isinstance(signature, str) else signature.canonical_string
        return sorted(self._by_layer.get((system, dtype, canonical), {}).values(),
                      key=_hit_order)

    def best(self, system: str, dtype: str, signature: LayerSignature | str,
             *, layout: str | None = None, fused: str | None = None) -> PerfRecord:
        """Lowest-latency ok record of one layer, read from its entry in the index.

        A ``layout`` of None means any layout. ``fused`` must match exactly,
        and None means unfused: only unfused results compete unless a pattern
        id is requested. Ties break by algorithm enum order, then NCHW before
        NHWC.
        """
        for rec in self.query(system, dtype, signature):
            if rec.status == "ok" and rec.key.fused == fused \
                    and (layout is None or rec.key.layout == layout):
                return rec
        canonical = signature if isinstance(signature, str) else signature.canonical_string
        h64 = signature.hash64 if isinstance(signature, LayerSignature) else ""
        raise MissError([RecordKey(system, dtype, h64, canonical, None,
                                   layout or "NCHW", fused).render()])


def _hit_order(rec: PerfRecord) -> tuple:
    algo_rank = _ALGO_RANK[rec.key.algorithm] if rec.key.algorithm else -1
    return (
        rec.latency_us if rec.latency_us is not None else float("inf"),
        algo_rank,
        _LAYOUT_RANK[rec.key.layout],
        rec.key.fused or "",
    )


def make_record(system: str, spec: BenchmarkSpec, latency_us: float | None,
                status: str = "ok", metadata: dict | None = None,
                source: str = "simulated") -> PerfRecord:
    return PerfRecord(
        key=key_for_spec(system, spec),
        latency_us=latency_us,
        status=status,
        metadata=metadata or {},
        source=source,
        timestamp=time.time(),
    )
