"""File-backed performance database.

Storage is a file of line-delimited JSON records, a layer index beside it
(``<db>.idx``, below) and one in-memory index built at open: each (system,
dtype, signature) maps to where that layer's live lines are, and once
decoded to its live records, keyed by their full record key. ``query`` and
``best`` read only the records of one layer, and ``record_for``,
``has_spec``, ``records()`` and ``compact`` read through the same index.
``records()`` and ``compact`` therefore group records by system, in name
order, then by layer: a system's layers in the order they first appeared,
and records within a layer in insertion order. ``compact`` drops
superseded records only: it copies each live line as it is on disk, so the
live records, their order and therefore the index are the same after a
reopen.

Appending is the only write path, and a call appends its records in one
write: ``insert(*records)`` encodes their lines into one buffer, writes
and flushes it once, and then enters the records in order. Re-inserting a
key replaces the live record while the superseded one stays on disk until
``compact`` rewrites the file. The handle keeps only their number,
``superseded``, which ``db stats`` and ``compact`` report. Readers take a
snapshot at open and keep the file open while index entries are left to
read; a writer holds an advisory file lock for the lifetime of the handle
and loads the file under it. ``compact`` locks the new file before it
renames it over the old one, and a writer refuses a lock it got on a file
that a compact has since replaced, so no two writers ever hold the file at
one path.

A crash in the middle of an append leaves the lines written so far, and
perhaps a torn tail: a last line with no trailing newline that does not
parse. A read-only open skips it; a writer truncates it so the next
append starts on a fresh line. Any other bad line raises ``StorageError``,
and so does a record with a non-string system, hash64 or signature, a bool
or non-finite latency, or an unknown algorithm, dtype, layout or fusion
pattern. After a failed append the handle refuses to write, since the file
may end in part of a line, and so it does when an appended record could
not be entered.

Record fields, in on-disk order: v, system, dtype, hash64, signature,
algorithm, layout, fused, status, latency_us, source, timestamp, metadata.
A record's key (``RecordKey``) is system, dtype, signature, algorithm,
layout and fusion pattern, and its first three fields are its layer.
``hash64`` is record data: the hash of the signature that names the
layer's emitted source files, stored beside the signature and checked only
by ``db import``.

The layer index is a pure function of the first N bytes of the file, N
being the end of a whole line. Its first line holds the format version, N,
the line count of those bytes, their sha256 and their superseded count.
Then comes one line per system, in name order: a JSON array of the system
name and its layers, in the order they first appeared, each as [dtype,
signature, [offset, length, ...]], the byte offset and length of each live
line in the layer's order, and no line number, count or order besides. The
last line is the sha256 of all the others, so a damaged or cut index is
never read as one.

Every ``rw`` handle writes the index under its lock, through a temp file
and ``os.replace``: when it closes, if the file grew since the index on
disk, and after ``compact``. It covers whole lines up to the last
successful append. A read-only open never writes, and a failed index write
changes no result. The lock, ``compact``, ``db import`` and the index
writer live in ``perfdb_writer``, which only a writer imports.

An open trusts the index only when its version is this module's, N is no
larger than the file, neither count is negative and the streamed sha256 of
the file's first N bytes matches; any other index is ignored, and the next
writer replaces it. A trusted index replaces reading those N bytes. The
open keeps, per system, where its index line is, and reads that line on
the system's first touch (a read, a line past N, an insert, a count),
keeping the index file open until every system line is read, so a
writer's later index does not change what it reads. A layer's listed lines
are read by offset and decoded on its first touch. They are not checked
again, but one that does not decode into its layer raises ``StorageError``
naming its byte offset, and so does an entry no writer makes: a dtype,
signature or position of the wrong type, or a line that reaches past N;
the open proved those bytes against the file, so a read asks it nothing
more. Such an entry stays unread, so every read of its system or layer
fails.

Every line past N, or of a file with no index to trust, is decoded at open
by the same loop, line numbers continuing from the index's count, so the
open raises ``StorageError`` at the first bad one and names its line
number; a line there of a listed layer first decodes that layer's listed
lines. The torn-tail rules are the same for every open.

``len()`` and ``live_by_system()``, which ``db stats`` prints, read every
system's index line and count the positions it lists, decoding no listed
line, so no count can disagree with the positions that a read checks;
``records()`` decodes them all. ``superseded`` and the line count come
from the head, and each line past N adds to them as a writer's does. No
position implies them, so they are bounded, not proven: once every system
line is read (``len()``, ``live_by_system()``, ``records()``, ``compact``),
an index whose live count plus ``superseded`` exceeds the line count is
refused with ``StorageError``, which asks for ``<db>.idx`` to be deleted.
A read of some layers counts nothing and reads as before. Proving both
would take a newline count of the N bytes at every open, 0.4 to 0.6 ms per
MB, which an open does not pay.

``db import`` also rebuilds each record's benchmark spec from its parsed
signature, algorithm, layout and fusion pattern, and requires the record's
key to be that spec's key, so a record that no spec could produce is
refused. An open does not, since it would add to every read, and such a
record can never match a query. ``db import`` checks every line of every
file before it opens the database and then appends them all in one call,
so a bad line appends nothing.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import re
import time
from collections import Counter
from typing import TYPE_CHECKING, NamedTuple

from .errors import MissError, StorageError
from .model_ir import DTYPES, FUSION_PATTERNS, LAYOUTS, ConvAlgorithm

if TYPE_CHECKING:  # a reader loads no spec generation
    from .benchgen import BenchmarkSpec

_LAYOUT_RANK = {layout: rank for rank, layout in enumerate(LAYOUTS)}
_ALGO_RANK = {algo.name: rank for rank, algo in enumerate(ConvAlgorithm)}
# How a system line of the layer index starts: the system name as a JSON
# string. Compiled on first use, through re's cache.
_SYSTEM_LINE = rb'\[("(?:[^"\\]|\\.)*"),'
_INDEX_VERSION = 4
_CHUNK = 1 << 18  # bytes per read while hashing the file
_UNDECODABLE = (KeyError, ValueError, TypeError, StorageError)  # from a line that is no record


class RecordKey(NamedTuple):
    """What identifies a record: its layer, (system, dtype, signature), then
    its algorithm, layout and fusion pattern."""

    system: str
    dtype: str
    signature: str  # canonical string
    algorithm: str | None  # ConvAlgorithm name
    layout: str
    fused: str | None

    def render(self) -> str:
        algo = self.algorithm or "-"
        fused = self.fused or "-"
        return f"{self.system}/{self.dtype}/{self.layout}/{algo}/{fused}/{self.signature}"


class PerfRecord:
    def __init__(self, key: RecordKey, latency_us: float | None, status: str = "ok",
                 metadata: dict | None = None, source: str = "simulated",
                 timestamp: float = 0.0, hash64: str = ""):
        if key.algorithm is not None and key.algorithm not in _ALGO_RANK:
            raise StorageError(f"unknown algorithm {key.algorithm!r}")
        if key.dtype not in DTYPES:
            raise StorageError(f"unknown dtype {key.dtype!r}")
        if key.layout not in LAYOUTS:
            raise StorageError(f"unknown layout {key.layout!r}")
        if key.fused is not None and key.fused not in FUSION_PATTERNS:
            raise StorageError(f"unknown fusion pattern {key.fused!r}")
        if isinstance(latency_us, bool):
            raise StorageError(f"latency must be a number, got {latency_us!r}")
        if status == "ok":
            if latency_us is None or not 0 < latency_us < math.inf:
                raise StorageError(
                    f"ok record needs a positive finite latency, got {latency_us!r}")
        elif status == "unsupported":
            if latency_us is not None:
                raise StorageError("unsupported record must not carry a latency")
        else:
            raise StorageError(f"unknown record status {status!r}")
        self.key = key
        self.latency_us = latency_us
        self.status = status  # "ok" | "unsupported"
        self.metadata = {} if metadata is None else metadata
        self.source = source  # "simulated" | "imported"
        self.timestamp = timestamp
        self.hash64 = hash64  # names the layer's emitted source files


def key_for_spec(system: str, spec: BenchmarkSpec) -> RecordKey:
    return RecordKey(
        system=system,
        dtype=spec.dtype,
        signature=spec.signature.canonical_string,
        algorithm=spec.algorithm.name if spec.algorithm else None,
        layout=spec.layout,
        fused=spec.fused,
    )


# One encoder for every line: ``json.dumps`` with non-default separators
# builds a new encoder on each call.
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode


def _record_to_json(rec: PerfRecord) -> str:
    return _ENCODE({
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
    })


def _parse_record(line: str | bytes) -> PerfRecord:
    obj = json.loads(line.decode("utf-8") if isinstance(line, bytes) else line)
    for name in ("system", "hash64", "signature"):
        if not isinstance(obj[name], str):
            raise TypeError(f"{name} must be a string, got {obj[name]!r}")
    key = RecordKey(
        system=obj["system"],
        dtype=obj["dtype"],
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
        hash64=obj["hash64"],
    )


def _record_from_json(line: str | bytes, lineno: int) -> PerfRecord:
    try:
        return _parse_record(line)
    except _UNDECODABLE as exc:
        raise StorageError(f"bad database record at line {lineno}: {exc}") from exc


class PerfDb:
    """Open with mode "r" for a read-only snapshot or "rw" to insert.

    Every open holds every system; through the layer index it decodes only
    the layers it reads, and it counts live records from the line positions
    the index lists.
    """

    def __init__(self, path, mode: str = "r"):
        if mode not in ("r", "rw"):
            raise StorageError(f"unknown db mode {mode!r}")
        self.path = str(path)
        self.mode = mode
        # (system, dtype, signature) -> [offset, length, ...] of each live
        # line of the layer, in the layer's order
        self._where: dict[tuple, list[int]] = {}
        # (system, dtype, signature) -> {record key: live record}, in the same
        # order, for the layers decoded so far
        self._by_layer: dict[tuple, dict[RecordKey, PerfRecord]] = {}
        # system -> (offset, length) of an index line not read yet
        self._unread: dict[str, tuple[int, int]] = {}
        self.superseded = 0  # replaced records still in the file
        self._fh = None  # a writer's locked append handle
        self._rd = None  # the file, open while index entries are left to read
        self._ix = None  # the layer index, open while system lines are left to read
        # The line count of the bytes read, which bounds the index's counts;
        # a writer's account of them for its index: their end and their
        # sha256 (None after a failed append); and how far the index on disk
        # reaches, or a compacted file's end, which no listed line passes.
        self._end = self._lines = 0
        self._sha = None
        self._indexed = -1
        if mode == "rw":
            from . import perfdb_writer  # only a writer compiles the writer's code

            self._fh = perfdb_writer.lock(self.path, self.path)
        try:
            self._load()
        except StorageError:
            self.close()
            raise

    # -- lifecycle ----------------------------------------------------------

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return  # empty snapshot; analyzer reports misses
        writer = self._fh is not None
        torn = False
        raw = b""
        try:
            self._rd = fh = open(self.path, "rb")
            pos, lineno, sha = self._read_index(fh)
            for lineno, raw in enumerate(fh, start=lineno + 1):
                start, pos = pos, pos + len(raw)
                line = raw.strip()
                if line:
                    try:
                        rec = _record_from_json(line, lineno)
                    except StorageError:
                        if raw.endswith(b"\n"):
                            raise
                        torn = True  # only the last line can lack its newline
                        break
                    self._put(rec, (start, len(raw) + (not raw.endswith(b"\n"))))
                if writer:
                    sha.update(raw)
            self._lines = lineno - torn
            if writer:  # the next append must start a line
                if torn:
                    os.truncate(self.path, start)
                    pos = start
                elif raw and not raw.endswith(b"\n"):
                    self._fh.write(b"\n")
                    self._fh.flush()
                    sha.update(b"\n")
                    pos += 1
                self._end, self._sha = pos, sha
        except OSError as exc:
            raise StorageError(f"cannot read database {self.path}: {exc}") from exc
        if not self._unread and len(self._by_layer) == len(self._where):
            self._rd = None
            fh.close()

    def _read_index(self, fh) -> tuple[int, int, object]:
        """Trust ``<db>.idx`` if it describes a prefix of the file as it is now.

        Returns the byte length and the line count of that prefix and its
        sha256, with ``fh`` right after it, takes its superseded count and
        keeps the offset and length of each system's line in ``_unread``.
        Without an index to trust: (0, 0, a fresh sha256), ``fh`` at the start.
        """
        sha = hashlib.sha256()
        ix = None
        try:
            ix = open(self.path + ".idx", "rb")
            data = ix.read()  # checked and split in place, never copied
            end = len(data) - 65  # the last line: sha256 of the rest
            if end < 0 or data[end:] != \
                    hashlib.sha256(memoryview(data)[:end]).hexdigest().encode() + b"\n":
                raise ValueError("a damaged index")
            pos = data.index(b"\n", 0, end) + 1
            meta = json.loads(data[:pos])
            n, lines, superseded = meta["bytes"], meta["lines"], meta["superseded"]
            if meta["v"] != _INDEX_VERSION \
                    or {type(n), type(lines), type(superseded)} != {int} \
                    or min(lines, superseded) < 0 \
                    or not 0 <= n <= os.fstat(fh.fileno()).st_size:
                raise ValueError("not this file's index")
            unread = {}
            system_line = re.compile(_SYSTEM_LINE)
            while pos < end:
                nl = data.index(b"\n", pos, end) + 1
                m = system_line.match(data, pos, nl)
                unread[json.loads(m[1])] = (pos, nl - pos)
                pos = nl
            del data  # before the file's own buffer below
            buf = memoryview(bytearray(min(n, _CHUNK)))
            left = n
            while left:  # streamed: the file is never held whole
                got = fh.readinto(buf[:min(left, _CHUNK)])
                if not got:
                    raise ValueError("the file shrank")
                sha.update(buf[:got])
                left -= got
            if sha.hexdigest() != meta["sha256"]:
                raise ValueError("not this file's index")
        except (OSError, ValueError, KeyError, TypeError):
            if ix is not None:
                ix.close()
            fh.seek(0)
            return 0, 0, hashlib.sha256()
        if unread:
            self._ix = ix
        else:
            ix.close()
        self._unread, self._indexed = unread, n
        self.superseded = superseded
        return n, lines, sha

    def _read_system(self, name: str) -> None:
        """Enter a system's layers from its checked index line; their records stay unread."""
        if self._ix is None:
            raise StorageError(f"database {self.path} is closed")
        off, size = self._unread[name]
        try:
            entries = json.loads(os.pread(self._ix.fileno(), size, off))[1]
            for dtype, signature, where in entries:
                if dtype not in DTYPES or type(signature) is not str \
                        or type(where) is not list or len(where) % 2:
                    raise TypeError(f"a layer of system {name!r} is listed as "
                                    f"{[dtype, signature]!r}")
        except OSError as exc:
            raise StorageError(f"cannot read database index {self.path}.idx: {exc}") from exc
        except (ValueError, TypeError) as exc:
            raise StorageError(f"bad database index {self.path}.idx: {exc}") from exc
        del self._unread[name]
        if not self._unread:
            self._ix.close()
            self._ix = None
        for dtype, signature, where in entries:
            self._where[name, dtype, signature] = where

    def _read_all_systems(self) -> None:
        """Read every system line; refuse a head whose counts the lines cannot hold."""
        for name in list(self._unread):
            self._read_system(name)
        live = sum(map(len, self._where.values())) // 2
        if live + self.superseded > self._lines:
            raise StorageError(
                f"bad database index {self.path}.idx: {live} live and {self.superseded} "
                f"superseded records in {self._lines} lines; delete {self.path}.idx")

    def _listed(self, lkey: tuple) -> list[int]:
        """A layer's ``_where`` entry, refused unless it is whole pairs of
        non-negative ints; an index entry is checked before it is used."""
        where = self._where[lkey]
        if len(where) % 2 or not all(type(v) is int and v >= 0 for v in where):
            raise StorageError(f"bad database index {self.path}.idx: the line positions "
                               f"of layer {lkey!r} are not (offset, length) pairs")
        return where

    def _decode(self, lkey: tuple) -> None:
        """Decode the live lines of a layer that the index lists, in the layer's order."""
        if self._rd is None:
            raise StorageError(f"database {self.path} is closed")
        layer = {}  # entered whole, so a line that fails leaves the layer undecoded
        it = iter(self._listed(lkey))
        try:
            for off, size in zip(it, it):
                if off + size > self._indexed:
                    raise ValueError("past the bytes the index covers")
                rec = _parse_record(os.pread(self._rd.fileno(), size, off).strip())
                if rec.key[:3] != lkey or rec.key in layer:
                    raise ValueError("not in its place")
                layer[rec.key] = rec
        except OSError as exc:
            raise StorageError(f"cannot read database {self.path}: {exc}") from exc
        except _UNDECODABLE as exc:
            raise StorageError(f"bad database index {self.path}.idx: "
                               f"the line at byte {off}: {exc}") from exc
        self._by_layer[lkey] = layer

    def _layer(self, lkey: tuple) -> dict[RecordKey, PerfRecord]:
        """One layer's live records by record key, after its system's index line
        and then its listed lines are read."""
        if lkey[0] in self._unread:
            self._read_system(lkey[0])
        if lkey not in self._by_layer and lkey in self._where:
            self._decode(lkey)
        return self._by_layer.get(lkey, {})

    def close(self) -> None:
        if self._fh is not None:
            if self._sha is not None and self._end != self._indexed:
                from . import perfdb_writer

                perfdb_writer.write_index(self)  # under the lock
            self._fh.close()
            self._fh = None
        if self._rd is not None:
            self._rd.close()
            self._rd = None
        if self._ix is not None:
            self._ix.close()
            self._ix = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- writes -------------------------------------------------------------

    def _writable(self) -> None:
        if self.mode != "rw" or self._fh is None:
            raise StorageError("database opened read-only")
        if self._sha is None:
            raise StorageError(f"cannot write database {self.path}: an append failed")

    def insert(self, *records: PerfRecord) -> None:
        """Append the records' lines in one write, then enter them in order."""
        self._writable()
        lines = bytearray()  # the one copy of the batch
        sizes = []
        for rec in records:
            line = _record_to_json(rec).encode()
            lines += line
            lines += b"\n"
            sizes.append(len(line) + 1)
        try:
            self._fh.write(lines)
            self._fh.flush()
        except OSError as exc:
            self._sha = None  # the file may now end in part of a line
            raise StorageError(f"cannot append to database {self.path}: {exc}") from exc
        self._sha.update(lines)
        at = self._end
        self._end += len(lines)
        self._lines += len(records)
        try:
            for rec, size in zip(records, sizes):
                self._put(rec, (at, size))
                at += size
        except StorageError:
            self._sha = None  # the file holds lines the handle did not enter
            raise

    def _put(self, record: PerfRecord, at: tuple[int, int]) -> None:
        """Enter a decoded record, whose line is at ``at`` (offset, length)."""
        key = record.key
        lkey = key[:3]
        layer = self._layer(lkey)  # its system's index line is read first,
        if not layer:  # so a new layer comes after every layer that the line lists
            layer = self._by_layer[lkey] = {}
            self._where[lkey] = []
        where = self._where[lkey]
        if key in layer:  # the key keeps its place, at its new line
            self.superseded += 1
            slot = 2 * list(layer).index(key)
            where[slot:slot + 2] = at
        else:
            where += at
        layer[key] = record

    def compact(self) -> int:
        """Rewrite the file and its index with live records only; returns the superseded count."""
        from . import perfdb_writer

        return perfdb_writer.compact(self)

    # -- reads --------------------------------------------------------------

    def __len__(self) -> int:
        return sum(self.live_by_system().values())

    def live_by_system(self) -> Counter:
        """Live records per system, counted from every system's line positions; decodes nothing."""
        self._read_all_systems()
        counts = Counter()
        for lkey, where in self._where.items():
            counts[lkey[0]] += len(where) // 2
        return counts

    def records(self) -> list[PerfRecord]:
        self._read_all_systems()
        order = sorted(self._where, key=lambda lkey: lkey[0])  # stable: a system keeps its order
        return [rec for lkey in order for rec in self._layer(lkey).values()]

    def record_for(self, key: RecordKey) -> PerfRecord | None:
        return self._layer(key[:3]).get(key)

    def has_spec(self, system: str, spec: BenchmarkSpec) -> bool:
        return self.record_for(key_for_spec(system, spec)) is not None

    def query(self, system: str, dtype: str, signature: str) -> list[PerfRecord]:
        """All records for a layer, by its canonical signature string, across
        algorithms, layouts and fusion, in hit order."""
        return sorted(self._layer((system, dtype, signature)).values(), key=_hit_order)

    def best(self, system: str, dtype: str, signature: str,
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
        raise MissError([RecordKey(system, dtype, signature, None,
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
                status: str = "ok", metadata: dict | None = None) -> PerfRecord:
    return PerfRecord(
        key=key_for_spec(system, spec),
        latency_us=latency_us,
        status=status,
        metadata=metadata or {},
        timestamp=time.time(),
        hash64=spec.signature.hash64,
    )
