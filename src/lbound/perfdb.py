"""File-backed performance database.

Storage is a single file of line-delimited JSON records plus one in-memory
index built at open: (system, dtype, signature) maps to that layer's live
records, keyed by their full record key; most lines are decoded on their
layer's first read (below). ``query`` and ``best`` read only the records
of one layer, and ``record_for``, ``has_spec``, ``records()`` and
``compact`` read through the same index. ``records()`` and ``compact``
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

``_record_to_json`` fixes the key order and ``import_lines``
re-serializes, so every line the writer produces reads
``{"v":1,"system":"S","dtype":"D","hash64":"H","signature":"G",
"algorithm":...,"layout":...,"fused":...,"status":...`` with nothing
between the fields, and an open cuts such a line at these markers rather
than decoding it. The raw layer key is (S, D, G) and the raw record key is
the bytes from ``"algorithm":`` up to ``,"status":``, so hash64 is part of
neither. The open stores the raw line and its line number under its layer
and resolves supersession from the raw record key, which must name one of
the writer's (algorithm, layout, fused) triples. A layer's lines are
decoded the first time ``query``, ``best``, ``record_for`` or ``has_spec``
reads that layer, in file order, so the last line still wins.

An unscoped open, and therefore every ``rw`` open, ``db stats``,
``db compact`` and ``db import``, defers a writer line only when one check
proves that the decode accepts it: S, H and G are printable ASCII with no
quote or backslash, D is a known dtype, and the bytes from ``,"status":``
to the newline match ``_TAIL``: an ok status with a JSON number latency
that is positive and finite as a float, or an unsupported one with null;
a string source, a number timestamp and a flat metadata object of strings
and numbers, integer parts at most 16 digits long. Every other line is
decoded at open, so an unscoped open accepts exactly the files it accepted
when it decoded every line and raises the same ``StorageError`` at the same
line.

A read-only open can be scoped to some systems: ``PerfDb(path,
systems=...)`` keeps only their records, so ``len()``, ``records()``,
``superseded`` and every query see only the scope. Any line that starts
``{"v":1,"system":"`` is skipped undecoded when the string that follows
holds no backslash and names a system out of scope. An in-scope writer
line is deferred without the check above, unless it holds a backslash; it
is validated when its layer is read.

Some lines are decoded at open, exactly as an unscoped open decodes them:
a line that does not start ``{"v":1,"system":"``, a line that is not
deferred as above, and an unterminated last line. If such a line's layer
already has undecoded lines, those are decoded first, so file order
holds. A line is assumed to name each field once: a deferred line whose
decoded fields differ from its raw keys raises ``StorageError`` when it is
decoded.

``len()``, ``superseded`` and ``live_by_system()``, which ``db stats``
prints, come from the raw keys counted at open and decode nothing.
``records()`` decodes every deferred line. ``compact`` writes a layer's
undecoded live lines, the last line of each key, as the bytes read, and
re-serializes only decoded records; for a file of writer lines the two
are the same bytes.

The trade-off: a scoped open validates only the lines it decodes. A bad
line of another system goes unnoticed, and so does a bad line in an
in-scope layer that is never read; a bad line in a layer that is read
raises ``StorageError`` (exit 4) at that read, naming its line number.
Unscoped opens raise on any bad line; a scope on an ``rw`` open raises
``StorageError``. The torn-tail rules are the same for every open.

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
import re
import time
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

from .benchgen import FUSION_PATTERNS, BenchmarkSpec, ConvAlgorithm
from .dedup import LayerSignature, parse_signature
from .errors import ConfigError, MissError, ModelParseError, StorageError
from .model_ir import DTYPES, LAYOUTS

_LAYOUT_RANK = {layout: rank for rank, layout in enumerate(LAYOUTS)}
_ALGO_RANK = {algo.name: rank for rank, algo in enumerate(ConvAlgorithm)}
_FUSED_IDS = {p.id for p in FUSION_PATTERNS}
# How every writer line starts, up to the first byte of its system string.
_SYSTEM_AT = b'{"v":1,"system":"'
_BACKSLASH, _NEWLINE = ord("\\"), ord("\n")  # ints, so ``in`` looks for one byte
# A writer line from the closing quote of its system string to the closing
# quote of its signature.
_LAYER_PART = re.compile(rb'","dtype":"([^"]*)","hash64":"[^"]*","signature":"([^"]*)"')
# A writer line's head, from the first byte of its system string to the
# closing quote of its signature: the system, dtype and signature. A scoped
# open takes any head; an unscoped one only a head the decode accepts, whose
# strings are printable ASCII without quote or backslash. These two patterns
# and _TAIL are compiled on first use, so a command that never opens the
# database unscoped does not pay for them.
_SCOPED_HEAD = rb'([^"]*)' + _LAYER_PART.pattern
_PLAIN = rb'[ !#-\[\]-~]*'  # printable ASCII but quote and backslash
_HEAD = rb'(%s)","dtype":"(%s)","hash64":"%s","signature":"(%s)"' \
    % (_PLAIN, "|".join(DTYPES).encode(), _PLAIN, _PLAIN)
# A writer line from ,"status": to its newline, in a form the decode accepts:
# an ok status with a number latency (group 1, still to be checked finite and
# positive) or an unsupported one with null, string source, number timestamp
# and a flat metadata object of strings and numbers. An integer part has at
# most 16 digits, so the decoder's limit on integer digits never applies.
_STR = rb'"%s(?:\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4})%s)*"' % (_PLAIN, _PLAIN)
_NUM = rb'-?(?:0|[1-9][0-9]{0,15})(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?'
_ITEM = rb'%s:(?:%s|%s)' % (_STR, _STR, _NUM)
_TAIL = (rb',"status":(?:"ok","latency_us":(%s)|"unsupported","latency_us":null),'
         rb'"source":%s,"timestamp":%s,"metadata":\{(?:%s(?:,%s)*)?\}\}\n'
         % (_NUM, _STR, _NUM, _ITEM, _ITEM))
# Each record key the writer produces, as the bytes from "algorithm": up to
# ,"status":, and the (algorithm, layout, fused) it stands for.
_WRITER_KEYS = {
    json.dumps({"algorithm": a, "layout": lay, "fused": f},
               separators=(",", ":"))[1:-1].encode(): (a, lay, f)
    for a in (None, *_ALGO_RANK) for lay in LAYOUTS for f in (None, *_FUSED_IDS)
}


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
    except (KeyError, ValueError, TypeError, StorageError) as exc:
        raise StorageError(f"bad database record at line {lineno}: {exc}") from exc


class PerfDb:
    """Open with mode "r" for a read-only snapshot or "rw" to insert.

    ``systems`` scopes a read-only snapshot to those systems' records.
    """

    def __init__(self, path, mode: str = "r", systems: Iterable[str] | None = None):
        if mode not in ("r", "rw"):
            raise StorageError(f"unknown db mode {mode!r}")
        if systems is not None and mode != "r":
            raise StorageError("a scoped database open is read-only")
        self.path = str(path)
        self.mode = mode
        self.systems = None if systems is None else frozenset(systems)
        # (system, dtype, signature) -> {index key: live record, or None until
        # the layer's deferred lines are decoded}
        self._by_layer: dict[tuple, dict[tuple, PerfRecord]] = {}
        # (system, dtype, signature) -> [(line number, raw line, index key)] of
        # a scoped open's writer lines, decoded on the layer's first read
        self._deferred: dict[tuple, list[tuple]] = {}
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
        scope = self.systems
        names = {s.encode("utf-8", "surrogatepass") for s in scope or ()}
        tail = re.compile(_TAIL) if scope is None else None
        at = len(_SYSTEM_AT)
        groups: dict[bytes, tuple | None] = {}  # raw head -> its layer, None if not deferred
        torn = False
        raw = b""
        try:
            with open(self.path, "rb") as fh:
                for lineno, raw in enumerate(fh, start=1):
                    if raw.startswith(_SYSTEM_AT):
                        if scope is not None:
                            name = raw[at:raw.find(b'"', at)]
                            if name not in names and _BACKSLASH not in name:
                                continue  # another system's line
                        if raw[-1] == _NEWLINE and self._defer(raw, lineno, groups, tail):
                            continue
                    line = raw.strip()
                    if line:
                        try:
                            rec = _record_from_json(line, lineno)
                        except StorageError:
                            if raw.endswith(b"\n"):
                                raise
                            torn = True  # only the last line can lack its newline
                            break
                        if scope is None or rec.key.system in scope:
                            self._put(rec)
            if self._fh is not None:  # a writer's next append must start a line
                if torn:
                    os.truncate(self.path, os.path.getsize(self.path) - len(raw))
                elif raw and not raw.endswith(b"\n"):
                    self._fh.write("\n")
                    self._fh.flush()
        except OSError as exc:
            raise StorageError(f"cannot read database {self.path}: {exc}") from exc

    def _defer(self, raw: bytes, lineno: int, groups: dict, tail: re.Pattern | None) -> bool:
        """Store a terminated writer line undecoded under its layer.

        ``tail`` is the compiled ``_TAIL`` of an unscoped open and None for a
        scoped one. False when the line must be decoded now: it is not in the
        writer's form, or, for an unscoped open, the check cannot vouch that
        the decode accepts it.
        """
        a = raw.find(b',"algorithm":', len(_SYSTEM_AT))
        s = raw.find(b',"status":', a)
        fields = _WRITER_KEYS.get(raw[a + 1:s])
        if fields is None:
            return False
        if tail is None:
            if _BACKSLASH in raw:
                return False
        else:
            m = tail.fullmatch(raw, s)
            if m is None or m[1] and not 0 < float(m[1]) < math.inf:
                return False
        head = raw[len(_SYSTEM_AT):a]
        if head not in groups:
            groups[head] = self._group(head, _SCOPED_HEAD if tail is None else _HEAD)
        group = groups[head]
        if group is None:
            return False
        lkey, layer, lines = group
        key = lkey + fields
        if key in layer:
            self.superseded += 1
        else:
            layer[key] = None  # decoded on the layer's first read
        lines.append((lineno, raw, key))
        return True

    def _group(self, head: bytes, form: bytes) -> tuple | None:
        """The layer, and its deferred lines, that a writer line's head names.

        ``head`` runs from the first byte of the system string to the record
        key, and ``form`` is _HEAD for an unscoped open and _SCOPED_HEAD for a
        scoped one; None when the head does not match it. Decoded with
        surrogatepass, a scoped open's system bytes give back the name of its
        scope that ``_load`` encoded that way.
        """
        m = re.fullmatch(form, head)
        if m is None:
            return None
        try:
            lkey = (m[1].decode("utf-8", "surrogatepass"), m[2].decode(), m[3].decode())
        except UnicodeDecodeError:
            return None
        return lkey, self._by_layer.setdefault(lkey, {}), self._deferred.setdefault(lkey, [])

    def _layer(self, lkey: tuple) -> dict[tuple, PerfRecord]:
        """One layer's live records by index key, its deferred lines decoded first."""
        lines = self._deferred.get(lkey)
        if lines:
            layer = self._by_layer[lkey]
            for lineno, raw, key in lines:
                rec = _record_from_json(raw, lineno)
                if rec.key.index_key() != key:
                    raise StorageError(f"bad database record at line {lineno}: "
                                       "it names a field twice")
                layer[key] = rec
            lines.clear()
        return self._by_layer.get(lkey, {})

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
        if self._deferred:
            self._layer(key[:3])  # earlier lines of its layer come first
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
            with open(tmp, "wb") as out:
                for lkey, layer in self._by_layer.items():
                    # An undecoded key's live line is its last; it is written as read.
                    lines = {key: raw for _lineno, raw, key in self._deferred.get(lkey, ())}
                    for key, rec in layer.items():
                        out.write(lines[key] if key in lines
                                  else _record_to_json(rec).encode() + b"\n")
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

    def live_by_system(self) -> Counter:
        """Live records per system, counted from the index; decodes nothing."""
        counts: Counter = Counter()
        for (system, _dtype, _signature), layer in self._by_layer.items():
            counts[system] += len(layer)
        return counts

    def records(self) -> list[PerfRecord]:
        for lkey in self._deferred:
            self._layer(lkey)
        return [rec for layer in self._by_layer.values() for rec in layer.values()]

    def record_for(self, key: RecordKey) -> PerfRecord | None:
        index_key = key.index_key()
        return self._layer(index_key[:3]).get(index_key)

    def has_spec(self, system: str, spec: BenchmarkSpec) -> bool:
        return self.record_for(key_for_spec(system, spec)) is not None

    def query(self, system: str, dtype: str,
              signature: LayerSignature | str) -> list[PerfRecord]:
        """All records for a layer across algorithms, layouts and fusion, in hit order."""
        canonical = signature if isinstance(signature, str) else signature.canonical_string
        return sorted(self._layer((system, dtype, canonical)).values(),
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
