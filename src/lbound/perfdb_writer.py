"""The writer's side of the performance database: its lock, ``compact``,
``db import`` and the layer index file.

``perfdb`` describes the file and the index and holds a handle's state;
the functions here work on the state of a ``PerfDb`` opened ``rw``.
``perfdb`` imports this module only when it opens, compacts or closes a
writer, so a read-only command never compiles it.
"""
from __future__ import annotations

import functools
import hashlib
import json
import os

from .errors import ConfigError, ModelParseError, StorageError
from .model_ir import ConvAlgorithm
from .perfdb import (_CHUNK, _INDEX_VERSION, PerfDb, PerfRecord, _record_from_json,
                     key_for_spec)


def lock(path: str, name: str):
    """An append handle on ``path``, locked while it is still the file at ``path``.

    ``name`` is the database the error messages name.
    """
    import fcntl

    try:
        fh = open(path, "ab")
    except OSError as exc:
        raise StorageError(f"cannot open database {name} for writing: {exc}") from exc
    try:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        replaced = not os.path.samestat(os.fstat(fh.fileno()), os.stat(path))
    except BlockingIOError as exc:
        fh.close()
        raise StorageError(f"database {name} is locked by another writer") from exc
    except OSError as exc:
        fh.close()
        raise StorageError(f"cannot open database {name} for writing: {exc}") from exc
    if replaced:  # a writer's compact renamed a new file over it
        fh.close()
        raise StorageError(f"database {name} is locked by another writer")
    return fh


def write_index(db: PerfDb) -> None:
    """Write ``<db>.idx`` for the bytes the writer checked, through a temp file.

    The index is a pure function of those bytes. A system line not read
    since the open is copied byte for byte from the old index, which the
    handle keeps open. A failed write leaves the old index, which still
    describes a prefix of the file.
    """
    layers: dict[str, list] = {}
    for (name, dtype, signature), where in db._where.items():
        layers.setdefault(name, []).append([dtype, signature, where])
    systems = {name: json.dumps([name, entries], separators=(",", ":")).encode() + b"\n"
               for name, entries in layers.items()}
    head = json.dumps({"v": _INDEX_VERSION, "bytes": db._end, "lines": db._lines,
                       "sha256": db._sha.hexdigest(), "superseded": db.superseded},
                      separators=(",", ":"))
    path = db.path + ".idx"
    try:
        for name, (off, size) in db._unread.items():  # read from the old index
            systems[name] = os.pread(db._ix.fileno(), size, off)
        data = b"".join([head.encode(), b"\n", *(systems[name] for name in sorted(systems))])
        with open(path + ".tmp", "wb") as out:
            out.write(data + hashlib.sha256(data).hexdigest().encode() + b"\n")
        os.replace(path + ".tmp", path)
        db._indexed = db._end
    except OSError:
        try:
            os.unlink(path + ".tmp")
        except OSError:
            pass


def import_records(text: str) -> list[PerfRecord]:
    """The records of an external result file, each checked against its spec.

    The first bad line raises ``StorageError``, before anything is written.
    """
    from .benchgen import BenchmarkSpec  # only an import rebuilds specs
    from .dedup import parse_signature

    parse = functools.cache(parse_signature)  # one parse per distinct signature
    records = []
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
        if key_for_spec(key.system, spec) != key or rec.hash64 != sig.hash64:
            raise StorageError(f"bad database record at line {lineno}: dtype and hash64 "
                               f"must be {sig.dtype!r} and {sig.hash64!r}")
        records.append(rec)
    return records


def compact(db: PerfDb) -> int:
    """``PerfDb.compact``: rewrite the file with live records only."""
    db._writable()
    dropped = db.superseded
    db._read_all_systems()
    order = sorted(db._where, key=lambda lkey: lkey[0])  # as ``records()`` reads them
    runs = []  # (offset, length) of the byte runs to copy, in order
    moved = []  # per layer, [offset, length, ...] in the new file
    pos = start = end = 0
    for lkey in order:
        new = db._listed(lkey)[:]
        for i in range(0, len(new), 2):
            if new[i] != end:
                runs.append((start, end - start))
                start = new[i]
            end = new[i] + new[i + 1]
            new[i] = pos
            pos += new[i + 1]
        moved.append(new)
    runs.append((start, end - start))
    sha = hashlib.sha256()
    tmp = db.path + ".compact"
    try:
        with open(db.path, "rb") as src, open(tmp, "wb") as out:
            for off, size in runs:
                src.seek(off)
                while size:
                    chunk = src.read(min(size, _CHUNK))
                    if not chunk:
                        raise OSError("the file is shorter than its records")
                    out.write(chunk)
                    sha.update(chunk)
                    size -= len(chunk)
    except OSError as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise StorageError(f"cannot compact database {db.path}: {exc}") from exc
    fh = lock(tmp, db.path)  # before the rename, so no other writer can lock the new file
    try:
        os.replace(tmp, db.path)
        rd = open(db.path, "rb")
    except OSError as exc:
        fh.close()
        raise StorageError(f"cannot compact database {db.path}: {exc}") from exc
    db._fh.close()  # the old file's lock; the new file holds its own
    if db._rd is not None:
        db._rd.close()
    db._fh, db._rd, db._sha = fh, rd, sha
    # Each position is the handle's own, in the new file: its end bounds them all.
    db._end = db._indexed = pos
    db._lines, db.superseded = sum(map(len, moved)) // 2, 0
    db._where.update(zip(order, moved))
    write_index(db)
    return dropped
