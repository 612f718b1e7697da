from __future__ import annotations

import contextlib
import errno
import functools
import hashlib
import io
import itertools
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lbound
import modelzoo as mz
from cli_run import invoke
from lbound.errors import MissError, StorageError
from lbound.perfdb import (
    PerfDb,
    PerfRecord,
    RecordKey,
    _hit_order,
    _record_from_json,
    _record_to_json,
)
from records import fields

SYSTEMS = ("sysA", "sysB")
DTYPES = ("f32", "f16")
SIGNATURES = ("Conv|f32|in=1x8x4x4|k=3", "Relu|f32|in=1x8x4x4|", "Add|f16|in=1x8|")
ALGOS = (None, "IGEMM", "GEMM", "FFT", "WINGNF")
LAYOUTS = ("NCHW", "NHWC")
FUSED = (None, "conv_bias", "conv_bias_act")


@st.composite
def records(draw, systems=SYSTEMS, signatures=SIGNATURES):
    key = RecordKey(
        system=draw(st.sampled_from(systems)),
        dtype=draw(st.sampled_from(DTYPES)),
        signature=draw(st.sampled_from(signatures)),
        algorithm=draw(st.sampled_from(ALGOS)),
        layout=draw(st.sampled_from(LAYOUTS)),
        fused=draw(st.sampled_from(FUSED)),
    )
    if draw(st.booleans()) and draw(st.booleans()):
        return PerfRecord(key, None, status="unsupported", timestamp=1.0)
    # A few latencies only, so ties in the hit order are common.
    return PerfRecord(key, draw(st.sampled_from((1.0, 2.0, 2.5))), timestamp=2.0)


def _scan(db: PerfDb, system: str, dtype: str, sig: str) -> list[PerfRecord]:
    hits = [r for r in db.records()
            if (r.key.system, r.key.dtype, r.key.signature) == (system, dtype, sig)]
    return sorted(hits, key=_hit_order)


def _miss_key(system, dtype, sig, layout, fused) -> str:
    return f"{system}/{dtype}/{layout or 'NCHW'}/-/{fused or '-'}/{sig}"


def check_index(db: PerfDb, layers) -> None:
    for system, dtype, sig in layers:
        expected = _scan(db, system, dtype, sig)
        got = db.query(system, dtype, sig)
        assert [id(r) for r in got] == [id(r) for r in expected]
        for layout in (None, *LAYOUTS):
            for fused in FUSED:
                cands = [r for r in expected if r.status == "ok"
                         and (layout is None or r.key.layout == layout)
                         and r.key.fused == fused]
                if cands:
                    assert db.best(system, dtype, sig, layout=layout, fused=fused) \
                        is min(cands, key=_hit_order)
                else:
                    with pytest.raises(MissError) as exc:
                        db.best(system, dtype, sig, layout=layout, fused=fused)
                    assert exc.value.keys == [_miss_key(system, dtype, sig, layout, fused)]


ALL_LAYERS = [(s, d, g) for s in SYSTEMS for d in DTYPES for g in SIGNATURES]


@settings(max_examples=60, deadline=None)
@given(st.lists(records(), max_size=60), st.integers(0, 60))
def test_index_matches_linear_scan(recs, one_by_one):
    """The first ``one_by_one`` records are inserted each on its own, the rest in one call."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "perf.db")
        with PerfDb(path, mode="rw") as db:
            for rec in recs[:one_by_one]:
                db.insert(rec)
            db.insert(*recs[one_by_one:])
            live = len({r.key for r in recs})
            assert len(db) == live
            assert db.superseded == len(recs) - live
            check_index(db, ALL_LAYERS)
            before = fields(db.records())
            with PerfDb(path) as snap:
                assert fields(snap.records()) == before
                check_index(snap, ALL_LAYERS)
            assert db.compact() == len(recs) - live
            assert fields(db.records()) == before
            check_index(db, ALL_LAYERS)
        with PerfDb(path) as snap:
            assert fields(snap.records()) == before
            assert snap.superseded == 0
            check_index(snap, ALL_LAYERS)


def test_resnet50_index_with_superseded_records(db_builder, v100):
    graph = mz.load(mz.resnet_v1_text(50))
    path = db_builder([graph], v100, fusion=True, jitter_seed=1)
    db_builder([graph], v100, fusion=True, jitter_seed=2)  # supersedes every record
    with PerfDb(path) as db:
        assert db.superseded == len(db) > 0
        layers = sorted({r.key[:3] for r in db.records()})
        layers.append(("Tesla_V100", "f32", "Relu|f32|in=9x9|"))
        check_index(db, layers)


def test_records_group_by_layer(tmp_path):
    def rec(sig, algo, latency):
        return PerfRecord(RecordKey("sysA", "f32", sig, algo, "NCHW", None), latency)

    conv, relu = SIGNATURES[0], SIGNATURES[1]
    path = tmp_path / "perf.db"
    with PerfDb(path, mode="rw") as db:
        for r in (rec(conv, "GEMM", 1.0), rec(relu, None, 2.0), rec(conv, "FFT", 3.0),
                  rec(conv, "GEMM", 4.0)):
            db.insert(r)
        # Layers in order of first appearance; a superseding record keeps its slot.
        order = [(r.key.signature, r.latency_us) for r in db.records()]
        assert order == [(conv, 4.0), (conv, 3.0), (relu, 2.0)]
        db.compact()
    with PerfDb(path) as db:
        assert [(r.key.signature, r.latency_us) for r in db.records()] == order


# A writer line of a fused f16 spec, as ``make_record`` builds it.
_SIG = ("Conv|f16|in=2x3x8x8|dilations=1x1,group=1,kernel=3x3,pads=1x1x1x1,strides=1x1,"
        "w1=4x3x3x3")
_LINE = ('{"v":1,"system":"Tesla_V100","dtype":"f16","hash64":"57a1376d18405749",'
         f'"signature":"{_SIG}","algorithm":null,"layout":"NHWC","fused":"conv_bias",'
         '"status":"ok","latency_us":2.5,"source":"simulated","timestamp":1.5,'
         '"metadata":{"macs":1}}')


def test_a_record_key_is_the_six_fields_that_identify_a_record():
    assert RecordKey._fields == ("system", "dtype", "signature", "algorithm", "layout", "fused")


def test_hash64_is_record_data_and_the_line_keeps_its_bytes():
    from lbound import benchgen, dedup
    from lbound.perfdb import key_for_spec, make_record

    sig = dedup.parse_signature(_SIG)
    spec = benchgen.BenchmarkSpec(sig, None, "NHWC", "conv_bias")
    rec = make_record("Tesla_V100", spec, 2.5, metadata={"macs": 1})
    rec.timestamp = 1.5
    assert rec.key == key_for_spec("Tesla_V100", spec) \
        == ("Tesla_V100", "f16", _SIG, None, "NHWC", "conv_bias")
    assert rec.hash64 == sig.hash64 == "57a1376d18405749"
    assert _record_to_json(rec) == _LINE
    again = _record_from_json(_LINE.encode(), 1)
    assert fields(again) == fields(rec) and _record_to_json(again) == _LINE


# ---------------------------------------------------------------------------
# Torn tails and corrupt lines
# ---------------------------------------------------------------------------

def _record(i: int) -> PerfRecord:
    key = RecordKey("sysA", "f32", f"Relu|f32|in=1x{i}|", None, "NCHW", None)
    return PerfRecord(key, float(i + 1), timestamp=float(i))


@pytest.fixture
def db_file(tmp_path):
    path = tmp_path / "perf.db"
    with PerfDb(path, mode="rw") as db:
        for i in range(5):
            db.insert(_record(i))
    return path


def _cut(path, nbytes: int) -> bytes:
    data = path.read_bytes()
    path.write_bytes(data[:-nbytes])
    return data


def test_read_only_open_skips_torn_tail(db_file):
    full = _cut(db_file, 40)
    torn = db_file.read_bytes()
    with PerfDb(db_file) as db:
        assert [r.latency_us for r in db.records()] == [1.0, 2.0, 3.0, 4.0]
    assert db_file.read_bytes() == torn
    assert full.startswith(torn)


def test_writer_truncates_torn_tail(db_file):
    _cut(db_file, 40)
    lines = db_file.read_bytes().split(b"\n")
    with PerfDb(db_file, mode="rw") as db:
        assert len(db) == 4
        assert db_file.read_bytes() == b"\n".join(lines[:-1]) + b"\n"
        db.insert(_record(9))
    with PerfDb(db_file) as db:
        assert [r.latency_us for r in db.records()] == [1.0, 2.0, 3.0, 4.0, 10.0]


def test_writer_terminates_a_complete_unterminated_last_line(db_file):
    _cut(db_file, 1)
    with PerfDb(db_file, mode="rw") as db:
        assert len(db) == 5
        db.insert(_record(9))
    with PerfDb(db_file) as db:
        assert len(db) == 6


@pytest.mark.parametrize("mode", ["r", "rw"])
def test_corrupt_middle_line_still_fails(db_file, mode):
    lines = db_file.read_bytes().split(b"\n")
    lines[2] = lines[2][:25]
    corrupt = b"\n".join(lines)
    db_file.write_bytes(corrupt)
    with pytest.raises(StorageError, match="line 3") as first:
        PerfDb(db_file, mode=mode)
    assert db_file.read_bytes() == corrupt
    # The failed handle stays reachable from ``first``; its lock must be gone.
    with pytest.raises(StorageError, match="line 3"):
        PerfDb(db_file, mode=mode)
    assert first.value


@pytest.mark.parametrize("mode", ["r", "rw"])
def test_corrupt_terminated_last_line_fails(db_file, mode):
    data = db_file.read_bytes()
    db_file.write_bytes(data[:-40] + b"\n")
    with pytest.raises(StorageError, match="line 5"):
        PerfDb(db_file, mode=mode)


# ---------------------------------------------------------------------------
# Layer index states
# ---------------------------------------------------------------------------

OTHER_FILE = _record_to_json(PerfRecord(
    RecordKey("sysB", "f16", SIGNATURES[2], None, "NHWC", None), 9.0)).encode() + b"\n"


def _accepted_ends(data: bytes) -> list[int]:
    """0 and the end of each whole line of the longest prefix that a writer accepts."""
    ends = [0]
    for raw in io.BytesIO(data):
        if not raw.endswith(b"\n"):
            break
        if raw.strip():
            try:
                _record_from_json(raw.strip(), 0)
            except StorageError:
                break
        ends.append(ends[-1] + len(raw))
    return ends


@functools.lru_cache(maxsize=64)
def _index_for(data: bytes, tmp) -> bytes:
    """The layer index that a writer leaves beside a file of ``data`` it opened without one."""
    path = os.path.join(tmp, "index-source.db")
    for stale in (path, path + ".idx"):
        if os.path.exists(stale):
            os.unlink(stale)
    with open(path, "wb") as fh:
        fh.write(data)
    PerfDb(path, mode="rw").close()
    with open(path + ".idx", "rb") as fh:
        return fh.read()


def _edited(index: bytes, edit) -> bytes:
    """``index`` with ``edit`` applied to each of its lines, parsed as JSON,
    and its sha256 line recomputed, so the index is read as one."""
    lines = [json.dumps(edit(json.loads(line)), separators=(",", ":")).encode() + b"\n"
             for line in index.splitlines()[:-1]]
    body = b"".join(lines)
    return body + hashlib.sha256(body).hexdigest().encode() + b"\n"


def _older(index: bytes) -> bytes:
    """``index`` as an older format version wrote it: only its version is wrong."""
    return _edited(index, lambda obj: {**obj, "v": obj["v"] - 1} if "v" in obj else obj)


def _v2(index: bytes) -> bytes:
    """``index`` in the shape of format version 2, re-signed: a layer count in
    the head, a live count on each system line and a rank on each layer. The
    first system's count is 999999, which no open may print."""
    systems = [json.loads(line) for line in index.splitlines()[1:-1]]
    ranks = itertools.count()

    def edit(obj):
        if isinstance(obj, dict):  # the head
            return {**obj, "v": 2, "layers": sum(len(layers) for _name, layers in systems)}
        name, layers = obj
        live = sum(len(where) for *_, where in layers) // 2
        return [name, 999999 if name == systems[0][0] else live,
                [[next(ranks), *entry] for entry in layers]]

    return _edited(index, edit)


def _line_at(data: bytes, offset: int) -> int:
    """The number of the line of ``data`` that starts at byte ``offset``."""
    return data.count(b"\n", 0, offset) + 1


def _v3(index: bytes, data: bytes) -> bytes:
    """``index`` in the shape of format version 3, re-signed: each live line
    of ``data`` listed as (offset, length, line number), and a superseded
    count of 999999, which no open may print."""
    def edit(obj):
        if isinstance(obj, dict):  # the head
            return {**obj, "v": 3, "superseded": 999999}
        name, layers = obj
        return [name, [[dtype, sig, [n for off, size in zip(where[::2], where[1::2])
                                     for n in (off, size, _line_at(data, off))]]
                       for dtype, sig, where in layers]]

    return _edited(index, edit)


def _head(index: bytes) -> bytes:
    """``index`` with a superseded count of 999999, re-signed: no line count holds it."""
    return _edited(index, lambda obj: {**obj, "superseded": 999999} if "v" in obj else obj)


def _line_named(data: bytes, exc: BaseException) -> int:
    """The number of the line of ``data`` whose byte offset an index error names."""
    return _line_at(data, int(re.search(r"the line at byte (\d+)", str(exc))[1]))


# The ways ``_forged`` malforms a layer entry [dtype, signature, positions]:
# an offset as a string, a length past any file, positions that are not
# whole pairs, and an int dtype.
FORGERIES = (
    lambda dtype, sig, where: [dtype, sig, [str(where[0]), *where[1:]]],
    lambda dtype, sig, where: [dtype, sig, [where[0], 10**20, *where[2:]]],
    lambda dtype, sig, where: [dtype, sig, where[:1]],
    lambda dtype, sig, where: [1, sig, where],
)


def _forged(index: bytes, forgeries=FORGERIES) -> bytes:
    """``index`` with each layer entry malformed by the next of ``forgeries``,
    in turn, and its sha256 line recomputed, so the index is read as one."""
    forgeries = itertools.cycle(forgeries)

    def edit(obj):
        if isinstance(obj, dict):  # the head
            return obj
        name, layers = obj
        return [name, [next(forgeries)(*entry) for entry in layers]]

    return _edited(index, edit)


def _index_states(data: bytes, covered: int, tmp) -> dict[str, bytes | None]:
    """The sidecar indexes to open a file of ``data`` with.

    None; a writer's index of the first ``covered`` bytes, whole lines that
    a writer accepts; the index of another file; that index cut short, so
    it does not parse; an index whose length exceeds the file's; the valid
    index of an older format version; the valid index in the shapes of
    format versions 2 and 3, each with a count forged; the valid index
    forged, so that every layer it lists is malformed; and the valid index
    with a superseded count that no line count holds.
    """
    valid = _index_for(data[:covered], tmp)
    return {"none": None, "valid": valid, "other": _index_for(OTHER_FILE, tmp),
            "truncated": valid[:len(valid) // 2],
            "longer": _index_for(data[:covered] + b"\n" * (len(data) + 1), tmp),
            "older": _older(valid), "v2": _v2(valid), "v3": _v3(valid, data),
            "forged": _forged(valid), "head": _head(valid)}


def _lists_a_layer(index: bytes) -> bool:
    return any(json.loads(line)[1] for line in index.splitlines()[1:-1])


@contextlib.contextmanager
def _forgery_refused(state: str, listed: bool = False, counts: bool = False):
    """Run the block; in the "forged" state it may raise the index's
    ``StorageError`` instead of finishing, and must when ``listed``. In the
    "head" state it must raise it when the block ``counts`` every system's
    records, and must finish otherwise."""
    must = state == "forged" and listed or state == "head" and counts
    try:
        yield
    except StorageError as exc:
        if not (state == "forged" or must) or "bad database index" not in str(exc):
            raise
    else:
        assert not must, f"a forged index was read in state {state}"


def _put_back(path, data: bytes, index: bytes | None) -> None:
    """Write the database file and its sidecar index, or remove the index."""
    with open(path, "wb") as fh:
        fh.write(data)
    if index is None:
        if os.path.exists(f"{path}.idx"):
            os.unlink(f"{path}.idx")
    else:
        with open(f"{path}.idx", "wb") as fh:
            fh.write(index)


# ---------------------------------------------------------------------------
# Each system's reads in every index state
# ---------------------------------------------------------------------------

# Names that are prefixes of each other, need JSON escapes, or are not ASCII.
SCOPE_SYSTEMS = ("sysA", "sysAB", "", 'q"x', "b\\s", "Tésla", "\U0001f680")


def _changed(rec, **changes):
    """A record or key like ``rec`` with ``changes``, built and checked anew."""
    if isinstance(rec, RecordKey):
        return rec._replace(**changes)
    return type(rec)(**{**vars(rec), **changes})


def _with_system(rec: PerfRecord, system: str) -> PerfRecord:
    return _changed(rec, key=_changed(rec.key, system=system))


def _hand_written(rec: PerfRecord, form: str) -> str:
    """One record as a line that the writer would not produce."""
    line = _record_to_json(rec)
    obj = json.loads(line)
    if form == "spaced":
        return json.dumps(obj)
    if form == "reordered":
        return json.dumps(dict(reversed(obj.items())), separators=(",", ":"))
    if form == "raw-utf8":
        return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)
    if form == "escaped":  # every BMP character of the system as a \u escape
        name = "".join(f"\\u{ord(c):04x}" if ord(c) < 0x10000 else c for c in rec.key.system)
        return line.replace(json.dumps(rec.key.system), f'"{name}"', 1)
    if form == "space-before-comma":
        at = len('{"v":1,"system":') + len(json.dumps(rec.key.system))
        return line[:at] + " " + line[at:]
    if form == "field-twice":  # a second dtype, which a full decode takes
        other = "f16" if rec.key.dtype == "f32" else "f32"
        return line[:-1] + f',"dtype":"{other}"}}'
    return "  " + line  # indented


FORMS = ("writer", "spaced", "reordered", "raw-utf8", "escaped", "space-before-comma",
         "field-twice", "indented")


@st.composite
def few_keys(draw):
    """Records of at most three keys of two systems' layers of one signature.

    Keys are then superseded often, and a layer often mixes writer lines
    with hand-written ones.
    """
    pool = draw(st.lists(records(("sysA", "sysAB"), SIGNATURES[:1]), min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from(pool), max_size=30))


@st.composite
def db_texts(draw, recs=st.lists(records(SCOPE_SYSTEMS), max_size=40)):
    lines = []
    for i, rec in enumerate(draw(recs) + [draw(records(SCOPE_SYSTEMS))]):
        rec = _changed(rec, timestamp=float(i))  # a superseded record differs
        form = draw(st.sampled_from(FORMS))
        lines.append(_record_to_json(rec) if form == "writer" else _hand_written(rec, form))
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
    # The last line is torn, complete but unterminated, or whole.
    lines[-1] = lines[-1][:draw(st.integers(1, len(lines[-1]) + 1))]
    return "\n".join(lines)


def _best_or_miss(db: PerfDb, system, dtype, sig, **kw):
    try:
        return db.best(system, dtype, sig, **kw)
    except MissError as exc:
        return exc.keys


def _answers(db: PerfDb, system: str) -> list:
    """Every query and best of one system's layers, a miss as its keys."""
    return [(db.query(system, dtype, sig),
             [_best_or_miss(db, system, dtype, sig, layout=layout, fused=fused)
              for layout, fused in itertools.product((None, *LAYOUTS), FUSED)])
            for dtype, sig in itertools.product(DTYPES, SIGNATURES)]


@settings(max_examples=80, deadline=None)
@given(st.one_of(db_texts(), db_texts(few_keys())), st.integers(0, 10**6))
def test_each_system_reads_in_every_index_state_as_without_an_index(text, cut):
    """Writer and hand-written lines; a fresh open per system, so each one is
    the first system that its open touches."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "perf.db")
        data = text.encode("utf-8")
        _put_back(path, data, None)
        with PerfDb(path) as bare:
            counts, live = (len(bare), bare.superseded), bare.records()
            answers = {system: fields(_answers(bare, system)) for system in SCOPE_SYSTEMS}
        ends = _accepted_ends(data)
        states = _index_states(data, ends[cut % len(ends)], tmp)
        for state, index in states.items():
            _put_back(path, data, index)
            for system in SCOPE_SYSTEMS:
                with _forgery_refused(state), PerfDb(path) as db:
                    with _forgery_refused(state, counts=True):  # reads every system line
                        assert (len(db), db.superseded) == counts, state  # before any read
                    assert fields(_answers(db, system)) == answers[system], (state, system)
                    with _forgery_refused(state, counts=True):
                        assert (len(db), db.superseded) == counts, state
            with _forgery_refused(state, _lists_a_layer(states["valid"]), counts=True), \
                    PerfDb(path) as db:
                assert fields([db.record_for(rec.key) for rec in live]) == fields(live), state
                assert fields(db.records()) == fields(live), state


@pytest.mark.parametrize("forgery", FORGERIES,
                         ids=["string-offset", "huge-length", "one-position", "int-dtype"])
def test_a_forged_index_exits_4_on_every_read(tmp_path, forgery):
    """A signed index whose every entry is malformed one way: each command
    that reads the system exits 4, and ``db compact`` changes and leaves no
    file. ``db stats`` exits 4 too when the entry's shape is wrong."""
    model, db = tmp_path / "m.txt", tmp_path / "perf.db"
    model.write_text(mz.resnet_v1_text(18), "utf-8")
    analyze = ["analyze", str(model), "--db", str(db), "--system", "Tesla_V100"]
    assert invoke(["bench", str(model), "--db", str(db), "--system", "Tesla_V100",
                   "--simulate"]).exit_code == 0
    stats = ["db", "stats", str(db)]
    honest = invoke(stats).stdout
    idx = pathlib.Path(f"{db}.idx")
    idx.write_bytes(_forged(idx.read_bytes(), (forgery,)))
    files = db.read_bytes(), idx.read_bytes()
    # Entries that are not [dtype, signature, whole pairs] are refused when
    # their system line is read, so ``db stats`` exits 4 too; the others are
    # counted from their positions, and it prints the honest counts.
    refused = forgery in FORGERIES[2:]
    for args in (analyze, analyze, ["db", "compact", str(db)], *[stats] * refused):
        res = invoke(args)
        assert res.exit_code == 4 and isinstance(res.exception, SystemExit), res.output
        assert "bad database index" in res.output or args[1] == "compact", res.output
        assert (db.read_bytes(), idx.read_bytes()) == files
        assert sorted(os.listdir(tmp_path)) == ["m.txt", "perf.db", "perf.db.idx"]
    if not refused:
        res = invoke(stats)
        assert (res.exit_code, res.stdout) == (0, honest), res.output


def test_db_stats_does_not_trust_a_count_in_an_older_index(tmp_path):
    """The index of format version 2 held a live count per system, which an
    open took on trust: with one count edited and the index re-signed, ``db
    stats`` printed it and exited 0. Version 3 took its superseded count on
    trust the same way. Neither is trusted now, and the next writer replaces
    each with the index of the file."""
    model, db = tmp_path / "m.txt", tmp_path / "perf.db"
    model.write_text(mz.resnet_v1_text(18), "utf-8")
    assert invoke(["bench", str(model), "--db", str(db), "--system", "Tesla_V100,Tesla_T4",
                   "--dtypes", "f32", "--simulate"]).exit_code == 0
    stats = ["db", "stats", str(db)]
    honest = invoke(stats).stdout
    idx = pathlib.Path(f"{db}.idx")
    index = idx.read_bytes()
    for older in (_v2(index), _v3(index, db.read_bytes())):
        idx.write_bytes(older)
        res = invoke(stats)
        assert (res.exit_code, res.stdout) == (0, honest), res.output
        PerfDb(db, mode="rw").close()
        assert idx.read_bytes() == index


@pytest.mark.parametrize("forged", ["superseded", "lines-then-append"])
def test_a_head_count_that_the_lines_cannot_hold_exits_4_on_every_count(tmp_path, forged):
    """A re-signed index whose head says 999999 superseded records, or 5
    lines before a writer appends to the file and carries the count on:
    each live and superseded record is a line, so ``db stats`` and ``db
    compact`` exit 4 and change neither file. ``analyze`` counts nothing and
    prints the report of an open without the index."""
    model, db = tmp_path / "m.txt", tmp_path / "perf.db"
    model.write_text(mz.resnet_v1_text(18), "utf-8")
    bench = ["bench", str(model), "--db", str(db), "--simulate", "--system"]
    assert invoke([*bench, "Tesla_V100"]).exit_code == 0
    idx = pathlib.Path(f"{db}.idx")
    system = "Tesla_V100"
    if forged == "superseded":
        idx.write_bytes(_head(idx.read_bytes()))
    else:
        idx.write_bytes(_edited(idx.read_bytes(),
                                lambda obj: {**obj, "lines": 5} if "v" in obj else obj))
        system = "Tesla_T4"  # the lines that the writer listed, and counted on from 5
        assert invoke([*bench, system]).exit_code == 0
    files = db.read_bytes(), idx.read_bytes()
    analyze = ["analyze", str(model), "--db", str(db), "--system", system]
    report = invoke(analyze)
    for args in (["db", "stats", str(db)], ["db", "compact", str(db)]):
        res = invoke(args)
        assert res.exit_code == 4 and isinstance(res.exception, SystemExit), res.output
        assert "bad database index" in res.output and f"delete {idx}" in res.output
        assert (db.read_bytes(), idx.read_bytes()) == files
    assert report.exit_code == 0, report.output
    idx.unlink()
    assert invoke(analyze).output == report.output


def test_a_forged_entry_read_at_open_fails_the_open(tmp_path):
    """A line past the index makes the open enter its system's index line. An
    entry there with one position, not a whole pair, fails the open, so
    ``len`` and ``db stats`` cannot count the layer short and exit 0."""
    path = tmp_path / "perf.db"

    def rec(system, sig):
        return PerfRecord(RecordKey(system, "f32", sig, None, "NCHW", None), 1.0)

    with PerfDb(path, mode="rw") as db:
        db.insert(rec("sysA", SIGNATURES[0]))
        db.insert(rec("sysB", SIGNATURES[1]))
    with open(path, "ab") as fh:  # past the index
        fh.write(_record_to_json(rec("sysA", SIGNATURES[1])).encode() + b"\n")
    idx = pathlib.Path(f"{path}.idx")
    idx.write_bytes(_edited(idx.read_bytes(), lambda obj: obj if isinstance(obj, dict)
                            else [obj[0], [FORGERIES[2](*entry) for entry in obj[1]]]
                            if obj[0] == "sysA" else obj))
    with pytest.raises(StorageError, match="bad database index"):
        PerfDb(path)
    res = invoke(["db", "stats", str(path)])
    assert res.exit_code == 4 and isinstance(res.exception, SystemExit), res.output
    assert "bad database index" in res.output


def _replace_line(path, lineno: int, old: bytes, new: bytes) -> None:
    lines = path.read_bytes().splitlines(keepends=True)
    assert old in lines[lineno - 1]
    lines[lineno - 1] = lines[lineno - 1].replace(old, new)
    path.write_bytes(b"".join(lines))


def test_a_bad_line_fails_every_open(db_file):
    """Whichever system the line holds, past the index or with no index to trust."""
    bad = _record_to_json(_with_system(_record(5), "sysB"))
    with open(db_file, "a", encoding="utf-8") as fh:  # line 6, past the index of lines 1-5
        fh.write(bad.replace('"latency_us":6.0,', '"latency_us":-1,') + "\n")
    for mode in ("r", "rw"):
        with pytest.raises(StorageError, match="line 6: ok record needs a positive"):
            PerfDb(db_file, mode=mode)
    # Each line of db_file is its own layer; line 3 holds latency 3.0.
    _replace_line(db_file, 3, b'"latency_us":3.0,', b'"latency_us":-1,')
    for mode in ("r", "rw"):
        with pytest.raises(StorageError, match="line 3: ok record needs a positive"):
            PerfDb(db_file, mode=mode)


# ---------------------------------------------------------------------------
# Opens against decoding every line
# ---------------------------------------------------------------------------

METADATA = ({}, {"macs": 25690112, "bytes": 1500160, "model": "roofline-synthetic"},
            {"reason": "algorithm unsupported for shape"}, {"note": "Tésla"},
            {"k": 'q"\\/', "n": -2.5e-7})


@st.composite
def writer_lines(draw):
    """Writer lines of at most four keys, so keys are superseded often."""
    pool = draw(st.lists(records(), min_size=1, max_size=4))
    lines = []
    for rec in draw(st.lists(st.sampled_from(pool), max_size=25)):
        latency = rec.latency_us and draw(st.one_of(
            st.floats(1e-300, 1e300), st.integers(1, 10**15)))
        rec = _changed(
            rec, latency_us=latency, metadata=draw(st.sampled_from(METADATA)),
            source=draw(st.sampled_from(("simulated", "imported", ""))),
            hash64=draw(st.sampled_from(("", "00", "0123456789abcdef"))),
            timestamp=draw(st.one_of(st.floats(0, 2e9), st.integers(0, 2 * 10**9))))
        lines.append(_record_to_json(rec).encode() + b"\n")
    return lines


# What a mutation puts into a line: quotes, backslashes, control bytes,
# non-ASCII (valid and invalid UTF-8) and JSON punctuation.
BYTES = (b'"', b"\\", b"\\u00e9", b"\\x", b"\x00", b"\x1f", b"\x7f", "é".encode(),
         b"\xff", b",", b"}", b"{", b"1", b" ", b"e", b"\r")
# What replaces a field's value: odd numbers, odd strings and other JSON types.
VALUES = (b"NaN", b"Infinity", b"-Infinity", b"1e999", b"1e-999", b"0", b"-0.0", b"-1", b"7",
          b"1.5E3", b"2.", b"01", b"1" * 16, b"1" * 17, b"1" * 400, b"9" * 5000,
          b'"f16"', b'"f64"', '"Tésla"'.encode(), b'"\\u00e9"', b'"\\ud800"', b'"a\\"b"',
          b'"\\x"', b'"\x01"', b'"\x7f"', b'""', b"true", b"null", b"{}", b'{"a":1}', b"[1]")
# The fields whose values a mutation damages.
NAMES = (b'"system":', b'"dtype":', b'"hash64":', b'"signature":', b'"latency_us":',
         b'"source":', b'"timestamp":', b'"macs":', b'"model":', b'"note":', b'"k":')
# A JSON string or any other value, from its first byte.
VALUE = re.compile(rb'"(?:[^"\\]|\\.)*"|[^,}]*')
# Fields inserted before a closing brace: duplicates and nested metadata.
FIELDS = (b',"dtype":"f16"', b',"latency_us":2.0', b',"status":"unsupported"',
          b',"model":1', b',"m":{"a":1}', b',"m":[1]', b',"metadata":{}')


@st.composite
def mutated(draw, line: bytes) -> bytes:
    """One line with a byte put into a value, a value replaced, a field added or a cut."""
    body = line[:-1]
    kind = draw(st.sampled_from(("byte", "byte", "value", "value", "field", "cut")))
    names = [name for name in NAMES if name in body]
    if kind in ("byte", "value") and names:
        name = draw(st.sampled_from(names))
        at = body.index(name) + len(name)
        end = VALUE.match(body, at).end()
        if kind == "value":
            body = body[:at] + draw(st.sampled_from(VALUES)) + body[end:]
        else:  # put in, or overwrite one byte
            i = draw(st.sampled_from(range(at, end + 1)))  # uniform, where integers() is not
            body = body[:i] + draw(st.sampled_from(BYTES)) + body[i + draw(st.booleans()):]
    elif kind == "field":
        at = draw(st.sampled_from((len(body) - 1, len(body) - 2)))  # the line or metadata
        body = body[:at] + draw(st.sampled_from(FIELDS)) + body[at:]
    else:
        body = body[:draw(st.sampled_from(range(len(body) + 1)))]
    return body + b"\n"


@st.composite
def damaged_files(draw):
    """Writer lines, up to three mutated, with blank lines and a torn or whole last line."""
    lines = draw(writer_lines())
    for i in draw(st.lists(st.integers(0, len(lines) - 1), max_size=3)) if lines else ():
        lines[i] = draw(mutated(lines[i]))
    for i in draw(st.lists(st.integers(0, len(lines) - 1), max_size=2)) if lines else ():
        lines[i] = b"\n" + lines[i]
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1][:draw(st.integers(0, len(lines[-1]) - 1))]
    return b"".join(lines)


def _decode_every_line(path) -> tuple[str | None, list[str], int, bytes]:
    """The oracle: decode every line in file order.

    Returns the error of the first bad line, or else the live records as
    JSON lines, grouped by system and then by layer as ``records()`` groups
    them, and the superseded count; last, the file as a writer leaves it. An
    unterminated last line that does not parse is a torn tail: it is
    skipped, and a writer cuts it off.
    """
    layers: dict[tuple, dict[tuple, PerfRecord]] = {}
    superseded = 0
    with open(path, "rb") as fh:
        data = fh.read()
    kept = data + b"\n" if data and not data.endswith(b"\n") else data
    for lineno, raw in enumerate(io.BytesIO(data), start=1):  # lines end at \n only
        if not raw.strip():
            continue
        try:
            rec = _record_from_json(raw.strip(), lineno)
        except StorageError as exc:
            if raw.endswith(b"\n"):
                return str(exc), [], 0, data
            kept = data[:-len(raw)]
            break
        key = rec.key
        layer = layers.setdefault(key[:3], {})
        superseded += key in layer
        layer[key] = rec
    order = sorted(layers, key=lambda lkey: lkey[0])  # stable: first appearance in a system
    live = [_record_to_json(r) for lkey in order for r in layers[lkey].values()]
    return None, live, superseded, kept


def _lines(db: PerfDb) -> list[str]:
    return [_record_to_json(r) for r in db.records()]  # NaN timestamps compare equal here


def _check_opens(path, covered: int) -> None:
    """An ``r`` and an ``rw`` open in each index state, against the oracle.

    With no index and with a valid one, the writer then compacts; an index
    that is not trusted leaves the same code to run as no index. Whatever
    index it found, the writer leaves the index of the file as it is then,
    and the file is opened again through it. A forged index may refuse the
    open or a read with its ``StorageError``, and must refuse reading every
    line when it lists a layer, and a forged head must refuse every count;
    no other answer is checked through either.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    error, live, superseded, kept = _decode_every_line(path)
    per_system = Counter(json.loads(line)["system"] for line in live)
    states = _index_states(data, covered, os.path.dirname(path))
    for state, index in states.items():
        _put_back(path, data, index)
        for mode in ("r", "rw"):
            try:
                db = PerfDb(path, mode=mode)
            except StorageError as exc:  # a line past the index may read a forged entry
                assert str(exc) == error \
                    or state == "forged" and "bad database index" in str(exc), state
                continue
            assert error is None, state
            with db:
                with _forgery_refused(state, counts=True):  # reads every system line
                    assert (len(db), db.superseded, db.live_by_system()) \
                        == (len(live), superseded, per_system), state  # before any read
                if state in ("forged", "head"):
                    with _forgery_refused(state, _lists_a_layer(states["valid"]), counts=True):
                        assert _lines(db) == live, state
                    continue
                if mode == "r":
                    assert _lines(db) == live, state
                    continue
                with open(path, "rb") as fh:
                    assert fh.read() == kept, state
                compacted = state in ("none", "valid")
                if compacted:
                    assert db.compact() == superseded, state
                assert _lines(db) == live, state
            with open(path, "rb") as fh, open(f"{path}.idx", "rb") as ix:
                assert ix.read() == _index_for(fh.read(), os.path.dirname(path)), state
            with PerfDb(path) as db:  # through the index that the writer wrote
                assert (_lines(db), db.superseded) == (live, 0 if compacted else superseded), state


@settings(max_examples=300, deadline=None)
@given(damaged_files(), st.integers(0, 10**6))
def test_unscoped_opens_agree_with_decoding_every_line(data, cut):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "perf.db")
        with open(path, "wb") as fh:
            fh.write(data)
        ends = _accepted_ends(data)
        _check_opens(path, ends[cut % len(ends)])


def _damaged(line: bytes):
    """Each value of ``line`` replaced by each of VALUES, or with each of BYTES put in."""
    body = line[:-1]
    for name in NAMES:
        if name in body:
            at = body.index(name) + len(name)
            end = VALUE.match(body, at).end()
            for value in VALUES:
                yield body[:at] + value + body[end:] + b"\n"
            for i in (at, at + 1, end - 1):
                for byte in BYTES:
                    yield body[:i] + byte + body[i:] + b"\n"
    for at in (len(body) - 1, len(body) - 2):
        for extra in FIELDS:
            yield body[:at] + extra + body[at:] + b"\n"


def test_unscoped_opens_agree_on_each_damaged_value(tmp_path):
    """Every value of three writer lines, damaged in each way that the fuzz above draws."""
    key = RecordKey("sysA", "f32", SIGNATURES[0], "GEMM", "NCHW", None)
    recs = [PerfRecord(key, 2.5, metadata=METADATA[1], timestamp=1.5),
            PerfRecord(_changed(key, algorithm="FFT"), None, status="unsupported",
                       metadata=METADATA[2]),
            PerfRecord(_changed(key, layout="NHWC"), 3, metadata=METADATA[3]),
            PerfRecord(_changed(key, fused="conv_bias"), 4.0, metadata=METADATA[4])]
    lines = [_record_to_json(r).encode() + b"\n" for r in recs]
    path = tmp_path / "perf.db"
    for i, line in enumerate(lines):
        for bad in _damaged(line):
            # The damaged line comes between two lines of one key; the valid
            # index covers every line before it, or the whole file.
            data = b"".join(lines[:i] + [bad] + lines[i + 1:] + lines[:1])
            path.write_bytes(data)
            _check_opens(path, _accepted_ends(data)[-1])


@settings(max_examples=60, deadline=None)
@given(writer_lines())
def test_compact_writes_a_writer_files_live_lines_as_reserialized(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "perf.db")
        with open(path, "wb") as fh:
            fh.write(b"".join(lines))
        _error, live, superseded, _kept = _decode_every_line(path)
        with PerfDb(path, mode="rw") as db:
            assert db.compact() == superseded
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == "".join(line + "\n" for line in live)


# ---------------------------------------------------------------------------
# The layer index beside the file
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.lists(records(), max_size=8), st.booleans(), st.booleans()),
                min_size=1, max_size=4))
def test_a_writers_index_is_the_index_of_the_bytes_it_covers(batches):
    """However a file came about, its index is the one a writer of those bytes alone leaves."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "perf.db")
        for batch, read_all, compact in batches:
            with PerfDb(path, mode="rw") as db:
                if read_all:  # every system's index line read, not copied
                    db.records()
                for rec in batch:
                    db.insert(rec)
                if compact:
                    db.compact()
            with open(path, "rb") as fh:
                data = fh.read()
            with open(path + ".idx", "rb") as fh:
                assert fh.read() == _index_for(data, tmp)


def test_an_open_through_the_index_decodes_only_the_layers_it_reads(db_file, monkeypatch):
    from lbound import perfdb

    with PerfDb(db_file, mode="rw") as db:
        for i in range(2):
            db.insert(_with_system(_record(i), "sysB"))  # lines 6-7
    index = (db_file.parent / "perf.db.idx").read_bytes()  # covers lines 1-7
    with PerfDb(db_file, mode="rw") as db:
        db.insert(_record(5))  # line 8: a new layer
        db.insert(_changed(_record(0), latency_us=9.0))  # line 9 supersedes line 1
    (db_file.parent / "perf.db.idx").write_bytes(index)
    numbers = {line: n for n, line in enumerate(db_file.read_bytes().splitlines(), start=1)}
    decoded, systems = [], []  # the number of each line decoded, by its bytes in the file
    real, read_system = perfdb._parse_record, PerfDb._read_system
    monkeypatch.setattr(perfdb, "_parse_record",
                        lambda line: decoded.append(numbers[line]) or real(line))
    monkeypatch.setattr(PerfDb, "_read_system",
                        lambda db, name: systems.append(name) or read_system(db, name))
    db = PerfDb(db_file)
    # The lines past the index are decoded at open; line 1 is decoded only
    # because line 9 has its key.
    assert (decoded, systems) == ([8, 9, 1], ["sysA"])
    # Counting reads sysB's index line, and decodes none of its lines.
    assert (len(db), db.superseded, db.live_by_system()) == (8, 1, {"sysA": 6, "sysB": 2})
    assert (decoded, systems) == ([8, 9, 1], ["sysA", "sysB"])
    assert db.best("sysA", "f32", "Relu|f32|in=1x3|").latency_us == 4.0
    assert (decoded, systems) == ([8, 9, 1, 4], ["sysA", "sysB"])
    # sysA's layers, the new one of line 8 last, then sysB's.
    assert [r.latency_us for r in db.records()] == [9.0, 2.0, 3.0, 4.0, 5.0, 6.0, 1.0, 2.0]
    assert (decoded, systems) == ([8, 9, 1, 4, 2, 3, 5, 6, 7], ["sysA", "sysB"])
    db.close()
    closed = PerfDb(db_file)
    closed.close()
    with pytest.raises(StorageError, match="closed"):
        closed.query("sysA", "f32", "Relu|f32|in=1x1|")


def test_a_reader_reads_system_lines_from_the_index_it_checked(db_file):
    """A system line is read on first touch from the index file of the open,
    even after a writer has replaced that file; the handle holds only where
    each line is, and closes the index once every line is read."""
    with PerfDb(db_file, mode="rw") as db:
        db.insert(_with_system(_record(0), "sysB"))  # line 6
    reader = PerfDb(db_file)
    assert all(type(n) is int for entry in reader._unread.values() for n in entry)
    with PerfDb(db_file, mode="rw") as db:  # its close writes a new index
        db.insert(_with_system(_changed(_record(0), latency_us=9.0), "sysB"))
        db.insert(_with_system(_record(1), "sysB"))
    with reader:
        assert [r.latency_us for r in reader.query("sysB", "f32", "Relu|f32|in=1x0|")] == [1.0]
        assert reader._ix is not None  # sysA's line is left to read
        assert [r.latency_us for r in reader.records()] == [1.0, 2.0, 3.0, 4.0, 5.0, 1.0]
        assert reader._ix is None
        assert (reader.superseded, reader.live_by_system()) == (0, {"sysA": 5, "sysB": 1})


def test_a_listed_line_out_of_its_place_fails_every_read_of_its_layer(db_file):
    """An index whose own sha256 holds, but whose first layer also lists the
    second layer's line: no read of that layer returns part of it."""
    def misplace(obj):
        if isinstance(obj, list):  # the system line; each line of db_file is its own layer
            obj[-1][0][2] += obj[-1][1][2]
        return obj

    index = db_file.parent / "perf.db.idx"
    index.write_bytes(_edited(index.read_bytes(), misplace))
    data = db_file.read_bytes()
    with PerfDb(db_file) as db:
        for _ in range(2):
            with pytest.raises(StorageError, match="not in its place") as exc:
                db.query("sysA", "f32", "Relu|f32|in=1x0|")
            assert _line_named(data, exc.value) == 2
        assert db.best("sysA", "f32", "Relu|f32|in=1x2|").latency_us == 3.0
    # A writer appends a batch that supersedes a record of that layer, and
    # cannot enter it: the handle stops, and its close keeps the old index.
    forged = index.read_bytes()
    with PerfDb(db_file, mode="rw") as db:
        with pytest.raises(StorageError, match="not in its place") as exc:
            db.insert(_record(5), _changed(_record(0), latency_us=9.0), _record(6))
        assert _line_named(data, exc.value) == 2
        with pytest.raises(StorageError, match="an append failed"):
            db.insert(_record(7))
    assert index.read_bytes() == forged
    assert len(db_file.read_bytes().splitlines()) == 8


def test_a_listed_line_that_is_not_a_record_names_its_byte_offset(db_file):
    """An index whose own sha256 holds, but whose first layer's line starts
    a byte late: reading that layer names the byte, and no other read fails."""
    index = db_file.parent / "perf.db.idx"
    index.write_bytes(_edited(index.read_bytes(), lambda obj: obj if isinstance(obj, dict)
                              else [obj[0], [[*obj[1][0][:2], [1, obj[1][0][2][1]]],
                                             *obj[1][1:]]]))
    with PerfDb(db_file) as db:
        with pytest.raises(StorageError, match=r"\.idx: the line at byte 1: "):
            db.query("sysA", "f32", "Relu|f32|in=1x0|")
        assert db.best("sysA", "f32", "Relu|f32|in=1x1|").latency_us == 2.0


def test_a_failed_index_write_changes_no_result(tmp_path):
    path = tmp_path / "perf.db"
    (tmp_path / "perf.db.idx.tmp").mkdir()  # where the index is written first
    with PerfDb(path, mode="rw") as db:
        for i in range(3):
            db.insert(_record(i))
        assert db.compact() == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["perf.db", "perf.db.idx.tmp"]
    with PerfDb(path) as db:
        assert [r.latency_us for r in db.records()] == [1.0, 2.0, 3.0]


class _FullDisk:
    """A writer's append handle on a disk that has no room left."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self.fh, name)


def test_a_failed_append_stops_the_writer_and_keeps_the_old_index(db_file):
    index = (db_file.parent / "perf.db.idx").read_bytes()
    db = PerfDb(db_file, mode="rw")
    db.insert(_record(5))
    fh, db._fh = db._fh, _FullDisk(db._fh)
    with pytest.raises(StorageError, match="No space left"):
        db.insert(_record(6))
    db._fh = fh
    for write in (lambda: db.insert(_record(7)), db.compact):
        with pytest.raises(StorageError, match="an append failed"):
            write()
    db.close()
    assert (db_file.parent / "perf.db.idx").read_bytes() == index
    with PerfDb(db_file) as db:
        assert [r.latency_us for r in db.records()] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


# ---------------------------------------------------------------------------
# The writer's lock
# ---------------------------------------------------------------------------

def test_compact_locks_the_new_file_before_it_replaces_the_old(db_file, monkeypatch):
    real = os.replace
    raced = []

    def replace(src, dst):
        real(src, dst)
        if os.fspath(dst) == os.fspath(db_file):  # a second writer comes right after the rename
            with pytest.raises(StorageError, match="locked"):
                PerfDb(db_file, mode="rw")
            raced.append(dst)

    with PerfDb(db_file, mode="rw") as db:
        db.insert(_record(0))
        monkeypatch.setattr(os, "replace", replace)
        assert db.compact() == 1
        monkeypatch.setattr(os, "replace", real)
        db.insert(_record(7))
    assert raced
    with PerfDb(db_file) as db:
        assert [r.latency_us for r in db.records()] == [1.0, 2.0, 3.0, 4.0, 5.0, 8.0]


def test_a_writer_does_not_lock_a_file_that_a_compact_replaced(db_file, monkeypatch):
    import fcntl

    real = fcntl.flock
    first = PerfDb(db_file, mode="rw")
    first.insert(_record(0))
    calls = []

    def flock(fd, op):
        if not calls:  # the second writer has opened the old file; the first compacts now
            calls.append(fd)
            first.compact()
        return real(fd, op)

    monkeypatch.setattr(fcntl, "flock", flock)
    with pytest.raises(StorageError, match="locked by another writer"):
        PerfDb(db_file, mode="rw")
    first.insert(_record(7))
    first.close()
    with PerfDb(db_file) as db:
        assert [r.latency_us for r in db.records()] == [1.0, 2.0, 3.0, 4.0, 5.0, 8.0]


def test_a_lock_that_fails_closes_its_file(db_file, monkeypatch):
    import fcntl

    from lbound import perfdb_writer

    def flock(fd, op):
        raise OSError(errno.ENOLCK, "no locks available")

    files = []

    def spy(*args, **kwargs):
        files.append(open(*args, **kwargs))
        return files[-1]

    monkeypatch.setattr(fcntl, "flock", flock)
    monkeypatch.setattr(perfdb_writer, "open", spy, raising=False)
    with pytest.raises(StorageError, match="cannot open database .* for writing"):
        PerfDb(db_file, mode="rw")
    assert files and all(fh.closed for fh in files)


# ---------------------------------------------------------------------------
# A writer killed in the middle of its appends
# ---------------------------------------------------------------------------

_KILLED_WRITER = """
import os, signal, sys
from lbound.perfdb import PerfDb, PerfRecord, RecordKey

path, tail = sys.argv[1], sys.argv[2]
db = PerfDb(path, mode="rw")
records = [PerfRecord(RecordKey("sys" + "AB"[i % 2], "f32", f"Relu|f32|in=1x{i % 3}|", None,
                                "NCHW", None), 10.0 + i) for i in range(7)]
if tail.startswith("batch"):  # one append of all seven, killed when part of it is written
    fh = db._fh

    class Killed:
        def write(self, data):
            ends = [i + 1 for i, byte in enumerate(data) if byte == 10]
            cut = ends[2] + (ends[3] - ends[2]) // 2 * (tail == "batch-torn")
            fh.write(data[:cut])
            fh.flush()
            os.kill(os.getpid(), signal.SIGKILL)

    db._fh = Killed()
    db.insert(*records)
for rec in records:
    db.insert(rec)
if tail == "torn":  # part of the next line reaches the file
    with open(path, "ab") as fh:
        fh.write(b'{"v":1,"system":"sysA","dtype":"f32","hash64":"00","sig')
os.kill(os.getpid(), signal.SIGKILL)
"""


@pytest.mark.parametrize("tail", ["whole", "torn", "batch-whole", "batch-torn"])
def test_a_killed_writer_leaves_a_file_that_opens_as_it_would_without_an_index(tmp_path, tail):
    """The writer dies after its appends, with or without part of a line
    after them, or in the middle of one append of seven records, after
    three whole lines, or three and a half."""
    path, bare = tmp_path / "perf.db", tmp_path / "bare.db"
    with PerfDb(path, mode="rw") as db:
        for i in range(4):
            db.insert(_record(i))
            db.insert(_with_system(_record(i), "sysB"))
    index = (tmp_path / "perf.db.idx").read_bytes()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(pathlib.Path(lbound.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _KILLED_WRITER, str(path), tail], env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    assert (tmp_path / "perf.db.idx").read_bytes() == index  # it covers the first writer's lines
    opens = [dict(), dict(mode="rw")]
    for kw in opens + opens[:1]:  # the last open goes through the index the rw open wrote
        bare.write_bytes(path.read_bytes())
        with PerfDb(path, **kw) as db, PerfDb(bare, **kw) as without:
            counts = (len(db), db.superseded, db.live_by_system())
            assert counts == (len(without), without.superseded, without.live_by_system()), kw
            assert fields(db.records()) == fields(without.records()), kw
        assert path.read_bytes() == bare.read_bytes()
        (tmp_path / "bare.db.idx").unlink(missing_ok=True)
    # The rw open cut the torn tail and covered the rest in the index it wrote.
    assert (tmp_path / "perf.db.idx").read_bytes() == _index_for(path.read_bytes(), tmp_path)
    # Each of the killed writer's keys was there; a batch wrote three whole lines.
    assert (len(db), db.superseded) == (8, 3 if tail.startswith("batch") else 7)
    data = path.read_bytes()
    assert data.count(b"\n") == len(db) + db.superseded and data.endswith(b"\n")
