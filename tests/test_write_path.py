"""``bench --from-manifest --simulate`` against the per-record writer.

With ``time.time`` fixed, one command over a list of systems, or over one,
must leave the database file and its layer index byte for byte as
``writer_ref`` leaves them: one command per system, in the same order,
each appending record by record. Each case runs twice into the same
database, so the second run supersedes every record of the first.
"""

from __future__ import annotations

import time

import pytest

import modelzoo as mz
import writer_ref
from cli_run import invoke
from lbound import benchgen, dedup

SEED = 7


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    graphs = [mz.load(text) for _name, text in mz.thirty_model_family()]
    sites = [s for g in graphs for s in benchgen.fusion_candidates(g)]
    specs = benchgen.generate_specs(dedup.unique_layers(graphs).signatures,
                                    benchgen.BenchConfig(layouts=("NCHW", "NHWC")), sites)
    path = tmp_path_factory.mktemp("manifest") / "family.jsonl"
    path.write_text(benchgen.manifest_lines(specs), "utf-8")
    return path, len(specs)


@pytest.fixture(autouse=True)
def fixed_clock(monkeypatch):
    monkeypatch.setattr(time, "time", lambda: 1700000000.25)


def _bench(*args):
    res = invoke(["bench", *map(str, args)])
    assert res.exit_code == 0, res.output
    return res.stdout


@pytest.mark.parametrize("systems", [["Tesla_V100"], ["Tesla_T4", "TITAN_V", "Tesla_K80"]],
                         ids=["one", "list"])
def test_one_command_writes_what_one_command_per_system_wrote(manifest, tmp_path, systems):
    path, n = manifest
    got, want = tmp_path / "got.db", tmp_path / "want.db"
    for _run in range(2):
        out = _bench("--from-manifest", path, "--simulate", "--system", ",".join(systems),
                     "--db", got, "--jitter-seed", SEED)
        writer_ref.bench_from_manifest(path.read_text("utf-8"), systems, want, SEED)
        assert got.read_bytes() == want.read_bytes()
        assert (tmp_path / "got.db.idx").read_bytes() == (tmp_path / "want.db.idx").read_bytes()
    if len(systems) == 1:  # as it always printed
        assert out == f"generated {n} benchmark spec(s)\nsimulated {n} record(s) into {got}\n"
    else:
        assert out.splitlines()[1:] == [f"{s}: simulated {n} record(s) into {got}"
                                        for s in systems]


def test_delta_over_a_list_checks_each_system_on_its_own(manifest, tmp_path):
    path, n = manifest
    db = tmp_path / "perf.db"
    _bench("--from-manifest", path, "--simulate", "--system", "TITAN_V", "--db", db)
    out = _bench("--from-manifest", path, "--delta", "--simulate", "--system",
                 "TITAN_V,Tesla_T4", "--db", db, "--emit-src", tmp_path / "src")
    assert out.splitlines()[1:] == [
        "TITAN_V: delta: 0 spec(s) not yet in the database",
        f"TITAN_V: simulated 0 record(s) into {db}",
        f"Tesla_T4: delta: {n} spec(s) not yet in the database",
        f"Tesla_T4: simulated {n} record(s) into {db}",
        f"emitted {n} source file(s) to {tmp_path / 'src'}"]  # those some system lacked
    out = _bench("--from-manifest", path, "--delta", "--system", "Tesla_T4,TITAN_V", "--db", db)
    assert out.splitlines()[1:] == ["Tesla_T4: delta: 0 spec(s) not yet in the database",
                                    "TITAN_V: delta: 0 spec(s) not yet in the database"]


def test_a_bad_system_in_the_list_writes_nothing(manifest, tmp_path):
    path, _n = manifest
    db = tmp_path / "perf.db"
    res = invoke(["bench", "--from-manifest", str(path), "--simulate", "--system",
                  "Tesla_T4,nowhere", "--db", str(db)])
    assert res.exit_code == 2, res.output
    assert "unknown system profile 'nowhere'" in res.output
    assert not db.exists()
