"""Exit codes of the CLI on bad numeric flags and damaged databases."""

from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

import modelzoo as mz
from lbound.cli import main


@pytest.fixture(scope="module")
def r18(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    model = root / "resnet18.txt"
    model.write_text(mz.resnet_v1_text(18), "utf-8")
    db = root / "perf.db"
    res = CliRunner().invoke(main, ["bench", str(model), "--db", str(db),
                                    "--system", "Tesla_V100", "--simulate"])
    assert res.exit_code == 0, res.output
    return model, db


def _analyze(model, db, *extra):
    return CliRunner().invoke(main, ["analyze", str(model), "--db", str(db),
                                     "--system", "Tesla_V100", "--out", "json", *extra])


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
def test_bad_measured_latency_exits_2(r18, value):
    res = _analyze(*r18, f"--measured-ms={value}")
    assert res.exit_code == 2, res.output
    assert "error:" in res.output
    assert not isinstance(res.exception, ZeroDivisionError)


def test_measured_latency_gives_ratios(r18):
    res = _analyze(*r18, "--measured-ms", "5")
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert 0 < report["br_parallel"]["br"] <= report["br_sequential"]["br"]


def test_torn_tail_is_tolerated_and_corrupt_middle_is_not(r18, tmp_path):
    model, db = r18
    good = db.read_bytes()
    expected = _analyze(model, db).output
    torn = tmp_path / "torn.db"
    torn.write_bytes(good + good.splitlines(keepends=True)[0][:-40])
    assert _analyze(model, torn).output == expected
    res = CliRunner().invoke(main, ["db", "stats", str(torn)])
    assert res.exit_code == 0 and res.output.startswith(f"{len(good.splitlines())} live")
    res = CliRunner().invoke(main, ["db", "compact", str(torn)])
    assert res.exit_code == 0, res.output
    assert torn.read_bytes() == good

    lines = good.splitlines(keepends=True)
    lines[len(lines) // 2] = lines[len(lines) // 2][:-40] + b"\n"
    corrupt = tmp_path / "corrupt.db"
    corrupt.write_bytes(b"".join(lines))
    assert _analyze(model, corrupt).exit_code == 4
    assert CliRunner().invoke(main, ["db", "compact", str(corrupt)]).exit_code == 4
