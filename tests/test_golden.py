"""Byte-level pins on CLI output for a fixed simulated database.

A 3-system database is simulated with a fixed jitter seed; the sha256 of
three outputs for ResNet-50 at batch 2 must not move when the analyzer or
the database change internally.
"""

from __future__ import annotations

import hashlib

import pytest
from click.testing import CliRunner

import modelzoo as mz
from lbound.cli import main

SYSTEMS = ("TITAN_V", "Tesla_T4", "Tesla_V100")

GOLDEN = {
    "analyze-json": "677a68d133e3d7e65869d1a30b7d8d1dbc0e5bb8f5cf8a13ebbfc543553e4161",
    "analyze-dot": "a4aa4026ba0b6050dde9f9ab852631530f7bf45eb51bd693f8a92fa5f80a80b4",
    "advise": "71f3d18af3b05602d963de0bf0f507872abbed881298ebabc31478301ac118d6",
}


@pytest.fixture(scope="module")
def r50_db(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    model = root / "resnet50.txt"
    model.write_text(mz.resnet_v1_text(50), "utf-8")
    db = root / "perf.db"
    runner = CliRunner()
    for system in SYSTEMS:
        res = runner.invoke(main, [
            "bench", str(model), "--db", str(db), "--system", system, "--batch", "2",
            "--fusion", "--simulate", "--jitter-seed", "11"])
        assert res.exit_code == 0, res.output
    return model, db


def _digest(args: list[str]) -> str:
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 0, res.output
    return hashlib.sha256(res.output.encode("utf-8")).hexdigest()


def test_outputs_match_golden(r50_db):
    model, db = r50_db
    common = [str(model), "--db", str(db), "--batch", "2"]
    got = {
        "analyze-json": _digest(["analyze", *common, "--system", "Tesla_V100",
                                 "--fusion", "--tensor-core", "--parallel",
                                 "--out", "json"]),
        "analyze-dot": _digest(["analyze", *common, "--system", "Tesla_V100",
                                "--out", "dot"]),
        "advise": _digest(["advise", *common, "--systems", ",".join(SYSTEMS)]),
    }
    assert got == GOLDEN
