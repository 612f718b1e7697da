"""Byte-level pins on CLI output for a fixed simulated database.

A 3-system database is simulated with a fixed jitter seed; the sha256 of
the outputs for ResNet-50 at batch 2 must not move when the analyzer or the
database change internally. A profile converted from a synthetic library
log, whose convolutions cycle through the eight algorithms and one of which
logs a wrong input shape, pins the logged-algorithm path.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import modelzoo as mz
from cli_run import invoke
from lbound.benchgen import ConvAlgorithm

SYSTEMS = ("TITAN_V", "Tesla_T4", "Tesla_V100")

GOLDEN = {
    "analyze-json": "677a68d133e3d7e65869d1a30b7d8d1dbc0e5bb8f5cf8a13ebbfc543553e4161",
    "analyze-dot": "a4aa4026ba0b6050dde9f9ab852631530f7bf45eb51bd693f8a92fa5f80a80b4",
    "advise": "71f3d18af3b05602d963de0bf0f507872abbed881298ebabc31478301ac118d6",
}

GOLDEN_SCENARIOS = {
    "analyze-logged-algo": "ef5ec7edcbcbe8a8fb78dadee5db124a48d63dc930483c21258dda9db0bf77cd",
    "analyze-f16-fusion": "6e579a4048d21131adafaf79f3f83c21f626d7eb7ae4e100f74aa5309e52204f",
}

GOLDEN_TEXT = {
    "analyze-text": "93e96135507cc970b89e6115450872455d2cce4ec5ab79d34b6084d9b9a68ccc",
}


@pytest.fixture(scope="module")
def r50_db(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    model = root / "resnet50.txt"
    model.write_text(mz.resnet_v1_text(50), "utf-8")
    db = root / "perf.db"
    for system in SYSTEMS:
        res = invoke([
            "bench", str(model), "--db", str(db), "--system", system, "--batch", "2",
            "--fusion", "--simulate", "--jitter-seed", "11"])
        assert res.exit_code == 0, res.output
    return model, db


def _cudnn_log(model_text: str) -> str:
    graph = mz.load(model_text, batch=2)
    algos = list(ConvAlgorithm)
    lines = []
    convs = [nid for nid in graph.order if graph.nodes[nid].op_type == "Conv"]
    for i, nid in enumerate(convs):
        x = "x".join(map(str, mz.layer(graph, nid).in_dims[0]))
        if i == 3:
            x = "1x1x1x1"
        lines += ["I! CuDNN (v7605) function cudnnConvolutionForward() called:",
                  f"    x: type=dims; val={x};",
                  "    algo: type=cudnnConvolutionFwdAlgo_t; "
                  f"val={algos[i % len(algos)].token} (1);"]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def r50_profile(r50_db, tmp_path_factory):
    model, _db = r50_db
    root = tmp_path_factory.mktemp("golden-profile")
    log = root / "cudnn.log"
    log.write_text(_cudnn_log(model.read_text("utf-8")), "utf-8")
    prof = root / "r50.prof"
    res = invoke([
        "profile", "convert", "--cudnn-log", str(log), "--latency-ms", "40",
        "--model", "resnet50", "--system", "Tesla_V100", "--batch", "2", "-o", str(prof)])
    assert res.exit_code == 0, res.output
    return prof


def _digest(args: list[str]) -> str:
    res = invoke(args)
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


def test_scenario_outputs_match_golden(r50_db, r50_profile):
    model, db = r50_db
    common = [str(model), "--db", str(db), "--batch", "2", "--system", "Tesla_V100",
              "--out", "json"]
    got = {
        "analyze-logged-algo": _digest(["analyze", *common, "--profile", str(r50_profile),
                                        "--logged-algo"]),
        "analyze-f16-fusion": _digest(["analyze", *common, "--dtype", "f16", "--fusion"]),
    }
    assert got == GOLDEN_SCENARIOS


def test_the_bound_under_logged_algorithms_is_one_number(r50_db, r50_profile):
    """Q3's bound under the logged algorithms and the joint row's are one sum."""
    model, db = r50_db
    res = invoke(["analyze", str(model), "--db", str(db), "--batch", "2", "--system",
                  "Tesla_V100", "--out", "json", "--profile", str(r50_profile), "--logged-algo"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    advice, joint = report["algorithm_advice"], report["joint"]
    assert joint["scenario"]["ideal_algo"] is False
    assert advice["lb_chosen_us"].hex() == joint["lb_us"].hex()
    assert advice["aggregate_speedup"] == advice["lb_chosen_us"] / advice["lb_ideal_us"]


def test_text_report_matches_golden(r50_db, r50_profile):
    model, db = r50_db
    got = {
        "analyze-text": _digest(["analyze", str(model), "--db", str(db), "--batch", "2",
                                 "--system", "Tesla_V100", "--profile", str(r50_profile),
                                 "--fusion", "--tensor-core", "--parallel", "--out", "text"]),
    }
    assert got == GOLDEN_TEXT
