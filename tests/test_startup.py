"""What each command loads, and where the collector is frozen.

Every command is one short process, so the layer modules it imports are
part of its latency. Each command here runs through ``cli.run`` in a fresh
interpreter, which then reports the ``lbound`` modules and whether
``logging`` and ``dataclasses`` were loaded, and the collector's freeze
count before and after ``import lbound.cli`` and after the command. No
command loads ``dataclasses``: records are plain classes, so defining one
runs no generated code. In-process callers invoke
``main`` and never see a freeze.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner

import lbound
import modelzoo as mz
from lbound.cli import main

SRC = str(pathlib.Path(lbound.__file__).resolve().parent.parent)

_CHILD = """
import gc, json, sys
before = gc.get_freeze_count()
from lbound import cli
imported = gc.get_freeze_count()
sys.argv = ["lbound", *sys.argv[1:]]
try:
    cli.run()
except SystemExit as exc:
    code = exc.code
print(json.dumps({
    "code": code, "freeze": [before, imported, gc.get_freeze_count()],
    "modules": sorted(m for m in sys.modules if m.startswith("lbound.")),
    "logging": "logging" in sys.modules, "dataclasses": "dataclasses" in sys.modules}))
"""

BASE = {"cli", "errors", "model_ir"}
DB_LAYERS = BASE | {"dedup", "benchgen", "perfdb"}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    model = root / "resnet18.txt"
    model.write_text(mz.resnet_v1_text(18), "utf-8")
    db = root / "perf.db"
    res = CliRunner().invoke(main, ["bench", str(model), "--db", str(db), "--system",
                                    "Tesla_V100", "--dtypes", "f32", "--simulate"])
    assert res.exit_code == 0, res.output
    convs = sum(n.op_type == "Conv" for n in mz.load(model.read_text("utf-8")).nodes.values())
    log = root / "cudnn.log"
    log.write_text(convs * ("I! CuDNN (v7605) function cudnnConvolutionForward() called:\n"
                            "    algo: type=cudnnConvolutionFwdAlgo_t; val=CUDNN_CONVOLUTION_FWD_"
                            "ALGO_IMPLICIT_GEMM (0);\n"), "utf-8")
    prof = root / "r18.prof"
    res = CliRunner().invoke(main, ["profile", "convert", "--cudnn-log", str(log),
                                    "--latency-ms", "2", "--model", "resnet18-v1",
                                    "--system", "Tesla_V100", "-o", str(prof)])
    assert res.exit_code == 0, res.output
    return {"model": str(model), "db": str(db), "prof": str(prof), "root": root}


def _child(args: list[str], cwd) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", _CHILD, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["code"] == 0, proc.stderr
    return got


_CASES = {
    "help": (["--help"], BASE, False),
    "process": (["process", "{model}"], BASE | {"dedup"}, False),
    "bench-manifest": (["bench", "{model}", "--manifest", "specs.jsonl"],
                       BASE | {"dedup", "benchgen"}, False),
    "profile-convert": (["profile", "convert", "--latency-ms", "2", "--model", "m",
                         "--system", "Tesla_V100", "-o", "out.prof"],
                        BASE | {"dedup", "benchgen", "profile_ingest"}, True),
    "db-stats": (["db", "stats", "{db}"], DB_LAYERS, False),
    "advise": (["advise", "{model}", "--db", "{db}", "--systems", "Tesla_V100"],
               DB_LAYERS | {"analyzer"}, False),
    "analyze": (["analyze", "{model}", "--db", "{db}", "--system", "Tesla_V100"],
                DB_LAYERS | {"analyzer", "synth_runner"}, False),
    "analyze-profile": (["analyze", "{model}", "--db", "{db}", "--system", "Tesla_V100",
                         "--profile", "{prof}"],
                        DB_LAYERS | {"analyzer", "synth_runner", "profile_ingest"}, True),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_each_command_imports_only_the_layers_it_runs(files, case):
    args, layers, logging = _CASES[case]
    got = _child([a.format(**files) for a in args], files["root"])
    assert got["modules"] == sorted(f"lbound.{m}" for m in layers)
    assert got["logging"] is logging
    assert got["dataclasses"] is False
    # Importing the CLI freezes nothing; the process entry freezes on the way out.
    before, imported, after = got["freeze"]
    assert before == imported == 0 < after


def test_in_process_invocations_never_freeze(files):
    before = gc.get_freeze_count()
    for args in (["--help"], ["db", "stats", files["db"]]):
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 0, res.output
    assert gc.get_freeze_count() == before
