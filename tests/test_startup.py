"""What each command loads, and where the collector is off and frozen.

Every command is one short process, so the layer modules it imports are
part of its latency. Each command here runs through ``cli.run`` in a fresh
interpreter, which then reports the ``lbound`` modules and which of
``click``, ``logging``, ``dataclasses`` and ``hashlib`` were loaded, the
collector's freeze count before and after ``import lbound.cli`` and after
the command, whether the collector is still enabled, and how many
unreachable objects one full collection finds once the frozen objects are
released. ``cli.run`` turns the collector off for the command, which is
safe because a command leaves little cyclic garbage. The entry imports a
command's module only when the command is dispatched, and ``--help`` lists
the summaries of its table, so it loads no command module. A database or
profile reader takes the algorithm and fusion vocabulary from
``model_ir``, so no reader loads ``benchgen``, and ``analyze`` resolves
``--system`` through ``systems``, so it loads no simulator
(``synth_runner``). No command loads ``click``: the standard library
parses the command line. No command loads ``logging``: a log line that
``profile convert`` skips is printed to stderr. No command loads
``dataclasses``: records are plain classes, apart from two NamedTuples.
The same commands run as ``python -m lbound.cli`` load the same modules,
and none of them imports ``lbound.cli``, so the entry module compiles
once. In-process callers call ``main`` and never see a freeze or the
collector turned off.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import subprocess
import sys

import pytest

import lbound
import modelzoo as mz
from cli_run import invoke

SRC = str(pathlib.Path(lbound.__file__).resolve().parent.parent)

_CHILD = """
import gc, json, sys
before = gc.get_freeze_count()
from lbound import cli
imported = gc.get_freeze_count()
sys.argv = ["lbound", *sys.argv[1:]]
code = 0
try:
    cli.run()
except SystemExit as exc:
    code = exc.code
freeze = [before, imported, gc.get_freeze_count()]
enabled = gc.isenabled()
gc.unfreeze()
print(json.dumps({
    "code": code, "freeze": freeze, "enabled": enabled, "collected": gc.collect(),
    "modules": sorted(m for m in sys.modules if m.startswith("lbound.")),
    "loaded": [m for m in ("click", "logging", "dataclasses", "hashlib") if m in sys.modules]}))
"""

BASE = {"cli", "cli_common", "errors", "model_ir"}
READERS = BASE | {"cli_analyze", "perfdb", "dedup", "analyzer"}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    model = root / "resnet18.txt"
    model.write_text(mz.resnet_v1_text(18), "utf-8")
    db = root / "perf.db"
    res = invoke(["bench", str(model), "--db", str(db), "--system",
                  "Tesla_V100", "--dtypes", "f32", "--simulate"])
    assert res.exit_code == 0, res.output
    convs = sum(n.op_type == "Conv" for n in mz.load(model.read_text("utf-8")).nodes.values())
    log = root / "cudnn.log"
    log.write_text(convs * ("I! CuDNN (v7605) function cudnnConvolutionForward() called:\n"
                            "    algo: type=cudnnConvolutionFwdAlgo_t; val=CUDNN_CONVOLUTION_FWD_"
                            "ALGO_IMPLICIT_GEMM (0);\n"), "utf-8")
    prof = root / "r18.prof"
    res = invoke(["profile", "convert", "--cudnn-log", str(log),
                  "--latency-ms", "2", "--model", "resnet18-v1",
                  "--system", "Tesla_V100", "-o", str(prof)])
    assert res.exit_code == 0, res.output
    copy = root / "compact.db"  # compacted by its case, so the others read ``db`` as built
    copy.write_bytes(db.read_bytes())
    manifest = root / "simulated.jsonl"
    res = invoke(["bench", str(model), "--dtypes", "f32", "--manifest", str(manifest)])
    assert res.exit_code == 0, res.output
    empty = root / "empty.db"
    empty.write_bytes(b"")
    return {"model": str(model), "db": str(db), "copy": str(copy), "prof": str(prof),
            "empty": str(empty),
            "manifest": str(manifest), "sim": str(root / "sim.db"), "root": root}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _child(args: list[str], cwd) -> dict:
    proc = subprocess.run([sys.executable, "-c", _CHILD, *args], env=_env(), cwd=cwd,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["code"] == 0, proc.stderr
    return got


# case: (arguments, lbound modules loaded, other modules of note loaded)
_CASES = {
    "help": (["--help"], {"cli", "cli_common", "errors"}, []),
    "process": (["process", "{model}"], BASE | {"cli_process", "dedup"}, ["hashlib"]),
    "bench-manifest": (["bench", "{model}", "--manifest", "specs.jsonl"],
                       BASE | {"cli_bench", "dedup", "benchgen"}, ["hashlib"]),
    "bench-simulate": (["bench", "--from-manifest", "{manifest}", "--simulate", "--system",
                        "Tesla_V100", "--db", "{sim}"],
                       BASE | {"cli_bench", "dedup", "benchgen", "perfdb", "perfdb_writer",
                               "synth_runner", "systems"}, ["hashlib"]),
    "profile-convert": (["profile", "convert", "--latency-ms", "2", "--model", "m",
                         "--system", "Tesla_V100", "-o", "out.prof"],
                        BASE | {"cli_profile", "profile_ingest"}, []),
    "db-stats": (["db", "stats", "{db}"], BASE | {"cli_db", "perfdb"}, ["hashlib"]),
    "db-compact": (["db", "compact", "{copy}"],
                   BASE | {"cli_db", "perfdb", "perfdb_writer"}, ["hashlib"]),
    "advise": (["advise", "{model}", "--db", "{db}", "--systems", "Tesla_V100"],
               READERS, ["hashlib"]),
    "analyze": (["analyze", "{model}", "--db", "{db}", "--system", "Tesla_V100"],
                READERS | {"systems"}, ["hashlib"]),
    "analyze-missing": (["analyze", "{model}", "--db", "{empty}", "--system", "Tesla_V100",
                         "--allow-missing"], READERS | {"systems"}, ["hashlib"]),
    "analyze-fusion": (["analyze", "{model}", "--db", "{db}", "--system", "Tesla_V100",
                        "--fusion"],
                       READERS | {"systems", "benchgen"}, ["hashlib"]),
    "analyze-profile": (["analyze", "{model}", "--db", "{db}", "--system", "Tesla_V100",
                         "--profile", "{prof}"],
                        READERS | {"systems", "profile_ingest"}, ["hashlib"]),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_each_command_imports_only_the_layers_it_runs(files, case):
    args, layers, others = _CASES[case]
    got = _child([a.format(**files) for a in args], files["root"])
    assert got["modules"] == sorted(f"lbound.{m}" for m in layers)
    assert got["loaded"] == others
    # Importing the CLI freezes nothing; the process entry freezes on the way out.
    before, imported, after = got["freeze"]
    assert before == imported == 0 < after
    # The collector stays off once the entry turns it off, and little was left to it.
    assert got["enabled"] is False
    assert got["collected"] <= 1000


@pytest.mark.parametrize("case", ["analyze", "db-stats"])
def test_the_entry_module_compiles_once(files, case):
    """Run as ``python -m lbound.cli``, the file is ``__main__`` and nothing imports it again."""
    args, layers, _others = _CASES[case]
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "lbound.cli",
                           *(a.format(**files) for a in args)], env=_env(), cwd=files["root"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "lbound.cli" not in imported
    assert sorted(m for m in imported if m.startswith("lbound.")) == \
        sorted(f"lbound.{m}" for m in layers - {"cli"})


def test_in_process_invocations_never_freeze(files):
    before = gc.get_freeze_count()
    assert gc.isenabled()
    for args in (["--help"], ["db", "stats", files["db"]]):
        res = invoke(args)
        assert res.exit_code == 0, res.output
    assert gc.get_freeze_count() == before
    assert gc.isenabled()
