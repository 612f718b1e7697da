"""The command line as a user sees it: help texts, unknown commands, and arguments.

``data/cli_help.json`` holds the help text of ``lbound`` and of every
command and subcommand at 80 columns, keyed by the command words. Commands
load on dispatch, so a command's options and summary are only what its own
module defines; the texts must stay byte for byte what they were.
"""

from __future__ import annotations

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import lbound
from cli_run import invoke
from lbound.cli import _COMMANDS

HELP = json.loads((pathlib.Path(__file__).parent / "data" / "cli_help.json")
                  .read_text("utf-8"))


@pytest.mark.parametrize("words", list(HELP))
def test_help_text_is_pinned(words, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    res = invoke([*words.split(), "--help"])
    assert res.exit_code == 0, res.output
    assert res.output == HELP[words]


def test_every_command_has_a_pinned_help_text():
    """A group's module defines that group alone, with its ``SUBCOMMANDS`` table."""
    words = {""}
    for name, (module, _summary) in _COMMANDS.items():
        words.add(name)
        subcommands = getattr(importlib.import_module(f"lbound.{module}"), "SUBCOMMANDS", {})
        words |= {f"{name} {sub}" for sub in subcommands}
    assert words == set(HELP)


def test_each_summary_in_the_table_is_the_first_line_of_its_command_docstring():
    """``lbound --help`` lists the table's summaries and imports no command module."""
    for name, (module, summary) in _COMMANDS.items():
        command = getattr(importlib.import_module(f"lbound.{module}"), name)
        assert command.__doc__.split("\n", 1)[0] == summary


@pytest.mark.parametrize("args", [["nosuch"], ["db", "nosuch"]])
def test_an_unknown_command_exits_2(args):
    res = invoke(args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert f"Error: No such command '{args[-1]}'." in res.output


def test_an_unknown_command_exits_2_from_the_process_entry():
    env = dict(os.environ)
    src = str(pathlib.Path(lbound.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "lbound.cli", "nosuch"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.endswith("Error: No such command 'nosuch'.\n")
    assert "Traceback" not in proc.stderr


def test_options_may_come_between_positional_arguments(tmp_path):
    model = tmp_path / "m.txt"
    model.write_text("graph t\ninput d 1x3x8x8\nnode n Relu inputs=d\n", "utf-8")
    res = invoke(["process", model, "--batch", "2", model])
    assert res.exit_code == 0, res.output
    assert res.stdout == invoke(["process", "--batch", "2", model, model]).stdout


@pytest.mark.parametrize("args", [
    ["analyze", "{gone}", "--system", "Tesla_V100"],
    ["advise", "{gone}", "--systems", "Tesla_V100"],
    ["process", "{model}", "{gone}"],
    ["bench", "{model}", "{gone}"],
    ["db", "import", "{db}", "{model}", "{gone}"],
    ["db", "compact", "{gone}"],
    ["db", "stats", "{gone}"],
    ["analyze", "{model}", "--db", "{db}", "--system", "Tesla_V100", "--profile", "{gone}"],
    ["bench", "--from-manifest", "{gone}"],
    ["bench", "--from-misses", "{gone}"],
    ["profile", "convert", "--cudnn-log", "{gone}", "--latency-ms", "1", "--model", "m",
     "--system", "s", "-o", "{out}"],
    ["profile", "convert", "--kernels", "{gone}", "--latency-ms", "1", "--model", "m",
     "--system", "s", "-o", "{out}"],
], ids=["analyze-MODEL", "advise-MODEL", "process-MODELS", "bench-MODELS", "import-FILES",
        "compact-DATABASE", "stats-DATABASE", "profile", "from-manifest", "from-misses",
        "cudnn-log", "kernels"])
def test_a_path_argument_that_does_not_exist_exits_2(tmp_path, args):
    """The command stops while parsing: it writes nothing, not even the database."""
    model = tmp_path / "m.txt"
    model.write_text("graph t\ninput d 1x3x8x8\nnode n Relu inputs=d\n", "utf-8")
    gone = tmp_path / "gone"
    res = invoke([a.format(model=model, gone=gone, db=tmp_path / "perf.db",
                           out=tmp_path / "out.prof") for a in args])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert f"Path '{gone}' does not exist." in res.output
    assert [p.name for p in tmp_path.iterdir()] == ["m.txt"]
