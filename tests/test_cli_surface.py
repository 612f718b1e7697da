"""The command line as a user sees it: every help text, and an unknown command.

``data/cli_help.json`` holds the help text of ``lbound`` and of every
command and subcommand at 80 columns, keyed by the command words. Commands
load on dispatch, so a command's options and summary are only what its own
module defines; the texts must stay byte for byte what they were.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner

import lbound
from lbound.cli import main

HELP = json.loads((pathlib.Path(__file__).parent / "data" / "cli_help.json")
                  .read_text("utf-8"))


@pytest.mark.parametrize("words", list(HELP))
def test_help_text_is_pinned(words):
    res = CliRunner(env={"COLUMNS": "80"}).invoke(main, [*words.split(), "--help"],
                                                  prog_name="lbound")
    assert res.exit_code == 0, res.output
    assert res.output == HELP[words]


def test_every_command_has_a_pinned_help_text():
    words = {""}
    for name in main.list_commands(None):
        command = main.get_command(None, name)
        words.add(name)
        words |= {f"{name} {sub}" for sub in getattr(command, "commands", {})}
    assert words == set(HELP)


@pytest.mark.parametrize("args", [["nosuch"], ["db", "nosuch"]])
def test_an_unknown_command_exits_2(args):
    res = CliRunner().invoke(main, args)
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
