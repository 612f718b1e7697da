"""What the command modules share: parsers, comma lists, the database path.

The process entry runs ``cli`` as its main module, so a command module
imports these from here, never from ``cli``: importing ``lbound.cli`` would
compile that file a second time.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigError

_DEFAULT = "(default: %(default)s)"


def _parser(command: str, doc: str) -> argparse.ArgumentParser:
    """The parser of ``lbound <command>``, described by the command's docstring.

    An option is only taken spelled out in full: a prefix of one is an error.
    """
    return argparse.ArgumentParser(prog=f"lbound {command}", description=doc,
                                   allow_abbrev=False)


def _existing(path: str) -> str:
    """An argument that names an input file; a path that does not exist is a usage error."""
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"Path '{path}' does not exist.")
    return path


def _pick(prog: str, doc: str, summaries: dict[str, str], argv: list[str]) -> str | None:
    """The command that ``argv`` starts with, or None once ``--help`` listed them.

    No command, or one not in ``summaries``, is a usage error: exit 2.
    """
    if argv and argv[0] in summaries:
        return argv[0]
    usage = f"usage: {prog} COMMAND [ARGS]...\n"
    if argv and argv[0] in ("-h", "--help"):
        width = max(map(len, summaries))
        sys.stdout.write(f"{usage}\n{doc}\n\ncommands:\n" + "".join(
            f"  {name:<{width}}  {summaries[name]}\n" for name in sorted(summaries)))
        return None
    problem = f"No such command '{argv[0]}'." if argv else "Missing command."
    sys.stderr.write(f"{usage}Try '{prog} --help' for help.\n\nError: {problem}\n")
    sys.exit(2)


def _group(command: str, doc: str, subcommands: dict, argv: list[str]) -> None:
    """Run the subcommand of ``lbound <command>`` that ``argv`` names."""
    summaries = {name: fn.__doc__.split("\n", 1)[0] for name, fn in subcommands.items()}
    name = _pick(f"lbound {command}", doc, summaries, argv)
    if name is not None:
        subcommands[name](argv[1:])


def _comma_list(value: str) -> tuple[str, ...]:
    """The entries of a comma-separated option: stripped, without empty
    entries, and each once, where it first appears."""
    return tuple(dict.fromkeys(filter(None, map(str.strip, value.split(",")))))


def _db_path(value: str | None) -> str:
    path = value or os.environ.get("LBOUND_DB")
    if not path:
        raise ConfigError("no database path: pass --db or set LBOUND_DB")
    return path
