"""Command-line entry points.

Exit codes are a stable contract: 0 success, 2 input or parse error,
3 performance-database miss, 4 storage error. Human-readable latencies
print in milliseconds with 3 decimals; structured output stays in
microseconds. ``LBOUND_DB`` sets the default database path.

Every command is one short process, so start-up is part of its latency,
and a command compiles only the code it runs. This module holds the group
and a table from each command name to the module that defines it; the
group imports that module when the command is dispatched, as Click's
lazily loaded subcommands do. A command therefore loads this module,
``cli_common``, its own module and the layer modules its body imports,
and ``--help``, which lists every command's summary, loads every command
module, ``errors`` and ``model_ir``. The helpers the command modules
share live in ``cli_common``, since the process entry runs this file as
``__main__``: a command module importing ``lbound.cli`` would compile it a
second time.

No module builds a class from generated code at import: records are plain
classes, not dataclasses. A command module calls each layer function
through its module (``model_ir.load_model_file``, ``perfdb.PerfDb``), so a
function replaced on its module is the one a command runs. :func:`run` is
the process entry point; ``main`` is the Click group that in-process
callers invoke.
"""

from __future__ import annotations

import gc

import click

# Command name -> the module that defines it under that name.
_COMMANDS = {"advise": "cli_analyze", "analyze": "cli_analyze", "bench": "cli_bench",
             "db": "cli_db", "process": "cli_process", "profile": "cli_profile"}


class _LazyGroup(click.Group):
    """A group whose commands are imported when they are looked up."""

    def list_commands(self, ctx):
        return sorted(_COMMANDS)

    def get_command(self, ctx, cmd_name):
        module = _COMMANDS.get(cmd_name)
        if module is None:
            return None  # Click reports "No such command"
        # The import statement's own path, unlike importlib's, shows under -X importtime.
        return getattr(__import__(f"{__package__}.{module}", fromlist=[cmd_name]), cmd_name)


@click.group(cls=_LazyGroup)
def main():
    """Lower-bound latency benchmarking and analysis for DL model graphs."""


def run() -> None:
    """Process entry point of ``lbound`` and ``python -m lbound.cli``.

    Once the command returns or exits, the collector is frozen, so the
    interpreter's exit collections skip every object the imports built.
    """
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
