"""Command-line entry points.

Exit codes are a stable contract: 0 success, 2 input or parse error,
3 performance-database miss, 4 storage error. Human-readable latencies
print in milliseconds with 3 decimals; structured output stays in
microseconds. ``LBOUND_DB`` sets the default database path.

Every command is one short process, so start-up is part of its latency,
and a command compiles only the code it runs. :func:`main` reads the first
word and looks it up in ``_COMMANDS``, a table from each command name to
the module that defines it and its one-line summary. Only that module is
imported; its command function builds its own parser with the standard
library's ``argparse``, and the package has no runtime dependency. A command
therefore loads this module, ``cli_common``, its own module and the layer
modules its body imports, and ``--help`` prints the summaries from the
table, so it loads no command module. The helpers the command modules
share live in ``cli_common``, since the process entry runs this file as
``__main__``: a command module importing ``lbound.cli`` would compile it a
second time.

No record is a dataclass: records are plain classes, apart from two
NamedTuples, ``perfdb.RecordKey`` and ``onnx_reader._Tensor``. A command
module calls each layer function through its module
(``model_ir.load_model_file``, ``perfdb.PerfDb``), so a function replaced
on its module is the one a command runs. :func:`run` is
the process entry point; in-process callers call :func:`main`.
"""

from __future__ import annotations

import gc
import sys
from collections import Counter

from .cli_common import _pick
from .errors import LboundError, MissError

# Command name -> (the module that defines it under that name, its summary).
_COMMANDS = {
    "advise": ("cli_analyze", "Rank systems for a model by lower bound, optionally weighted "
                              "by cost."),
    "analyze": ("cli_analyze", "Compute lower bounds, Benanza Ratios, and optimization advice."),
    "bench": ("cli_bench", "Generate benchmark specs; simulate them or emit source."),
    "db": ("cli_db", "Inspect and maintain the performance database."),
    "process": ("cli_process", "Parse models, infer shapes, and report unique-layer "
                               "statistics."),
    "profile": ("cli_profile", "Execution-profile utilities."),
}


def main(argv: list[str] | None = None) -> None:
    """Run the command that ``argv`` (default: ``sys.argv[1:]``) names.

    A command that succeeds returns; one that fails raises ``SystemExit``
    with its exit code, after writing its error to stderr. The code of an
    ``LboundError`` is its class's ``exit_code``.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    name = _pick("lbound", "Lower-bound latency benchmarking and analysis for DL model graphs.",
                 {cmd: summary for cmd, (_module, summary) in _COMMANDS.items()}, argv)
    if name is None:
        return
    # The import statement's own path, unlike importlib's, shows under -X importtime.
    module = __import__(f"{__package__}.{_COMMANDS[name][0]}", fromlist=[name])
    try:
        getattr(module, name)(argv[1:])
    except LboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, MissError):
            for key, nodes in Counter(exc.keys).items():  # in first-seen order
                print(f"  missing: {key} ({nodes} node(s))", file=sys.stderr)
            print("hint: run `lbound bench --delta --simulate` to fill the gaps "
                  "or pass --allow-missing", file=sys.stderr)
        sys.exit(exc.exit_code)


# ``bench/harness.py`` calls ``main.main(args, prog_name=..., standalone_mode=False)``;
# the keywords change nothing.
main.main = lambda args, **_ignored: main(args)


def run() -> None:
    """Process entry point of ``lbound`` and ``python -m lbound.cli``.

    The cyclic collector is off for the whole command. A command builds
    graphs, tables and records that reference counting frees, and almost no
    reference cycles (a full collection after a command finds about a
    hundred objects, from the imports), yet the collector's passes,
    triggered by allocation counts, would walk every container it keeps;
    the process exit frees what little they would find. Once the command
    returns or exits, the collector is frozen, so the interpreter's exit
    collections skip every object the imports built. In-process callers of
    :func:`main` keep the collector as they set it.
    """
    gc.disable()
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
