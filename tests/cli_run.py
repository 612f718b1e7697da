"""Run ``lbound`` in this interpreter and capture what it writes.

:func:`invoke` calls ``lbound.cli.main`` on the given arguments.
``output`` holds stdout and stderr in the order they were written and
``stdout`` holds stdout alone. A command that exits with a nonzero code
leaves its ``SystemExit`` in ``exception``; one that raises any other
exception leaves it there, with exit code 1.
"""

from __future__ import annotations

import contextlib
import io

from lbound import cli


class _Stream(io.StringIO):
    """One captured stream; what is written to it also goes to ``both``."""

    def __init__(self, both: io.StringIO):
        super().__init__()
        self.both = both

    def write(self, text: str) -> int:
        self.both.write(text)
        return super().write(text)


class Result:
    def __init__(self, exit_code: int, output: str, stdout: str,
                 exception: BaseException | None):
        self.exit_code = exit_code
        self.output = output
        self.stdout = stdout
        self.exception = exception


def invoke(args) -> Result:
    both = io.StringIO()
    out, err = _Stream(both), _Stream(both)
    code, exception = 0, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main([str(a) for a in args])
    except SystemExit as exc:
        code = exc.code or 0
        exception = exc if code else None
    except Exception as exc:  # a process would print a traceback and exit 1
        code, exception = 1, exc
    return Result(code, both.getvalue(), out.getvalue(), exception)
