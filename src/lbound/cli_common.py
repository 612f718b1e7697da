"""What the command modules share: exit codes, model loading, the database path.

The process entry runs ``cli`` as its main module, so a command module
imports these from here, never from ``cli``: importing ``lbound.cli`` would
compile that file a second time and build the group again.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter

import click

from . import model_ir
from .errors import ConfigError, LboundError, MissError


def _exit_codes(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except LboundError as exc:
            click.echo(f"error: {exc}", err=True)
            if isinstance(exc, MissError):
                for key, nodes in Counter(exc.keys).items():  # in first-seen order
                    click.echo(f"  missing: {key} ({nodes} node(s))", err=True)
                click.echo("hint: run `lbound bench --delta --simulate` to fill the gaps "
                           "or pass --allow-missing", err=True)
            sys.exit(exc.exit_code)
    return wrapper


def _load_inferred(path: str, batch: int):
    graph = model_ir.load_model_file(path)
    return model_ir.infer_shapes(graph, batch)


def _db_path(value: str | None) -> str:
    path = value or os.environ.get("LBOUND_DB")
    if not path:
        raise ConfigError("no database path: pass --db or set LBOUND_DB")
    return path
