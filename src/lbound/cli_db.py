"""``lbound db``: import, compact and count the performance database."""

from __future__ import annotations

import click

from .cli_common import _exit_codes
from .errors import StorageError, read_text


@click.group()
def db():
    """Inspect and maintain the performance database."""


@db.command("import")
@click.argument("database", type=click.Path())
@click.argument("files", nargs=-1, required=True, type=click.Path(exists=True))
@_exit_codes
def db_import(database, files):
    """Import external result files (same line format, e.g. real hardware)."""
    from . import perfdb, perfdb_writer

    with perfdb.PerfDb(database, mode="rw") as handle:
        total = 0
        for path in files:
            total += perfdb_writer.import_lines(handle, read_text(path, StorageError))
    click.echo(f"imported {total} record(s) into {database}")


@db.command("compact")
@click.argument("database", type=click.Path(exists=True))
@_exit_codes
def db_compact(database):
    """Drop superseded records, then rewrite the file and its layer index."""
    from . import perfdb

    with perfdb.PerfDb(database, mode="rw") as handle:
        dropped = handle.compact()
    click.echo(f"compacted {database}: dropped {dropped} superseded record(s)")


@db.command("stats")
@click.argument("database", type=click.Path(exists=True))
@_exit_codes
def db_stats(database):
    """Print live and superseded record counts.

    Live records are also counted per system. The counts are read from the
    layer index when one is trusted.
    """
    from . import perfdb

    with perfdb.PerfDb(database) as handle:
        counts = handle.live_by_system()
        click.echo(f"{len(handle)} live record(s), {handle.superseded} superseded")
        for system in sorted(counts):
            click.echo(f"  {system}: {counts[system]}")
