"""``lbound db``: import, compact and count the performance database."""

from __future__ import annotations

from .cli_common import _existing, _group, _parser
from .errors import StorageError, read_text


def db_import(argv: list[str]) -> None:
    """Import external result files (same line format, e.g. real hardware).

    Every line of every file is checked before the database is opened, and
    the records are then appended in one write, so a bad line leaves the
    database as it was.
    """
    p = _parser("db import", db_import.__doc__)
    p.add_argument("database", metavar="DATABASE", help="Database to import into.")
    p.add_argument("files", metavar="FILES", nargs="+", type=_existing,
                   help="Result files, one record per line.")
    opts = p.parse_intermixed_args(argv)

    from . import perfdb, perfdb_writer

    records = []
    for path in opts.files:
        records += perfdb_writer.import_records(read_text(path, StorageError))
    with perfdb.PerfDb(opts.database, mode="rw") as handle:
        handle.insert(*records)
    print(f"imported {len(records)} record(s) into {opts.database}")


def db_compact(argv: list[str]) -> None:
    """Drop superseded records, then rewrite the file and its layer index."""
    p = _parser("db compact", db_compact.__doc__)
    p.add_argument("database", metavar="DATABASE", type=_existing)
    database = p.parse_intermixed_args(argv).database

    from . import perfdb

    with perfdb.PerfDb(database, mode="rw") as handle:
        dropped = handle.compact()
    print(f"compacted {database}: dropped {dropped} superseded record(s)")


def db_stats(argv: list[str]) -> None:
    """Print live and superseded record counts.

    Live records are also counted per system. The counts are read from the
    layer index when one is trusted.
    """
    p = _parser("db stats", db_stats.__doc__)
    p.add_argument("database", metavar="DATABASE", type=_existing)
    database = p.parse_intermixed_args(argv).database

    from . import perfdb

    with perfdb.PerfDb(database) as handle:
        counts = handle.live_by_system()
        print(f"{len(handle)} live record(s), {handle.superseded} superseded")
        for system in sorted(counts):
            print(f"  {system}: {counts[system]}")


SUBCOMMANDS = {"compact": db_compact, "import": db_import, "stats": db_stats}


def db(argv: list[str]) -> None:
    """Inspect and maintain the performance database."""
    _group("db", db.__doc__, SUBCOMMANDS, argv)
