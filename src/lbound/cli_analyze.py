"""``lbound analyze`` and ``lbound advise``: the lower-bound readers of a model."""

from __future__ import annotations

import math

import click

from .cli_common import _db_path, _exit_codes, _load_inferred
from .errors import ConfigError, MissError, ProfileFormatError, read_text
from .model_ir import DTYPES, LAYOUTS


@click.command()
@click.argument("model", type=click.Path(exists=True))
@click.option("--db", "db_path", default=None, help="Database path (or LBOUND_DB).")
@click.option("--system", "system_name", required=True)
@click.option("--batch", default=1, show_default=True, type=int)
@click.option("--dtype", default="f32", show_default=True,
              type=click.Choice(DTYPES))
@click.option("--profile", "profile_path", type=click.Path(exists=True), default=None)
@click.option("--measured-ms", type=float, default=None,
              help="Measured latency when no profile is available.")
@click.option("--parallel", is_flag=True, help="Joint scenario: parallel execution.")
@click.option("--fusion", is_flag=True, help="Run the fusion analysis.")
@click.option("--ideal-algo/--logged-algo", default=True, show_default=True,
              help="Joint scenario: ideal vs logged algorithm selection.")
@click.option("--tensor-core", is_flag=True, help="Run the tensor-core analysis.")
@click.option("--layout", default="NCHW", show_default=True,
              type=click.Choice(LAYOUTS))
@click.option("--allow-missing", is_flag=True,
              help="Treat database misses as zero-latency layers in every analysis.")
@click.option("--out", "fmt", default="text", show_default=True,
              type=click.Choice(["text", "json", "dot"]))
@click.option("--out-file", type=click.Path(), default=None)
@click.option("--miss-out", type=click.Path(), default=None,
              help="Write missing keys to a file consumable by bench --from-misses.")
@_exit_codes
def analyze(model, db_path, system_name, batch, dtype, profile_path, measured_ms,
            parallel, fusion, ideal_algo, tensor_core, layout, allow_missing,
            fmt, out_file, miss_out):
    """Compute lower bounds, Benanza Ratios, and optimization advice."""
    from . import analyzer, perfdb, synth_runner

    graph = _load_inferred(model, batch)
    sysid = synth_runner.load_system_profile(system_name).system_id
    prof = None
    if profile_path:
        from . import profile_ingest

        prof = profile_ingest.parse_profile(read_text(profile_path, ProfileFormatError))
        prof_sysid = synth_runner.load_system_profile(prof.system_id).system_id
        if (prof_sysid, prof.batch) != (sysid, batch):
            raise ConfigError(f"profile {profile_path} is of system {prof_sysid!r} at batch "
                              f"{prof.batch}, but the command analyzes {sysid!r} at batch {batch}")
    scenario = analyzer.Scenario(parallel, ideal_algo, fusion, tensor_core, layout)
    with perfdb.PerfDb(_db_path(db_path)) as handle:
        anns = analyzer.Annotator(graph, handle)
        try:
            report = analyzer.build_report(anns, sysid, dtype, batch, scenario, profile=prof,
                                           measured_ms=measured_ms, allow_missing=allow_missing)
        except MissError as exc:
            _write_misses(miss_out, exc.keys)
            raise
    _write_misses(miss_out, report.missing)  # the misses --allow-missing let through

    if fmt == "dot":
        text = analyzer.export_dot(anns.annotation(sysid, dtype), anns.critical_path(sysid, dtype))
    elif fmt == "json":
        text = analyzer.report_to_json(report)
    else:
        text = analyzer.report_to_text(report)
    if out_file:
        with open(out_file, "w", encoding="utf-8") as fh:
            fh.write(text)
        click.echo(f"wrote {fmt} report to {out_file}")
    else:
        click.echo(text, nl=False)


def _write_misses(path: str | None, keys: list[str]) -> None:
    """Write each missing key once, in first-seen order, for ``bench --from-misses``."""
    if path and keys:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(dict.fromkeys(keys)) + "\n")


@click.command()
@click.argument("model", type=click.Path(exists=True))
@click.option("--db", "db_path", default=None, help="Database path (or LBOUND_DB).")
@click.option("--systems", required=True, help="Comma-separated system ids.")
@click.option("--batch", default=1, show_default=True, type=int)
@click.option("--dtype", default="f32", show_default=True,
              type=click.Choice(DTYPES))
@click.option("--costs", default=None,
              help="Comma-separated system=dollars_per_hour pairs.")
@click.option("--rank-by", default=None, type=click.Choice(["latency", "cost"]),
              help="Default: cost when --costs given, else latency.")
@_exit_codes
def advise(model, db_path, systems, batch, dtype, costs, rank_by):
    """Rank systems for a model by lower bound, optionally weighted by cost."""
    from . import analyzer, perfdb

    graph = _load_inferred(model, batch)
    system_list = [s.strip() for s in systems.split(",") if s.strip()]
    cost_map = None
    if costs:
        cost_map = {}
        for pair in costs.split(","):
            key, sep, value = pair.partition("=")
            if not sep:
                raise ConfigError(f"bad cost entry {pair!r}; use system=value")
            try:
                cost = float(value)
            except ValueError:
                cost = math.nan
            if not 0 <= cost < math.inf:
                raise ConfigError(f"bad cost {value.strip()!r} for {key.strip()!r}; "
                                  "use a finite number >= 0")
            cost_map[key.strip()] = cost
    if rank_by is None:
        rank_by = "cost" if cost_map else "latency"
    with perfdb.PerfDb(_db_path(db_path)) as handle:
        rows = analyzer.advise_systems(analyzer.Annotator(graph, handle), system_list,
                                       dtype, cost_per_hour=cost_map, rank_by=rank_by)
    for i, row in enumerate(rows, start=1):
        if row.has_misses:  # a bound over part of the layers is no bound
            click.echo(f"{i}. {row.system}: {row.covered} of {row.supported} layers covered"
                       "  [incomplete: database misses]")
            continue
        cost = f", cost score {row.cost_score:.1f}" if row.cost_score is not None else ""
        click.echo(f"{i}. {row.system}: {row.lb_us / 1000.0:.3f} ms{cost}")
