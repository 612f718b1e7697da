"""Command-line entry points.

Exit codes are a stable contract: 0 success, 2 input or parse error,
3 performance-database miss, 4 storage error. Human-readable latencies
print in milliseconds with 3 decimals; structured output stays in
microseconds. ``LBOUND_DB`` sets the default database path.

Every command is one short process, so start-up is part of its latency.
A command imports the layer modules it calls inside its own body, and
nothing heavy runs at import: ``--help`` loads only this module, ``errors``
and ``model_ir``. No module builds a class from generated code at import:
records are plain classes, not dataclasses. A lazily imported layer is
called through its module (``perfdb.PerfDb``), so a function replaced on its
module is the one a command runs. :func:`run` is the process entry point;
``main`` is the Click group that in-process callers invoke.
"""

from __future__ import annotations

import functools
import gc
import math
import os
import sys
from collections import Counter
from typing import TYPE_CHECKING

import click

from .errors import (ConfigError, LboundError, MissError, ModelParseError, ProfileFormatError,
                     StorageError, read_text)
from .model_ir import DTYPES, LAYOUTS, infer_shapes, load_model_file

if TYPE_CHECKING:
    from .benchgen import BenchConfig


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
    graph = load_model_file(path)
    return infer_shapes(graph, batch)


def _db_path(value: str | None) -> str:
    path = value or os.environ.get("LBOUND_DB")
    if not path:
        raise ConfigError("no database path: pass --db or set LBOUND_DB")
    return path


@click.group()
def main():
    """Lower-bound latency benchmarking and analysis for DL model graphs."""


# ---------------------------------------------------------------------------
# process
# ---------------------------------------------------------------------------

@main.command()
@click.argument("models", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--batch", default=1, show_default=True, type=int)
@click.option("--dtype", default="f32", show_default=True,
              type=click.Choice(DTYPES))
@click.option("--coverage", is_flag=True, help="Also print per-op API coverage.")
@click.option("--format", "fmt", default="text", show_default=True,
              type=click.Choice(["text", "jsonl"]))
@_exit_codes
def process(models, batch, dtype, coverage, fmt):
    """Parse models, infer shapes, and report unique-layer statistics."""
    from . import dedup

    graphs = [_load_inferred(p, batch) for p in models]
    report = dedup.unique_layers(graphs, dtype)
    if fmt == "jsonl":
        click.echo(dedup.stats_jsonl(report), nl=False)
    else:
        for st in report.per_model + [report.pooled]:
            click.echo(f"{st.model}: {st.total} layers, {st.unique} unique "
                       f"({st.percent:.1f}%)")
    if coverage:
        for graph in graphs:
            cov = dedup.support_coverage(graph)
            click.echo(f"{cov.model}: {cov.percent:.2f}% of layers backed by "
                       f"cuDNN/cuBLAS")
            for row in cov.by_op:
                mark = "supported" if row.supported else "unsupported"
                click.echo(f"  {row.op_type}: {row.count} ({row.share_percent:.1f}%), {mark}")


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

@main.command()
@click.argument("models", nargs=-1, type=click.Path(exists=True))
@click.option("--from-manifest", type=click.Path(exists=True),
              help="Generate from a spec manifest instead of models.")
@click.option("--from-misses", type=click.Path(exists=True),
              help="Generate only the keys listed in a miss file (from analyze --miss-out), "
                   "each at its own dtype; --dtypes does not apply.")
@click.option("--db", "db_path", default=None, help="Database path (or LBOUND_DB).")
@click.option("--system", "system_name", default=None,
              help="System profile name or JSON path (required to simulate).")
@click.option("--batch", default=1, show_default=True, type=int)
@click.option("--dtypes", default="f32,f16", show_default=True)
@click.option("--layouts", default="NCHW", show_default=True)
@click.option("--algorithms", default=None,
              help="Comma-separated algorithm subset (default: all 8).")
@click.option("--fusion/--no-fusion", default=False, show_default=True)
@click.option("--delta", is_flag=True,
              help="Skip specs that already have results for this system.")
@click.option("--simulate", "do_simulate", is_flag=True,
              help="Run the synthetic cost model and store records.")
@click.option("--emit-src", type=click.Path(), default=None,
              help="Write one generated source file per spec to this directory.")
@click.option("--manifest", "manifest_out", type=click.Path(), default=None,
              help="Write the spec manifest to this path.")
@click.option("--jitter-seed", type=int, default=None,
              help="Enable +/-3% seeded jitter in the simulator.")
@_exit_codes
def bench(models, from_manifest, from_misses, db_path, system_name, batch, dtypes,
          layouts, algorithms, fusion, delta, do_simulate, emit_src, manifest_out,
          jitter_seed):
    """Generate benchmark specs; simulate them or emit source."""
    from . import benchgen

    algos = tuple(benchgen.ConvAlgorithm)
    if algorithms:
        try:
            algos = tuple(benchgen.ConvAlgorithm[a.strip()]
                          for a in algorithms.split(",") if a.strip())
        except KeyError as exc:
            raise ConfigError(f"unknown algorithm {exc}") from exc
    config = benchgen.BenchConfig(
        dtypes=tuple(d.strip() for d in dtypes.split(",") if d.strip()),
        layouts=tuple(l.strip() for l in layouts.split(",") if l.strip()),
        algorithms=algos,
    )

    if from_manifest:
        specs = benchgen.parse_manifest(read_text(from_manifest, ModelParseError))
    elif from_misses:
        specs = _specs_from_misses(from_misses, config)
    elif models:
        from . import dedup

        uniques: set[dedup.LayerSignature] = set()
        sites: list[benchgen.FusionSite] = []
        for path in models:
            graph = _load_inferred(path, batch)
            uniques |= dedup.unique_layers([graph], config.dtypes[0]).signatures
            if fusion:
                sites.extend(benchgen.fusion_candidates(graph, config.dtypes[0]))
        specs = benchgen.generate_specs(uniques, config, fusion_sites=sites)
    else:
        raise click.UsageError("give MODELS, --from-manifest, or --from-misses")

    click.echo(f"generated {len(specs)} benchmark spec(s)")

    if manifest_out:
        with open(manifest_out, "w", encoding="utf-8") as fh:
            fh.write(benchgen.manifest_lines(specs))
        click.echo(f"wrote manifest to {manifest_out}")

    if delta or do_simulate:
        from . import perfdb, synth_runner

        path = _db_path(db_path)
        if not system_name:
            raise ConfigError("--delta needs --system to check existing results" if delta
                              else "--simulate needs --system")
        # Resolved before the open, so a bad --system leaves no database behind.
        system = synth_runner.load_system_profile(system_name)
        with perfdb.PerfDb(path, mode="rw" if do_simulate else "r") as db:
            if delta:  # through the index, decodes only the layers it checks
                specs = benchgen.delta_specs(specs, db, system.system_id)
                click.echo(f"delta: {len(specs)} spec(s) not yet in the database")
            if do_simulate:
                n = synth_runner.run_specs(specs, system, db, jitter_seed=jitter_seed)
                click.echo(f"simulated {n} record(s) into {path}")

    if emit_src:
        os.makedirs(emit_src, exist_ok=True)
        for spec in specs:
            out = os.path.join(emit_src, benchgen.spec_filename(spec))
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(benchgen.emit_benchmark_source(spec))
        click.echo(f"emitted {len(specs)} source file(s) to {emit_src}")


def _specs_from_misses(path: str, config: BenchConfig):
    """Rebuild specs for the layers named in a miss-key file.

    A key (``system/dtype/layout/algo/fused/signature``) yields specs at its
    own dtype and layout; a bare signature line at its dtype and ``--layouts``.
    """
    from . import benchgen, dedup

    groups: dict[tuple[str, tuple[str, ...]], set[dedup.LayerSignature]] = {}
    for line in read_text(path, ModelParseError).split("\n"):
        line = line.strip()
        if not line:
            continue
        parts = line.split("/", 5) if "/" in line else [line]
        layouts = (parts[2],) if len(parts) == 6 else config.layouts
        sig = dedup.parse_signature(parts[-1])
        groups.setdefault((sig.dtype, layouts), set()).add(sig)
    if not groups:
        raise ConfigError(f"miss file {path} names no layer")
    return [spec for (dtype, layouts), sigs in sorted(groups.items())
            for spec in benchgen.generate_specs(
                sigs, benchgen.BenchConfig((dtype,), layouts, config.algorithms))]


# ---------------------------------------------------------------------------
# db
# ---------------------------------------------------------------------------

@main.group()
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


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

@main.group()
def profile():
    """Execution-profile utilities."""


@profile.command("convert")
@click.option("--cudnn-log", type=click.Path(exists=True), default=None)
@click.option("--kernels", type=click.Path(exists=True), default=None)
@click.option("--latency-ms", type=float, required=True)
@click.option("--model", required=True)
@click.option("--system", required=True)
@click.option("--batch", default=1, show_default=True, type=int)
@click.option("--strict", is_flag=True, help="Reject unparseable logger lines.")
@click.option("-o", "--out", type=click.Path(), required=True)
@_exit_codes
def profile_convert(cudnn_log, kernels, latency_ms, model, system, batch, strict, out):
    """Convert library logs and a kernel trace into the canonical profile."""
    from . import profile_ingest

    log_text = read_text(cudnn_log, ProfileFormatError) if cudnn_log else ""
    kern_text = read_text(kernels, ProfileFormatError) if kernels else ""
    prof = profile_ingest.build_profile(
        model, system, batch, latency_ms, log_text, kern_text, strict=strict)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(profile_ingest.serialize_profile(prof))
    click.echo(f"wrote profile with {len(prof.api_calls)} api call(s) and "
               f"{len(prof.kernels)} kernel(s) to {out}")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

@main.command()
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


# ---------------------------------------------------------------------------
# advise
# ---------------------------------------------------------------------------

@main.command()
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
