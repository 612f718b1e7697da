"""``lbound bench``: generate benchmark specs, then simulate them or emit source."""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

import click

from .cli_common import _db_path, _exit_codes, _load_inferred
from .errors import ConfigError, ModelParseError, read_text

if TYPE_CHECKING:
    from .benchgen import BenchConfig


@click.command()
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
