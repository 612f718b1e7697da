"""``lbound bench``: generate benchmark specs, then simulate them or emit source."""

from __future__ import annotations

import argparse
import os
from typing import TYPE_CHECKING

from . import model_ir
from .cli_common import _DEFAULT, _comma_list, _db_path, _existing, _parser
from .errors import ConfigError, ModelParseError, read_text, write_text

if TYPE_CHECKING:
    from .benchgen import BenchConfig


def bench(argv: list[str]) -> None:
    """Generate benchmark specs; simulate them or emit source."""
    p = _parser("bench", bench.__doc__)
    p.add_argument("models", metavar="MODELS", nargs="*", type=_existing,
                   help="Model files: text or ONNX.")
    p.add_argument("--from-manifest", metavar="PATH", type=_existing,
                   help="Generate from a spec manifest instead of models.")
    p.add_argument("--from-misses", metavar="PATH", type=_existing,
                   help="Generate only the keys listed in a miss file (from analyze --miss-out), "
                        "each at its own dtype; --dtypes does not apply.")
    p.add_argument("--db", dest="db_path", metavar="PATH", help="Database path (or LBOUND_DB).")
    p.add_argument("--system", dest="system_name", metavar="SYSTEMS",
                   help="Comma-separated system profile names or JSON paths (required to "
                        "simulate); each system's records are appended in one write.")
    p.add_argument("--batch", type=int, metavar="N", default=1, help=_DEFAULT)
    p.add_argument("--dtypes", default="f32,f16", help=_DEFAULT)
    p.add_argument("--layouts", default="NCHW", help=_DEFAULT)
    p.add_argument("--algorithms", help="Comma-separated algorithm subset (default: all 8).")
    p.add_argument("--fusion", action=argparse.BooleanOptionalAction, default=False,
                   help="Also generate a spec per fusion site.")
    p.add_argument("--delta", action="store_true",
                   help="Skip specs that already have results, system by system; "
                        "--emit-src writes the specs some system lacks.")
    p.add_argument("--simulate", dest="do_simulate", action="store_true",
                   help="Run the synthetic cost model and store records.")
    p.add_argument("--emit-src", metavar="DIR",
                   help="Write one generated source file per spec to this directory.")
    p.add_argument("--manifest", dest="manifest_out", metavar="PATH",
                   help="Write the spec manifest to this path.")
    p.add_argument("--jitter-seed", type=int, metavar="SEED",
                   help="Enable +/-3%% seeded jitter in the simulator.")
    opts = p.parse_intermixed_args(argv)
    if not (opts.models or opts.from_manifest or opts.from_misses):
        p.error("give MODELS, --from-manifest, or --from-misses")

    from . import benchgen

    algos = tuple(benchgen.ConvAlgorithm)
    if opts.algorithms:
        try:
            algos = tuple(benchgen.ConvAlgorithm[a] for a in _comma_list(opts.algorithms))
        except KeyError as exc:
            raise ConfigError(f"unknown algorithm {exc}") from exc
    config = benchgen.BenchConfig(_comma_list(opts.dtypes), _comma_list(opts.layouts), algos)

    if opts.from_manifest:
        specs = benchgen.parse_manifest(read_text(opts.from_manifest, ModelParseError))
    elif opts.from_misses:
        specs = _specs_from_misses(opts.from_misses, config)
    else:
        from . import dedup

        uniques: set[dedup.LayerSignature] = set()
        sites: list[benchgen.FusionSite] = []
        for path in opts.models:
            graph = model_ir.infer_shapes(model_ir.load_model_file(path), opts.batch)
            uniques |= dedup.unique_layers([graph], config.dtypes[0]).signatures
            if opts.fusion:
                sites.extend(benchgen.fusion_candidates(graph, config.dtypes[0]))
        specs = benchgen.generate_specs(uniques, config, fusion_sites=sites)

    print(f"generated {len(specs)} benchmark spec(s)")

    if opts.manifest_out:
        write_text(opts.manifest_out, benchgen.manifest_lines(specs))
        print(f"wrote manifest to {opts.manifest_out}")

    if opts.delta or opts.do_simulate:
        from . import perfdb, synth_runner, systems

        path = _db_path(opts.db_path)
        names = _comma_list(opts.system_name or "")
        if not names:
            raise ConfigError("--delta needs --system to check existing results"
                              if opts.delta else "--simulate needs --system")
        # Resolved before the open, so a bad --system leaves no database behind.
        profiles = [systems.load_system_profile(name) for name in names]
        missing = set()  # with --delta, the specs some system lacks
        with perfdb.PerfDb(path, mode="rw" if opts.do_simulate else "r") as db:
            for system in profiles:
                todo = specs
                prefix = f"{system.system_id}: " if len(profiles) > 1 else ""
                if opts.delta:  # through the index, decodes only the layers it checks
                    todo = benchgen.delta_specs(specs, db, system.system_id)
                    missing.update(todo)
                    print(f"{prefix}delta: {len(todo)} spec(s) not yet in the database")
                if opts.do_simulate:
                    n = synth_runner.run_specs(todo, system, db, jitter_seed=opts.jitter_seed)
                    print(f"{prefix}simulated {n} record(s) into {path}")
        if opts.delta:
            specs = [spec for spec in specs if spec in missing]

    if opts.emit_src:
        try:
            os.makedirs(opts.emit_src, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot write {opts.emit_src}: {exc}") from exc
        for spec in specs:
            write_text(os.path.join(opts.emit_src, benchgen.spec_filename(spec)),
                       benchgen.emit_benchmark_source(spec))
        print(f"emitted {len(specs)} source file(s) to {opts.emit_src}")


def _specs_from_misses(path: str, config: BenchConfig):
    """Rebuild specs for the layers named in a miss-key file.

    Each line is a key, ``system/dtype/layout/algo/fused/signature``, split
    from the right because a system id may hold a ``/`` and a signature never
    does; it yields specs at the signature's dtype and the key's layout. The
    system is a system id, the dtype the signature's own, the layout one of
    ``LAYOUTS``, and the algorithm and fused fields ``-`` or a
    ``ConvAlgorithm`` name and a ``FUSION_PATTERNS`` id, as
    ``RecordKey.render`` writes them.
    """
    from . import benchgen, dedup, systems

    algorithms = {"-", *model_ir.ConvAlgorithm.__members__}
    fused = {"-", *model_ir.FUSION_PATTERNS}
    groups: dict[tuple[str, str], set[dedup.LayerSignature]] = {}  # by (dtype, layout)
    for n, line in enumerate(read_text(path, ModelParseError).split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        parts = line.rsplit("/", 5)
        if len(parts) != 6:
            raise ConfigError(f"miss file {path} line {n}: expected "
                              f"system/dtype/layout/algo/fused/signature, got {line!r}")
        system, dtype, layout, algo, pattern, canonical = parts
        try:
            sig = dedup.parse_signature(canonical)
        except ModelParseError as exc:
            raise ConfigError(f"miss file {path} line {n}: {exc} in {line!r}") from exc
        if fault := systems.system_id_fault(system):
            bad = f"system {fault}"
        elif dtype != sig.dtype:
            bad = f"dtype {dtype!r} is not its signature's {sig.dtype!r}"
        elif layout not in model_ir.LAYOUTS:
            bad = f"unknown layout {layout!r}"
        elif algo not in algorithms:
            bad = f"algorithm {algo!r} is neither '-' nor a ConvAlgorithm name"
        elif pattern not in fused:
            bad = f"fused {pattern!r} is neither '-' nor a fusion pattern id"
        else:
            groups.setdefault((dtype, layout), set()).add(sig)
            continue
        raise ConfigError(f"miss file {path} line {n}: {bad} in {line!r}")
    if not groups:
        raise ConfigError(f"miss file {path} names no layer")
    return [spec for (dtype, layout), sigs in sorted(groups.items())
            for spec in benchgen.generate_specs(
                sigs, benchgen.BenchConfig((dtype,), (layout,), config.algorithms))]
