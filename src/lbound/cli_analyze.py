"""``lbound analyze`` and ``lbound advise``: the lower-bound readers of a model."""

from __future__ import annotations

import math
import sys

from . import model_ir
from .cli_common import _DEFAULT, _comma_list, _db_path, _existing, _parser
from .errors import ConfigError, MissError, ProfileFormatError, read_text, write_text
from .model_ir import DTYPES, LAYOUTS


def analyze(argv: list[str]) -> None:
    """Compute lower bounds, Benanza Ratios, and optimization advice."""
    p = _parser("analyze", analyze.__doc__)
    p.add_argument("model", metavar="MODEL", type=_existing, help="Model file: text or ONNX.")
    p.add_argument("--db", dest="db_path", metavar="PATH", help="Database path (or LBOUND_DB).")
    p.add_argument("--system", dest="system_name", metavar="SYSTEM", required=True,
                   help="System profile name or JSON path.")
    p.add_argument("--batch", type=int, metavar="N", default=1, help=_DEFAULT)
    p.add_argument("--dtype", choices=DTYPES, default="f32", help=_DEFAULT)
    p.add_argument("--profile", dest="profile_path", metavar="PATH", type=_existing,
                   help="Execution profile, from profile convert.")
    p.add_argument("--measured-ms", type=float, metavar="MS",
                   help="Measured latency when no profile is available.")
    p.add_argument("--parallel", action="store_true", help="Joint scenario: parallel execution.")
    p.add_argument("--fusion", action="store_true", help="Run the fusion analysis.")
    p.add_argument("--ideal-algo", action="store_true", default=True,
                   help="Joint scenario: ideal algorithm selection (the default).")
    p.add_argument("--logged-algo", dest="ideal_algo", action="store_false",
                   help="Joint scenario: the algorithms the profile logged.")
    p.add_argument("--tensor-core", action="store_true", help="Run the tensor-core analysis.")
    p.add_argument("--layout", choices=LAYOUTS, default="NCHW", help=_DEFAULT)
    p.add_argument("--allow-missing", action="store_true",
                   help="Treat database misses as zero-latency layers in every analysis.")
    p.add_argument("--out", dest="fmt", choices=("text", "json", "dot"), default="text",
                   help=_DEFAULT)
    p.add_argument("--out-file", metavar="PATH", help="Write the report here, not to stdout.")
    p.add_argument("--miss-out", metavar="PATH",
                   help="Write missing keys to a file consumable by bench --from-misses.")
    opts = p.parse_intermixed_args(argv)

    from . import analyzer, perfdb, systems

    graph = model_ir.infer_shapes(model_ir.load_model_file(opts.model), opts.batch)
    sysid = systems.load_system_profile(opts.system_name).system_id
    prof = None
    if opts.profile_path:
        from . import profile_ingest

        prof = profile_ingest.parse_profile(read_text(opts.profile_path, ProfileFormatError))
        prof_sysid = systems.load_system_profile(prof.system_id).system_id
        if (prof_sysid, prof.batch) != (sysid, opts.batch):
            raise ConfigError(f"profile {opts.profile_path} is of system {prof_sysid!r} at batch "
                              f"{prof.batch}, but the command analyzes {sysid!r} at batch "
                              f"{opts.batch}")
    scenario = analyzer.Scenario(opts.parallel, opts.ideal_algo, opts.fusion, opts.tensor_core,
                                 opts.layout)
    with perfdb.PerfDb(_db_path(opts.db_path)) as handle:
        anns = analyzer.Annotator(graph, handle)
        try:
            report = analyzer.build_report(anns, sysid, opts.dtype, opts.batch, scenario,
                                           profile=prof, measured_ms=opts.measured_ms,
                                           allow_missing=opts.allow_missing)
        except MissError as exc:
            _write_misses(opts.miss_out, exc.keys)
            raise
    _write_misses(opts.miss_out, report.missing)  # the misses --allow-missing let through

    if opts.fmt == "dot":
        text = analyzer.export_dot(anns.annotation(sysid, opts.dtype),
                                   anns.critical_path(sysid, opts.dtype))
    elif opts.fmt == "json":
        text = analyzer.report_to_json(report)
    else:
        text = analyzer.report_to_text(report)
    if opts.out_file:
        write_text(opts.out_file, text)
        print(f"wrote {opts.fmt} report to {opts.out_file}")
    else:
        sys.stdout.write(text)


def _write_misses(path: str | None, keys: list[str]) -> None:
    """Write each missing key once, in first-seen order, for ``bench --from-misses``."""
    if path and keys:
        write_text(path, "\n".join(dict.fromkeys(keys)) + "\n")


def advise(argv: list[str]) -> None:
    """Rank systems for a model by lower bound, optionally weighted by cost."""
    p = _parser("advise", advise.__doc__)
    p.add_argument("model", metavar="MODEL", type=_existing, help="Model file: text or ONNX.")
    p.add_argument("--db", dest="db_path", metavar="PATH", help="Database path (or LBOUND_DB).")
    p.add_argument("--systems", required=True, help="Comma-separated system ids.")
    p.add_argument("--batch", type=int, metavar="N", default=1, help=_DEFAULT)
    p.add_argument("--dtype", choices=DTYPES, default="f32", help=_DEFAULT)
    p.add_argument("--costs", help="Comma-separated system=dollars_per_hour pairs.")
    p.add_argument("--rank-by", choices=("latency", "cost"),
                   help="Default: cost when --costs given, else latency.")
    opts = p.parse_intermixed_args(argv)

    from . import analyzer, perfdb

    system_list = _comma_list(opts.systems)
    if not system_list:
        raise ConfigError(f"--systems {opts.systems!r} names no system")
    graph = model_ir.infer_shapes(model_ir.load_model_file(opts.model), opts.batch)
    cost_map = None
    if opts.costs:
        cost_map = {}
        for pair in opts.costs.split(","):
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
    rank_by = opts.rank_by or ("cost" if cost_map else "latency")
    with perfdb.PerfDb(_db_path(opts.db_path)) as handle:
        rows = analyzer.advise_systems(analyzer.Annotator(graph, handle), system_list,
                                       opts.dtype, cost_per_hour=cost_map, rank_by=rank_by)
    for i, row in enumerate(rows, start=1):
        if row.has_misses:  # a bound over part of the layers is no bound
            print(f"{i}. {row.system}: {row.covered} of {row.supported} layers covered"
                  "  [incomplete: database misses]")
            continue
        cost = f", cost score {row.cost_score:.1f}" if row.cost_score is not None else ""
        print(f"{i}. {row.system}: {row.lb_us / 1000.0:.3f} ms{cost}")
