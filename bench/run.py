"""Benchmark of the ``lbound`` CLI on three workloads.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload build-zoo --seed 1 --seconds 30 --trace 0

The benchmark writes every input from ``--seed`` (text and ONNX models,
library logs, profiles, databases), then runs the workload's command
sequence one command at a time, repeating it until ``--seconds`` have
passed. ``--trace 0`` runs each command as a child process and reports the
end-to-end metrics listed in BENCHMARK.json; for the pass time and the
throughput among them, each command's time is divided by the mean time
of a fixed reference kernel run just before and just after it
(``refkernel.py``), because the host's speed drifts. ``--trace 1`` runs one pass
in this interpreter without and then with spans around each layer's
functions, and reports the per-layer metrics. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller report
(command-type timings with percentiles, output digests and named input
checks) goes to ``.bench_work/report-<workload>[-trace].json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from statistics import median  # noqa: E402

from harness import ChildCli, InProcessCli, Session, SetupError, describe  # noqa: E402
from workloads import FULL, TINY, WORKLOADS  # noqa: E402

ROOT = HERE.parent
BUDGET_S = 170.0  # every run must end within 180 s
KINDS = ("process", "bench", "profile", "analyze", "advise", "db")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs every step on small inputs (smoke test)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lbound" / "cli.py").is_file():
        print(f"error: no lbound sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    size = TINY if args.size == "tiny" else FULL
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + BUDGET_S
    workload = WORKLOADS[args.workload](size, args.seed, work)
    try:
        if args.trace:
            report = traced(workload, work, deadline)
        else:
            report = measure(workload, work, args.seconds, deadline)
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    suffix = "-trace" if args.trace else ""
    report_path = ROOT / ".bench_work" / f"report-{args.workload}{suffix}.json"
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", "utf-8")
    for line in report["lines"]:
        print(line)
    print(f"full report: {report_path.relative_to(ROOT)}")
    print(json.dumps(report["result"]))
    return 0


def measure(workload, work: Path, seconds: float, deadline: float) -> dict:
    s = Session(ChildCli(ROOT, work, deadline), paired_reference=True)
    setups = []
    for _ in range(workload.size.setups):
        start = time.perf_counter()
        workload.setup(s)
        setups.append(time.perf_counter() - start)
    workload.probe(s)

    walls: list[float] = []
    start = time.perf_counter()
    while True:
        s.pass_no += 1
        t0 = time.perf_counter()
        workload.run_pass(s)
        walls.append(time.perf_counter() - t0)
        expected = median(walls)
        if (time.perf_counter() - start + expected > seconds
                or time.monotonic() + 1.5 * expected > deadline):
            break

    recs = s.records
    # Every pass issues the same commands in the same order. A pass time is
    # the sum over command slots of each slot's median across passes, which
    # discounts a pass that a burst of host load slowed. The gated timings
    # divide each command's time by the reference kernel time around it
    # (see refkernel.py); the seconds are printed beside them.
    slots: dict[int, list] = {}
    for p in range(1, len(walls) + 1):
        for i, r in enumerate(r for r in recs if r.pass_no == p):
            slots.setdefault(i, []).append(r)

    def per_slot(value, kinds=None) -> tuple[float, int]:
        chosen = [v for v in slots.values() if kinds is None or v[0].kind in kinds]
        return (sum(median([value(r) for r in v]) for v in chosen),
                sum(v[0].items for v in chosen))

    wall_s, _ = per_slot(lambda r: r.wall_s)
    wall_ref, _ = per_slot(lambda r: r.wall_s / r.ref_s)
    busy_s, items = per_slot(lambda r: r.wall_s, workload.items_of)
    busy_ref, _ = per_slot(lambda r: r.wall_s / r.ref_s, workload.items_of)
    items_per_s = items / busy_s
    metrics = {
        "setup_s": (median(setups), "s"),
        "wall_ref": (wall_ref, "ref"),
        "items_per_ref": (items / busy_ref, "1/ref"),
        "peak_rss_mb": (max(r.rss_kb for r in recs) / 1024.0, "MB"),
        "ok_rate": (sum(r.ok for r in recs) / len(recs), "1"),
    }
    lines = [f"workload {workload.name}, seed {workload.seed}: {len(walls)} pass(es), "
             f"{len(recs)} commands, closed loop, 1 client",
             f"  setup_s: {describe(setups)}",
             f"  reference kernel: {describe([r.ref_s for r in recs])} s",
             f"  wall_s {wall_s:.4f} (sum of per-command medians over passes); "
             f"pass wall time: {describe(walls)}"]
    by_kind = {}
    for kind in KINDS:
        cmds = [r.wall_s for r in recs if r.kind == kind]
        if not cmds:
            continue
        per_pass = [sum(r.wall_s for r in recs if r.kind == kind and r.pass_no == p)
                    for p in range(1, len(walls) + 1)]
        busy = sum(r.cpu_s for r in recs if r.kind == kind) / sum(cmds)
        by_kind[f"{kind}_s"] = {"per_pass": per_pass, "per_command": cmds,
                                "cpu_share": busy}
        lines.append(f"  {kind}_s per pass: {describe(per_pass)}; "
                     f"per command: {describe(cmds)}; cpu/wall {busy:.3f}")
    lines.append(f"  items_per_s ({workload.rate_name}) {items_per_s:.4f}; per pass: "
                 f"{describe(_rates(recs, workload.items_of, len(walls)))}")
    return {**_summary(lines, metrics, recs, s), "by_kind": by_kind,
            "checks": s.checks, "passes": walls, "setups": setups,
            "wall_s": wall_s, "items_per_s": items_per_s}


def _rates(recs, kinds, passes: int) -> list[float]:
    rates = []
    for p in range(1, passes + 1):
        mine = [r for r in recs if r.pass_no == p and r.kind in kinds]
        busy = sum(r.wall_s for r in mine)
        if busy > 0:
            rates.append(sum(r.items for r in mine) / busy)
    return rates


def _summary(lines: list[str], metrics: dict, recs: list, s: Session) -> dict:
    """Finish the report: failures, digests, named checks, metrics, result."""
    failed = [r for r in recs if not r.ok]
    lines.append(f"  fail_rate: {len(failed)}/{len(recs)}")
    for r in failed:
        lines.append(f"  FAILED {r.kind} {' '.join(r.args)[:200]}: {r.detail}")
    for name, digests in sorted(s.digests.items()):
        tag = "" if len(digests) == 1 else f" (NOT STABLE: {len(digests)} variants)"
        lines.append(f"  digest {name}: sha256 {sorted(digests)[0]}{tag}")
    for name, status in sorted(s.checks.items()):
        lines.append(f"  check {name}: {status}")
    for name, (value, unit) in metrics.items():
        lines.append(f"metric {name} = {value:.6g} {unit}")
    result = {"correct": not failed, "attempted": len(recs), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return {"lines": lines, "result": result, "failures": [vars(r) for r in failed],
            "digests": {k: sorted(v) for k, v in s.digests.items()}}


def traced(workload, work: Path, deadline: float) -> dict:
    from spans import Tracer

    child = Session(ChildCli(ROOT, work, deadline))
    workload.setup(child)
    startup = []
    for _ in range(3):
        t0 = time.perf_counter()
        child.run("help", ["--help"], timed=False)
        startup.append(time.perf_counter() - t0)

    cli = InProcessCli(ROOT)
    plain = Session(cli, pass_no=1)
    t0 = time.perf_counter()
    workload.run_pass(plain)
    untraced_s = time.perf_counter() - t0

    tracer = Tracer()
    s = Session(cli, pass_no=1)
    tracer.install()
    try:
        t0 = time.perf_counter()
        workload.run_pass(s)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    tracer.write(ROOT / ".bench_work" / f"trace-{workload.name}.jsonl")

    totals = tracer.totals()
    metrics = per_layer_metrics(totals, tracer, s, startup)
    covered = sum(t["ms"] for t in totals.values()) / 1000.0
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.self_time_coverage"] = (covered / traced_s, "1")

    lines = [f"workload {workload.name}, seed {workload.seed}: traced pass in-process, "
             f"{len(s.records)} commands, {len(tracer.spans)} spans",
             f"  untraced pass {untraced_s:.4f} s, traced pass {traced_s:.4f} s"]
    return {**_summary(lines, metrics, plain.records + s.records, s),
            "span_totals": totals}


CALLS_AND_MS = ("model_ir.load_model_file", "model_ir.infer_shapes", "model_ir.topo_order",
                "onnx_reader.load_model", "dedup.signature", "dedup.unique_layers",
                "benchgen.fusion_candidates", "synth_runner.simulate", "perfdb.open",
                "perfdb.insert", "perfdb.query", "perfdb.best", "analyzer.annotate",
                "analyzer.critical_path")
MS_ONLY = ("benchgen.generate_specs", "benchgen.parse_manifest", "benchgen.delta_specs",
           "perfdb.compact", "profile_ingest.parse_profile",
           "profile_ingest.build_profile", "analyzer.algorithm_advice",
           "analyzer.framework_diff", "analyzer.fusion_analysis",
           "analyzer.tensorcore_analysis", "analyzer.joint_analysis",
           "analyzer.advise_systems")
RENDER = ("analyzer.report_to_json", "analyzer.report_to_text", "analyzer.export_dot")


def per_layer_metrics(totals: dict, tracer, s: Session, startup: list[float]) -> dict:
    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    m: dict[str, tuple[float, str]] = {}
    for name in CALLS_AND_MS:
        m[f"{name}.calls"] = (get(name, "calls"), "count")
        m[f"{name}.ms"] = (get(name, "ms"), "ms")
    for name in MS_ONLY:
        m[f"{name}.ms"] = (get(name, "ms"), "ms")
    unique = len(tracer.unique_signatures)
    m["dedup.signature_per_unique"] = (get("dedup.signature", "calls") / unique
                                       if unique else 0.0, "1")
    m["perfdb.records_loaded"] = (tracer.records_loaded, "count")
    m["perfdb.best.miss"] = (get("perfdb.best", "raised"), "count")
    m["perfdb.record_for.calls"] = (get("perfdb.record_for", "calls"), "count")
    bounded = 0
    for r in s.records:
        if r.kind == "analyze":
            bounded += 1
        elif r.kind == "advise":
            bounded += len(r.args[r.args.index("--systems") + 1].split(","))
    m["analyzer.annotate_per_analyze"] = (get("analyzer.annotate", "calls") / bounded
                                          if bounded else 0.0, "1")
    m["analyzer.render.ms"] = (sum(get(n, "ms") for n in RENDER), "ms")
    m["cli.startup.ms"] = (median(startup) * 1000.0, "ms")
    return m


if __name__ == "__main__":
    sys.exit(main())
