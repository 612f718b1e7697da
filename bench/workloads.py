"""The three workloads: their inputs, set-up, timed command sequence and checks.

Each workload's timed part is a *pass*: a fixed sequence of CLI commands
issued one at a time by a single client (a closed loop with no parallel
children). A check compares a command's output with a value computed here
from the generated inputs (layer counts, chain bounds, critical paths,
log call counts), read straight from a database file (the Relu record's
latency) or counted in a file an earlier command wrote (the manifest's
spec count, which ``bench``, ``db stats`` and ``db compact`` must match).

* ``build-zoo`` is the write path: process models, write spec manifests,
  simulate them into a fresh database for every bundled system, then
  ``bench --delta``, ``db stats`` and ``db compact``.
* ``analyze-bigdb`` is the read path over the large seven-system database
  that ``build-zoo`` ends with: full analysis, a sequential analysis of a
  deep model, cross-system advice and ``db stats``.
* ``analyze-deep`` is the graph path over a small database: long Relu
  chains (critical path, dot export) and ResNet-152 with every analysis.
"""

from __future__ import annotations

import json
import math
import random
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import zoo
from harness import CheckError, Session, SetupError

SYSTEMS = ("Quadro_RTX", "TITAN_V", "TITAN_Xp", "Tesla_K80", "Tesla_M60",
           "Tesla_T4", "Tesla_V100")


@dataclass(frozen=True)
class Size:
    family: tuple[str, ...] | None  # names kept from the thirty-model family; None = all
    sweep_depths: tuple[int, ...]  # ResNet v1 depths swept over ``batches``
    batches: tuple[int, ...]
    onnx_depths: tuple[int, ...]  # also written as binary ONNX
    systems: tuple[str, ...]
    wide: int  # ResNet depth analysed with every option
    deep: int  # ResNet depth analysed sequentially, and in analyze-deep
    batch: int  # batch of every analysis
    chains: tuple[int, ...]  # Relu chain lengths in analyze-deep
    setups: int  # set-up repetitions behind the setup_s median


# Four sweep batches give a 16k-record database: large enough that lookups
# dominate analyze-bigdb, small enough that a pass takes about 5 s and a run
# holds several passes for its per-command medians.
FULL = Size(family=None, sweep_depths=zoo.RESNET_DEPTHS, batches=(1, 4, 16, 64),
            onnx_depths=(50, 152), systems=SYSTEMS, wide=50, deep=152, batch=16,
            chains=(2000, 4000, 8000), setups=3)
TINY = Size(family=("resnet18-v1", "mnist-cnn", "fusion-tower", "chain00"),
            sweep_depths=(18,), batches=(1, 2), onnx_depths=(18,),
            systems=("TITAN_V", "Tesla_T4", "Tesla_V100"), wide=18, deep=18, batch=2,
            chains=(30, 60), setups=2)


class Inputs:
    """Model files written for one set-up; the program reads only these."""

    def __init__(self, size: Size, rng: random.Random, root: Path):
        self.root = root
        root.mkdir(parents=True)
        family = zoo.thirty_model_family()
        if size.family is not None:
            family = [m for m in family if m.name in size.family]
        self.models: dict[str, zoo.Model] = {m.name: m for m in family}
        for depth in set(size.sweep_depths) | set(size.onnx_depths) | {size.wide, size.deep}:
            m = zoo.resnet_v1(depth)
            self.models.setdefault(m.name, m)
        self.paths: dict[str, Path] = {}
        for name, m in self.models.items():
            self.paths[name] = root / f"{name}.txt"
            self.paths[name].write_text(m.text(), "utf-8")
        self.onnx: dict[str, Path] = {}
        for depth in size.onnx_depths:
            name = f"resnet{depth}-v1"
            self.onnx[name] = root / f"{name}.onnx"
            self.onnx[name].write_bytes(self.models[name].onnx((1, 1000)))
        self.family = [m.name for m in family]
        rng.shuffle(self.family)
        self.sweep = [f"resnet{d}-v1" for d in size.sweep_depths]
        rng.shuffle(self.sweep)

    def nodes(self, name: str) -> int:
        return len(self.models[name].nodes)

    def add(self, model: zoo.Model) -> Path:
        self.models[model.name] = model
        path = self.root / f"{model.name}.txt"
        path.write_text(model.text(), "utf-8")
        self.paths[model.name] = path
        return path

    def logs(self, name: str, batch: int, rng: random.Random) -> tuple[Path, Path]:
        """Write a library log and a kernel trace of one pass over ``name``."""
        log = self.root / f"{name}-b{batch}.cudnn.log"
        kern = self.root / f"{name}-b{batch}.kernels"
        log.write_text(zoo.cudnn_log(self.models[name], rng), "utf-8")
        kern.write_text(zoo.kernel_lines(self.models[name], rng), "utf-8")
        return log, kern


def convert_profile(s: Session, logs: tuple[Path, Path], name: str, system: str,
                    batch: int, timed: bool) -> Path:
    log, kern = logs
    out = log.with_suffix(".profile")
    calls = sum(ln.startswith("I! ") for ln in log.read_text("utf-8").splitlines())
    kernels = sum(1 for ln in kern.read_text("utf-8").splitlines() if ln)
    s.run("profile", ["profile", "convert", "--cudnn-log", log, "--kernels", kern,
                      "--latency-ms", "500", "--model", name, "--system", system,
                      "--batch", batch, "--strict", "-o", out],
          check=lambda o: _check_profile(o, calls, kernels), timed=timed)
    return out


class Workload:
    name = ""
    items_of = ()  # command kinds whose work counts toward items_per_s
    rate_name = ""  # what items_per_s counts, in the issue's terms

    def __init__(self, size: Size, seed: int, work: Path):
        self.size = size
        self.seed = seed
        self.work = work
        # The seed fixes the jitter and the order of systems, batches and
        # chains once per run, so every pass issues the same commands.
        rng = random.Random(seed)
        self.systems = list(size.systems)
        rng.shuffle(self.systems)
        self.batches = list(size.batches)
        rng.shuffle(self.batches)
        self.chain_order = list(range(len(size.chains)))
        rng.shuffle(self.chain_order)
        self._setups = 0

    def setup(self, s: Session) -> None:
        """Generate inputs and build what the timed pass reads."""
        self._setups += 1
        # Each repetition draws the same inputs: the seed fixes them.
        rng = random.Random(self.seed)
        self.inputs = Inputs(self.size, rng, self.work / f"setup{self._setups}")
        s.run("help", ["--help"], timed=False)
        self.build(s, rng)
        if self._setups > 1:
            shutil.rmtree(self.work / f"setup{self._setups - 1}")

    def build(self, s: Session, rng: random.Random) -> None:
        pass

    def run_pass(self, s: Session) -> None:
        raise NotImplementedError

    def probe(self, s: Session) -> None:
        pass

    # -- shared steps ---------------------------------------------------------

    def build_manifest(self, s: Session, timed: bool) -> tuple[Path, int, int]:
        """One ``bench --fusion --manifest`` per batch; returns (merged, lines, unique)."""
        inp = self.inputs
        parts = []
        for b in self.batches:
            names = inp.family if b == 1 else inp.sweep
            models = [inp.paths[n] for n in names]
            if b == self.size.batch:
                models += list(inp.onnx.values())
            part = inp.root / f"manifest-b{b}.jsonl"
            s.run("bench", ["bench", *models, "--batch", b, "--fusion",
                            "--manifest", part],
                  check=lambda out, p=part: _check_manifest(out, p), timed=timed)
            parts.append(part)
        lines = [ln for p in parts for ln in p.read_text("utf-8").splitlines() if ln]
        merged = inp.root / "manifest.jsonl"
        merged.write_text("\n".join(lines) + "\n", "utf-8")
        return merged, len(lines), len(set(lines))

    def simulate_all(self, s: Session, manifest: Path, n: int, db: Path,
                     timed: bool) -> None:
        for system in self.systems:
            s.run("bench", ["bench", "--from-manifest", manifest, "--simulate",
                            "--system", system, "--db", db, "--jitter-seed", self.seed],
                  check=lambda out: _check_simulated(out, n), timed=timed)


# ---------------------------------------------------------------------------
# build-zoo
# ---------------------------------------------------------------------------

class BuildZoo(Workload):
    name = "build-zoo"
    items_of = ("bench",)
    rate_name = "specs_per_s"

    def run_pass(self, s: Session) -> None:
        inp = self.inputs
        models = [inp.paths[n] for n in inp.family] + list(inp.onnx.values())
        expect = {n: inp.nodes(n) for n in inp.family}
        s.run("process", ["process", *models, "--coverage", "--format", "jsonl"],
              check=lambda out: _check_process(out, expect, len(models)),
              digest="process.jsonl")
        manifest, n, unique = self.build_manifest(s, timed=True)
        db = inp.root / f"pass{s.pass_no}.db"
        self.simulate_all(s, manifest, n, db, timed=True)
        system = self.systems[-1]
        s.run("bench", ["bench", "--from-manifest", manifest, "--delta",
                        "--system", system, "--db", db],
              check=lambda out: _check_delta(out, n))
        superseded = n - unique
        s.run("db", ["db", "stats", db],
              check=lambda out: _check_stats(out, self.systems, unique, superseded))
        s.run("db", ["db", "compact", db],
              check=lambda out: _check_compact(out, superseded * len(self.systems)))
        db.unlink()

    def probe(self, s: Session) -> None:
        inp = self.inputs
        s.probe("family_batch8", ["process", *[inp.paths[n] for n in inp.family],
                                  "--batch", 8],
                "re-batching does not rewrite the literal Reshape target of mnist-cnn")


# ---------------------------------------------------------------------------
# analyze-bigdb
# ---------------------------------------------------------------------------

class AnalyzeBigDb(Workload):
    name = "analyze-bigdb"
    items_of = ("analyze", "advise")
    rate_name = "layers_per_s"

    def build(self, s: Session, rng: random.Random) -> None:
        inp = self.inputs
        manifest, n, unique = self.build_manifest(s, timed=False)
        self.db = inp.root / "big.db"
        self.simulate_all(s, manifest, n, self.db, timed=False)
        self.unique, self.superseded = unique, n - unique
        self.wide = f"resnet{self.size.wide}-v1"
        self.deep = f"resnet{self.size.deep}-v1"
        self.profile = convert_profile(
            s, inp.logs(self.wide, self.size.batch, rng), self.wide, self.systems[0],
            self.size.batch, timed=False)

    def run_pass(self, s: Session) -> None:
        inp, b, db = self.inputs, self.size.batch, self.db
        first, second = self.systems[0], self.systems[1 % len(self.systems)]
        s.run("analyze", ["analyze", inp.paths[self.wide], "--db", db, "--system", first,
                          "--batch", b, "--fusion", "--tensor-core", "--parallel",
                          "--profile", self.profile, "--out", "json"],
              check=lambda out: _check_report(out, self.wide, first, b, full=True),
              items=inp.nodes(self.wide), digest=f"analyze.{self.wide}.all.json")
        s.run("analyze", ["analyze", inp.paths[self.deep], "--db", db, "--system", second,
                          "--batch", b, "--out", "json"],
              check=lambda out: _check_report(out, self.deep, second, b),
              items=inp.nodes(self.deep), digest=f"analyze.{self.deep}.seq.json")
        s.run("advise", ["advise", inp.paths[self.wide], "--db", db,
                         "--systems", ",".join(self.systems), "--batch", b],
              check=lambda out: _check_advise(out, self.systems),
              items=inp.nodes(self.wide) * len(self.systems), digest="advise.txt")
        s.run("db", ["db", "stats", db],
              check=lambda out: _check_stats(out, self.systems, self.unique,
                                             self.superseded))


# ---------------------------------------------------------------------------
# analyze-deep
# ---------------------------------------------------------------------------

class AnalyzeDeep(Workload):
    name = "analyze-deep"
    items_of = ("analyze",)
    rate_name = "layers_per_s"

    def build(self, s: Session, rng: random.Random) -> None:
        inp = self.inputs
        self.db = inp.root / "deep.db"
        # One system per model, so each chain has exactly one Relu record.
        self.chains = []
        for i, n in enumerate(self.size.chains):
            model = zoo.relu_chain(n)
            path = inp.add(model)
            system = self.systems[i % len(self.systems)]
            s.run("bench", ["bench", path, "--dtypes", "f32", "--simulate",
                            "--system", system, "--db", self.db,
                            "--jitter-seed", self.seed],
                  check=lambda out: _check_simulated(out, 1), timed=False)
            self.chains.append((model, system))
        self.deep = f"resnet{self.size.deep}-v1"
        self.deep_system = self.systems[len(self.size.chains) % len(self.systems)]
        s.run("bench", ["bench", inp.paths[self.deep], "--batch", self.size.batch,
                        "--simulate", "--system", self.deep_system, "--db", self.db,
                        "--jitter-seed", self.seed], timed=False)
        self.logs = inp.logs(self.deep, self.size.batch, rng)
        latency = {}
        with open(self.db, "r", encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                latency.setdefault(rec["system"], []).append(rec["latency_us"])
        self.relu_us = {}
        for model, system in self.chains:
            if len(latency.get(system, [])) != 1:
                raise SetupError(f"expected one record for {system}, "
                                 f"found {len(latency.get(system, []))}")
            self.relu_us[model.name] = latency[system][0]

    def run_pass(self, s: Session) -> None:
        inp, db = self.inputs, self.db
        for model, system in (self.chains[i] for i in self.chain_order):
            n, lat = len(model.nodes), self.relu_us[model.name]
            ids = [nid for nid, _, _, _ in model.nodes]
            base = ["analyze", inp.paths[model.name], "--db", db, "--system", system,
                    "--parallel"]
            s.run("analyze", base + ["--out", "json"],
                  check=lambda out, n=n, lat=lat, ids=ids, m=model.name, sy=system:
                  _check_chain(out, m, sy, ids, n * lat),
                  items=n, digest=f"analyze.{model.name}.json")
            s.run("analyze", base + ["--out", "dot"],
                  check=lambda out, ids=ids: _check_dot(out, ids),
                  items=n, digest=f"analyze.{model.name}.dot")
        b = self.size.batch
        profile = convert_profile(s, self.logs, self.deep, self.deep_system, b, timed=True)
        s.run("analyze", ["analyze", inp.paths[self.deep], "--db", db,
                          "--system", self.deep_system, "--batch", b, "--fusion",
                          "--tensor-core", "--parallel", "--profile", profile,
                          "--out", "json"],
              check=lambda out: _check_report(out, self.deep, self.deep_system, b,
                                              full=True),
              items=inp.nodes(self.deep), digest=f"analyze.{self.deep}.all.json")


WORKLOADS = {cls.name: cls for cls in (BuildZoo, AnalyzeBigDb, AnalyzeDeep)}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _match(pattern: str, out: str, what: str) -> re.Match:
    m = re.search(pattern, out, re.MULTILINE)
    if m is None:
        raise CheckError(f"{what}: no line matches {pattern!r} in {out[:200]!r}")
    return m


def _check_manifest(out: str, path: Path) -> None:
    n = int(_match(r"^generated (\d+) benchmark spec\(s\)$", out, "bench").group(1))
    lines = [ln for ln in path.read_text("utf-8").splitlines() if ln]
    if n == 0 or len(lines) != n:
        raise CheckError(f"manifest {path.name}: {len(lines)} lines, {n} specs reported")


def _check_simulated(out: str, n: int) -> int:
    got = int(_match(r"^simulated (\d+) record\(s\)", out, "bench --simulate").group(1))
    if got != n:
        raise CheckError(f"simulated {got} records, expected {n}")
    return got


def _check_profile(out: str, calls: int, kernels: int) -> None:
    m = _match(r"^wrote profile with (\d+) api call\(s\) and (\d+) kernel", out,
               "profile convert")
    if (int(m.group(1)), int(m.group(2))) != (calls, kernels):
        raise CheckError(f"profile has {m.group(1)} calls and {m.group(2)} kernels, "
                         f"expected {calls} and {kernels}")


def _check_delta(out: str, n: int) -> None:
    gen = int(_match(r"^generated (\d+) benchmark spec", out, "bench --delta").group(1))
    left = int(_match(r"^delta: (\d+) spec\(s\)", out, "bench --delta").group(1))
    if gen != n or left != 0:
        raise CheckError(f"delta over {gen} specs left {left}; expected 0 of {n}")


def _check_stats(out: str, systems, per_system: int, superseded: int) -> None:
    m = _match(r"^(\d+) live record\(s\), (\d+) superseded$", out, "db stats")
    live, old = int(m.group(1)), int(m.group(2))
    if live != per_system * len(systems) or old != superseded * len(systems):
        raise CheckError(f"db stats: {live} live / {old} superseded, expected "
                         f"{per_system * len(systems)} / {superseded * len(systems)}")
    for system in systems:
        got = int(_match(rf"^  {re.escape(system)}: (\d+)$", out, "db stats").group(1))
        if got != per_system:
            raise CheckError(f"db stats: {system} has {got} records, expected {per_system}")


def _check_compact(out: str, dropped: int) -> None:
    got = int(_match(r"dropped (\d+) superseded", out, "db compact").group(1))
    if got != dropped:
        raise CheckError(f"compact dropped {got}, expected {dropped}")


def _check_process(out: str, nodes: dict[str, int], n_models: int) -> None:
    rows = []
    for line in out.splitlines():
        if line.startswith("{"):
            rows.append(json.loads(line))
    if len(rows) != n_models + 1:
        raise CheckError(f"process: {len(rows)} rows for {n_models} models plus pooled")
    by_model: dict[str, list[dict]] = {}
    for row in rows[:-1]:
        by_model.setdefault(row["model"], []).append(row)
    for name, total in nodes.items():
        got = by_model.get(name)
        if not got or any(r["total"] != total for r in got):
            raise CheckError(f"process: {name} should have {total} layers, got {got}")
        if any(r != got[0] for r in got):
            raise CheckError(f"process: ONNX and text rows differ for {name}: {got}")
        if not 0 < got[0]["unique"] <= total:
            raise CheckError(f"process: bad unique count for {name}: {got[0]}")
    covered = out.count("% of layers backed by cuDNN/cuBLAS")
    if covered != n_models:
        raise CheckError(f"process: coverage for {covered} of {n_models} models")


def _finite(obj, where: str = "report") -> None:
    if isinstance(obj, float) and not math.isfinite(obj):
        raise CheckError(f"{where} is {obj}")
    if isinstance(obj, dict):
        for k, v in obj.items():
            _finite(v, f"{where}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _finite(v, f"{where}[{i}]")


def _parse_report(out: str, model: str, system: str, batch: int) -> dict:
    try:
        rep = json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckError(f"report is not JSON: {exc}") from exc
    _finite(rep)
    if (rep["model"], rep["system"], rep["batch"]) != (model, system, batch):
        raise CheckError(f"report is for {rep['model']}/{rep['system']}/{rep['batch']}")
    if rep["missing"]:
        raise CheckError(f"report has {len(rep['missing'])} database misses")
    seq, par = rep["lb_sequential_us"], rep["lb_parallel_us"]
    if not 0 < par <= seq:
        raise CheckError(f"bounds out of order: parallel {par} > sequential {seq}")
    return rep


def _check_report(out: str, model: str, system: str, batch: int,
                  full: bool = False) -> None:
    rep = _parse_report(out, model, system, batch)
    if full:
        for key in ("algorithm_advice", "framework_deviations", "fusion",
                    "tensorcore", "joint"):
            if key not in rep:
                raise CheckError(f"report lacks {key}")
        if rep["joint"]["lb_us"] <= 0:
            raise CheckError(f"joint bound {rep['joint']['lb_us']}")
        if rep["br_sequential"] is None:
            raise CheckError("report lacks the Benanza ratio")


def _check_chain(out: str, model: str, system: str, ids: list[str],
                 expect_us: float) -> None:
    rep = _parse_report(out, model, system, 1)
    for key in ("lb_sequential_us", "lb_parallel_us"):
        if not math.isclose(rep[key], expect_us, rel_tol=1e-9):
            raise CheckError(f"{model}: {key} {rep[key]!r}, expected {expect_us!r}")
    if rep["critical_path"] != ids:
        raise CheckError(f"{model}: critical path has {len(rep['critical_path'])} "
                         f"nodes, not the {len(ids)} chain nodes in order")


def _check_dot(out: str, ids: list[str]) -> None:
    nodes = re.findall(r'^  "([^"]+)" \[label=.* color=red', out, re.MULTILINE)
    edges = re.findall(r'^  "[^"]+" -> "[^"]+" \[color=red', out, re.MULTILINE)
    if nodes != ids or len(edges) != len(ids) - 1:
        raise CheckError(f"dot: {len(nodes)} red nodes and {len(edges)} red edges "
                         f"for a {len(ids)}-node chain")


def _check_advise(out: str, systems) -> None:
    rows = re.findall(r"^(\d+)\. (\S+): ([0-9.]+) ms(.*)$", out, re.MULTILINE)
    if sorted(r[1] for r in rows) != sorted(systems):
        raise CheckError(f"advise ranked {[r[1] for r in rows]}, expected {systems}")
    lbs = [float(r[2]) for r in rows]
    if any(r[3] for r in rows) or lbs != sorted(lbs) or min(lbs) <= 0:
        raise CheckError(f"advise rows out of order or incomplete: {rows}")
