"""Command runners, the per-run command log, and summary statistics.

Every command of a workload goes through :class:`Session.run`, which runs
it, checks its exit code and output, and logs its wall time, peak memory
and work count. Two runners issue the commands: :class:`ChildCli` starts
one ``python -m lbound.cli`` child at a time (the timed runs) and
:class:`InProcessCli` calls ``lbound.cli.main`` in this interpreter (the
traced run).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import signal
import subprocess
import sys
import threading
import time
from statistics import median
from dataclasses import dataclass, field
from pathlib import Path


class CheckError(Exception):
    """A command's output failed a check the benchmark computed itself."""


class SetupError(Exception):
    """A set-up command failed, so the run cannot measure anything."""


@dataclass
class Result:
    exit: int
    out: str
    err: str
    wall_s: float
    rss_kb: int
    cpu_s: float = 0.0


class ChildCli:
    """Runs ``python -m lbound.cli`` as a child process and waits for it."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.cwd = str(root)
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.out_path = work / "cmd.stdout"
        self.err_path = work / "cmd.stderr"
        self.deadline = deadline

    def run(self, args: list[str]) -> Result:
        return self._spawn([sys.executable, "-m", "lbound.cli", *args])

    def reference(self) -> float:
        """Wall time of one run of the fixed reference kernel."""
        res = self._spawn([sys.executable, str(Path(__file__).with_name("refkernel.py"))])
        if res.exit != 0:
            raise SetupError(f"reference kernel failed: {res.err.strip()[-400:]}")
        return res.wall_s

    def _spawn(self, argv: list[str]) -> Result:
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, cwd=self.cwd, env=self.env)
            status, usage = _wait(proc, self.deadline - time.monotonic())
            wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        return Result(code, self.out_path.read_text("utf-8", "replace"),
                      self.err_path.read_text("utf-8", "replace"), wall,
                      usage.ru_maxrss, usage.ru_utime + usage.ru_stime)


def _wait(proc: subprocess.Popen, limit_s: float):
    """Reap ``proc`` with its resource usage; kill it once ``limit_s`` passes."""
    lock = threading.Lock()
    reaped = False

    def kill():
        with lock:
            if not reaped:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(max(limit_s, 1.0), kill)
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
        with lock:
            reaped = True
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        # Interrupted while waiting: do not leave the child running.
        with lock:
            reaped = True
            proc.kill()
            proc.wait()
        raise
    finally:
        timer.cancel()
        timer.join()
    return status, usage


class InProcessCli:
    """Calls ``lbound.cli.main`` in this interpreter; used by the traced run."""

    def __init__(self, root: Path):
        src = str(root / "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        from lbound import cli

        self.main = cli.main

    def run(self, args: list[str]) -> Result:
        import click

        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rv = self.main.main(args, prog_name="lbound", standalone_mode=False)
            code = rv if isinstance(rv, int) else 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            err.write(exc.format_message())
            code = exc.exit_code
        wall = time.perf_counter() - start
        return Result(code, out.getvalue(), err.getvalue(), wall, 0)


@dataclass
class Record:
    kind: str
    args: list[str]
    pass_no: int
    wall_s: float
    rss_kb: int
    items: int
    ok: bool
    detail: str = ""
    cpu_s: float = 0.0
    ref_s: float = 0.0  # mean of the reference kernel runs just before and after it


@dataclass
class Session:
    """The log of one run: every timed command, digests and named checks."""

    cli: object
    paired_reference: bool = False  # time the reference kernel around each timed command
    records: list[Record] = field(default_factory=list)
    digests: dict[str, set[str]] = field(default_factory=dict)
    checks: dict[str, str] = field(default_factory=dict)
    pass_no: int = 0
    last_ref: float | None = None

    def run(self, kind: str, args: list[str], *, check=None, items: int = 0,
            digest: str | None = None, timed: bool = True) -> str:
        """Run one command; ``check(stdout)`` raises CheckError or may return a work count.

        Untimed (set-up) commands that fail raise :class:`SetupError`.
        """
        if timed and self.paired_reference and self.last_ref is None:
            self.last_ref = self.cli.reference()
        res = self.cli.run([str(a) for a in args])
        ok, detail = res.exit == 0, ""
        if not ok:
            detail = f"exit {res.exit}: {res.err.strip()[-400:]}"
        elif check is not None:
            try:
                got = check(res.out)
                if isinstance(got, int):
                    items = got
            except CheckError as exc:
                ok, detail = False, str(exc)
        if digest is not None and res.exit == 0:
            self.digests.setdefault(digest, set()).add(
                hashlib.sha256(res.out.encode("utf-8")).hexdigest())
        if timed:
            ref_s = 0.0
            if self.paired_reference:
                after = self.cli.reference()
                ref_s, self.last_ref = (self.last_ref + after) / 2.0, after
            self.records.append(Record(kind, [str(a) for a in args], self.pass_no,
                                       res.wall_s, res.rss_kb, items, ok, detail,
                                       res.cpu_s, ref_s))
        elif not ok:
            raise SetupError(f"lbound {' '.join(str(a) for a in args)}: {detail}")
        return res.out

    def probe(self, name: str, args: list[str], expect_defect: str) -> None:
        """Record a named input check outside the timed work and fail_rate."""
        res = self.cli.run([str(a) for a in args])
        if res.exit == 0:
            self.checks[name] = "pass: exit 0 (known defect no longer reproduces)"
        else:
            first = (res.err.strip().splitlines() or [""])[0]
            self.checks[name] = (f"fail: exit {res.exit} ({expect_defect}): {first[:200]}")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

_TAILS = (0.999, 0.99, 0.9, 0.75, 0.5)


def tail(values: list[float]) -> tuple[str, float] | None:
    """The highest of p50/p75/p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    ordered = sorted(values)
    for p in _TAILS:
        if n * (1.0 - p) >= 10:
            rank = min(n - 1, max(0, math.ceil(p * n) - 1))
            return f"p{p * 100:g}", ordered[rank]
    return None


def describe(values: list[float]) -> str:
    if not values:
        return "n=0"
    t = tail(values)
    tail_part = f"{t[0]} {t[1]:.4f}" if t else "no percentile has 10 samples beyond it"
    return f"median {median(values):.4f}, {tail_part}, n={len(values)}"
