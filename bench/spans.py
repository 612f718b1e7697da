"""Spans recorded around calls into the package's layers, from outside it.

:class:`Tracer` replaces each traced function with a shim in its defining
module and under every other name bound to it in a layer module (the
analyzer, for one, imports ``signature``, ``topo_order`` and
``fusion_candidates`` by name), and patches the traced ``PerfDb`` methods
on the class. A shim records one span: name, start, end and the span
that was open when it was called. Spans stay in memory until the run ends.
A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

LAYERS = ("cli", "model_ir", "onnx_reader", "dedup", "benchgen", "synth_runner",
          "perfdb", "profile_ingest", "analyzer")

FUNCTIONS = {
    "model_ir": ("load_model_file", "infer_shapes", "topo_order"),
    "onnx_reader": ("load_model",),
    "dedup": ("signature", "unique_layers"),
    "benchgen": ("fusion_candidates", "generate_specs", "parse_manifest", "delta_specs"),
    "synth_runner": ("simulate",),
    "profile_ingest": ("parse_profile", "build_profile"),
    "analyzer": ("annotate", "critical_path", "algorithm_advice", "framework_diff",
                 "fusion_analysis", "tensorcore_analysis", "joint_analysis",
                 "advise_systems", "report_to_json", "report_to_text", "export_dot"),
}
# PerfDb methods; the constructor loads the file, so it is the "open" span.
METHODS = {"open": "__init__", "insert": "insert", "query": "query", "best": "best",
           "record_for": "record_for", "compact": "compact"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, error]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.unique_signatures: set[str] = set()
        self.records_loaded = 0

    def _shim(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, ""]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return shim

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"lbound.{m}") for m in LAYERS}
        after = {
            "dedup.signature": lambda a, r: self.unique_signatures.add(r.canonical_string),
        }
        shims = {}
        for mod_name, names in FUNCTIONS.items():
            for fn_name in names:
                full = f"{mod_name}.{fn_name}"
                original = getattr(mods[mod_name], fn_name)
                shims[id(original)] = self._shim(full, original, after.get(full))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if callable(value) and id(value) in shims:
                    self._set(mod, attr, shims[id(value)])
        db_cls = mods["perfdb"].PerfDb

        def loaded(args, _result):
            self.records_loaded += len(args[0])

        for span_name, method in METHODS.items():
            original = getattr(db_cls, method)
            self._set(db_cls, method, self._shim(
                f"perfdb.{span_name}", original, loaded if method == "__init__" else None))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # -- aggregation ----------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, self time in ms, and calls that raised."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _err in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _parent, err) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "ms": 0.0, "raised": 0})
            t["calls"] += 1
            t["ms"] += (end - start - child[i]) * 1000.0
            t["raised"] += bool(err)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, err in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent, err]))
                fh.write("\n")
