"""What constructing a record promises, for every record type in the package.

A record checks its values when it is built and raises the module's
``LboundError`` subclass. A mutable default is a fresh object for each
instance. An immutable record refuses to set or delete an attribute, and
only ``LayerSignature``, ``RecordKey`` and ``Scenario`` compare and hash
by value. ``vars`` of a record holds exactly its fields, in the order its
``__init__`` takes them, which is the key order of the JSON report.
``RecordKey`` is a NamedTuple: its ``_fields`` are its fields, in the
order its constructor takes them, and Python itself refuses to set, delete
or add an attribute.
"""

from __future__ import annotations

import functools
import inspect
import math

import pytest

from lbound import analyzer, benchgen, dedup, model_ir, perfdb, profile_ingest, systems
from lbound.errors import ConfigError, ProfileFormatError, StorageError

SIG = dedup.parse_signature("Relu|f32|in=1x8|")
KEY = perfdb.RecordKey("sysA", "f32", SIG.canonical_string, None, "NCHW", None)
GRAPH = model_ir.ModelGraph("g", {}, [], [])
STATS = dedup.ModelLayerStats("m", 1, 1)
P = functools.partial


class Case:
    def __init__(self, build, bad=None, error=None, fresh=(), frozen=False, by_value=False):
        self.build = build  # a record from good values
        self.bad = bad  # a build from a bad value, which raises ``error``
        self.error = error
        self.fresh = fresh  # fields whose default is a new object each time
        self.frozen = frozen
        self.by_value = by_value


CASES = {
    "LayerNode": Case(P(model_ir.LayerNode, "n", "Relu"),
                      fresh=("params", "input_ids", "output_ids")),
    "Layer": Case(P(model_ir.Layer, "Relu", {}, ((1, 8),), (1, 8), 0), frozen=True),
    "ModelGraph": Case(P(model_ir.ModelGraph, "g", {}, [], []), fresh=("layer_of",)),
    "LayerSignature": Case(P(dedup.LayerSignature, SIG.layer, "f32", SIG.canonical_string,
                             SIG.hash64), frozen=True, by_value=True),
    "ModelLayerStats": Case(P(dedup.ModelLayerStats, "m", 1, 1), frozen=True),
    "UniqueLayerReport": Case(P(dedup.UniqueLayerReport, set(), [], STATS)),
    "OpCoverage": Case(P(dedup.OpCoverage, "Relu", 1, True, 100.0), frozen=True),
    "CoverageReport": Case(P(dedup.CoverageReport, "m", 1, 1, [])),
    "BenchmarkSpec": Case(P(benchgen.BenchmarkSpec, SIG, None, "NCHW", None),
                          P(benchgen.BenchmarkSpec, SIG, None, "NCWH", None), ConfigError,
                          frozen=True),
    "BenchConfig": Case(benchgen.BenchConfig, P(benchgen.BenchConfig, ("f64",)), ConfigError,
                        frozen=True),
    "FusionSite": Case(P(benchgen.FusionSite, SIG, "conv_bias", ("a", "b")), frozen=True),
    "RecordKey": Case(P(perfdb.RecordKey, *KEY), frozen=True, by_value=True),
    "PerfRecord": Case(P(perfdb.PerfRecord, KEY, 1.0), P(perfdb.PerfRecord, KEY, -1.0),
                       StorageError, fresh=("metadata",)),
    "ApiCall": Case(P(profile_ingest.ApiCall, 1, "cudnnAddTensor"), fresh=("params",)),
    "KernelRecord": Case(P(profile_ingest.KernelRecord, "k", 1.0),
                         P(profile_ingest.KernelRecord, "k", 0.0), ProfileFormatError),
    "ExecutionProfile": Case(P(profile_ingest.ExecutionProfile, "m", "s", 1, 1.0),
                             P(profile_ingest.ExecutionProfile, "m", "s", 1, math.inf),
                             ProfileFormatError, fresh=("api_calls", "kernels")),
    "SystemProfile": Case(P(systems.SystemProfile, "s", 1.0, 1.0),
                          P(systems.SystemProfile, "s", 0.0, 1.0), ConfigError),
    "LatencyAnnotatedGraph": Case(P(analyzer.LatencyAnnotatedGraph, GRAPH, {}, {}),
                                  fresh=("missing",)),
    "CriticalPath": Case(P(analyzer.CriticalPath, [], 0.0)),
    "BenanzaRatio": Case(P(analyzer.BenanzaRatio, 0.5, 2.0)),
    "AdviceEntry": Case(P(analyzer.AdviceEntry, "n", "FFT", "GEMM", 2.0, 1.0, 2.0)),
    "AlgorithmAdvice": Case(P(analyzer.AlgorithmAdvice, [], [], [], 1.0, 1.0, 1.0)),
    "ExpectedCall": Case(P(analyzer.ExpectedCall, "n", "cudnnAddTensor", {})),
    "Deviation": Case(P(analyzer.Deviation, "extra_call", "detail")),
    "FusionSiteResult": Case(P(analyzer.FusionSiteResult, "conv_bias", (), False, None,
                               0.0, 0.0)),
    "FusionAnalysis": Case(P(analyzer.FusionAnalysis, 1.0, 1.0, 1.0, 0, [])),
    "TensorCoreAnalysis": Case(P(analyzer.TensorCoreAnalysis, 1.0, 1.0, 1.0, "NCHW", None)),
    "Scenario": Case(analyzer.Scenario, frozen=True, by_value=True),
    "JointAnalysis": Case(P(analyzer.JointAnalysis, analyzer.Scenario(), "f32", 1.0, None)),
    "SystemAdvice": Case(P(analyzer.SystemAdvice, "s", 1.0, None, 0, 0)),
    "AnalysisReport": Case(P(analyzer.AnalysisReport, "m", "s", 1, "f32", 1.0, 1.0, []),
                           fresh=("missing",)),
}


@pytest.mark.parametrize("name", list(CASES))
def test_construction_contract(name):
    case = CASES[name]
    first, second = case.build(), case.build()
    cls = type(first)
    assert cls.__name__ == name
    # Exactly the fields, in __init__ order; a graph adds its signature cache.
    extra = ["signatures"] if cls is model_ir.ModelGraph else []
    fields = cls._fields if issubclass(cls, tuple) else list(vars(first))
    assert list(fields) == [*inspect.signature(cls).parameters, *extra]
    if case.bad is not None:
        with pytest.raises(case.error):
            case.bad()
    for field in case.fresh:
        assert getattr(first, field) is not getattr(second, field)
    field = fields[0]
    if case.frozen:
        # A NamedTuple refuses in Python's own words, every other record in its own.
        refused = "can't set|can't delete|no setter|no deleter|has no attribute" \
            if issubclass(cls, tuple) else "immutable"
        with pytest.raises(AttributeError, match=refused):
            setattr(first, field, None)
        with pytest.raises(AttributeError, match=refused):
            delattr(first, field)
        with pytest.raises(AttributeError, match=refused):
            first.added = None
    else:
        setattr(first, field, None)
        assert getattr(first, field) is None
    if case.by_value:
        assert first == second and hash(first) == hash(second)
    else:
        assert first != second
