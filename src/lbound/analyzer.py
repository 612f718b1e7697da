"""Lower-bound latency computation and optimization analyses.

The sequential lower bound sums each supported layer's best benchmark
latency; non-compute layers (Opaque, reshape-family, concat) contribute
zero. The parallel lower bound assumes unbounded concurrency between
data-independent layers and equals the critical-path total: the graph is
re-weighted with edge weight (u -> v) = -latency(v), a virtual source feeds
every producer-less node with weight -latency(node) and a virtual sink
collects terminal nodes at weight zero, and a single shortest-path pass in
topological order yields the distance whose negation is the bound. Among
equal-latency paths the lexicographically smallest node-id sequence wins,
keeping report output stable. Distances are compared exactly as computed,
so a path whose running sum rounds lower at some layer drops out there even
if its total later rounds to the same value.

The forward pass takes a node's least producer distance, then subtracts
its latency once: float subtraction is monotone, so that is the least of
the per-edge candidates, bit for bit. The path is not carried through it.
An edge (p -> v) is *tight* when dist[p] - latency(v) == dist[v]; a reverse
pass marks the nodes with a tight path to a sink at the optimal distance,
and the path is rebuilt from the smallest-id marked source by taking the
smallest-id tight, marked successor at each step. A marked node with a lone
consumer was marked through it, so the rebuild steps straight to it and
runs ``min`` only at forks. All three steps are linear in the graph.

Every walk over a graph, from annotation to the totals, the critical path
and the DOT export, follows the topological order the graph carries
(``ModelGraph.order``, set once by ``model_ir.validate``). Nodes hold what
was loaded and layers hold what inference found, so per-layer facts come
from the layer table that ``model_ir.infer_shapes`` fills
(``graph.layers``, indexed through ``graph.layer_of``), and
``dedup.layer_signatures`` keeps one signature per layer and dtype, which
annotation, Q3 and the fusion scan all read. :func:`annotate` works per
layer: it resolves each layer of the table once, looking each (signature,
layout) up in the database once, and each node then takes its layer's
record, or miss, through ``graph.layer_of``. An :class:`Annotator` holds one
graph's annotations on one database, one per (system, dtype, layout), the
critical path under each, and the pairing of a profile's logged
convolutions with their records, all built on first use. One ``analyze`` or
``advise`` command builds one annotator and hands it to every analysis.

An annotation never raises on a miss: a missing layer contributes zero and
is listed. :func:`build_report` decides which analyses an ``analyze`` runs,
then makes the one miss check over every annotation they built
(:meth:`Annotator.missing`), and raises a single :class:`MissError` unless
misses are allowed; ``advise`` flags a system with misses instead.

Every what-if is a view over :func:`apply`: on one (system, dtype, layout)
annotation it swaps in the records of logged convolution algorithms, then
fused records, and returns the scenario latencies. The joint analysis totals
them sequentially or along the critical path, Q5 (fusion) compares fused and
unfused totals, Q3 (algorithm choice) walks the same logged records, and Q6
(Tensor Cores) compares the f32 and f16 annotations.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

from .dedup import api_for_op, layer_signatures, render_value
from .errors import ConfigError, CorrelationError, DomainError, MissError
from .model_ir import Frozen, LayerNode, ModelGraph
from .perfdb import PerfDb, PerfRecord, RecordKey

if TYPE_CHECKING:  # a profile is parsed, and profile_ingest imported, only with --profile
    from .profile_ingest import ApiCall, ExecutionProfile


class LatencyAnnotatedGraph:
    def __init__(self, graph: ModelGraph, latencies: dict[str, float],
                 chosen: dict[str, PerfRecord | None], missing: list[str] | None = None):
        self.graph = graph
        self.latencies = latencies
        self.chosen = chosen
        self.missing = [] if missing is None else missing


class CriticalPath:
    def __init__(self, node_ids: list[str], total_latency_us: float):
        self.node_ids = node_ids
        self.total_latency_us = total_latency_us


class BenanzaRatio:
    def __init__(self, br: float, speedup: float, warning: str | None = None):
        self.br = br
        self.speedup = speedup
        self.warning = warning


def annotate(graph: ModelGraph, db: PerfDb, system: str, dtype: str,
             layout: str | None = None) -> LatencyAnnotatedGraph:
    """Attach the best database latency to every supported layer.

    Annotation works per layer: signatures come from the graph's table at
    ``dtype``, each layer of the table resolves its record, or its miss,
    once, and ``db.best`` runs once per (signature, layout), in the order
    the layers first appear. Nodes then take their layer's result through
    ``graph.layer_of``. ``layout`` restricts convolution-family lookups;
    other layers always take their lowest-latency record. Missing layers
    contribute zero and are listed in ``missing``, once per node.
    """
    sigs = layer_signatures(graph, dtype)
    found: dict[tuple[str, str | None], PerfRecord | list[str]] = {}
    # per layer: its latency, its record, and the keys it missed
    per_layer: list[tuple[float, PerfRecord | None, list[str] | None]] = []
    for layer, sig in zip(graph.layers, sigs):
        if api_for_op(layer.op_type) is None:
            per_layer.append((0.0, None, None))
            continue
        key = (sig.canonical_string, layout if layer.op_type == "Conv" else None)
        if key not in found:
            try:
                found[key] = db.best(system, dtype, key[0], layout=key[1])
            except MissError as exc:
                found[key] = exc.keys
        rec = found[key]
        per_layer.append((0.0, None, rec) if isinstance(rec, list) else
                         (rec.latency_us, rec, None))
    layer_of = graph.layer_of
    latencies: dict[str, float] = {}
    chosen: dict[str, PerfRecord | None] = {}
    missing: list[str] = []
    for nid in graph.order:
        latencies[nid], chosen[nid], missed = per_layer[layer_of[nid]]
        if missed is not None:
            missing.extend(missed)
    return LatencyAnnotatedGraph(graph, latencies, chosen, missing)


class Annotator:
    """One graph's annotations on one database, their critical paths and the
    pairings of a profile's logged convolutions with their records.

    Each is built on first use. Annotations never raise: a missing layer
    contributes zero and is listed in the annotation's ``missing``, and
    :meth:`missing` gathers the misses of every annotation built, for the
    one check :func:`build_report` makes.
    """

    def __init__(self, graph: ModelGraph, db: PerfDb):
        self.graph = graph
        self.db = db
        self._annotations: dict[tuple, LatencyAnnotatedGraph] = {}
        self._paths: dict[tuple, CriticalPath] = {}
        self._convs: dict[tuple, list] = {}

    def annotation(self, system: str, dtype: str,
                   layout: str | None = None) -> LatencyAnnotatedGraph:
        """The annotation for (system, dtype, layout)."""
        key = (system, dtype, layout or None)
        if key not in self._annotations:
            self._annotations[key] = annotate(self.graph, self.db, system, dtype,
                                              layout=layout)
        return self._annotations[key]

    def critical_path(self, system: str, dtype: str,
                      layout: str | None = None) -> CriticalPath:
        """The critical path under the (system, dtype, layout) annotation's latencies."""
        key = (system, dtype, layout or None)
        if key not in self._paths:
            ann = self.annotation(system, dtype, layout)
            self._paths[key] = critical_path(self.graph, ann.latencies)
        return self._paths[key]

    def logged_convs(self, profile: ExecutionProfile, system: str, dtype: str, layout: str,
                     ) -> list[tuple[LayerNode, ApiCall, PerfRecord | None]]:
        """The i-th convolution in topological order paired with the i-th
        logged one and with the ok record of the logged algorithm at
        ``layout`` (or None); paired once per (profile, system, dtype, layout)."""
        key = (profile, system, dtype, layout)
        if key in self._convs:
            return self._convs[key]
        graph = self.graph
        conv_nodes = [graph.nodes[nid] for nid in graph.order
                      if graph.nodes[nid].op_type == "Conv"]
        conv_calls = [c for c in profile.api_calls if c.api_name == "cudnnConvolutionForward"]
        if len(conv_nodes) != len(conv_calls):
            raise CorrelationError(
                f"graph has {len(conv_nodes)} convolution layers but the log has "
                f"{len(conv_calls)} convolution calls")
        sigs = layer_signatures(graph, dtype)
        convs = []
        for node, call in zip(conv_nodes, conv_calls):
            sig, algo = sigs[graph.layer_of[node.id]], call.params.get("algo")
            rec = algo and self.db.record_for(RecordKey(
                system, dtype, sig.canonical_string, algo, layout, None))
            convs.append((node, call, rec if rec and rec.status == "ok" else None))
        self._convs[key] = convs
        return convs

    def missing(self) -> list[str]:
        """The misses of every annotation built, once per node, in build order.

        A key that an earlier annotation already listed is skipped.
        """
        listed: set[str] = set()
        out: list[str] = []
        for ann in self._annotations.values():
            new = [key for key in ann.missing if key not in listed]
            listed.update(new)
            out.extend(new)
        return out


def sequential_total(graph: ModelGraph, latencies: dict[str, float]) -> float:
    return sum(latencies[nid] for nid in graph.order)


def critical_path(graph: ModelGraph, latencies: dict[str, float]) -> CriticalPath:
    """Highest-total source-to-sink simple path under per-node latencies."""
    order = graph.order
    if not order:
        return CriticalPath([], 0.0)
    nodes, lat = graph.nodes, latencies
    # dist[v]: shortest distance from the virtual source using weights
    # -latency(v); producers precede consumers, so ``p in dist`` tells
    # graph nodes from graph inputs. Subtracting one latency is monotone,
    # so the least producer distance minus it is the least candidate.
    dist: dict[str, float] = {}
    sources: list[str] = []
    for nid in order:
        m = None
        for p in nodes[nid].input_ids:
            if p in dist:
                dp = dist[p]
                if m is None or dp < m:
                    m = dp
        if m is None:
            sources.append(nid)
            m = 0.0
        dist[nid] = m - lat[nid]
    best = min(dist[nid] for nid in order if not nodes[nid].output_ids)
    # on: nodes with a tight path to a sink at distance ``best``.
    on: set[str] = set()
    for nid in reversed(order):
        outs = nodes[nid].output_ids
        if not outs:
            if dist[nid] == best:
                on.add(nid)
            continue
        d = dist[nid]
        for c in outs:
            if c in on and d - lat[c] == dist[c]:
                on.add(nid)
                break
    # A marked node's lone consumer is the tight, marked one that marked it.
    nid = min(s for s in sources if s in on)
    path = [nid]
    outs = nodes[nid].output_ids
    while outs:
        if len(outs) == 1:
            nid = outs[0]
        else:
            d = dist[nid]
            nid = min(c for c in outs if c in on and d - lat[c] == dist[c])
        path.append(nid)
        outs = nodes[nid].output_ids
    return CriticalPath(path, -best)


def benanza_ratio(lower_bound_us: float, measured_us: float) -> BenanzaRatio:
    """br = lower bound / measured; 1/br is the potential speedup."""
    if not (math.isfinite(lower_bound_us) and math.isfinite(measured_us)) \
            or lower_bound_us <= 0 or measured_us <= 0:
        raise DomainError(
            f"latencies must be positive and finite, got lower bound "
            f"{lower_bound_us} and measured {measured_us}")
    br = lower_bound_us / measured_us
    if br == 0 or math.isinf(br):
        raise DomainError(
            f"Benanza ratio of lower bound {lower_bound_us} and measured "
            f"{measured_us} is out of range")
    warning = None
    if br > 1.0:
        warning = ("lower bound exceeds measured latency; "
                   "database results may be stale or the profile mismatched")
    return BenanzaRatio(br, 1.0 / br, warning)


# ---------------------------------------------------------------------------
# Q3: convolution algorithm selection
# ---------------------------------------------------------------------------

class AdviceEntry:
    def __init__(self, node: str, chosen: str, ideal: str, chosen_us: float, ideal_us: float,
                 ratio: float):
        self.node = node
        self.chosen = chosen
        self.ideal = ideal
        self.chosen_us = chosen_us
        self.ideal_us = ideal_us
        self.ratio = ratio


class AlgorithmAdvice:
    def __init__(self, entries: list[AdviceEntry], unknown: list[str], warnings: list[str],
                 lb_chosen_us: float, lb_ideal_us: float, aggregate_speedup: float):
        self.entries = entries
        self.unknown = unknown  # node ids whose logged algorithm has no DB record
        self.warnings = warnings
        self.lb_chosen_us = lb_chosen_us
        self.lb_ideal_us = lb_ideal_us
        self.aggregate_speedup = aggregate_speedup


def algorithm_advice(profile: ExecutionProfile, anns: Annotator, system: str,
                     dtype: str) -> AlgorithmAdvice:
    """Audit logged convolution algorithms against the measured optimum.

    The i-th logged convolution call corresponds to the i-th convolution in
    topological order; shape parameters in the log, when present, are
    cross-checked and mismatches downgrade to a warning.
    """
    convs = anns.logged_convs(profile, system, dtype, "NCHW")
    ann, logged_latencies, _sites = apply(anns, system, dtype, "NCHW", logged=profile)
    entries: list[AdviceEntry] = []
    unknown: list[str] = []
    warnings: list[str] = []
    lb_ideal = sequential_total(anns.graph, ann.latencies)
    lb_chosen = sequential_total(anns.graph, logged_latencies)
    for node, call, rec in convs:
        x_logged = call.params.get("x")
        x_layer = render_value(anns.graph.layers[anns.graph.layer_of[node.id]].in_dims[0])
        if x_logged and x_logged != x_layer:
            warnings.append(
                f"call seq {call.seq}: input dims {x_logged} differ from layer "
                f"{node.id!r} ({x_layer})")
        if rec is None:
            unknown.append(node.id)
            continue
        ideal_us = ann.latencies[node.id]
        if rec.latency_us > ideal_us:
            entries.append(AdviceEntry(
                node=node.id,
                chosen=rec.key.algorithm,
                ideal=ann.chosen[node.id].key.algorithm or "-",
                chosen_us=rec.latency_us,
                ideal_us=ideal_us,
                ratio=rec.latency_us / ideal_us,
            ))
    aggregate = lb_chosen / lb_ideal if lb_ideal > 0 else 1.0
    return AlgorithmAdvice(entries, unknown, warnings, lb_chosen, lb_ideal, aggregate)


# ---------------------------------------------------------------------------
# Q4: framework inefficiency inspection
# ---------------------------------------------------------------------------

class ExpectedCall:
    def __init__(self, node_id: str, api_name: str, params: dict[str, str]):
        self.node_id = node_id
        self.api_name = api_name
        self.params = params


class Deviation:
    def __init__(self, kind: str, detail: str, count: int = 1,
                 backtrace: list[str] | None = None):
        self.kind = kind  # missing_call | extra_call | param_mismatch | foreign_api
        #                 # excessive_sync | unexpected_kernel
        self.detail = detail
        self.count = count
        self.backtrace = backtrace


def expected_api_sequence(graph: ModelGraph) -> list[ExpectedCall]:
    """Library calls a faithful execution of the graph would make, in order."""
    calls: list[ExpectedCall] = []
    for nid in graph.order:
        node = graph.nodes[nid]
        api = api_for_op(node.op_type)
        if api is None:
            continue
        layer = graph.layers[graph.layer_of[nid]]
        params = {"x": render_value(layer.in_dims[0])}
        if node.op_type == "Conv":
            for key in ("w1", "strides", "pads", "dilations", "group"):
                if key in layer.params:
                    name = "w" if key == "w1" else key
                    params[name] = render_value(layer.params[key])
        calls.append(ExpectedCall(nid, api, params))
    return calls


def _lcs_pairs(expected: list[str], actual: list[str]) -> list[tuple[int, int]]:
    """Index pairs of one longest common subsequence, in order, in O((n+m)·D).

    The walk goes from the front: equal calls pair up; otherwise the expected
    call is dropped when that keeps the LCS length, else the logged one. It
    reads dist[i][j], the insert/delete distance between the suffixes from
    (i, j), kept only on the diagonals k = j - i with |k| + |k - (m - n)| <=
    ``bound``. A path through any other diagonal costs more than ``bound``,
    so when dist[0][0] <= ``bound`` every shortest path lies in the band, and
    so does every cell the walk visits or compares: it takes the same steps
    as over the full table. Otherwise the band widens and is filled again.
    The slack doubles, so the final ``bound`` is at most 2·D, where
    D = n + m - 2·LCS, and the band's widths sum to O(D).
    """
    n, m = len(expected), len(actual)
    delta = m - n
    far = n + m + 1  # more than any distance; stands for "outside the band"
    slack = 0
    while True:
        bound = abs(delta) + 2 * slack
        lo, hi = min(0, delta) - slack, max(0, delta) + slack
        width = hi - lo + 1
        # rows[i][k - lo] is dist[i][i + k]
        rows: list[list[int]] = [[]] * (n + 1)
        below: list[int] = []
        for i in range(n, -1, -1):
            row = [far] * width
            for k in range(min(hi, m - i), max(lo, -i) - 1, -1):
                j, at = i + k, k - lo
                if i == n:
                    row[at] = m - j
                elif j == m:
                    row[at] = n - i
                elif expected[i] == actual[j]:
                    row[at] = below[at]
                else:
                    down = below[at - 1] if at else far
                    right = row[at + 1] if at + 1 < width else far
                    row[at] = 1 + min(down, right)
            rows[i] = below = row
        if rows[0][-lo] <= bound:
            break
        slack = 2 * slack or 1
    pairs: list[tuple[int, int]] = []
    i = j = 0
    while i < n and j < m:
        at = j - i - lo
        if expected[i] == actual[j]:
            pairs.append((i, j))
            i += 1
            j += 1
        elif (rows[i + 1][at - 1] if at else far) <= \
                (rows[i][at + 1] if at + 1 < width else far):
            i += 1
        else:
            j += 1
    return pairs


def framework_diff(profile: ExecutionProfile,
                   expected: list[ExpectedCall]) -> list[Deviation]:
    """Compare the logged execution against the expected call sequence.

    Reports extra and missing library calls, parameter mismatches on
    matched calls, foreign CUDA API activity between library calls, and
    kernels recorded between calls (with backtraces when present).
    """
    lib_calls: list[ApiCall] = []
    other_calls: list[ApiCall] = []
    for call in profile.api_calls:
        if call.api_name.startswith(("cudnn", "cublas")):
            lib_calls.append(call)
        else:
            other_calls.append(call)

    deviations: list[Deviation] = []
    pairs = _lcs_pairs([e.api_name for e in expected], [c.api_name for c in lib_calls])
    matched_e = {i for i, _ in pairs}
    matched_a = {j for _, j in pairs}

    for i, j in pairs:
        exp, act = expected[i], lib_calls[j]
        for key in sorted(set(exp.params) & set(act.params)):
            if str(act.params[key]) != exp.params[key]:
                deviations.append(Deviation(
                    kind="param_mismatch",
                    detail=(f"{act.api_name} (seq {act.seq}, layer {exp.node_id!r}): "
                            f"{key} expected {exp.params[key]}, logged {act.params[key]}"),
                ))
    for i, exp in enumerate(expected):
        if i not in matched_e:
            deviations.append(Deviation(
                kind="missing_call",
                detail=f"expected {exp.api_name} for layer {exp.node_id!r} never appeared",
            ))
    for j, act in enumerate(lib_calls):
        if j not in matched_a:
            deviations.append(Deviation(
                kind="extra_call",
                detail=f"unexpected {act.api_name} at seq {act.seq}",
                backtrace=act.backtrace,
            ))

    lib_seqs = sorted(c.seq for c in lib_calls)
    sync_count = 0
    for call in other_calls:
        between = lib_seqs and lib_seqs[0] < call.seq < lib_seqs[-1]
        if call.api_name == "cudaStreamWaitEvent" and between:
            sync_count += 1
        else:
            deviations.append(Deviation(
                kind="foreign_api",
                detail=f"{call.api_name} at seq {call.seq}",
                backtrace=call.backtrace,
            ))
    if sync_count:
        deviations.append(Deviation(
            kind="excessive_sync",
            detail="cudaStreamWaitEvent between consecutive library calls",
            count=sync_count,
        ))

    for kern in profile.kernels:
        if kern.seq_between is not None:
            deviations.append(Deviation(
                kind="unexpected_kernel",
                detail=(f"kernel {kern.name} ({kern.duration_us} us) between "
                        f"calls {kern.seq_between[0]} and {kern.seq_between[1]}"),
            ))
    return deviations


# ---------------------------------------------------------------------------
# Q5: layer fusion
# ---------------------------------------------------------------------------

class FusionSiteResult:
    def __init__(self, pattern: str, members: tuple[str, ...], applied: bool,
                 fused_us: float | None, member_sum_us: float, profit_us: float):
        self.pattern = pattern
        self.members = members
        self.applied = applied
        self.fused_us = fused_us
        self.member_sum_us = member_sum_us
        self.profit_us = profit_us  # signed; negative when fusing is slower


class FusionAnalysis:
    def __init__(self, unfused_lb_us: float, fused_lb_us: float, profit_ratio: float,
                 fused_layer_count: int, sites: list[FusionSiteResult]):
        self.unfused_lb_us = unfused_lb_us
        self.fused_lb_us = fused_lb_us
        self.profit_ratio = profit_ratio
        self.fused_layer_count = fused_layer_count
        self.sites = sites


def fusion_analysis(anns: Annotator, system: str, dtype: str) -> FusionAnalysis:
    """Sequential lower-bound profit of fusing the fusion patterns' sites.

    Where a fused record exists its latency replaces the member latencies;
    where it is absent the non-fused layer latencies are kept. Substitution
    applies even when the fused record is slower; the signed profit says so.
    """
    ann, latencies, sites = apply(anns, system, dtype, None, fusion=True)
    unfused_lb = sequential_total(anns.graph, ann.latencies)
    fused_lb = sequential_total(anns.graph, latencies)
    ratio = unfused_lb / fused_lb if fused_lb > 0 else 1.0
    fused_layer_count = sum(len(site.members) for site in sites)
    return FusionAnalysis(unfused_lb, fused_lb, ratio, fused_layer_count, sites)


# ---------------------------------------------------------------------------
# Q6: Tensor Cores
# ---------------------------------------------------------------------------

class TensorCoreAnalysis:
    def __init__(self, lb_f32_us: float, lb_f16_us: float, speedup: float, layout: str,
                 tc_used_in_profile: bool | None):
        self.lb_f32_us = lb_f32_us
        self.lb_f16_us = lb_f16_us
        self.speedup = speedup
        self.layout = layout
        self.tc_used_in_profile = tc_used_in_profile


def tensorcore_analysis(anns: Annotator, system: str, layout: str = "NCHW",
                        profile: ExecutionProfile | None = None) -> TensorCoreAnalysis:
    """f32 (NCHW) vs f16 sequential bound; kernel names reveal tensor-core use."""
    lb32 = sequential_total(anns.graph, anns.annotation(system, "f32", "NCHW").latencies)
    lb16 = sequential_total(anns.graph, anns.annotation(system, "f16", layout).latencies)
    tc_used = None
    if profile is not None:
        from .profile_ingest import detect_tensorcore

        tc_used = any(detect_tensorcore(k.name) for k in profile.kernels)
    speedup = lb32 / lb16 if lb16 > 0 else 1.0
    return TensorCoreAnalysis(lb32, lb16, speedup, layout, tc_used)


# ---------------------------------------------------------------------------
# Scenario engine and the joint what-if analysis
# ---------------------------------------------------------------------------

def apply(anns: Annotator, system: str, dtype: str, layout: str | None, *,
          logged: ExecutionProfile | None = None, fusion: bool = False,
          ) -> tuple[LatencyAnnotatedGraph, dict[str, float], list[FusionSiteResult]]:
    """Per-layer latencies of one what-if on the (system, dtype, layout) annotation.

    Convolutions of a ``logged`` profile take their logged algorithm's ok
    record (at ``layout``, NCHW when None); with ``fusion``, each fusion site
    with a fused record then takes its latency on the head layer and zero on
    the other members. Returns the annotation, those latencies and one row
    per fusion site.
    """
    ann = anns.annotation(system, dtype, layout=layout)
    latencies = dict(ann.latencies)
    if logged is not None:
        for node, _call, rec in anns.logged_convs(logged, system, dtype, layout or "NCHW"):
            if rec is not None:
                latencies[node.id] = rec.latency_us
    sites: list[FusionSiteResult] = []
    candidates = ()
    if fusion:  # only a fusion scenario compiles spec generation
        from . import benchgen

        candidates = benchgen.fusion_candidates(anns.graph, dtype)
    for site in candidates:
        member_sum = sum(latencies[m] for m in site.member_ids)
        try:
            rec = anns.db.best(system, dtype, site.head_signature.canonical_string,
                               layout=layout, fused=site.pattern_id)
        except MissError:
            sites.append(FusionSiteResult(
                site.pattern_id, site.member_ids, False, None, member_sum, 0.0))
            continue
        latencies[site.member_ids[0]] = rec.latency_us
        for mid in site.member_ids[1:]:
            latencies[mid] = 0.0
        sites.append(FusionSiteResult(
            site.pattern_id, site.member_ids, True, rec.latency_us, member_sum,
            member_sum - rec.latency_us))
    return ann, latencies, sites


class Scenario(Frozen):
    def __init__(self, parallel: bool = False, ideal_algo: bool = True, fusion: bool = False,
                 tensor_core: bool = False, layout: str = "NCHW"):
        self._set("parallel", parallel)
        self._set("ideal_algo", ideal_algo)
        self._set("fusion", fusion)
        self._set("tensor_core", tensor_core)
        self._set("layout", layout)

    def __eq__(self, other):
        if not isinstance(other, Scenario):
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))


class JointAnalysis:
    def __init__(self, scenario: Scenario, dtype: str, lb_us: float, speedup: float | None):
        self.scenario = scenario
        self.dtype = dtype
        self.lb_us = lb_us
        self.speedup = speedup  # vs measured, when a measurement is available


def joint_analysis(anns: Annotator, system: str, dtype: str, scenario: Scenario,
                   measured_us: float | None = None,
                   profile: ExecutionProfile | None = None) -> JointAnalysis:
    """The what-if bound of :func:`apply` under the scenario's toggles.

    ``tensor_core`` selects f16 at ``scenario.layout``, else the report's
    ``dtype`` at any layout; with ``ideal_algo`` off, a supplied profile's
    logged algorithms replace the best ones. A parallel bound on latencies
    that the scenario left as the annotation's reads the annotator's
    critical path.
    """
    dtype = "f16" if scenario.tensor_core else dtype
    layout = scenario.layout if scenario.tensor_core else None
    logged = profile if not scenario.ideal_algo else None
    ann, latencies, _sites = apply(anns, system, dtype, layout,
                                   logged=logged, fusion=scenario.fusion)
    if scenario.parallel and latencies == ann.latencies:  # the scenario swapped nothing
        lb = anns.critical_path(system, dtype, layout).total_latency_us
    elif scenario.parallel:
        lb = critical_path(anns.graph, latencies).total_latency_us
    else:
        lb = sequential_total(anns.graph, latencies)
    speedup = (measured_us / lb) if (measured_us and lb > 0) else None
    return JointAnalysis(scenario, dtype, lb, speedup)


# ---------------------------------------------------------------------------
# Cross-system advising
# ---------------------------------------------------------------------------

class SystemAdvice:
    def __init__(self, system: str, lb_us: float, cost_score: float | None, covered: int,
                 supported: int):
        self.system = system
        self.lb_us = lb_us
        self.cost_score = cost_score
        self.covered = covered  # supported layers (nodes) with a database record
        self.supported = supported  # layers with a cuDNN/cuBLAS mapping

    @property
    def has_misses(self) -> bool:
        return self.covered < self.supported


def advise_systems(anns: Annotator, systems: list[str], dtype: str,
                   cost_per_hour: dict[str, float] | None = None,
                   rank_by: str = "latency") -> list[SystemAdvice]:
    """Rank systems by lower bound, or by lower bound x cost.

    Systems with database misses rank last; each row counts the supported
    layers its database covers.
    """
    if rank_by not in ("latency", "cost"):
        raise ConfigError(f"unknown ranking key {rank_by!r}")
    graph = anns.graph
    supported = sum(api_for_op(graph.nodes[nid].op_type) is not None for nid in graph.order)
    rows: list[SystemAdvice] = []
    for system in systems:
        ann = anns.annotation(system, dtype)
        lb = sequential_total(anns.graph, ann.latencies)
        cost = (cost_per_hour or {}).get(system)
        score = lb * cost if cost is not None else None
        if rank_by == "cost" and score is None:
            raise ConfigError(f"no cost given for system {system!r}")
        covered = sum(rec is not None for rec in ann.chosen.values())
        rows.append(SystemAdvice(system, lb, score, covered, supported))
    key = (lambda r: (r.has_misses, r.cost_score, r.system)) if rank_by == "cost" \
        else (lambda r: (r.has_misses, r.lb_us, r.system))
    rows.sort(key=key)
    return rows


# ---------------------------------------------------------------------------
# Report assembly and rendering
# ---------------------------------------------------------------------------

class AnalysisReport:
    def __init__(self, model: str, system: str, batch: int, dtype: str,
                 lb_sequential_us: float, lb_parallel_us: float, critical_path: list[str],
                 measured_ms: float | None = None, br_sequential: BenanzaRatio | None = None,
                 br_parallel: BenanzaRatio | None = None, missing: list[str] | None = None,
                 algorithm_advice: AlgorithmAdvice | None = None,
                 framework_deviations: list[Deviation] | None = None,
                 fusion: FusionAnalysis | None = None,
                 tensorcore: TensorCoreAnalysis | None = None,
                 joint: JointAnalysis | None = None):
        self.model = model
        self.system = system
        self.batch = batch
        self.dtype = dtype
        self.lb_sequential_us = lb_sequential_us
        self.lb_parallel_us = lb_parallel_us
        self.critical_path = critical_path
        self.measured_ms = measured_ms
        self.br_sequential = br_sequential
        self.br_parallel = br_parallel
        self.missing = [] if missing is None else missing
        self.algorithm_advice = algorithm_advice
        self.framework_deviations = framework_deviations
        self.fusion = fusion
        self.tensorcore = tensorcore
        self.joint = joint


def build_report(anns: Annotator, system: str, dtype: str, batch: int, scenario: Scenario,
                 *, profile: ExecutionProfile | None = None, measured_ms: float | None = None,
                 allow_missing: bool = False) -> AnalysisReport:
    """Every analysis one ``analyze`` asks for, on one annotator.

    A profile adds Q3, Q4 and, unless ``measured_ms`` is given, the measured
    latency; the scenario's ``fusion`` adds Q5, ``tensor_core`` Q6, and any
    toggle off its default the joint row. The misses of every annotation
    built are then checked once: they raise one :class:`MissError` unless
    ``allow_missing``, which lists them in the report instead.
    """
    if not scenario.ideal_algo and profile is None:
        raise ConfigError("--logged-algo needs --profile to read the logged algorithms from")
    graph = anns.graph
    lb_seq = sequential_total(graph, anns.annotation(system, dtype).latencies)
    cp = anns.critical_path(system, dtype)
    if measured_ms is None and profile is not None:
        measured_ms = profile.measured_latency_ms
    report = AnalysisReport(
        model=graph.name, system=system, batch=batch, dtype=dtype,
        lb_sequential_us=lb_seq, lb_parallel_us=cp.total_latency_us,
        critical_path=cp.node_ids, measured_ms=measured_ms)
    if profile is not None:
        report.algorithm_advice = algorithm_advice(profile, anns, system, dtype)
        report.framework_deviations = framework_diff(profile, expected_api_sequence(graph))
    if scenario.fusion:
        report.fusion = fusion_analysis(anns, system, dtype)
    if scenario.tensor_core:
        report.tensorcore = tensorcore_analysis(anns, system, layout=scenario.layout,
                                                profile=profile)
    if scenario != Scenario(layout=scenario.layout):
        report.joint = joint_analysis(
            anns, system, dtype, scenario,
            measured_us=measured_ms * 1000.0 if measured_ms else None, profile=profile)
    report.missing = anns.missing()
    if report.missing and not allow_missing:
        raise MissError(report.missing)
    if measured_ms is not None:
        measured_us = measured_ms * 1000.0
        report.br_sequential = benanza_ratio(lb_seq, measured_us)
        report.br_parallel = benanza_ratio(cp.total_latency_us, measured_us)
    return report


# Analyses that appear in the JSON report only when they ran.
_OPTIONAL = ("algorithm_advice", "framework_deviations", "fusion", "tensorcore", "joint")


def report_to_json(report: AnalysisReport) -> str:
    """Deterministic structured rendering; latencies stay in microseconds.

    Each report record's attributes, in the order its ``__init__`` stores
    them, are the JSON keys; nested records render through ``vars``, so
    nothing is copied first.
    """
    obj = {k: v for k, v in vars(report).items() if v is not None or k not in _OPTIONAL}
    return json.dumps(obj, separators=(",", ":"), default=vars) + "\n"


def _ms(us: float) -> str:
    return f"{us / 1000.0:.3f} ms"


def report_to_text(report: AnalysisReport) -> str:
    lines = [
        f"model {report.model}  system {report.system}  batch {report.batch}  "
        f"dtype {report.dtype}",
        f"  lower bound (sequential): {_ms(report.lb_sequential_us)}",
        f"  lower bound (parallel):   {_ms(report.lb_parallel_us)}",
        f"  critical path: {len(report.critical_path)} layers",
    ]
    if report.measured_ms is not None:
        lines.append(f"  measured: {report.measured_ms:.3f} ms")
    if report.br_sequential is not None:
        lines.append(f"  BR sequential: {report.br_sequential.br:.3f} "
                     f"(potential speedup {report.br_sequential.speedup:.2f}x)")
    if report.br_parallel is not None:
        lines.append(f"  BR parallel:   {report.br_parallel.br:.3f} "
                     f"(potential speedup {report.br_parallel.speedup:.2f}x)")
    for br in (report.br_sequential, report.br_parallel):
        if br is not None and br.warning:
            lines.append(f"  warning: {br.warning}")
    if report.missing:
        lines.append(f"  missing benchmarks: {len(report.missing)}")
        for key in report.missing:
            lines.append(f"    - {key}")
    if report.algorithm_advice is not None:
        adv = report.algorithm_advice
        lines.append(f"  algorithm selection: {len(adv.entries)} sub-optimal layer(s), "
                     f"aggregate speedup {adv.aggregate_speedup:.3f}x")
        for e in adv.entries:
            lines.append(f"    - {e.node}: {e.chosen} "
                         f"({_ms(e.chosen_us)}) vs {e.ideal} "
                         f"({_ms(e.ideal_us)}): {e.ratio:.2f}x")
        for nid in adv.unknown:
            lines.append(f"    - {nid}: logged algorithm missing from database")
        for w in adv.warnings:
            lines.append(f"    warning: {w}")
    if report.framework_deviations is not None:
        lines.append(f"  framework deviations: {len(report.framework_deviations)}")
        for d in report.framework_deviations:
            extra = f" x{d.count}" if d.count > 1 else ""
            lines.append(f"    - [{d.kind}]{extra} {d.detail}")
    if report.fusion is not None:
        fu = report.fusion
        applied = sum(1 for s in fu.sites if s.applied)
        lines.append(
            f"  fusion: {len(fu.sites)} site(s), {fu.fused_layer_count} fusable layer(s), "
            f"{applied} applied; lb {_ms(fu.unfused_lb_us)} -> {_ms(fu.fused_lb_us)} "
            f"({fu.profit_ratio:.3f}x)")
    if report.tensorcore is not None:
        tc = report.tensorcore
        used = ("yes" if tc.tc_used_in_profile else "no") \
            if tc.tc_used_in_profile is not None else "unknown"
        lines.append(
            f"  tensor cores ({tc.layout}): f32 {_ms(tc.lb_f32_us)} vs "
            f"f16 {_ms(tc.lb_f16_us)} ({tc.speedup:.2f}x); used in profile: {used}")
    if report.joint is not None:
        sc = report.joint.scenario
        toggles = ",".join(t for t, on in (
            ("parallel", sc.parallel), ("ideal-algo", sc.ideal_algo),
            ("fusion", sc.fusion), ("tensor-core", sc.tensor_core)) if on) or "none"
        speed = f", {report.joint.speedup:.2f}x vs measured" if report.joint.speedup else ""
        lines.append(f"  joint [{toggles}]: lb {_ms(report.joint.lb_us)}{speed}")
    return "\n".join(lines) + "\n"


def export_dot(ann: LatencyAnnotatedGraph, path: CriticalPath | None = None) -> str:
    """DOT rendering with name, type, latency per node; critical path in red."""
    graph = ann.graph
    nodes, lat = graph.nodes, ann.latencies
    ids = path.node_ids if path else []
    on_path = set(ids)
    after = dict(zip(ids, ids[1:]))  # each path node's successor on the path
    lines = [f'digraph "{graph.name}" {{',
             "  rankdir=TB;",
             '  node [shape=box, fontname="Helvetica"];']
    for nid in graph.order:
        lines.append(f'  "{nid}" [label="{nid}\\n{nodes[nid].op_type}\\n'
                     f'{lat.get(nid, 0.0):.3f} us"'
                     f'{" color=red penwidth=2.0" if nid in on_path else ""}];')
    for nid in graph.order:
        for src in nodes[nid].input_ids:
            if src in nodes:
                lines.append(f'  "{src}" -> "{nid}"'
                             f'{" [color=red penwidth=2.0]" if after.get(src) == nid else ""};')
    lines.append("}")
    return "\n".join(lines) + "\n"
