"""Out-of-program tracing for the traced benchmark run.

The tracer wraps public entry points of the ``repro`` layers from the
outside: class attributes for methods, module attributes for functions.
Nothing in ``src/`` knows it is being traced.

Two kinds of wrapped call:

* **spans** (request structure: ``server.handle``, pool and shard runs,
  union sampler builds and draws, estimator warm-ups, ``aqp.until``,
  TPC-H builds, deletes) are kept one by one with name, start, end,
  parent span and request id, and written out when the run ends;
* **hot calls** (membership probes, block draws, projections, index
  lookups, ingest, pricing, serialisation) are only counted: calls,
  total and self seconds per name.  One span per probe would cost more
  than the probe.

Self time is a call's duration minus the time its wrapped children on the
same thread took.  Shard spans run on pool threads; ``plan_tasks`` is
wrapped to remember which pool call planned each task, so ``run_shard``
spans attach to the request that caused them.  A span's self time then
also excludes the union of its cross-thread children's intervals.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import sys
import threading
import time
import types
import weakref
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

perf_counter = time.perf_counter

#: request kinds the server answers; anything else is traced as "invalid"
SERVER_KINDS = ("sample", "aggregate", "mutate", "health", "stats")

#: per-layer metrics derived from the wrapped calls: (traced call name, fields)
CALL_METRICS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("tpch.build", ("s",)),
    ("relational.index_build", ("calls", "s")),
    ("relational.delete_rows", ("calls", "s")),
    ("joins.membership", ("calls", "s")),
    ("sampling.build", ("calls", "s")),
    ("sampling.refresh", ("calls", "s")),
    ("sampling.split", ("calls", "s")),
    ("sampling.draw", ("calls", "s")),
    ("sampling.project", ("s",)),
    ("estimation.histogram", ("calls", "s")),
    ("estimation.random_walk", ("calls", "s")),
    ("core.union_build", ("calls", "s", "self_s")),
    ("core.union_sample", ("calls", "s", "self_s")),
    ("aqp.until", ("calls", "s", "self_s")),
    ("aqp.ingest", ("calls", "s")),
    ("aqp.estimate", ("s",)),
    ("parallel.pool", ("calls", "s", "self_s")),
    ("parallel.shard", ("calls", "s")),
) + tuple(
    (f"server.handle.{kind}", ("calls", "s"))
    for kind in SERVER_KINDS
) + (
    ("server.price", ("s",)),
    ("server.admit", ("s",)),
    ("server.serialize", ("s",)),
)


class _Frame:
    __slots__ = ("name", "parent", "child", "sid", "psid", "rid", "cross", "tasks")

    def __init__(self, name: str, parent: Optional["_Frame"], sid: int,
                 rid: Optional[str], cross: bool = False) -> None:
        self.name = name
        self.parent = parent
        self.child = 0.0
        self.sid = sid
        self.psid = _span_of(parent)
        self.rid = rid
        self.cross = cross
        self.tasks: Optional[List[int]] = None


def _span_of(frame: Optional[_Frame]) -> Optional[int]:
    while frame is not None:
        if frame.sid:
            return frame.sid
        frame = frame.parent
    return None


class Tracer:
    """Collects spans, per-name call totals and counters; thread-safe."""

    def __init__(self) -> None:
        self.started = perf_counter()
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_frame", default=None
        )
        self._sids = itertools.count(1)
        #: name -> [calls, total seconds, self seconds (same-thread children)]
        self.totals: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = defaultdict(float)
        #: (sid, name, start, end, parent sid, request id, same-thread child s)
        self.spans: List[Tuple] = []
        self.span_names: set = set()
        #: id(ShardTask) -> (task, pool frame) while the pool call runs
        self._task_parent: Dict[int, Tuple[object, _Frame]] = {}
        self._seen: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        #: the traced SamplingService, captured at construction
        self.service = None

    # ------------------------------------------------------------- counters
    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def delta(self, owner: object, key: str, value: float) -> float:
        """Increase of a cumulative counter ``value`` kept on ``owner``."""
        with self._lock:
            seen = self._seen.setdefault(owner, {})
            previous = seen.get(key, 0.0)
            seen[key] = value
        return value - previous

    # -------------------------------------------------------------- wrapping
    def wrap(self, name: str, fn: Callable, *, span: bool = False,
             after: Optional[Callable] = None,
             label: Optional[Callable] = None,
             rid: Optional[Callable] = None) -> Callable:
        """Wrap ``fn``: time it under ``name`` (or ``label(args)``).

        ``after(tracer, args, result)`` reads counters off the result.  A
        call nested directly in a call of the same name is not counted
        again.
        """
        tracer = self
        current = self._current

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = current.get()
            call = name if label is None else label(args)
            if parent is not None and parent.name == call:
                return fn(*args, **kwargs)
            cross = False
            request = None if parent is None else parent.rid
            if rid is not None:
                request = rid(args)
            if parent is None and call == "parallel.shard":
                parent, request, cross = tracer._shard_parent(args)
            frame = _Frame(call, parent, next(tracer._sids) if span else 0,
                           request, cross)
            token = current.set(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                current.reset(token)
                tracer._close(frame, start, end)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def _shard_parent(self, args) -> Tuple[Optional[_Frame], Optional[str], bool]:
        task = args[0] if args else None
        with self._lock:
            entry = self._task_parent.get(id(task))
        if entry is None or entry[0] is not task:
            return None, None, False
        frame = entry[1]
        return frame, frame.rid, True

    def register_tasks(self, tasks: Iterable[object]) -> None:
        """Attach planned shard tasks to the pool call running on this thread."""
        frame = self._current.get()
        if frame is None:
            return
        with self._lock:
            if frame.tasks is None:
                frame.tasks = []
            for task in tasks:
                self._task_parent[id(task)] = (task, frame)
                frame.tasks.append(id(task))

    def _close(self, frame: _Frame, start: float, end: float) -> None:
        duration = end - start
        if frame.parent is not None and not frame.cross:
            frame.parent.child += duration
        with self._lock:
            totals = self.totals.get(frame.name)
            if totals is None:
                totals = self.totals[frame.name] = [0, 0.0, 0.0]
            totals[0] += 1
            totals[1] += duration
            totals[2] += duration - frame.child
            if frame.sid:
                self.span_names.add(frame.name)
                self.spans.append((frame.sid, frame.name, start, end,
                                   frame.psid, frame.rid, frame.child))
            if frame.tasks:
                for key in frame.tasks:
                    self._task_parent.pop(key, None)

    # ------------------------------------------------------------- summaries
    def lifetime(self) -> float:
        return perf_counter() - self.started

    def span_self_seconds(self) -> Dict[str, float]:
        """Self seconds per span name, net of cross-thread children."""
        with self._lock:
            spans = list(self.spans)
        by_id = {s[0]: s for s in spans}
        cross: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for sid, _name, start, end, psid, _rid, _child in spans:
            if psid is not None and psid in by_id:
                parent = by_id[psid]
                # cross-thread children are the ones not already in the
                # parent's same-thread child time: shards under a pool span
                if parent[1] == "parallel.pool" and _name == "parallel.shard":
                    cross[psid].append((start, end))
        result: Dict[str, float] = defaultdict(float)
        for sid, name, start, end, _psid, _rid, child in spans:
            covered = _covered(cross.get(sid, ()), start, end)
            result[name] += max(end - start - child - covered, 0.0)
        return result

    def shard_wait_seconds(self) -> float:
        """Pool-span time during which none of its shards was running."""
        with self._lock:
            spans = list(self.spans)
        shards: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for _sid, name, start, end, psid, _rid, _child in spans:
            if name == "parallel.shard" and psid is not None:
                shards[psid].append((start, end))
        wait = 0.0
        for sid, name, start, end, _psid, _rid, _child in spans:
            if name == "parallel.pool":
                wait += (end - start) - _covered(shards.get(sid, ()), start, end)
        return wait

    def dump_spans(self, path: str) -> None:
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as out:
            for sid, name, start, end, psid, rid, child in spans:
                out.write(json.dumps({
                    "id": sid, "name": name, "parent": psid, "request": rid,
                    "start": round(start - self.started, 9),
                    "end": round(end - self.started, 9),
                    "thread_child_s": round(child, 9),
                }) + "\n")

    def summary(self, relations: Iterable[object] = ()) -> Dict[str, object]:
        """Everything the runner needs to derive the per-layer metrics."""
        with self._lock:
            totals = {k: list(v) for k, v in self.totals.items()}
            counters = dict(self.counters)
            span_names = set(self.span_names)
        span_self = self.span_self_seconds()
        for name in span_names:
            totals[name][2] = span_self.get(name, 0.0)
        resident = 0
        seen = set()
        for relation in relations:
            if id(relation) in seen:
                continue
            seen.add(id(relation))
            resident += sum(relation.cache_nbytes().values())
        return {
            "lifetime_s": self.lifetime(),
            "totals": totals,
            "counters": counters,
            "shard_wait_s": self.shard_wait_seconds(),
            "resident_bytes": resident,
            "spans": len(self.spans),
        }


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


# ------------------------------------------------------------------ install
def _patch_function(module_prefix: str, original: Callable, replacement: Callable) -> None:
    """Rebind ``original`` to ``replacement`` in every loaded module that holds it."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith(module_prefix):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured ``repro`` layer."""
    import repro.parallel.shards as shards_mod
    import repro.server.service as service_mod
    import repro.tpch.workloads as workloads_mod
    from repro.aqp.estimators import AggregateAccumulator
    from repro.aqp.online import OnlineAggregator
    from repro.core.online_sampler import OnlineUnionSampler
    from repro.core.union_sampler import (
        BernoulliUnionSampler,
        SetUnionSampler,
        UnionSamplerBase,
    )
    from repro.estimation.histogram import HistogramUnionEstimator
    from repro.estimation.random_walk import RandomWalkUnionEstimator
    from repro.joins.membership import JoinMembershipProber
    from repro.parallel.pool import ParallelSamplerPool
    from repro.relational.relation import Relation
    from repro.sampling.blocks import SampleBlock
    from repro.sampling.join_sampler import JoinSampler
    from repro.server.admission import AdmissionController
    from repro.server.overload import OverloadGate
    from repro.server.service import SamplingService

    wrap = tracer.wrap

    # tpch
    _patch_function("repro", workloads_mod.build_workload,
                    wrap("tpch.build", workloads_mod.build_workload, span=True))

    # relational
    setattr(Relation, "sorted_index_on_columns",
                  wrap("relational.index_build", Relation.sorted_index_on_columns))
    setattr(Relation, "delete_rows", wrap(
        "relational.delete_rows", Relation.delete_rows, span=True,
        after=lambda t, a, r: t.count("relational.delete_rows.rows", r)))

    # joins
    setattr(JoinMembershipProber, "contains", wrap(
        "joins.membership", JoinMembershipProber.contains,
        after=lambda t, a, r: t.count("joins.membership.hits", 1 if r else 0)))

    # sampling
    setattr(JoinSampler, "__init__", wrap("sampling.build", JoinSampler.__init__))
    setattr(JoinSampler, "warm", wrap("sampling.build", JoinSampler.warm))
    setattr(JoinSampler, "refresh", wrap("sampling.refresh", JoinSampler.refresh))
    setattr(JoinSampler, "split", wrap("sampling.split", JoinSampler.split))

    def after_draw(t: Tracer, args, block) -> None:
        t.count("sampling.draw.samples", len(block))
        t.count("sampling.draw.attempts", block.attempts)

    setattr(JoinSampler, "sample_block",
                  wrap("sampling.draw", JoinSampler.sample_block, after=after_draw))
    # sample_block's attempts also cover the surplus it parks in the buffer;
    # count those samples when callers take them out
    pop_buffered_blocks = JoinSampler.pop_buffered_blocks

    @functools.wraps(pop_buffered_blocks)
    def counted_pop(*args, **kwargs):
        blocks = pop_buffered_blocks(*args, **kwargs)
        tracer.count("sampling.draw.samples", sum(len(block) for block in blocks))
        return blocks

    setattr(JoinSampler, "pop_buffered_blocks", counted_pop)
    setattr(SampleBlock, "values", wrap(
        "sampling.project", SampleBlock.values,
        after=lambda t, a, r: t.count("sampling.project.rows", len(r))))

    # estimation
    setattr(HistogramUnionEstimator, "estimate", wrap(
        "estimation.histogram", HistogramUnionEstimator.estimate, span=True))

    def after_walks(t: Tracer, args, _result) -> None:
        estimator = args[0]
        t.count("estimation.random_walk.walks",
                t.delta(estimator, "walks", estimator.total_walks()))

    setattr(RandomWalkUnionEstimator, "estimate", wrap(
        "estimation.random_walk", RandomWalkUnionEstimator.estimate, span=True,
        after=after_walks))

    # core: union sampler constructors and draws; counters are cumulative
    # per sampler, so only their increase since the last call is added
    for cls in (SetUnionSampler, BernoulliUnionSampler, OnlineUnionSampler):
        setattr(cls, "__init__", wrap("core.union_build", cls.__init__, span=True))

    def after_union(t: Tracer, args, result) -> None:
        stats = result.stats
        for field in ("iterations", "accepted", "revisions", "backtrack_rounds"):
            t.count(f"core.union.{field}", t.delta(args[0], field, getattr(stats, field)))

    for cls in (UnionSamplerBase, SetUnionSampler, OnlineUnionSampler):
        setattr(cls, "sample", wrap("core.union_sample", cls.sample, span=True,
                                          after=after_union))

    # aqp
    def after_until(t: Tracer, args, report) -> None:
        t.count("aqp.samples", report.accepted)

    setattr(OnlineAggregator, "until",
                  wrap("aqp.until", OnlineAggregator.until, span=True, after=after_until))

    def after_ingest(t: Tracer, args, _result) -> None:
        columns = args[1] if len(args) > 1 else ()
        t.count("aqp.ingest.rows", len(columns[0]) if len(columns) else 0)

    setattr(AggregateAccumulator, "ingest_block",
                  wrap("aqp.ingest", AggregateAccumulator.ingest_block, after=after_ingest))
    setattr(AggregateAccumulator, "observe", wrap(
        "aqp.ingest", AggregateAccumulator.observe,
        after=lambda t, a, r: t.count("aqp.ingest.rows", len(a[1]) if len(a) > 1 else 0)))
    setattr(AggregateAccumulator, "estimate",
                  wrap("aqp.estimate", AggregateAccumulator.estimate))

    # parallel / resilience: shard spans attach to the planning pool call
    plan_tasks = ParallelSamplerPool.plan_tasks

    @functools.wraps(plan_tasks)
    def traced_plan_tasks(*args, **kwargs):
        tasks = plan_tasks(*args, **kwargs)
        tracer.register_tasks(tasks)
        return tasks

    setattr(ParallelSamplerPool, "plan_tasks", traced_plan_tasks)
    for method in ("sample", "aggregate"):
        setattr(ParallelSamplerPool, method, wrap(
            "parallel.pool", getattr(ParallelSamplerPool, method), span=True))
    _patch_function("repro", shards_mod.run_shard,
                    wrap("parallel.shard", shards_mod.run_shard, span=True))

    # server
    def handle_label(args) -> str:
        request = args[1] if len(args) > 1 else None
        kind = request.get("kind") if isinstance(request, dict) else None
        return f"server.handle.{kind if kind in SERVER_KINDS else 'invalid'}"

    setattr(SamplingService, "handle", wrap(
        "server.handle", SamplingService.handle, span=True, label=handle_label,
        rid=lambda args: request_key(args[1] if len(args) > 1 else None)))
    setattr(AdmissionController, "price",
                  wrap("server.price", AdmissionController.price))
    setattr(AdmissionController, "admit",
                  wrap("server.admit", AdmissionController.admit))
    setattr(OverloadGate, "admit", wrap("server.admit", OverloadGate.admit))

    # jsonify recurses through its module global; time only the outermost
    # call by handing the wrapper a private copy whose recursion stays inside
    jsonify = service_mod.jsonify
    inner = types.FunctionType(jsonify.__code__, dict(jsonify.__globals__),
                               jsonify.__name__, jsonify.__defaults__, jsonify.__closure__)
    inner.__globals__[jsonify.__name__] = inner
    _patch_function("repro", jsonify, wrap("server.serialize", inner))

    init = SamplingService.__init__

    @functools.wraps(init)
    def capture_service(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracer.service = self

    setattr(SamplingService, "__init__", capture_service)


def request_key(request: object) -> Optional[str]:
    """The id a request is traced under; the load generator computes the same."""
    if not isinstance(request, dict):
        return None
    kind = request.get("kind")
    if kind == "mutate":
        positions = request.get("delete_positions") or []
        return f"mutate:{request.get('relation')}:{','.join(map(str, positions))}"
    if kind in ("sample", "aggregate"):
        return f"{kind}:{request.get('query')}:{request.get('seed')}"
    return None


#: per-layer ratios: (metric, numerator, denominator), both looked up among
#: the counters and the ``<call>.calls`` counts
RATIOS = (
    ("joins.membership.hit_ratio", "joins.membership.hits", "joins.membership.calls"),
    ("sampling.draw.accept_ratio", "sampling.draw.samples", "sampling.draw.attempts"),
    ("core.union.accept_ratio", "core.union.accepted", "core.union.iterations"),
    ("aqp.samples_per_request", "aqp.samples", "aqp.until.calls"),
)
#: counters reported as per-layer metrics under their own names
COUNTERS = (
    "relational.delete_rows.rows", "sampling.draw.samples", "sampling.draw.attempts",
    "sampling.project.rows", "estimation.random_walk.walks", "core.union.iterations",
    "core.union.accepted", "core.union.revisions", "core.union.backtrack_rounds",
    "aqp.ingest.rows",
)


def _counts(summary: Dict[str, object]) -> Dict[str, float]:
    totals: Dict[str, List[float]] = summary["totals"]  # type: ignore[assignment]
    counts = dict(summary["counters"])  # type: ignore[arg-type]
    counts.update({f"{name}.calls": values[0] for name, values in totals.items()})
    return counts


def layer_metrics(summary: Dict[str, object]) -> Dict[str, float]:
    """Per-layer metrics computable from one process's tracer summary."""
    totals: Dict[str, List[float]] = summary["totals"]  # type: ignore[assignment]
    metrics: Dict[str, float] = {}
    for name, fields in CALL_METRICS:
        calls, seconds, self_seconds = totals.get(name, (0, 0.0, 0.0))
        values = {"calls": int(calls), "s": seconds, "self_s": self_seconds}
        for field in fields:
            metrics[f"{name}.{field}"] = values[field]
    counts = _counts(summary)
    for name in COUNTERS:
        metrics[name] = int(counts.get(name, 0))
    for name, numerator, denominator in RATIOS:
        base = counts.get(denominator, 0)
        metrics[name] = counts.get(numerator, 0) / base if base else 0.0
    metrics["relational.resident_bytes"] = int(summary["resident_bytes"])
    metrics["parallel.shard.wait_s"] = float(summary["shard_wait_s"])
    return metrics


def layer_table(summary: Dict[str, object]) -> str:
    """Plain-text per-layer table: calls, seconds, self seconds, share."""
    lifetime = float(summary["lifetime_s"]) or 1.0
    totals: Dict[str, List[float]] = summary["totals"]  # type: ignore[assignment]
    lines = [f"{'layer call':32} {'calls':>9} {'s':>10} {'self_s':>10} {'% life':>8}"]
    for name in sorted(totals):
        calls, seconds, self_seconds = totals[name]
        lines.append(f"{name:32} {int(calls):9d} {seconds:10.4f} {self_seconds:10.4f} "
                     f"{100.0 * seconds / lifetime:8.2f}")
    lines.append(f"(traced process lifetime {lifetime:.3f} s is the base of every %)")
    counters: Dict[str, float] = summary["counters"]  # type: ignore[assignment]
    for name in sorted(counters):
        lines.append(f"counter {name} = {counters[name]:g}")
    counts = _counts(summary)
    for name, numerator, denominator in RATIOS:
        num, den = counts.get(numerator, 0), counts.get(denominator, 0)
        value = f"{num / den:.4f}" if den else "n/a"
        lines.append(f"ratio {name} = {value} ({numerator} {num:g} / {denominator} {den:g})")
    return "\n".join(lines)
