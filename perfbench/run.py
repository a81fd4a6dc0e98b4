"""The repository's benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload join-serve --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` adds a traced run of the same workload and prints the
per-layer metrics.  Timings are stated at reference speed (``calibrate.py``).
Either way the outputs are checked against an exact oracle, and the last
line of standard output is one JSON object::

    {"correct": true, "attempted": 412, "failed": 0, "metrics": {...}}

The exit code is 0 when every check passed, 1 when one failed, 2 when the
checkout holds no ``src/repro`` to measure.  Metric definitions and the
layer-to-metric map are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import offline
import oracle
import server_load
import tracing
from calibrate import REFERENCE_MS, Calibrator
from offline import DATA_SEED, OVERLAP_SCALE, SCALE_FACTOR
from oracle import Checker, Oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"

CLIENTS = 2
#: processes started per run; ``setup_s`` is the median of their set-ups
SETUP_RUNS = 3
#: percentiles tried, highest first, for the ``_tail_ms`` metrics
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

#: end-to-end metrics of BENCHMARK.json (every workload reports them)
BOUNDED = {
    "setup_s": "s",
    "samples_per_s": "samples/s",
    "sample_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}


# ------------------------------------------------------------------ streams
def _join_serve(seed: int, workload) -> Callable[[int, int], dict]:
    """Warm single-join samples alternating with exact-weight SUM/AVG, all five joins."""
    joins = list(workload.query_names)
    base = int(np.random.default_rng([seed, 1]).integers(0, 2**30))

    def request(client: int, index: int) -> dict:
        rng = np.random.default_rng([seed, 1, client, index])
        query = joins[int(rng.integers(len(joins)))]
        if (index + client) % 2 == 0:
            return {"kind": "sample", "query": query, "count": int(rng.integers(200, 401)),
                    "seed": base + 2 * index + client}
        return {"kind": "aggregate", "query": query,
                "aggregate": ("sum", "avg")[int(rng.integers(2))],
                "attribute": "totalprice", "method": "exact-weight", "rel_error": 0.05,
                "seed": base + 2 * index + client}

    return request


def _union_serve(seed: int, workload) -> Callable[[int, int], dict]:
    """Union samples (200 tuples) alternating with union SUM aggregates."""
    base = int(np.random.default_rng([seed, 2]).integers(0, 2**30))

    def request(client: int, index: int) -> dict:
        if (index + client) % 2 == 0:
            return {"kind": "sample", "query": "union", "count": 200,
                    "seed": base + 2 * index + client}
        return {"kind": "aggregate", "query": "union", "aggregate": "sum",
                "attribute": "totalprice", "rel_error": 0.1,
                "seed": base + 2 * index + client}

    return request


#: deletes land below (smallest instance size - margin) so that they stay
#: in range however the two clients' deletes interleave
DELETE_MARGIN = 4096


def _write_mix(seed: int, workload) -> Callable[[int, int], dict]:
    """One delete in eight, cached aggregates with variation, warm samples."""
    joins = list(workload.query_names)
    limits = {name: min(len(q.relations[name]) for q in workload.queries) - DELETE_MARGIN
              for name in ("lineitem", "orders")}
    base = int(np.random.default_rng([seed, 3]).integers(0, 2**30))

    def request(client: int, index: int) -> dict:
        rng = np.random.default_rng([seed, 3, client, index])
        u = rng.random()
        if u < 0.125:
            relation = ("lineitem", "orders")[int(rng.integers(2))]
            positions = rng.integers(0, limits[relation], size=int(rng.integers(1, 4)))
            return {"kind": "mutate", "relation": relation,
                    "delete_positions": sorted({int(p) for p in positions})}
        if u < 0.625:
            aggregate = ("count", "sum", "avg")[int(rng.integers(3))]
            request = {"kind": "aggregate", "query": joins[int(rng.integers(2))],
                       "aggregate": aggregate, "method": "exact-weight",
                       "rel_error": (0.05, 0.1)[int(rng.integers(2))],
                       "seed": base + 2 * index + client}
            if aggregate != "count":
                request["attribute"] = "totalprice"
            return request
        return {"kind": "sample", "query": joins[int(rng.integers(len(joins)))],
                "count": 200, "seed": base + 2 * index + client}

    return request


#: name -> (server flags or None for the offline workload, stream, replayed
#: requests per client for the digest check, exact aggregate check)
WORKLOADS = {
    "join-serve": (["--workload", "UQ1"], _join_serve, 6, True),
    "union-serve": (["--workload", "UQ1"], _union_serve, 3, False),
    "write-mix": (["--workload", "UQ1", "--cache"], _write_mix, 0, False),
    "union-offline": (None, None, 0, False),
}


# ------------------------------------------------------------------ helpers
def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def tail(values: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """(percentile, value, count) at the highest percentile with >= 10 beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for percentile in TAIL_LADDER:
        rank = math.ceil(percentile / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return percentile, ordered[rank - 1], n
    return None


def git_revision() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.exists():
            return ref_path.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def oracle_path(workload: str) -> Path:
    """Where the oracle of ``workload`` is kept for this source and data."""
    key = hashlib.sha256(json.dumps([source_digest(), SCALE_FACTOR, OVERLAP_SCALE, DATA_SEED,
                                     oracle.FORMAT]).encode()).hexdigest()[:16]
    return OUT / f"oracle-{workload}-{key}.npz"


def environment(args) -> Dict[str, object]:
    return {
        "workload": args.workload, "seed": args.seed, "data_seed": DATA_SEED,
        "scale_factor": SCALE_FACTOR,
        "overlap_scale": OVERLAP_SCALE, "seconds": args.seconds, "trace": args.trace,
        "clients": CLIENTS, "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(),
        "git_revision": git_revision(), "source_digest": source_digest(),
    }


class Report:
    """Metrics by name and unit, report-only ones marked; printed at the end.

    Times and rates are stated at reference speed (``calibrate.py``); the
    note keeps the value as the clock read it.
    """

    def __init__(self) -> None:
        self.metrics: Dict[str, Tuple[float, str, str]] = {}

    def add(self, name: str, value: float, unit: str, note: str = "",
            raw: Optional[float] = None) -> None:
        if raw is not None:
            note = f"raw {raw:.6g}" + (f"; {note}" if note else "")
        self.metrics[name] = (value, unit, note)

    def add_tail(self, name: str, latencies_s: Sequence[float], slowdown: float) -> None:
        """The ``_tail_ms`` of raw ``latencies_s``, at reference speed."""
        found = tail(latencies_s)
        if found is None:
            self.add(name, float("nan"), "ms",
                     f"report-only; {len(latencies_s)} samples support no tail")
            return
        percentile, value, count = found
        self.add(name, value * 1000.0 / slowdown, "ms",
                 f"report-only; p{percentile:g} of {count} samples", raw=value * 1000.0)

    def lines(self) -> List[str]:
        out = []
        for name, (value, unit, note) in self.metrics.items():
            if name in BOUNDED:
                mark = "bounded" + (f"; {note}" if note else "")
            else:
                mark = note if "report-only" in note else "report-only" + (
                    f"; {note}" if note else "")
            out.append(f"  {name:28} {value:16.6g} {unit:10} {mark}")
        return out


def add_setup(report: Report, setups: Sequence[Tuple[float, float]],
              calibration: Calibrator) -> List[float]:
    """``setup_s``: median of the set-ups, each at reference speed."""
    raw = [end - start for start, end in setups]
    scaled = [(end - start) / calibration.slowdown(start, end) for start, end in setups]
    report.add("setup_s", statistics.median(scaled), "s",
               f"median of {len(setups)} set-ups", raw=statistics.median(raw))
    return raw


# ------------------------------------------------------------ server runs
def server_argv(flags: List[str], traced: Optional[Tuple[Path, Path]]) -> List[str]:
    serve = ["serve", *flags, "--scale-factor", str(SCALE_FACTOR),
             "--overlap-scale", str(OVERLAP_SCALE), "--seed", str(DATA_SEED), "--port", "0"]
    if traced is None:
        return [sys.executable, "-m", "repro", *serve]
    spans, summary = traced
    return [sys.executable, str(HERE / "traced_serve.py"), "--spans", str(spans),
            "--summary", str(summary), "--", *serve]


def delivered(record) -> int:
    """Sampled tuples a request delivered: values returned, or samples accepted."""
    if record.kind == "sample":
        return len(record.result["values"])
    if record.kind == "aggregate":
        return int(record.result["report"]["accepted"])
    return 0


def window_metrics(window, report: Report, calibration: Calibrator) -> Dict[str, object]:
    """End-to-end metrics of one measured server window."""
    ok = [r for r in window.records if r.ok]
    start, end = window.started_at, window.started_at + window.elapsed_s
    slowdown = calibration.slowdown(start, end)
    by_kind: Dict[str, List[float]] = {}
    for record in ok:
        by_kind.setdefault(record.kind, []).append(record.latency_s)
    attempted = len(window.records)
    failed = attempted - len(ok)
    per_s = 1.0 / window.elapsed_s
    report.add("throughput_rps", len(ok) * per_s * slowdown, "req/s", raw=len(ok) * per_s)
    delivered_per_s = sum(delivered(record) for record in ok) * per_s
    samples_per_s = delivered_per_s * slowdown
    report.add("samples_per_s", samples_per_s, "samples/s", raw=delivered_per_s)
    for kind in ("sample", "aggregate", "mutate"):
        if kind in by_kind:
            p50_ms = statistics.median(by_kind[kind]) * 1000.0
            report.add(f"{kind}_p50_ms", p50_ms / slowdown, "ms",
                       "" if kind == "sample" else "report-only", raw=p50_ms)
            report.add_tail(f"{kind}_tail_ms", by_kind[kind], slowdown)
    report.add("error_rate", failed / attempted if attempted else 0.0, "ratio")
    errors: Dict[str, int] = {}
    for record in window.records:
        if not record.ok:
            errors[record.error[:160]] = errors.get(record.error[:160], 0) + 1
    return {"attempted": attempted, "failed": failed, "errors": errors,
            "requests": {k: len(v) for k, v in by_kind.items()},
            "samples_per_s": samples_per_s, "slowdown": slowdown, "window_start": start,
            "log": [(r.kind, round(r.finished_at - start, 6), round(r.latency_s, 6),
                     delivered(r) if r.ok else 0) for r in window.records]}


def run_server(args, calibration: Calibrator, flags, make_stream, replay_count,
               exact_aggregates) -> Dict[str, object]:
    from repro.server.protocol import RETRYABLE_CODES
    from repro.tpch.workloads import build_workload

    workload = build_workload("UQ1", SCALE_FACTOR, OVERLAP_SCALE, DATA_SEED)
    stream = make_stream(args.seed, workload)
    env, cwd = child_env(), str(ROOT)
    report, checker = Report(), Checker()
    setups: List[Tuple[float, float]] = []
    prefix = OUT / f"{args.workload}-seed{args.seed}"

    # The first server times set-up and answers the start of every stream one
    # request at a time; the measured server must give the same answers under
    # load.  Between them: more set-ups, or (traced runs) the untraced window
    # the tracing overhead is measured against.
    with server_load.ServerProcess(server_argv(flags, None), env, cwd) as server:
        setups.append(server.setup_interval)
        replayed = server_load.replay(server.port, stream, CLIENTS, replay_count)
    untraced = None
    for _ in range(1 if args.trace else SETUP_RUNS - 2):
        with server_load.ServerProcess(server_argv(flags, None), env, cwd) as server:
            setups.append(server.setup_interval)
            if args.trace:
                untraced = server_load.closed_loop(server.port, stream, CLIENTS, args.seconds)
    traced = (Path(f"{prefix}-spans.jsonl"), Path(f"{prefix}-summary.json")) if args.trace else None
    with server_load.ServerProcess(server_argv(flags, traced), env, cwd) as server:
        setups.append(server.setup_interval)
        window = server_load.closed_loop(server.port, stream, CLIENTS, args.seconds)
        stats = server.stats()
        rss = server.peak_rss_mb()
        code = server.stop()
    if code != 0:
        checker.fail(f"server exited with code {code}")

    raw_setups = add_setup(report, setups, calibration)
    counts = window_metrics(window, report, calibration)
    report.add("peak_rss_mb", rss, "MiB")
    windows = [window] + ([untraced] if untraced is not None else [])

    # Output checks, against the exact answers on the same data.
    oracle_started = time.perf_counter()
    oracle = Oracle.load_or_build("UQ1", lambda: workload, oracle_path("UQ1"))
    oracle_s = time.perf_counter() - oracle_started
    for w in windows:
        for record in w.records:
            where = f"client {record.client} request {record.index} ({record.kind})"
            if record.code is not None and record.code not in RETRYABLE_CODES:
                # Every request the benchmark sends is valid: only a load
                # refusal is an acceptable non-answer.
                checker.fail(f"{where}: {record.error}")
            if not record.ok:
                continue
            result = record.result
            if record.kind == "sample":
                checker.values_in_join(oracle, where, result["values"], result["sources"])
                if len(result["values"]) != record.request["count"]:
                    checker.fail(f"{where}: {len(result['values'])} values for "
                                 f"count {record.request['count']}")
            elif record.kind == "aggregate":
                exact = None
                if exact_aggregates:
                    query = record.request["query"]
                    exact = oracle.sums[query]
                    if record.request["aggregate"] == "avg":
                        exact /= oracle.counts[query]
                checker.aggregate_report(where, result["report"],
                                         record.request["rel_error"], exact)
            elif record.kind == "mutate":
                expected = len(record.request["delete_positions"]) * result["instances"]
                if result["rows_deleted"] != expected:
                    checker.fail(f"{where}: deleted {result['rows_deleted']} of {expected}")
        if replay_count:
            for record in w.records:
                key = (record.client, record.index)
                if key in replayed and record.ok:
                    if server_load.answer_digest(record) != replayed[key]:
                        checker.fail(f"client {record.client} request {record.index}: "
                                     "answer differs from the same request replayed "
                                     "alone on another server")
            if len(replayed) != CLIENTS * replay_count:
                checker.fail("replayed requests failed")

    result: Dict[str, object] = {"report": report, "checker": checker, **counts,
                                 "setups_s": raw_setups, "setup_intervals": setups,
                                 "stats": stats, "oracle_s": oracle_s}
    if args.trace:
        summary = json.loads(traced[1].read_text())
        layers = tracing.layer_metrics(summary)
        extra, bases = server_layers(traced[0], window, stats)
        layers.update(extra)
        untraced_per_s = window_metrics(untraced, Report(), calibration)["samples_per_s"]
        layers["tracing.sps_ratio"] = counts["samples_per_s"] / untraced_per_s
        result["layers"] = layers
        result["layer_table"] = "\n".join([tracing.layer_table(summary), bases])
        result["untraced_samples_per_s"] = untraced_per_s
    return result


def server_layers(spans_path: Path, window, stats) -> Tuple[Dict[str, float], str]:
    """Per-layer metrics the load generator and ``/stats`` contribute, and
    the bases of its ratio."""
    handle: Dict[str, float] = {}
    with open(spans_path, encoding="utf-8") as spans:
        for line in spans:
            span = json.loads(line)
            if span["name"].startswith("server.handle.") and span["request"]:
                handle[span["request"]] = span["end"] - span["start"]
    transport = 0.0
    cached = fresh = 0
    for record in window.records:
        key = tracing.request_key(record.request)
        if key in handle:
            transport += max(record.latency_s - handle[key], 0.0)
        cache = (record.result or {}).get("cache")
        if cache:
            cached += cache["cached_samples"]
            fresh += cache["fresh_samples"]
    cache_stats = stats.get("cache", {})
    pool = stats.get("pool", {})
    counters = stats.get("counters", {})
    hit_ratio = cached / (cached + fresh) if cached + fresh else 0.0
    bases = (f"ratio cache.hit_ratio = {hit_ratio:.4f} (cached samples {cached} / "
             f"cached + fresh samples {cached + fresh})")
    return {
        "server.transport.s": transport,
        "cache.hit_ratio": hit_ratio,
        "cache.invalidations": int(cache_stats.get("invalidations", 0)),
        "cache.stale_drops": int(cache_stats.get("stale_drops", 0)),
        "cache.evictions": int(cache_stats.get("evictions", 0)),
        "cache.bytes_used": int(cache_stats.get("bytes", 0)),
        "parallel.epoch_restarts": int(pool.get("epochs_restarted", 0)),
        "resilience.retries": int(pool.get("retries", 0)),
        "resilience.failed_shards": int(pool.get("failed", 0)),
        "server.shed": int(counters.get("shed_requests", 0)),
        "server.epoch_restarts": int(counters.get("epoch_restarts", 0)),
    }, bases


# ----------------------------------------------------------- offline runs
def run_offline_child(args, mode: str, out: Path, spans: Optional[Path] = None) -> dict:
    argv = [sys.executable, str(HERE / "offline.py"), "--seed", str(args.seed),
            "--mode", mode, "--seconds", str(args.seconds), "--out", str(out)]
    if spans is not None:
        argv += ["--trace", str(spans)]
    completed = subprocess.run(argv, cwd=str(ROOT), env=child_env(), timeout=150,
                               stdin=subprocess.DEVNULL)
    if completed.returncode != 0:
        raise RuntimeError(f"offline child ({mode}) exited with {completed.returncode}")
    child = json.loads(out.read_text())
    with open(f"{out}.ops.jsonl", encoding="utf-8") as ops:
        child["ops"] = [json.loads(line) for line in ops]
    return child


def offline_metrics(child: dict, report: Optional[Report]) -> Dict[str, object]:
    ops = [op for op in child["ops"] if op["round"] > 0]  # round 0 is untimed
    draws = [op for op in ops if op["kind"] != "warmup" and "error" not in op]
    warmups = [op for op in ops if op["kind"] == "warmup"]
    slowdown = statistics.median(op["reference_ms"] for op in ops) / REFERENCE_MS
    raw_per_s = sum(op["accepted"] for op in draws) / sum(op["latency_s"] for op in draws)
    samples_per_s = raw_per_s * slowdown
    if report is not None:
        report.add("samples_per_s", samples_per_s, "samples/s",
                   "accepted samples over time in sampler calls", raw=raw_per_s)
        # The twelve (workload, sampler) operations differ up to twentyfold
        # in cost, so a median over single calls would jump between cost
        # clusters: take each operation's median over rounds, then the mean.
        by_op: Dict[Tuple[str, str], List[float]] = {}
        for op in draws:
            by_op.setdefault((op["workload"], op["kind"]), []).append(op["latency_s"])
        p50_ms = 1000.0 * statistics.fmean(statistics.median(v) for v in by_op.values())
        report.add("sample_p50_ms", p50_ms / slowdown, "ms",
                   "mean over operations of the median sampler-call latency", raw=p50_ms)
        report.add_tail("sample_tail_ms", [op["latency_s"] for op in draws], slowdown)
        report.add("peak_rss_mb", child["peak_rss_mb"], "MiB")
        warmup_s = sum(op["latency_s"] for op in warmups) / child["rounds"]
        report.add("warmup_s", warmup_s / slowdown, "s", "report-only; per round, UQ1-UQ3",
                   raw=warmup_s)
        report.add("error_rate", (len(ops) - len(draws) - len(warmups)) / len(ops), "ratio")
    return {"attempted": len(ops), "failed": len(ops) - len(draws) - len(warmups),
            "samples_per_s": samples_per_s, "slowdown": slowdown,
            "requests": {kind: sum(1 for op in ops if op["kind"] == kind)
                         for kind in sorted({op["kind"] for op in ops})}}


def run_offline(args, calibration: Calibrator) -> Dict[str, object]:
    from repro.analysis.errors import mean_ratio_error
    from repro.estimation.parameters import UnionParameters
    from repro.tpch.workloads import build_workload

    prefix = OUT / f"{args.workload}-seed{args.seed}"
    report, checker = Report(), Checker()
    replay = run_offline_child(args, "replay", Path(f"{prefix}-replay.json"))
    setups = [replay["setup_interval"]]
    untraced = None
    for index in range(1 if args.trace else SETUP_RUNS - 2):
        child = run_offline_child(args, "measure" if args.trace else "setup",
                                  Path(f"{prefix}-child{index}.json"))
        setups.append(child["setup_interval"])
        if args.trace:
            untraced = child
    spans = Path(f"{prefix}-spans.jsonl") if args.trace else None
    measured = run_offline_child(args, "measure", Path(f"{prefix}-measure.json"), spans)
    setups.append(measured["setup_interval"])
    raw_setups = add_setup(report, setups, calibration)
    counts = offline_metrics(measured, report)

    oracle_started = time.perf_counter()
    oracles = {name: Oracle.load_or_build(
        name, lambda name=name: build_workload(name, SCALE_FACTOR, OVERLAP_SCALE, DATA_SEED),
        oracle_path(name)) for name in offline.WORKLOADS}
    oracle_s = time.perf_counter() - oracle_started
    children = [measured] + ([untraced] if untraced is not None else [])
    for child in children:
        for op in child["ops"]:
            where = f"round {op['round']} {op['workload']} {op['kind']}"
            if op["kind"] == "warmup" or "error" in op:
                continue
            if op["accepted"] != offline.SAMPLES_PER_OP:
                checker.fail(f"{where}: {op['accepted']} samples")
            checker.values_in_join(oracles[op["workload"]], where, op["values"], op["sources"],
                                   strict=op["kind"] in offline.OWNER_EXACT)
    replayed = {(op["round"], op["workload"], op["kind"]): op.get("digest")
                for op in replay["ops"]}
    for child in children:
        for op in child["ops"]:
            key = (op["round"], op["workload"], op["kind"])
            if key in replayed and op.get("digest") != replayed[key]:
                checker.fail(f"{key}: answer differs from the replay in another process")

    # Accuracy side of the trade-off: round-0 warm-up estimates against the
    # exact union parameters.
    errors = {}
    for op in measured["ops"]:
        if op["kind"] != "warmup" or op["round"] != 0:
            continue
        exact = UnionParameters(**oracles[op["workload"]].parameters)
        for method, estimated in op["estimates"].items():
            errors[f"{op['workload']}/{method}"] = mean_ratio_error(
                UnionParameters(**estimated), exact)
    report.add("warmup_ratio_error", statistics.fmean(errors.values()), "ratio",
               "report-only; round 0, mean over UQ1-UQ3 x {histogram, random-walk}")

    result: Dict[str, object] = {"report": report, "checker": checker, **counts,
                                 "setups_s": raw_setups, "setup_intervals": setups,
                                 "rounds": measured["rounds"],
                                 "oracle_s": oracle_s,
                                 "warmup_errors": errors}
    if args.trace:
        summary = measured["trace"]
        layers = tracing.layer_metrics(summary)
        layers.update({name: 0 for name in SERVER_ONLY_LAYERS})
        untraced_per_s = offline_metrics(untraced, None)["samples_per_s"]
        layers["tracing.sps_ratio"] = counts["samples_per_s"] / untraced_per_s
        result["layers"] = layers
        result["untraced_samples_per_s"] = untraced_per_s
        result["layer_table"] = tracing.layer_table(summary)
    return result


#: per-layer metrics only the server, its cache and its pool produce
SERVER_ONLY_LAYERS = (
    "server.transport.s", "cache.hit_ratio", "cache.invalidations", "cache.stale_drops",
    "cache.evictions", "cache.bytes_used", "parallel.epoch_restarts", "resilience.retries",
    "resilience.failed_shards", "server.shed", "server.epoch_restarts",
)


# --------------------------------------------------------------------- main
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    started = time.perf_counter()
    flags, make_stream, replay_count, exact = WORKLOADS[args.workload]
    samples = OUT / f"{args.workload}-seed{args.seed}-calibration.txt"
    with Calibrator(samples, child_env(), str(ROOT)) as calibration:
        if flags is None:
            result = run_offline(args, calibration)
        else:
            result = run_server(args, calibration, flags, make_stream, replay_count, exact)
    report: Report = result.pop("report")
    checker = result.pop("checker")

    env = environment(args)
    print(f"perfbench {args.workload}: seed={args.seed} data_seed={DATA_SEED} sf={SCALE_FACTOR} "
          f"overlap={OVERLAP_SCALE} seconds={args.seconds:g} clients={CLIENTS} "
          f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
          f"git={env['git_revision'][:12]} src={env['source_digest']}")
    print(f"requests/ops by kind: {result['requests']}  set-ups: "
          + ", ".join(f"{s:.3f}" for s in result["setups_s"]) + " s")
    slowdown = result["slowdown"]
    print(f"host slowdown over the measured window: {slowdown:.3f} (median reference task "
          f"{slowdown * REFERENCE_MS:.3f} ms against {REFERENCE_MS:g} ms at reference speed)")
    for error, count in result.get("errors", {}).items():
        print(f"failed x{count}: {error}")
    print("end-to-end metrics:")
    for line in report.lines():
        print(line)
    layers = result.pop("layers", None)
    table = result.pop("layer_table", None)
    if layers is not None:
        print("per-layer table (traced run):")
        print(table)
        print(f"tracing overhead: tracing.sps_ratio = {layers['tracing.sps_ratio']:.4f} "
              f"(traced samples_per_s {result['samples_per_s']:.6g} / untraced "
              f"{result['untraced_samples_per_s']:.6g})")
    print(f"output checks: {checker.checked} checked, "
          + ("all passed" if checker.ok else "FAILED:\n  " + "\n  ".join(checker.failures)))
    print(f"benchmark wall time {time.perf_counter() - started:.1f} s "
          f"(oracle {result['oracle_s']:.1f} s)")

    record = {"environment": env, **result, "correct": checker.ok,
              "failures": checker.failures,
              "metrics": {k: {"value": v, "unit": u, "note": n}
                          for k, (v, u, n) in report.metrics.items()},
              "layers": layers}
    suffix = "-trace" if args.trace else ""
    with open(OUT / f"{args.workload}-seed{args.seed}{suffix}.json", "w",
              encoding="utf-8") as out:
        json.dump(record, out, indent=1, default=str)
    if layers is not None:
        with open(OUT / f"{args.workload}-seed{args.seed}-layers.txt", "w",
                  encoding="utf-8") as out:
            out.write(table + "\n")

    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in sorted(layers.items())}
    else:
        metrics = {name: {"value": report.metrics[name][0], "unit": unit}
                   for name, unit in BOUNDED.items()}
    print(json.dumps({"correct": checker.ok, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if checker.ok else 1


def layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name == "aqp.samples_per_request":
        return "samples"
    if name.endswith("bytes") or name.endswith("bytes_used"):
        return "bytes"
    if name.endswith(".rows"):
        return "rows"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
