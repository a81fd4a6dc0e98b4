"""The union-offline workload: the paper's library samplers, no server.

Run as a child of ``run.py`` so that its peak memory is its own::

    python perfbench/offline.py --seed 1 --mode measure --seconds 20 --out result.json

writes ``result.json`` (set-up interval, rounds, peak memory) and, one line
per operation with its samples and the time of the reference task run
right after it, ``result.json.ops.jsonl``.

One *round* runs, for each of UQ3, UQ2 and UQ1 (cheapest first), the
histogram and random-walk warm-ups, then ``SAMPLES_PER_OP`` samples from
``SetUnionSampler`` (strict and record), ``BernoulliUnionSampler`` and
``OnlineUnionSampler``.  Every operation is seeded from (seed, round,
workload, operation), so the same seed gives the same answers.

Modes: ``setup`` only builds the data; ``replay`` also runs the first
``REPLAY_OPS`` operations; ``measure`` runs round 0 untimed, then whole
rounds until ``--seconds`` have passed.  ``--trace`` installs the layer wrappers first.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from typing import Callable, Dict

import numpy as np

import calibrate

SCALE_FACTOR = 0.01
OVERLAP_SCALE = 0.3
#: Seed of the TPC-H data, the same for every run.  ``--seed`` drives
#: everything else (request streams, sampler seeds, delete positions).  The
#: data seed stays fixed because UQ1's instance sizes follow how many of the
#: 25 nations the seed shares between joins, so a run's cost would vary about
#: twofold with the seed, and the spread of seeded runs would measure the data
#: rather than the program.
DATA_SEED = 0
WORKLOADS = ("UQ3", "UQ2", "UQ1")
SAMPLERS = ("set-strict", "set-record", "bernoulli", "online")
#: samplers whose accepted tuples must be owned by the lowest-index join
OWNER_EXACT = ("set-strict", "bernoulli")
SAMPLES_PER_OP = 1000
WALKS_PER_JOIN = 500
#: the round-0 operations on UQ3 and UQ2, replayed for the digest check
REPLAY_OPS = 2 * (1 + len(SAMPLERS))


def op_rng(seed: int, round_: int, workload: int, op: int) -> np.random.Generator:
    return np.random.default_rng([seed, 4, round_, workload, op])


def digest(body: object) -> str:
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found")


def parameters_dict(parameters) -> Dict[str, object]:
    return {
        "join_order": list(parameters.join_order),
        "join_sizes": dict(parameters.join_sizes),
        "cover_sizes": dict(parameters.cover_sizes),
        "union_size": parameters.union_size,
    }


def run_round(seed: int, round_: int, workloads, limit: int,
              emit: Callable[[Dict[str, object]], None]) -> None:
    """Run the operations of one round, at most ``limit`` of them.

    Each operation goes to ``emit`` as soon as it is done, so the samples
    kept for the output checks never add to this process's peak memory.
    """
    from repro.core.online_sampler import OnlineUnionSampler
    from repro.core.union_sampler import BernoulliUnionSampler, SetUnionSampler
    from repro.estimation.histogram import HistogramUnionEstimator
    from repro.estimation.random_walk import RandomWalkUnionEstimator

    done = 0
    for w, name in enumerate(WORKLOADS):
        queries = workloads[name].queries
        if done >= limit:
            break
        started = time.monotonic()
        histogram = HistogramUnionEstimator(queries, join_size_method="eo").estimate()
        histogram_s = time.monotonic() - started
        walker = RandomWalkUnionEstimator(queries, walks_per_join=WALKS_PER_JOIN,
                                          seed=op_rng(seed, round_, w, 0))
        walked = walker.estimate()
        estimates = {"histogram": parameters_dict(histogram),
                     "random-walk": parameters_dict(walked)}
        emit({"round": round_, "workload": name, "kind": "warmup",
              "start": started, "latency_s": time.monotonic() - started,
              "histogram_s": histogram_s, "estimates": estimates,
              "digest": digest(estimates)})
        done += 1
        for s, sampler_name in enumerate(SAMPLERS, start=1):
            if done >= limit:
                break
            done += 1
            rng = op_rng(seed, round_, w, s)
            started = time.monotonic()
            try:
                if sampler_name == "set-strict":
                    sampler = SetUnionSampler(queries, walked, seed=rng, mode="strict")
                elif sampler_name == "set-record":
                    sampler = SetUnionSampler(queries, walked, seed=rng, mode="record")
                elif sampler_name == "bernoulli":
                    sampler = BernoulliUnionSampler(queries, walked, seed=rng)
                else:
                    sampler = OnlineUnionSampler(queries, seed=rng, warmup="random-walk",
                                                 warmup_estimator=walker)
                result = sampler.sample(SAMPLES_PER_OP)
            except (RuntimeError, ValueError) as error:
                emit({"round": round_, "workload": name, "kind": sampler_name,
                      "start": started, "latency_s": time.monotonic() - started,
                      "error": f"{type(error).__name__}: {error}"})
                continue
            latency = time.monotonic() - started
            values = [list(sample.value) for sample in result.samples]
            sources = [sample.source_join for sample in result.samples]
            emit({"round": round_, "workload": name, "kind": sampler_name,
                  "start": started, "latency_s": latency, "accepted": len(values),
                  "iterations": result.stats.iterations,
                  "values": values, "sources": sources,
                  "digest": digest([values, sources])})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "replay", "measure"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", default=None,
                        help="span file to write; installs the layer wrappers")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import tracing as perf_trace

        tracer = perf_trace.Tracer()
        perf_trace.install(tracer)
    import repro.tpch.workloads as tpch

    started = time.monotonic()
    workloads = {name: tpch.build_workload(name, SCALE_FACTOR, OVERLAP_SCALE, DATA_SEED)
                 for name in WORKLOADS}
    output: Dict[str, object] = {"setup_interval": [started, time.monotonic()]}
    # The reference task of ``calibrate.py`` is timed right after every
    # operation, in this process: each operation's time then comes with a
    # measure of the host's speed on the same processor at the same moment.
    reference_data = calibrate.reference_data()

    with open(args.out + ".ops.jsonl", "w", encoding="utf-8") as ops:
        def emit(op: Dict[str, object]) -> None:
            started = time.monotonic()
            calibrate.reference_task(reference_data)
            op["reference_ms"] = (time.monotonic() - started) * 1000.0
            ops.write(json.dumps(op) + "\n")

        window_start = time.monotonic()
        if args.mode == "replay":
            run_round(args.seed, 0, workloads, REPLAY_OPS, emit)
        elif args.mode == "measure":
            # Round 0 warms the lazily built per-relation structures and is
            # not timed; then whole rounds until ``--seconds`` have passed.
            run_round(args.seed, 0, workloads, sys.maxsize, emit)
            window_start = time.monotonic()
            deadline = window_start + args.seconds
            round_ = 1
            while round_ == 1 or time.monotonic() < deadline:
                run_round(args.seed, round_, workloads, sys.maxsize, emit)
                round_ += 1
            output["rounds"] = round_ - 1
        output["elapsed_s"] = time.monotonic() - window_start
        output["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        relations = [r for w in workloads.values() for q in w.queries
                     for r in q.relations.values()]
        output["trace"] = tracer.summary(relations)
        tracer.dump_spans(args.trace)
    with open(args.out, "w", encoding="utf-8") as out:
        json.dump(output, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
