#!/usr/bin/env python
"""Soak-gate the overload layer: overhead, 5x offered load, transport chaos.

Three phases, each with a hard pass/fail gate, written to
``BENCH_overload.json`` at the repository root:

**overhead** — the fault-free tax of the overload layer.  The same serial
warm request mix runs in-process against two services over one shared
workload, overload on vs. off, min-of-N walls; the layer (gate admits,
breaker checks, watchdog tickets, health EWMAs) must cost <= 2% end to end.

**offered load** — a client fleet whose instantaneous priced-seconds demand
is ~5x the gate's ``capacity_seconds``.  The server must *degrade, not
collapse*: every rejection is a structured 429/503 carrying ``retry_after``,
``/health`` answers throughout the storm, goodput stays positive — and every
answer that was served concurrently must be **bit-identical** to the same
request re-run sequentially on the quiesced server (purity is what makes
shedding safe: a shed-and-retried request can never see a different answer).

**transport chaos** — deterministic :class:`~repro.server.chaos.ChaosClient`
strikes (resets, slow-writes, oversize, garbage) interleaved with real
clients; the server must survive every strike and drain to exactly zero
inflight work.

Run via ``make bench-overload`` or::

    PYTHONPATH=src python benchmarks/bench_overload.py [--quick]
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import threading
import time

from common import machine_info, uq1_workload, write_report

from repro.resilience import FaultPlan, HTTP_FAULT_KINDS  # noqa: E402
from repro.server import (  # noqa: E402
    ChaosClient,
    OverloadConfig,
    SamplingService,
    ServerClient,
    start_server,
)
from repro.server.protocol import ERROR_CODES  # noqa: E402

#: error codes an overloaded-but-healthy server may answer with
SHED_CODES = ("admission-rejected", "overloaded", "circuit-open")
OVERHEAD_BUDGET = 0.02


def build_requests(query_names, total: int, sample_count: int):
    """Warm, fully-seeded request mix (samples + online aggregates)."""
    requests = []
    for i in range(total):
        name = query_names[i % len(query_names)]
        if i % 4 == 3:
            requests.append({
                "kind": "aggregate", "query": name, "aggregate": "sum",
                "attribute": "totalprice", "rel_error": 0.3,
                "method": "exact-weight", "seed": 3000 + i,
            })
        else:
            requests.append({
                "kind": "sample", "query": name, "count": sample_count,
                "seed": 3000 + i,
            })
    return requests


# ------------------------------------------------------------- phase: overhead
def measure_serial_wall(service, requests) -> float:
    started = time.perf_counter()
    for request in requests:
        response = service.handle(request)
        assert response["ok"], response
    return time.perf_counter() - started


def phase_overhead(workload, requests, repeats: int):
    """Min-of-N serial walls, overload layer on vs. off, same workload."""
    plain = SamplingService(workload=workload, overload=False)
    guarded = SamplingService(workload=workload, overload=True)
    try:
        # One untimed warmup pass each: prototypes and buffers settle.
        measure_serial_wall(plain, requests)
        measure_serial_wall(guarded, requests)
        walls = {"off": [], "on": []}
        for _ in range(repeats):
            walls["off"].append(measure_serial_wall(plain, requests))
            walls["on"].append(measure_serial_wall(guarded, requests))
        best_off, best_on = min(walls["off"]), min(walls["on"])
        overhead = (best_on - best_off) / best_off
        return {
            "requests": len(requests),
            "repeats": repeats,
            "wall_seconds_overload_off": round(best_off, 4),
            "wall_seconds_overload_on": round(best_on, 4),
            "overhead_fraction": round(overhead, 4),
            "budget_fraction": OVERHEAD_BUDGET,
            "within_budget": overhead <= OVERHEAD_BUDGET,
        }
    finally:
        plain.close()
        guarded.close()


# --------------------------------------------------------- phase: offered load
def probe_health(port: int, stop: threading.Event, record):
    """Hammer GET /health for the whole storm; every probe must answer."""
    while not stop.is_set():
        started = time.perf_counter()
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                conn.request("GET", "/health")
                response = conn.getresponse()
                body = json.loads(response.read())
                ok = response.status == 200 and "status" in body.get(
                    "result", {}
                )
            finally:
                conn.close()
        except Exception:  # noqa: BLE001 - a dropped probe fails the gate
            ok = False
        record.append((ok, time.perf_counter() - started))
        stop.wait(0.05)


def phase_offered_load(workload, requests, clients: int):
    """~5x offered load against a tightly-capacitated server."""
    sizing = SamplingService(workload=workload, overload=False,
                             warm_on_start=False)
    try:
        per_request = max(
            sizing.admission.price(
                [workload.query(r["query"])],
                r.get("count", 200),
                warm=True,
            )
            for r in requests if r["kind"] == "sample"
        )
    finally:
        sizing.close()
    # The fleet's instantaneous demand is ~clients * per_request priced
    # seconds; capacity one fifth of that => offered load is 5x capacity.
    config = OverloadConfig(
        capacity_seconds=max(clients * per_request / 5.0, per_request * 1.5),
        backlog_seconds=max(clients * per_request / 10.0, per_request),
        max_queue_wait=0.05,
    )
    service = SamplingService(workload=workload, overload=config)
    server, _ = start_server(service, port=0, connection_timeout=10.0)
    outcomes = [None] * len(requests)
    malformed = []
    transport_retries = [0]
    cursor = {"next": 0}
    lock = threading.Lock()

    def worker():
        # retries=0: a shed must surface raw so the gate can inspect it.
        # Transport-level failures (a TCP reset under the connect storm,
        # before any structured answer exists) are retried here instead —
        # they are kernel weather, not a server-composed rejection, and
        # purity makes the replay safe.
        client = ServerClient(port=server.port)
        while True:
            with lock:
                index = cursor["next"]
                if index >= len(requests):
                    return
                cursor["next"] += 1
            for attempt in range(4):
                try:
                    outcomes[index] = ("ok", client.call(requests[index]))
                except (ConnectionError, TimeoutError, OSError) as error:
                    if attempt == 3:
                        malformed.append((index, repr(error), None))
                        outcomes[index] = ("error", repr(error))
                        break
                    with lock:
                        transport_retries[0] += 1
                    time.sleep(0.01 * (attempt + 1))
                    continue
                except Exception as error:  # noqa: BLE001 - gated below
                    code = getattr(error, "code", None)
                    retry_after = getattr(error, "retry_after", None)
                    if code in SHED_CODES:
                        if retry_after is None or retry_after < 1:
                            malformed.append(
                                (index, "missing retry_after", code)
                            )
                        if ERROR_CODES[code] not in (429, 503):
                            malformed.append((index, "wrong status", code))
                        outcomes[index] = ("shed", code)
                    else:
                        malformed.append((index, repr(error), code))
                        outcomes[index] = ("error", repr(error))
                    break
                else:
                    break

    stop = threading.Event()
    health_record = []
    prober = threading.Thread(
        target=probe_health, args=(server.port, stop, health_record)
    )
    threads = [threading.Thread(target=worker) for _ in range(clients)]
    wall_started = time.perf_counter()
    prober.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - wall_started
    stop.set()
    prober.join()

    served = sum(1 for o in outcomes if o and o[0] == "ok")
    shed = sum(1 for o in outcomes if o and o[0] == "shed")
    health_ok = all(ok for ok, _ in health_record) and bool(health_record)
    health_p99 = (sorted(l for _, l in health_record)
                  [max(int(0.99 * (len(health_record) - 1)), 0)]
                  if health_record else None)

    # Quiesce, then replay every concurrently-served request sequentially:
    # purity demands bit-identical answers on the unchanged snapshot.
    stats = service.handle({"kind": "stats"})["result"]
    drained = (
        stats["admission"]["inflight"] == 0
        and stats["admission"]["reserved_seconds"] == 0.0
        and stats["admission"]["queued_seconds"] == 0.0
    )
    replay_client = ServerClient(port=server.port, retries=4, max_retry_after=1.0)
    replays_identical = True
    for index, outcome in enumerate(outcomes):
        if not outcome or outcome[0] != "ok":
            continue
        if replay_client.call(requests[index]) != outcome[1]:
            replays_identical = False
            malformed.append((index, "replay diverged", None))
    server.shutdown()
    service.close()
    return {
        "clients": clients,
        "requests": len(requests),
        "capacity_seconds": round(config.capacity_seconds, 6),
        "per_request_priced_seconds": round(per_request, 6),
        "offered_to_capacity_ratio": round(
            clients * per_request / config.capacity_seconds, 2
        ),
        "wall_seconds": round(wall, 3),
        "served": served,
        "shed": shed,
        "transport_retries": transport_retries[0],
        "malformed": malformed[:10],
        "health_probes": len(health_record),
        "health_p99_ms": (round(health_p99 * 1e3, 2)
                          if health_p99 is not None else None),
        "server_state_seen": stats["admission"]["state"],
        "gates": {
            "goodput_positive": served > 0,
            "server_actually_shed": shed > 0,
            "all_rejections_structured": not malformed,
            "health_served_throughout": health_ok,
            "drained_to_zero": drained,
            "served_bit_identical_to_sequential": replays_identical,
        },
    }


# -------------------------------------------------------- phase: transport chaos
def phase_transport_chaos(workload, requests, strikes: int):
    service = SamplingService(workload=workload)
    server, _ = start_server(service, port=0, connection_timeout=0.75)
    errors = []

    def client_worker(offset):
        client = ServerClient(port=server.port, retries=2, retry_seed=offset,
                              max_retry_after=0.2)
        for request in requests[offset::2]:
            try:
                client.call(request)
            except Exception as error:  # noqa: BLE001 - gated below
                if getattr(error, "code", None) not in SHED_CODES:
                    errors.append(repr(error))

    chaos = ChaosClient(
        "127.0.0.1", server.port,
        FaultPlan(seed=13, rate=1.0, kinds=HTTP_FAULT_KINDS),
        slow_write_seconds=1.5,
    )

    def chaos_worker():
        for index in range(strikes):
            chaos.strike(index)

    threads = [threading.Thread(target=client_worker, args=(i,))
               for i in range(2)]
    threads.append(threading.Thread(target=chaos_worker))
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    health = service.handle({"kind": "health"})
    stats = service.handle({"kind": "stats"})["result"]
    drained = (
        stats["admission"]["inflight"] == 0
        and stats["admission"]["reserved_seconds"] == 0.0
    )
    server.shutdown()
    service.close()
    return {
        "strikes": dict(chaos.strikes),
        "client_errors": errors[:10],
        "transport_errors_counted": stats["counters"]["transport_errors"],
        "gates": {
            "no_unstructured_client_errors": not errors,
            "server_survived": bool(health["ok"]),
            "drained_to_zero": drained,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller mix and fleet (CI smoke)")
    args = parser.parse_args()

    workload = uq1_workload()
    total = 16 if args.quick else 40
    sample_count = 120 if args.quick else 300
    clients = 10 if args.quick else 20
    # The per-request tax is microseconds against milliseconds of sampling;
    # min-of-N needs enough N for scheduler noise to cancel out.
    repeats = 6 if args.quick else 8
    requests = build_requests(workload.query_names, total, sample_count)

    report = {
        **machine_info(),
        "workload": workload.name,
        "quick": bool(args.quick),
        "overhead": phase_overhead(workload, requests, repeats),
        "offered_load": phase_offered_load(
            workload, requests * (3 if args.quick else 5), clients
        ),
        "transport_chaos": phase_transport_chaos(
            workload, requests, strikes=6 if args.quick else 12
        ),
    }
    gates = {
        "overhead_within_budget": report["overhead"]["within_budget"],
        **{f"load_{k}": v
           for k, v in report["offered_load"]["gates"].items()},
        **{f"chaos_{k}": v
           for k, v in report["transport_chaos"]["gates"].items()},
    }
    report["gates"] = gates
    report["passed"] = all(gates.values())
    write_report("BENCH_overload.json", report)
    if not report["passed"]:
        failed = [name for name, ok in gates.items() if not ok]
        print(f"FAILED gates: {failed}", file=sys.stderr)
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
