"""Tests for the sampling server (repro.server).

The load-bearing invariant: a response is a pure function of
``(request, database snapshot)`` — N concurrent clients get bit-identical
answers to the same requests served sequentially, admission control rejects
with structured errors instead of degrading everyone, and a mutation landing
mid-request restarts the request against the new snapshot instead of
blending epochs.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.aqp import AggregateSpec, OnlineAggregator
from repro.cache import SampleCache
from repro.joins.conditions import JoinCondition, OutputAttribute
from repro.joins.query import JoinQuery
from repro.relational.relation import Relation
from repro.sampling.join_sampler import JoinSampler
from repro.server import (
    AdmissionController,
    AdmissionLimits,
    SamplingService,
    ServerClient,
    ServerError,
    start_server,
)
from repro.server.protocol import ERROR_CODES


def make_service(**overrides) -> SamplingService:
    options = dict(workload_name="UQ1", scale_factor=0.0005, seed=3)
    options.update(overrides)
    return SamplingService(**options)


@pytest.fixture(scope="module")
def service():
    """One warm, read-only service shared by the tests that never mutate."""
    svc = make_service()
    yield svc
    svc.close()


def make_chain(name="chain") -> JoinQuery:
    rows_r = [(i, i % 4) for i in range(24)]
    rows_s = [(b, 10 * b + j) for b in range(4) for j in range(3)]
    return JoinQuery(
        name,
        [Relation("R", ["a", "b"], rows_r), Relation("S", ["b", "c"], rows_s)],
        [JoinCondition("R", "b", "S", "b")],
        [OutputAttribute("a", "R", "a"), OutputAttribute("c", "S", "c")],
    )


def run_concurrently(worker, count):
    """Run ``worker(i)`` on ``count`` threads; re-raise the first failure."""
    results = [None] * count
    errors = []
    barrier = threading.Barrier(count)

    def target(i):
        try:
            barrier.wait(timeout=30)
            results[i] = worker(i)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=target, args=(i,)) for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    if errors:
        raise errors[0]
    return results


class TestBitIdenticalConcurrency:
    """N simultaneous clients == the same requests served sequentially."""

    def sample_requests(self, service):
        names = service.workload.query_names
        return [
            {"kind": "sample", "query": names[i % len(names)],
             "count": 24 + i, "seed": 100 + i}
            for i in range(8)
        ]

    def test_concurrent_samples_bit_identical_to_sequential(self, service):
        requests = self.sample_requests(service)
        sequential = [service.handle(r) for r in requests]
        concurrent = run_concurrently(
            lambda i: service.handle(requests[i]), len(requests)
        )
        assert concurrent == sequential
        assert all(r["ok"] for r in sequential)
        assert all(r["result"]["warm"] for r in sequential)

    def test_concurrent_aggregates_bit_identical_to_sequential(self, service):
        name = service.workload.query_names[0]
        requests = [
            {"kind": "aggregate", "query": name, "aggregate": "sum",
             "attribute": "totalprice", "rel_error": 0.25,
             "method": "exact-weight", "seed": 40 + i}
            for i in range(4)
        ]
        sequential = [service.handle(r) for r in requests]
        concurrent = run_concurrently(
            lambda i: service.handle(requests[i]), len(requests)
        )
        assert concurrent == sequential
        for response in sequential:
            assert response["ok"]
            assert response["result"]["warm"]
            assert response["result"]["report"]["accepted"] > 0

    def test_mixed_kinds_concurrently(self, service):
        name = service.workload.query_names[1]
        requests = [
            {"kind": "sample", "query": name, "count": 16, "seed": 9},
            {"kind": "aggregate", "query": name, "aggregate": "count",
             "rel_error": 0.3, "method": "olken", "seed": 9},
            {"kind": "health"},
            {"kind": "sample", "query": "union", "count": 12, "seed": 9},
        ]
        sequential = [service.handle(r) for r in requests]
        concurrent = run_concurrently(
            lambda i: service.handle(requests[i]), len(requests)
        )
        # health/stats counters differ run to run; compare the deterministic ones
        assert concurrent[0] == sequential[0]
        assert concurrent[1] == sequential[1]
        assert concurrent[3] == sequential[3]
        assert concurrent[2]["ok"] and sequential[2]["ok"]

    def test_union_sample_routes_through_pool(self, service):
        response = service.handle(
            {"kind": "sample", "query": "union", "count": 20, "seed": 5}
        )
        assert response["ok"]
        result = response["result"]
        assert not result["warm"]
        assert result["backend"] == "online-union"
        assert len(result["values"]) == 20
        assert set(result["sources"]) <= set(service.workload.query_names)


class TestAdmissionControl:
    def test_over_budget_sample_count_rejected(self):
        with make_service(limits=AdmissionLimits(max_samples=100),
                          warm_on_start=False) as svc:
            response = svc.handle(
                {"kind": "sample", "query": svc.workload.query_names[0],
                 "count": 101, "seed": 1}
            )
            assert not response["ok"]
            error = response["error"]
            assert error["code"] == "admission-rejected"
            assert error["limit"] == "max_samples"
            assert error["max_samples"] == 100
            assert error["requested_samples"] == 101

    def test_overpriced_request_rejected(self):
        with make_service(limits=AdmissionLimits(max_request_seconds=1e-12),
                          warm_on_start=False) as svc:
            response = svc.handle(
                {"kind": "aggregate", "query": svc.workload.query_names[0],
                 "aggregate": "count", "rel_error": 0.01, "seed": 1}
            )
            assert not response["ok"]
            assert response["error"]["code"] == "admission-rejected"
            assert response["error"]["limit"] == "max_request_seconds"
            assert response["error"]["priced_seconds"] > 0

    def test_inflight_cap_rejects_instead_of_queueing(self):
        with make_service(limits=AdmissionLimits(max_inflight=1),
                          sample_chunk=4) as svc:
            name = svc.workload.query_names[0]
            entered = threading.Event()
            release = threading.Event()

            def hold(service, query):
                entered.set()
                assert release.wait(timeout=30)
                service._after_chunk = None  # hold only the first chunk

            svc._after_chunk = hold
            slow = {}
            thread = threading.Thread(
                target=lambda: slow.setdefault(
                    "response",
                    svc.handle({"kind": "sample", "query": name,
                                "count": 16, "seed": 2}),
                )
            )
            thread.start()
            assert entered.wait(timeout=30)
            rejected = svc.handle(
                {"kind": "sample", "query": name, "count": 8, "seed": 3}
            )
            release.set()
            thread.join(timeout=60)
            assert not rejected["ok"]
            assert rejected["error"]["code"] == "admission-rejected"
            assert rejected["error"]["limit"] == "max_inflight"
            assert slow["response"]["ok"]

    def test_admission_bookkeeping(self):
        with make_service(limits=AdmissionLimits(max_samples=50),
                          warm_on_start=False) as svc:
            name = svc.workload.query_names[0]
            svc.handle({"kind": "sample", "query": name, "count": 10, "seed": 1})
            svc.handle({"kind": "sample", "query": name, "count": 51, "seed": 1})
            stats = svc.handle({"kind": "stats"})["result"]
            assert stats["admission"]["admitted"] >= 1
            assert stats["admission"]["rejected"] >= 1
            assert stats["admission"]["inflight"] == 0


class TestAdmissionPricing:
    def test_warm_price_runs_each_ratio_pass_once_per_query(self, monkeypatch):
        import repro.analysis.cost as cost
        from repro.server import admission

        queries = [make_chain("a"), make_chain("b")]
        # The warm price is the full price minus the setup-only price, per
        # query, minimized over backends — pinned bit for bit.
        expected = 0.0
        for query in queries:
            full = cost.estimate_backend_costs(query, 500)
            setup = cost.estimate_backend_costs(query, 0)
            expected += min(full[name] - setup[name] for name in full)
        calls = {"acceptance_ratio": 0, "walk_success_ratio": 0}
        for name in calls:
            def counted(query, _real=getattr(cost, name), _name=name):
                calls[_name] += 1
                return _real(query)

            monkeypatch.setattr(cost, name, counted)
            monkeypatch.setattr(admission, name, counted, raising=False)
        priced = AdmissionController().price(queries, 500, warm=True)
        assert calls == {"acceptance_ratio": 2, "walk_success_ratio": 2}
        assert priced == expected


class TestEpochConsistency:
    def test_mid_flight_mutation_discards_and_restarts(self):
        svc = make_service(sample_chunk=8)
        try:
            name = svc.workload.query_names[0]
            fired = []

            def mutate_once(service, query):
                if not fired:
                    fired.append(True)
                    service.handle({"kind": "mutate", "relation": "lineitem",
                                    "delete_positions": [0, 1]})

            svc._after_chunk = mutate_once
            request = {"kind": "sample", "query": name, "count": 32, "seed": 6}
            response = svc.handle(request)
            svc._after_chunk = None
            assert response["ok"], response
            assert fired, "the mutation hook never fired"
            assert response["result"]["epoch_restarts"] >= 1
            # Epoch consistency: the answer equals a clean draw against the
            # *post-mutation* snapshot — the pre-mutation chunks were discarded.
            clean = svc.handle(request)
            assert clean["result"]["values"] == response["result"]["values"]
            assert clean["result"]["epoch_restarts"] == 0
        finally:
            svc.close()

    def test_endless_mutation_exhausts_restarts(self):
        svc = make_service(sample_chunk=8, max_epoch_restarts=2)
        try:
            name = svc.workload.query_names[0]

            def always_mutate(service, query):
                service.handle({"kind": "mutate", "relation": "lineitem",
                                "delete_positions": [0]})

            svc._after_chunk = always_mutate
            response = svc.handle(
                {"kind": "sample", "query": name, "count": 32, "seed": 6}
            )
            assert not response["ok"]
            assert response["error"]["code"] == "epoch-restart-exhausted"
        finally:
            svc.close()

    def test_mutate_bumps_versions_and_requests_still_served(self):
        svc = make_service(warm_on_start=False)
        try:
            name = svc.workload.query_names[0]
            before = svc.handle({"kind": "sample", "query": name,
                                 "count": 16, "seed": 8})
            mutated = svc.handle({"kind": "mutate", "relation": "orders",
                                  "delete_positions": [0, 1, 2]})
            assert mutated["ok"]
            assert mutated["result"]["rows_deleted"] > 0
            after = svc.handle({"kind": "sample", "query": name,
                                "count": 16, "seed": 8})
            assert before["ok"] and after["ok"]
            # same seed, new snapshot: the answer is allowed to change, but
            # must again be deterministic on repeat
            again = svc.handle({"kind": "sample", "query": name,
                                "count": 16, "seed": 8})
            assert after == again
        finally:
            svc.close()


class TestDeadlines:
    def test_deadline_without_partial_fails_with_deadline_code(self, service):
        response = service.handle(
            {"kind": "sample", "query": service.workload.query_names[0],
             "count": 64, "seed": 4, "deadline": 0.0}
        )
        assert not response["ok"]
        assert response["error"]["code"] == "deadline-exceeded"

    def test_empty_partial_refused(self, service):
        response = service.handle(
            {"kind": "sample", "query": service.workload.query_names[0],
             "count": 64, "seed": 4, "deadline": 0.0, "allow_partial": True}
        )
        assert not response["ok"]
        assert response["error"]["code"] == "empty-result"

    def test_partial_with_data_is_degraded_not_error(self):
        svc = make_service(sample_chunk=4)
        try:
            name = svc.workload.query_names[0]
            deadline = 0.05

            def outlast_deadline(service, query):
                service._after_chunk = None
                time.sleep(deadline * 2)

            svc._after_chunk = outlast_deadline
            response = svc.handle(
                {"kind": "sample", "query": name, "count": 64, "seed": 4,
                 "deadline": deadline, "allow_partial": True}
            )
            assert response["ok"], response
            result = response["result"]
            assert result["degraded"]
            assert 0 < len(result["values"]) < 64
        finally:
            svc.close()

    def test_aggregate_deadline_mapping(self, service):
        base = {"kind": "aggregate", "query": service.workload.query_names[0],
                "aggregate": "count", "rel_error": 0.01, "seed": 4,
                "deadline": 0.0}
        hard = service.handle(base)
        assert not hard["ok"]
        assert hard["error"]["code"] == "deadline-exceeded"
        partial = service.handle({**base, "allow_partial": True})
        assert not partial["ok"]
        assert partial["error"]["code"] == "empty-result"


class TestProtocolErrors:
    def test_unknown_query(self, service):
        response = service.handle({"kind": "sample", "query": "nope", "count": 4})
        assert not response["ok"]
        assert response["error"]["code"] == "unknown-query"
        assert response["error"]["queries"] == service.workload.query_names

    @pytest.mark.parametrize("request_dict", [
        {"kind": "sample", "query": "UQ1_J1"},                      # no count
        {"kind": "sample", "query": "UQ1_J1", "count": 0},          # count < 1
        {"kind": "sample", "query": "UQ1_J1", "count": "ten"},      # not an int
        {"kind": "aggregate", "query": "UQ1_J1", "aggregate": "sum"},  # no attr
        {"kind": "aggregate", "query": "UQ1_J1", "aggregate": "max"},  # bad agg
        {"kind": "aggregate", "query": "union", "aggregate": "count",
         "method": "olken"},                                         # union+olken
        {"kind": "mutate", "relation": "orders"},                    # no positions
        {"kind": "mutate", "relation": "orders", "delete_positions": [-1]},
        {"kind": "nonsense"},
        "not a mapping",
    ])
    def test_invalid_requests(self, service, request_dict):
        response = service.handle(request_dict)
        assert not response["ok"]
        assert response["error"]["code"] == "invalid-request"

    def test_every_error_code_has_a_status(self):
        for code, status in ERROR_CODES.items():
            assert 400 <= status <= 599, (code, status)


class TestHTTPTransport:
    @pytest.fixture(scope="class")
    def server(self):
        svc = make_service()
        server, thread = start_server(svc, port=0)
        yield server
        server.shutdown()
        svc.close()

    def test_roundtrip_matches_in_process(self, server):
        client = ServerClient(port=server.port)
        request = {"kind": "sample", "query": "UQ1_J2", "count": 18, "seed": 12}
        over_http = client.call(request)
        in_process = server.service.handle(request)["result"]
        assert over_http == in_process

    def test_health_and_stats_get_endpoints(self, server):
        client = ServerClient(port=server.port)
        assert client.health()["status"] == "ok"
        stats = client.stats()
        assert stats["counters"]["requests"] >= 1

    def test_structured_error_over_http(self, server):
        client = ServerClient(port=server.port)
        with pytest.raises(ServerError) as excinfo:
            client.sample("nope", 4)
        assert excinfo.value.code == "unknown-query"
        assert excinfo.value.details["queries"]

    def test_concurrent_http_clients_bit_identical(self, server):
        client = ServerClient(port=server.port)
        requests = [
            {"kind": "sample", "query": "UQ1_J3", "count": 10 + i, "seed": 70 + i}
            for i in range(6)
        ]
        sequential = [client.call(r) for r in requests]
        concurrent = run_concurrently(
            lambda i: ServerClient(port=server.port).call(requests[i]),
            len(requests),
        )
        assert concurrent == sequential

    def test_bad_paths_and_bodies(self, server):
        import http.client
        import json as jsonlib

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("POST", "/api", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = jsonlib.loads(response.read())
            assert response.status == 400
            assert payload["error"]["code"] == "invalid-request"
        finally:
            conn.close()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("GET", "/nope")
            response = conn.getresponse()
            assert response.status == 404
            response.read()
        finally:
            conn.close()


class TestSharedSamplerConcurrency:
    """Regression: concurrent callers on one sampler/aggregator (satellite 2)."""

    def test_concurrent_sample_batches_on_one_sampler(self):
        sampler = JoinSampler(make_chain(), seed=11)
        per_thread = 120
        batches = run_concurrently(
            lambda i: sampler.sample_batch(per_thread), 4
        )
        assert all(len(batch) == per_thread for batch in batches)
        valid = {(a, 10 * (a % 4) + j) for a in range(24) for j in range(3)}
        for batch in batches:
            for draw in batch:
                assert tuple(draw.value) in valid
        assert sampler.stats.accepted >= 4 * per_thread

    def test_two_interleaved_until_runs(self):
        aggregator = OnlineAggregator(
            make_chain(), AggregateSpec("sum", attribute="c"),
            method="exact-weight", seed=21,
        )
        reports = run_concurrently(
            lambda i: aggregator.until(0.05, max_attempts=100_000), 2
        )
        for report in reports:
            assert report.accepted > 0
            assert report.overall.estimate > 0
            assert report.overall.ci_low <= report.overall.estimate <= report.overall.ci_high
        # both runs observed the same shared accumulator: the later report
        # can only be equal or tighter, never inconsistent
        assert {r.spec.describe() for r in reports} == {"SUM(c)"}

    def test_interleaved_steps_keep_accounting_consistent(self):
        aggregator = OnlineAggregator(
            make_chain(), AggregateSpec("count"),
            method="exact-weight", seed=33,
        )
        run_concurrently(lambda i: [aggregator.step(32) for _ in range(5)], 4)
        report = aggregator.estimate()
        # step() also ingests buffered surplus draws, so accepted is "at
        # least the sum of the batches", not exactly — the invariants are
        # that no draw is lost or double-counted and the estimate is exact
        # (COUNT under exact weights: every sample contributes |J| exactly).
        assert report.accepted >= 4 * 5 * 32
        assert report.attempts >= report.accepted
        assert report.overall.estimate == pytest.approx(72.0)


class TestServiceLifecycle:
    def test_context_manager_closes_pool(self):
        with make_service(warm_on_start=False) as svc:
            assert not svc.pool.closed
        assert svc.pool.closed

    def test_closed_service_refuses_requests(self):
        svc = make_service(warm_on_start=False)
        svc.close()
        response = svc.handle({"kind": "health"})
        assert not response["ok"]
        assert response["error"]["code"] == "internal"

    def test_warm_on_start_builds_prototypes(self, service):
        assert service.warm_prototypes >= len(service.workload.queries)


class TestAdmissionLeakRegression:
    """Satellite bugfix: failed requests must drain their reservations.

    The pre-fix controller acquired the inflight slot and priced seconds on
    admission but only gave them back on the success path — every failing
    aggregate leaked one slot until the server wedged at ``max_inflight``.
    The ticket is now released in a ``finally``; these hammers pin that.
    """

    def failing_aggregate(self, svc, seed):
        # max_attempts=1 cannot reach a 1% error target, but its budget
        # passes admission fine: the aggregator raises RuntimeError *after*
        # admission, which is exactly the leak's trigger path.
        return svc.handle({
            "kind": "aggregate", "query": svc.workload.query_names[0],
            "aggregate": "sum", "attribute": "totalprice",
            "rel_error": 0.01, "seed": seed,
            "method": "exact-weight", "max_attempts": 1,
        })

    def admission_stats(self, svc):
        return svc.handle({"kind": "stats"})["result"]["admission"]

    def test_sequential_failure_hammer_drains_reservations(self):
        with make_service(warm_on_start=False,
                          limits=AdmissionLimits(max_inflight=2)) as svc:
            # More failures than inflight slots: with the leak, request 3
            # would already bounce on max_inflight instead of failing with
            # the real error.
            for seed in range(6):
                response = self.failing_aggregate(svc, seed)
                assert not response["ok"]
                assert response["error"]["code"] == "internal"
            stats = self.admission_stats(svc)
            assert stats["inflight"] == 0
            assert stats["reserved_seconds"] == 0.0
            # A well-formed request still gets through afterwards.
            ok = svc.handle({
                "kind": "sample", "query": svc.workload.query_names[0],
                "count": 4, "seed": 1,
            })
            assert ok["ok"]

    def test_concurrent_failure_hammer_drains_reservations(self):
        with make_service(warm_on_start=False) as svc:
            responses = run_concurrently(
                lambda i: self.failing_aggregate(svc, i), 8
            )
            # Every request must resolve to a real error (internal) or an
            # honest admission rejection — and either way, drain fully.
            assert all(not r["ok"] for r in responses)
            assert all(r["error"]["code"] in ("internal", "admission-rejected")
                       for r in responses)
            stats = self.admission_stats(svc)
            assert stats["inflight"] == 0
            assert stats["reserved_seconds"] == 0.0

    def test_failed_sample_releases_slot(self):
        # The sample path shares the ticket discipline: an unknown weights
        # string never admits, but a deadline failure happens post-admission.
        with make_service(warm_on_start=False) as svc:
            response = svc.handle({
                "kind": "sample", "query": svc.workload.query_names[0],
                "count": 10_000, "seed": 1, "deadline": 0.0,
            })
            assert not response["ok"]
            assert response["error"]["code"] in ("deadline-exceeded", "empty-result")
            stats = self.admission_stats(svc)
            assert stats["inflight"] == 0
            assert stats["reserved_seconds"] == 0.0


class TestPrototypeSingleBuild:
    """Satellite bugfix: concurrent warm lookups build each prototype once.

    The pre-fix lazy path checked the dict and then built outside any lock,
    so N requests racing on a cold key paid N O(rows) builds and the last
    writer won.  Builds now run under a per-key lock with a double-checked
    lookup; the ``prototype_builds`` counter pins the "exactly once".
    """

    def test_barrier_of_warm_aggregates_builds_once(self):
        with make_service(warm_on_start=False) as svc:
            name = svc.workload.query_names[0]
            responses = run_concurrently(
                lambda i: svc.handle({
                    "kind": "aggregate", "query": name, "aggregate": "count",
                    "rel_error": 0.2, "seed": 7, "method": "exact-weight",
                }),
                8,
            )
            assert all(r["ok"] for r in responses)
            first = responses[0]
            assert all(r == first for r in responses), \
                "racing builders must not fork the warm state"
            counters = svc.handle({"kind": "stats"})["result"]["counters"]
            assert counters["prototype_builds"] == 1

    def test_distinct_keys_build_independently(self):
        with make_service(warm_on_start=False) as svc:
            names = svc.workload.query_names[:2]
            run_concurrently(
                lambda i: svc.handle({
                    "kind": "aggregate", "query": names[i % 2],
                    "aggregate": "count", "rel_error": 0.2, "seed": 7,
                    "method": "exact-weight",
                }),
                6,
            )
            counters = svc.handle({"kind": "stats"})["result"]["counters"]
            assert counters["prototype_builds"] == 2


class TestServerCacheTier:
    """The cache tier behind the aggregate handler (see docs/cache.md)."""

    AGG = {"kind": "aggregate", "aggregate": "sum", "attribute": "totalprice",
           "method": "exact-weight", "seed": 21}

    def request(self, svc, **overrides):
        request = dict(self.AGG, query=svc.workload.query_names[0])
        request.update(overrides)
        return svc.handle(request)

    def test_followup_is_served_from_cache_and_priced_near_zero(self):
        with make_service(cache=SampleCache()) as svc:
            cold = self.request(svc, rel_error=0.05)
            assert cold["ok"]
            assert cold["result"]["cache"]["cached_samples"] == 0
            assert cold["result"]["cache"]["fresh_samples"] > 0
            # Looser target than the primer: the whole budget is cached, so
            # the request prices at the warm floor — zero.
            warm = self.request(svc, rel_error=0.2, aggregate="avg", seed=22)
            assert warm["ok"]
            assert warm["result"]["cache"]["cached_samples"] > 0
            assert warm["result"]["cache"]["fresh_samples"] == 0
            assert warm["result"]["priced_seconds"] == 0.0
            assert warm["result"]["priced_seconds"] < cold["result"]["priced_seconds"]

    def test_cache_false_is_bit_identical_to_a_cacheless_server(self):
        with make_service(cache=SampleCache()) as caching, make_service() as plain:
            self.request(caching, rel_error=0.1)  # populate the cache
            opted_out = self.request(caching, rel_error=0.1, cache=False)
            reference = self.request(plain, rel_error=0.1)
            assert opted_out == reference
            assert "cache" not in opted_out["result"]

    def test_cache_request_on_cacheless_server_is_rejected(self):
        with make_service(warm_on_start=False) as svc:
            response = self.request(svc, rel_error=0.1, cache=True)
            assert not response["ok"]
            assert response["error"]["code"] == "invalid-request"
            assert "--cache" in response["error"]["message"]

    def test_mutation_invalidates_and_the_followup_redraws(self):
        with make_service(cache=SampleCache()) as svc:
            self.request(svc, rel_error=0.1)
            mutated = svc.handle({
                "kind": "mutate", "relation": "orders",
                "delete_positions": [0],
            })
            assert mutated["ok"]
            counters = svc.handle({"kind": "stats"})["result"]["counters"]
            assert counters["cache_invalidations"] >= 1
            redraw = self.request(svc, rel_error=0.1, seed=23)
            assert redraw["ok"]
            assert redraw["result"]["cache"]["cached_samples"] == 0
            assert redraw["result"]["cache"]["fresh_samples"] > 0

    def test_stats_expose_the_cache_section(self):
        with make_service(cache=SampleCache(), warm_on_start=False) as svc:
            self.request(svc, rel_error=0.1)
            stats = svc.handle({"kind": "stats"})["result"]
            cache_stats = stats["cache"]
            assert cache_stats["enabled"]
            assert cache_stats["entries"] == 1
            assert cache_stats["samples"] > 0
            assert cache_stats["bytes"] > 0
        with make_service(warm_on_start=False) as svc:
            assert svc.handle({"kind": "stats"})["result"]["cache"] == {
                "enabled": False
            }
