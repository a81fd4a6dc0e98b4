"""Tests for the overload layer and transport chaos.

Three layers, mirroring the modules:

* deterministic unit tests — every admission-gate/health/breaker/watchdog
  transition pinned with a manually-advanced clock, no sleeps, no wall time;
* service integration — the gate/breaker/watchdog wired through
  :meth:`SamplingService.handle`, still on an injected clock;
* transport — the slow-loris regression, the ``Retry-After`` header
  contract, client retries, :class:`ChaosClient` strikes, and the chaos
  soak that must drain to exactly zero inflight work.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import sys
import threading
import time

import pytest

from repro.cache import SampleCache
from repro.resilience import FaultAction, FaultPlan, HTTP_FAULT_KINDS
from repro.server import (
    ChaosClient,
    SamplingService,
    ServerClient,
    ServerError,
    start_server,
)
from repro.server.admission import AdmissionController, AdmissionLimits
from repro.server.overload import (
    DEGRADED,
    HEALTHY,
    OVERLOADED,
    BreakerRegistry,
    HealthMonitor,
    OverloadConfig,
    Watchdog,
    retry_after_hint,
)
from repro.server.protocol import ERROR_CODES, RETRYABLE_CODES, RequestError


class ManualClock:
    """A monotonic clock the test advances by hand."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def tight_config(**overrides) -> OverloadConfig:
    """Small round numbers so every threshold is arithmetic, not tuning."""
    options = dict(
        capacity_seconds=10.0, backlog_seconds=5.0, max_queue_wait=0.0,
        drain_rate=1.0, degraded_utilisation=0.5, overloaded_utilisation=0.9,
        degraded_miss_rate=0.1, overloaded_miss_rate=0.5,
        p99_budget_seconds=2.0, ewma_alpha=0.2, recovery_dwell_seconds=1.0,
        shed_ceiling_fraction=0.5, breaker_threshold=3,
        breaker_open_seconds=5.0, breaker_max_open_seconds=12.0,
        watchdog_grace_seconds=2.0, watchdog_default_budget=10.0,
    )
    options.update(overrides)
    return OverloadConfig(**options)


class FlatPricedGate(AdmissionController):
    """The admission gate with price = sample count, so every threshold in
    a unit test is arithmetic; ``admit((), 3.0)`` reserves 3.0 seconds."""

    def price(self, queries, sample_size, **_):
        return float(sample_size)


def make_service(**overrides) -> SamplingService:
    options = dict(workload_name="UQ1", scale_factor=0.0005, seed=3)
    options.update(overrides)
    return SamplingService(**options)


# --------------------------------------------------------------------- units
class TestRetryAfterHint:
    def test_is_drain_time_rounded_up(self):
        assert retry_after_hint(10.0, 2.0) == 5
        assert retry_after_hint(10.1, 2.0) == 6

    def test_never_below_one_second(self):
        assert retry_after_hint(0.001, 1.0) == 1
        assert retry_after_hint(0.0, 1.0) == 1
        assert retry_after_hint(5.0, 0.0) == 1


class TestOverloadConfigValidation:
    @pytest.mark.parametrize("bad", [
        {"capacity_seconds": 0.0},
        {"backlog_seconds": -1.0},
        {"degraded_utilisation": 0.95},  # above overloaded_utilisation
        {"degraded_miss_rate": 0.8},     # above overloaded_miss_rate
        {"ewma_alpha": 0.0},
        {"shed_ceiling_fraction": 1.5},
        {"breaker_threshold": 0},
        {"breaker_open_seconds": 120.0},  # above breaker_max_open_seconds
        {"watchdog_default_budget": 0.0},
    ])
    def test_rejects_nonsense(self, bad):
        with pytest.raises(ValueError):
            OverloadConfig(**bad)


class TestHealthMonitor:
    def test_escalates_immediately_on_utilisation(self):
        clock = ManualClock()
        monitor = HealthMonitor(tight_config(), clock)
        assert monitor.assess(0.0) == HEALTHY
        assert monitor.assess(0.6) == DEGRADED
        assert monitor.assess(0.95) == OVERLOADED

    def test_recovery_requires_the_dwell(self):
        clock = ManualClock()
        monitor = HealthMonitor(tight_config(), clock)
        assert monitor.assess(0.95) == OVERLOADED
        # Signals clear instantly, the state must not: hysteresis.
        assert monitor.assess(0.0) == OVERLOADED
        clock.advance(0.9)
        assert monitor.assess(0.0) == OVERLOADED
        clock.advance(0.2)  # past recovery_dwell_seconds=1.0
        assert monitor.assess(0.0) == HEALTHY

    def test_p99_envelope_jumps_then_decays_geometrically(self):
        clock = ManualClock()
        monitor = HealthMonitor(tight_config(), clock)
        monitor.record(5.0, deadline_missed=False)
        assert monitor.snapshot()["p99_ewma_seconds"] == 5.0
        # One spike is not forgotten instantly: 5.0 >= 2 * budget while it
        # decays by (1 - alpha) per subsequent fast request.
        assert monitor.assess(0.0) == OVERLOADED
        monitor.record(0.0, deadline_missed=False)
        assert monitor.snapshot()["p99_ewma_seconds"] == pytest.approx(4.0)
        monitor.record(0.0, deadline_missed=False)
        assert monitor.snapshot()["p99_ewma_seconds"] == pytest.approx(3.2)

    def test_miss_rate_is_plain_ewma(self):
        clock = ManualClock()
        monitor = HealthMonitor(tight_config(), clock)
        monitor.record(0.0, deadline_missed=True)
        assert monitor.snapshot()["deadline_miss_rate"] == pytest.approx(0.2)
        assert monitor.assess(0.0) == DEGRADED  # 0.2 >= degraded_miss_rate
        for _ in range(4):
            monitor.record(0.0, deadline_missed=True)
        assert monitor.snapshot()["deadline_miss_rate"] >= 0.5
        assert monitor.assess(0.0) == OVERLOADED


class TestOverloadGate:
    """The admission gate's overload checks (``OverloadGate`` is its alias)."""

    def make_gate(self, config=None, clock=None):
        clock = clock or ManualClock()
        return FlatPricedGate(None, config or tight_config(), clock), clock

    def test_admit_and_release_account_exactly(self):
        gate, _ = self.make_gate()
        ticket = gate.admit((), 3.0)
        assert gate.snapshot()["reserved_seconds"] == 3.0
        assert gate.snapshot()["inflight"] == 1
        ticket.release()
        ticket.release()  # idempotent
        snapshot = gate.snapshot()
        assert snapshot["reserved_seconds"] == 0.0
        assert snapshot["inflight"] == 0
        assert snapshot["admitted"] == 1
        assert snapshot["rejected"] == 0

    def test_overloaded_sheds_all_priced_work_but_not_free_probes(self):
        gate, _ = self.make_gate()
        # The third admit (at 8/10 = degraded) exactly fits the shrunken
        # ceiling of 0.5 * 2.0; reserved then hits 9/10 = overloaded.
        held = [gate.admit((), 4.0), gate.admit((), 4.0), gate.admit((), 1.0)]
        with pytest.raises(RequestError) as excinfo:
            gate.admit((), 0.5)
        assert excinfo.value.code == "overloaded"
        assert excinfo.value.retry_after >= 1
        assert ERROR_CODES["overloaded"] == 503
        # The zero-priced probe (health never even enters the gate; this is
        # the degenerate priced-at-zero request) still passes.
        gate.admit((), 0.0).release()
        for ticket in held:
            ticket.release()

    def test_degraded_sheds_most_expensive_first(self):
        gate, _ = self.make_gate()
        held = gate.admit((), 3.0)
        held2 = gate.admit((), 3.0)
        # 6/10 reserved -> degraded; headroom 4, ceiling 0.5 * 4 = 2.
        with pytest.raises(RequestError) as excinfo:
            gate.admit((), 3.0)
        error = excinfo.value
        assert error.code == "admission-rejected"
        assert error.details["limit"] == "overload-shed"
        assert error.details["state"] == DEGRADED
        assert error.retry_after >= 1
        # A cheap request under the shrunken ceiling keeps flowing.
        cheap = gate.admit((), 1.0)
        cheap.release()
        held.release()
        held2.release()
        assert gate.snapshot()["rejected"] == 1

    def test_backlog_bound_sheds_with_retry_after(self):
        gate, _ = self.make_gate()
        # priced 6 > backlog_seconds=5 while healthy: shed as backlog-full.
        with pytest.raises(RequestError) as excinfo:
            gate.admit((), 6.0)
        assert excinfo.value.details["limit"] == "backlog"
        assert excinfo.value.retry_after == retry_after_hint(6.0, 1.0)

    def test_queue_wait_expiry_sheds_as_capacity(self):
        config = tight_config(backlog_seconds=8.0, degraded_utilisation=0.91,
                              overloaded_utilisation=0.95)
        gate, _ = self.make_gate(config)
        held = gate.admit((), 4.0)
        held2 = gate.admit((), 4.0)
        # 8 + 7 > capacity and max_queue_wait=0: the bounded wait expires
        # immediately and the request sheds with the capacity label.
        with pytest.raises(RequestError) as excinfo:
            gate.admit((), 7.0)
        assert excinfo.value.details["limit"] == "capacity"
        assert excinfo.value.retry_after >= 1
        held.release()
        held2.release()

    def test_backpressure_wait_admits_when_capacity_frees(self):
        config = tight_config(backlog_seconds=10.0, max_queue_wait=10.0,
                              degraded_utilisation=0.91,
                              overloaded_utilisation=0.95)
        clock = ManualClock()
        gate, _ = self.make_gate(config, clock)
        first = gate.admit((), 4.0)
        second = gate.admit((), 4.0)
        admitted = threading.Event()
        waiter_result = {}

        def waiter():
            ticket = gate.admit((), 4.0)  # 8 + 4 > 10: waits in the backlog
            waiter_result["ticket"] = ticket
            admitted.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        deadline = time.monotonic() + 5.0
        while gate.snapshot()["queued_seconds"] == 0.0:
            assert time.monotonic() < deadline, "waiter never queued"
            time.sleep(0.005)
        assert not admitted.is_set()
        first.release()  # notify_all wakes the waiter; 4 + 4 <= 10 now
        assert admitted.wait(timeout=5.0)
        thread.join(timeout=5.0)
        waiter_result["ticket"].release()
        second.release()
        snapshot = gate.snapshot()
        assert snapshot["reserved_seconds"] == 0.0
        assert snapshot["queued_seconds"] == 0.0
        assert snapshot["admitted"] == 3

    def test_disabled_gate_is_a_free_pass(self):
        clock = ManualClock()
        gate = FlatPricedGate(AdmissionLimits(max_inflight=1), None, clock)
        # With the overload layer off nothing is shed, however far beyond
        # tight_config's capacity and backlog the request is...
        ticket = gate.admit((), 25.0)
        assert gate.snapshot()["state"] == HEALTHY
        # ...but the inflight cap still holds.
        with pytest.raises(RequestError) as excinfo:
            gate.admit((), 1.0)
        assert excinfo.value.details["limit"] == "max_inflight"
        ticket.release()
        snapshot = gate.snapshot()
        assert snapshot["overload"] is False
        assert snapshot["capacity_seconds"] is None
        assert (snapshot["inflight"], snapshot["reserved_seconds"]) == (0, 0.0)


class TestAdmissionGateAccounting:
    """The merged gate's bookkeeping on the injected clock."""

    LIMITS = AdmissionLimits(max_request_seconds=8.0, max_samples=9,
                             max_inflight=3)

    def make_gate(self, **overrides):
        return FlatPricedGate(self.LIMITS, tight_config(**overrides),
                              ManualClock())

    def test_permanent_rejections_never_enter_the_backlog(self):
        gate = self.make_gate(max_queue_wait=10.0)
        held = [gate.admit((), 4.0), gate.admit((), 4.0), gate.admit((), 1.0)]
        assert gate.snapshot()["state"] == OVERLOADED
        assessed = []
        real_assess = gate.monitor.assess
        gate.monitor.assess = lambda u: assessed.append(u) or real_assess(u)
        # Over the sample budget, then over the price ceiling: both fail on
        # every retry, so they are refused before any transient check — no
        # health assessment, no backlog wait, no queued seconds, no hint.
        for size, limit in ((10.0, "max_samples"),
                            (8.5, "max_request_seconds")):
            with pytest.raises(RequestError) as excinfo:
                gate.admit((), size)
            assert excinfo.value.code == "admission-rejected"
            assert excinfo.value.details["limit"] == limit
            assert excinfo.value.retry_after is None
        assert assessed == []
        snapshot = gate.snapshot()
        assert snapshot["queued_seconds"] == 0.0
        assert snapshot["reserved_seconds"] == 9.0
        assert snapshot["rejected"] == 2
        for ticket in held:
            ticket.release()

    def test_transient_rejections_share_one_retry_after_source(self):
        drain = 0.5
        # Inflight cap: 3 slots held (reserved 4.5), a fourth priced 2.0.
        gate = self.make_gate(drain_rate=drain, capacity_seconds=100.0,
                              backlog_seconds=100.0)
        held = [gate.admit((), 1.5) for _ in range(3)]
        with pytest.raises(RequestError) as excinfo:
            gate.admit((), 2.0)
        assert excinfo.value.details["limit"] == "max_inflight"
        assert excinfo.value.retry_after == retry_after_hint(4.5 + 2.0, drain)
        for ticket in held:
            ticket.release()
        # Backlog: nothing reserved, priced 6.0 over a 5.0 backlog.
        gate = self.make_gate(drain_rate=drain)
        with pytest.raises(RequestError) as excinfo:
            gate.admit((), 6.0)
        assert excinfo.value.details["limit"] == "backlog"
        assert excinfo.value.retry_after == retry_after_hint(6.0, drain)
        # Capacity: 8.0 reserved, 7.0 queued for a wait that expires at once.
        gate = self.make_gate(drain_rate=drain, backlog_seconds=8.0,
                              degraded_utilisation=0.91,
                              overloaded_utilisation=0.95)
        held = [gate.admit((), 4.0), gate.admit((), 4.0)]
        with pytest.raises(RequestError) as excinfo:
            gate.admit((), 7.0)
        assert excinfo.value.details["limit"] == "capacity"
        assert excinfo.value.retry_after == retry_after_hint(8.0 + 7.0, drain)
        for ticket in held:
            ticket.release()

    @pytest.mark.parametrize("seed", range(5))
    def test_any_interleaving_drains_to_exactly_zero(self, seed):
        rng = random.Random(seed)
        gate = self.make_gate(capacity_seconds=3.0, backlog_seconds=2.0,
                              degraded_utilisation=0.6,
                              overloaded_utilisation=0.9)
        held = []
        for _ in range(300):
            if held and rng.random() < 0.45:
                ticket = held.pop(rng.randrange(len(held)))
                ticket.release()
                if rng.random() < 0.3:
                    ticket.release()  # double release is a no-op
            else:
                try:
                    held.append(gate.admit((), rng.choice(
                        (0.0, 0.1, 0.2, 0.7, 1.3, 2.9, 8.5, 10.0))))
                except RequestError:
                    pass
            snapshot = gate.snapshot()
            assert snapshot["inflight"] == len(held)
            assert snapshot["reserved_seconds"] >= 0.0
            assert snapshot["queued_seconds"] == 0.0
        for ticket in held:
            ticket.release()
        snapshot = gate.snapshot()
        assert snapshot["admitted"] > 0 and snapshot["rejected"] > 0
        assert snapshot["inflight"] == 0
        assert snapshot["reserved_seconds"] == 0.0

    def test_threaded_hammer_keeps_exact_accounting(self):
        # Real clock and a short queue wait, so waiters really block on the
        # condition; more threads than cores and a tiny switch interval make
        # a lost update in the shared ledger likely to show.
        gate = FlatPricedGate(self.LIMITS, tight_config(
            capacity_seconds=3.0, backlog_seconds=2.0, max_queue_wait=0.002,
            degraded_utilisation=0.9, overloaded_utilisation=0.95,
        ), time.monotonic)
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(200):
                    try:
                        ticket = gate.admit((), rng.choice((0.0, 0.1, 0.7, 1.3)))
                    except RequestError:
                        continue
                    ticket.release()
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        snapshot = gate.snapshot()
        assert snapshot["admitted"] + snapshot["rejected"] == 6 * 200
        assert snapshot["inflight"] == 0
        assert snapshot["reserved_seconds"] == 0.0
        assert snapshot["queued_seconds"] == 0.0


class TestBreakerRegistry:
    KEY = ("UQ1_J1", "ew")

    def make_registry(self):
        clock = ManualClock()
        return BreakerRegistry(tight_config(), clock), clock

    def trip(self, registry, times=3):
        for _ in range(times):
            registry.check(self.KEY)
            registry.record(self.KEY, "failure")

    def test_threshold_consecutive_failures_open_the_breaker(self):
        registry, _ = self.make_registry()
        self.trip(registry, times=2)
        registry.check(self.KEY)  # 2 < threshold: still closed
        registry.record(self.KEY, "failure")
        with pytest.raises(RequestError) as excinfo:
            registry.check(self.KEY)
        assert excinfo.value.code == "circuit-open"
        assert excinfo.value.retry_after == 5  # the remaining open window
        assert ERROR_CODES["circuit-open"] == 503
        assert registry.state_of(self.KEY) == "open"

    def test_success_resets_the_consecutive_count(self):
        registry, _ = self.make_registry()
        self.trip(registry, times=2)
        registry.record(self.KEY, "success")
        self.trip(registry, times=2)
        registry.check(self.KEY)  # never reached 3 consecutive

    def test_half_open_allows_exactly_one_probe(self):
        registry, clock = self.make_registry()
        self.trip(registry)
        clock.advance(5.1)
        registry.check(self.KEY)  # the probe slot
        assert registry.state_of(self.KEY) == "half-open"
        with pytest.raises(RequestError) as excinfo:
            registry.check(self.KEY)  # a second concurrent probe is refused
        assert excinfo.value.code == "circuit-open"
        registry.record(self.KEY, "success")
        assert registry.state_of(self.KEY) == "closed"
        registry.check(self.KEY)

    def test_failed_probe_reopens_with_doubled_capped_window(self):
        registry, clock = self.make_registry()
        self.trip(registry)
        clock.advance(5.1)
        registry.check(self.KEY)
        registry.record(self.KEY, "failure")
        assert registry.state_of(self.KEY) == "open"
        clock.advance(9.9)  # window doubled to 10s: still open
        with pytest.raises(RequestError):
            registry.check(self.KEY)
        clock.advance(0.2)
        registry.check(self.KEY)
        registry.record(self.KEY, "failure")
        clock.advance(11.9)  # doubled again but capped at 12s
        with pytest.raises(RequestError):
            registry.check(self.KEY)
        clock.advance(0.2)
        registry.check(self.KEY)
        registry.record(self.KEY, "success")
        assert registry.state_of(self.KEY) == "closed"

    def test_neutral_outcome_returns_the_probe_slot(self):
        registry, clock = self.make_registry()
        self.trip(registry)
        clock.advance(5.1)
        registry.check(self.KEY)
        # The probe was shed by the gate: it carries no signal, but the slot
        # must come back or the breaker wedges half-open forever.
        registry.record(self.KEY, "neutral")
        assert registry.state_of(self.KEY) == "half-open"
        registry.check(self.KEY)  # next probe can proceed
        registry.record(self.KEY, "success")
        assert registry.state_of(self.KEY) == "closed"

    def test_keys_are_independent(self):
        registry, _ = self.make_registry()
        self.trip(registry)
        registry.check(("UQ1_J2", "ew"))
        registry.check(("UQ1_J1", "olken"))
        snapshot = registry.snapshot()
        assert snapshot["keys"] == 1
        assert snapshot["open"] == 1

    def test_unknown_outcome_rejected(self):
        registry, _ = self.make_registry()
        with pytest.raises(ValueError):
            registry.record(self.KEY, "maybe")


class TestWatchdog:
    def test_flags_requests_past_budget_plus_grace(self):
        clock = ManualClock()
        watchdog = Watchdog(tight_config(), clock)
        ticket = watchdog.watch("sample", "UQ1_J1", deadline=3.0)
        clock.advance(4.9)  # 3.0 budget + 2.0 grace not yet exceeded
        assert watchdog.scan() == []
        clock.advance(0.2)
        stuck = watchdog.scan()
        assert len(stuck) == 1
        assert stuck[0]["label"] == "UQ1_J1"
        assert stuck[0]["age_seconds"] == pytest.approx(5.1)
        ticket.release()
        assert watchdog.scan() == []
        assert watchdog.snapshot()["max_stuck_seen"] == 1

    def test_default_budget_applies_without_deadline(self):
        clock = ManualClock()
        watchdog = Watchdog(tight_config(), clock)
        ticket = watchdog.watch("aggregate", "union")
        clock.advance(11.9)  # 10.0 default budget + 2.0 grace
        assert watchdog.scan() == []
        clock.advance(0.2)
        assert len(watchdog.scan()) == 1
        ticket.release()


# --------------------------------------------------------- service integration
class TestServiceOverloadIntegration:
    def test_shed_responses_carry_retry_after_and_count_as_sheds(self):
        config = tight_config(capacity_seconds=1e-6, backlog_seconds=0.0)
        with make_service(warm_on_start=False, overload=config) as svc:
            response = svc.handle({
                "kind": "sample", "query": svc.workload.query_names[0],
                "count": 64, "seed": 1,
            })
            assert not response["ok"]
            error = response["error"]
            assert error["code"] == "admission-rejected"
            assert error["limit"] == "backlog"
            assert error["retry_after"] >= 1
            stats = svc.handle({"kind": "stats"})["result"]
            assert stats["counters"]["shed_requests"] == 1
            assert stats["admission"]["rejected"] == 1
            assert stats["admission"]["inflight"] == 0

    def test_health_always_served_and_reflects_overload(self):
        clock = ManualClock()
        # Keep the breaker out of the frame: this test is about the health
        # machine, and 4 consecutive misses on one key would trip it first.
        config = tight_config(breaker_threshold=10)
        with make_service(warm_on_start=False, overload=config,
                          clock=clock) as svc:
            assert svc.handle({"kind": "health"})["result"]["status"] == "ok"
            name = svc.workload.query_names[0]
            # Deadline misses drive the EWMA: 1 - 0.8^4 = 0.59 >= 0.5.
            for seed in range(4):
                missed = svc.handle({"kind": "sample", "query": name,
                                     "count": 64, "seed": seed,
                                     "deadline": 0.0})
                assert missed["error"]["code"] == "deadline-exceeded"
            health = svc.handle({"kind": "health"})["result"]
            assert health["status"] == OVERLOADED
            assert health["state"] == OVERLOADED
            # Priced work is shed outright while overloaded...
            shed = svc.handle({"kind": "sample", "query": name,
                               "count": 8, "seed": 9})
            assert shed["error"]["code"] == "overloaded"
            assert shed["error"]["retry_after"] >= 1
            # ...and recovery needs clean signals plus the dwell.
            monitor = svc.admission.monitor
            for _ in range(12):
                monitor.record(0.0, deadline_missed=False)
            clock.advance(2.0)
            assert svc.handle({"kind": "health"})["result"]["status"] == "ok"
            served = svc.handle({"kind": "sample", "query": name,
                                 "count": 8, "seed": 9})
            assert served["ok"], served

    def test_breaker_opens_on_consecutive_failures_and_probes_closed(self):
        clock = ManualClock()
        config = tight_config(
            breaker_threshold=2,
            # Miss-driven health transitions are exercised above; here they
            # would only add gate sheds on top, so park them out of reach.
            degraded_miss_rate=0.98, overloaded_miss_rate=0.99,
        )
        with make_service(warm_on_start=False, overload=config,
                          clock=clock) as svc:
            name = svc.workload.query_names[0]
            request = {"kind": "sample", "query": name, "count": 64, "seed": 1}
            for _ in range(2):
                missed = svc.handle({**request, "deadline": 0.0})
                assert missed["error"]["code"] == "deadline-exceeded"
            tripped = svc.handle(request)
            assert tripped["error"]["code"] == "circuit-open"
            assert tripped["error"]["retry_after"] >= 1
            # Only (query, weights) = (name, ew) is open.
            other = svc.handle({"kind": "sample",
                                "query": svc.workload.query_names[1],
                                "count": 4, "seed": 1})
            assert other["ok"], other
            clock.advance(5.1)  # open window elapses: one probe allowed
            probe = svc.handle(request)
            assert probe["ok"], probe
            assert svc._breakers.state_of((name, "ew")) == "closed"
            stats = svc.handle({"kind": "stats"})["result"]
            assert stats["breakers"]["rejections"] >= 1
            assert stats["admission"]["inflight"] == 0
            assert stats["admission"]["reserved_seconds"] == 0.0

    def test_watchdog_surfaces_stuck_requests_in_health(self):
        clock = ManualClock()
        with make_service(warm_on_start=False, overload=tight_config(),
                          clock=clock) as svc:
            ticket = svc._watchdog.watch("sample", "UQ1_J1", deadline=1.0)
            clock.advance(3.5)
            health = svc.handle({"kind": "health"})["result"]
            assert health["status"] == "degraded"
            assert health["stuck_requests"] == 1
            stats = svc.handle({"kind": "stats"})["result"]["watchdog"]
            assert stats["stuck"] == 1
            assert stats["stuck_requests"][0]["label"] == "UQ1_J1"
            ticket.release()
            assert svc.handle({"kind": "health"})["result"]["status"] == "ok"

    def test_disabled_overload_is_bit_identical_to_enabled(self):
        request = {"kind": "sample", "query": "UQ1_J1", "count": 24, "seed": 7}
        with make_service(warm_on_start=False, overload=False) as plain:
            with make_service(warm_on_start=False, overload=True) as guarded:
                assert plain.handle(request) == guarded.handle(request)
                stats = plain.handle({"kind": "stats"})["result"]
                assert stats["admission"]["overload"] is False
                assert stats["admission"]["state"] == HEALTHY
                assert not stats["breakers"]["enabled"]


# ----------------------------------------------------------------- transport
class TestRetryAfterOverHTTP:
    @pytest.fixture(scope="class")
    def shedding_server(self):
        svc = make_service(
            warm_on_start=False,
            overload=tight_config(capacity_seconds=1e-6, backlog_seconds=0.0),
        )
        server, _ = start_server(svc, port=0)
        yield server
        server.shutdown()
        svc.close()

    def test_retry_after_header_mirrors_the_payload(self, shedding_server):
        conn = http.client.HTTPConnection(
            "127.0.0.1", shedding_server.port, timeout=30
        )
        try:
            conn.request(
                "POST", "/api",
                body=json.dumps({"kind": "sample", "query": "UQ1_J1",
                                 "count": 64, "seed": 1}).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 429
            header = response.getheader("Retry-After")
            assert header is not None and int(header) >= 1
            assert int(header) == int(payload["error"]["retry_after"])
        finally:
            conn.close()

    def test_client_error_object_exposes_the_hint(self, shedding_server):
        client = ServerClient(port=shedding_server.port)
        with pytest.raises(ServerError) as excinfo:
            client.sample("UQ1_J1", 64, seed=1)
        assert excinfo.value.code == "admission-rejected"
        assert excinfo.value.retry_after >= 1
        assert excinfo.value.retryable
        # Permanent refusals must NOT look retryable.
        with pytest.raises(ServerError) as excinfo:
            client.sample("nope", 4)
        assert excinfo.value.code == "unknown-query"
        assert excinfo.value.retry_after is None
        assert not excinfo.value.retryable

    def test_health_is_served_even_by_a_shedding_server(self, shedding_server):
        assert ServerClient(port=shedding_server.port).health()["workload"]


class TestSlowLorisRegression:
    def test_stalled_connection_is_cut_and_serving_continues(self):
        svc = make_service(warm_on_start=False)
        server, _ = start_server(svc, port=0, connection_timeout=0.75)
        try:
            sock = socket.create_connection(("127.0.0.1", server.port),
                                            timeout=30)
            try:
                # A slow-loris opener: headers started, then silence.
                sock.sendall(b"POST /api HTTP/1.1\r\nHost: loris\r\n")
                sock.settimeout(10.0)
                started = time.monotonic()
                # The per-connection timeout must cut us off (EOF), long
                # before our own 10s read timeout.
                assert sock.recv(1024) == b""
                assert time.monotonic() - started < 8.0
            finally:
                sock.close()
            # The handler thread was released, not pinned: service goes on.
            assert ServerClient(port=server.port).health()["workload"]
        finally:
            server.shutdown()
            svc.close()

    def test_many_concurrent_loris_connections_cannot_starve_the_server(self):
        svc = make_service(warm_on_start=False)
        server, _ = start_server(svc, port=0, connection_timeout=0.75)
        try:
            socks = []
            for _ in range(8):
                sock = socket.create_connection(("127.0.0.1", server.port),
                                                timeout=30)
                sock.sendall(b"POST /api HTTP/1.1\r\n")
                socks.append(sock)
            try:
                # With 8 stalled peers holding connections, a real client
                # still gets served within the connection timeout budget.
                assert ServerClient(port=server.port).health()["workload"]
            finally:
                for sock in socks:
                    sock.close()
        finally:
            server.shutdown()
            svc.close()


class TestClientRetries:
    class ScriptedClient(ServerClient):
        """ServerClient whose transport is a scripted list of outcomes."""

        def __init__(self, script, **kwargs):
            super().__init__(port=1, **kwargs)
            self.script = list(script)

        def request(self, payload):
            outcome = self.script.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

    @staticmethod
    def rejection(code, retry_after=None):
        error = {"code": code, "message": "scripted"}
        if retry_after is not None:
            error["retry_after"] = retry_after
        return {"ok": False, "error": error}

    @pytest.fixture
    def sleeps(self, monkeypatch):
        recorded = []
        monkeypatch.setattr("repro.server.http.time.sleep", recorded.append)
        return recorded

    def test_retryable_rejections_are_retried_until_success(self, sleeps):
        client = self.ScriptedClient(
            [self.rejection("overloaded", retry_after=1),
             self.rejection("admission-rejected", retry_after=1),
             {"ok": True, "result": {"fine": True}}],
            retries=3,
        )
        assert client.call({"kind": "sample", "seed": 4}) == {"fine": True}
        assert client.retries_performed == 2
        assert len(sleeps) == 2

    def test_retry_budget_is_bounded(self, sleeps):
        client = self.ScriptedClient(
            [self.rejection("overloaded", retry_after=1)] * 3, retries=2
        )
        with pytest.raises(ServerError) as excinfo:
            client.call({"kind": "sample", "seed": 4})
        assert excinfo.value.code == "overloaded"
        assert len(sleeps) == 2

    def test_non_retryable_errors_fail_fast(self, sleeps):
        client = self.ScriptedClient(
            [self.rejection("invalid-request")], retries=5
        )
        with pytest.raises(ServerError):
            client.call({"kind": "sample", "seed": 4})
        assert sleeps == []
        assert client.retries_performed == 0

    def test_transport_failures_are_retried(self, sleeps):
        client = self.ScriptedClient(
            [ConnectionResetError("boom"), TimeoutError("slow"),
             {"ok": True, "result": {"fine": True}}],
            retries=2,
        )
        assert client.call({"kind": "sample", "seed": 4}) == {"fine": True}
        assert client.retries_performed == 2

    def test_backoff_is_deterministic_and_honors_retry_after(self, sleeps):
        script = [self.rejection("overloaded", retry_after=3),
                  self.rejection("overloaded"),
                  {"ok": True, "result": {}}]
        first = self.ScriptedClient(list(script), retries=2, retry_seed=9)
        first.call({"kind": "sample", "seed": 4})
        first_sleeps = list(sleeps)
        sleeps.clear()
        second = self.ScriptedClient(list(script), retries=2, retry_seed=9)
        second.call({"kind": "sample", "seed": 4})
        # keyed_rng jitter: same (client seed, request seed, attempt) ->
        # the exact same backoff schedule, run to run.
        assert sleeps == first_sleeps
        # The server hint raises the backoff floor (base is 0.05s).
        assert first_sleeps[0] >= 3.0
        sleeps.clear()
        third = self.ScriptedClient(list(script), retries=2, retry_seed=10)
        third.call({"kind": "sample", "seed": 4})
        assert sleeps != first_sleeps

    def test_oversized_hints_are_capped(self, sleeps):
        client = self.ScriptedClient(
            [self.rejection("overloaded", retry_after=3600),
             {"ok": True, "result": {}}],
            retries=1, max_retry_after=2.0,
        )
        client.call({"kind": "sample", "seed": 4})
        assert sleeps[0] <= 2.0 + 0.1  # capped hint plus small backoff slack

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            ServerClient(retries=-1)


class TestTransportChaos:
    @pytest.fixture(scope="class")
    def server(self):
        svc = make_service(warm_on_start=False)
        server, _ = start_server(svc, port=0, connection_timeout=0.75)
        yield server
        server.shutdown()
        svc.close()

    def chaos(self, server, scripted, **kwargs):
        plan = FaultPlan(scripted={
            (index, 0): FaultAction(kind) for index, kind in scripted.items()
        })
        return ChaosClient("127.0.0.1", server.port, plan, **kwargs)

    def test_schedule_is_deterministic_and_http_only(self, server):
        plan = FaultPlan(seed=5, rate=1.0, kinds=HTTP_FAULT_KINDS + ("raise",))
        chaos = ChaosClient("127.0.0.1", server.port, plan)
        schedule = [chaos.action_for(i) for i in range(32)]
        again = [chaos.action_for(i) for i in range(32)]
        assert schedule == again
        kinds = {action.kind for action in schedule if action is not None}
        assert kinds and kinds <= set(HTTP_FAULT_KINDS)
        # Worker-level kinds are not transport strikes: a mixed plan can
        # drive both layers from one seed without double-firing.
        worker_only = ChaosClient(
            "127.0.0.1", server.port,
            FaultPlan(seed=5, rate=1.0, kinds=("raise",)),
        )
        assert worker_only.strike(0) is None

    def test_garbage_flood_answers_400_and_serving_continues(self, server):
        chaos = self.chaos(server, {i: "garbage" for i in range(4)})
        for i in range(4):
            assert chaos.strike(i)["status"] == 400
        assert chaos.strikes["garbage"] == 4
        assert ServerClient(port=server.port).health()["workload"]

    def test_oversized_body_refused_unread(self, server):
        chaos = self.chaos(server, {0: "oversize"})
        outcome = chaos.strike(0)
        assert outcome["status"] == 400
        assert ServerClient(port=server.port).health()["workload"]

    def test_connection_reset_mid_response_survived(self, server):
        chaos = self.chaos(server, {i: "reset" for i in range(3)})
        for i in range(3):
            chaos.strike(i)
        # The RSTs may or may not land before the tiny response is flushed;
        # the invariant is the server survives them all, uncorrupted.
        client = ServerClient(port=server.port)
        assert client.health()["workload"]
        assert client.stats()["counters"]["transport_errors"] >= 0

    def test_slow_write_client_is_cut_by_the_watchdog_timeout(self, server):
        chaos = self.chaos(server, {0: "slow-write"}, slow_write_seconds=3.0)
        outcome = chaos.strike(0)
        # 3s of dripping against a 0.75s connection timeout: the server must
        # cut the connection rather than wait out the body.
        assert outcome["connection_cut"]
        assert ServerClient(port=server.port).health()["workload"]


# ----------------------------------------------------------------------- soak
class TestChaosSoak:
    """Satellite (d): concurrency + worker faults + transport chaos, then
    the server must drain to *exactly* zero inflight work with every served
    answer still a pure function of (request, snapshot)."""

    def test_soak_drains_to_zero_and_stays_pure(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.1")
        monkeypatch.setenv("REPRO_FAULT_SEED", "7")
        svc = make_service(cache=SampleCache())
        server, _ = start_server(svc, port=0, connection_timeout=1.0)
        errors = []
        allowed = set(ERROR_CODES) | set(RETRYABLE_CODES)

        def request_mix(worker):
            names = svc.workload.query_names
            mix = []
            for i in range(4):
                seed = 100 * worker + i
                mix.append({"kind": "sample", "query": names[(worker + i) % 3],
                            "count": 16 + i, "seed": seed})
                mix.append({"kind": "aggregate", "query": names[i % 3],
                            "aggregate": "count", "rel_error": 0.3,
                            "method": "exact-weight", "seed": seed})
            mix.append({"kind": "sample", "query": "union", "count": 12,
                        "seed": worker})
            mix.append({"kind": "stats"})
            return mix

        def worker(index):
            client = ServerClient(port=server.port, retries=2,
                                  retry_seed=index, max_retry_after=0.2)
            for request in request_mix(index):
                try:
                    client.call(request)
                except ServerError as error:
                    if error.code not in allowed:
                        errors.append(error)
                except (ConnectionError, TimeoutError, OSError):
                    pass  # transport chaos biting this client's connection

        def mutator():
            client = ServerClient(port=server.port)
            for i in range(3):
                try:
                    client.mutate("orders", [i])
                except ServerError as error:
                    errors.append(error)
                time.sleep(0.05)

        def chaos_worker():
            plan = FaultPlan(seed=11, rate=1.0, kinds=HTTP_FAULT_KINDS)
            chaos = ChaosClient("127.0.0.1", server.port, plan,
                                slow_write_seconds=1.5)
            for i in range(6):
                chaos.strike(i)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        threads.append(threading.Thread(target=mutator))
        threads.append(threading.Thread(target=chaos_worker))
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180)
            assert not any(t.is_alive() for t in threads), "soak wedged"
            assert not errors, errors
            # ---- the drain invariant: EXACTLY zero, not approximately ----
            stats = ServerClient(port=server.port).stats()
            assert stats["admission"]["inflight"] == 0
            assert stats["admission"]["reserved_seconds"] == 0.0
            assert stats["admission"]["queued_seconds"] == 0.0
            assert stats["watchdog"]["active"] == 0
            assert stats["counters"]["ok"] > 0
            # ---- purity: the soaked server's warm state is uncorrupted ---
            # A fresh overload-free service over the *same* (mutated)
            # relations must agree bit-for-bit on the quiesced snapshot.
            with SamplingService(workload=svc.workload, seed=3,
                                 warm_on_start=False,
                                 overload=False) as reference:
                probes = [
                    {"kind": "sample", "query": name, "count": 20,
                     "seed": 12345}
                    for name in svc.workload.query_names
                ]
                probes.append({"kind": "aggregate", "query":
                               svc.workload.query_names[0],
                               "aggregate": "count", "rel_error": 0.2,
                               "method": "exact-weight", "seed": 6,
                               "cache": False})
                for probe in probes:
                    soaked = svc.handle(probe)
                    fresh = reference.handle(probe)
                    assert soaked == fresh, probe
        finally:
            server.shutdown()
            svc.close()
