"""The admission gate: price a request, check every limit, reserve in one step.

A long-lived server multiplexing many clients onto one
:class:`~repro.parallel.pool.ParallelSamplerPool` must refuse work *up
front* — a structured error the client can act on — rather than let an
oversized request starve everyone else mid-flight, and under pressure it
must shed the right work instead of collapsing.  Both decisions are one
priced check in :class:`AdmissionController`.

Pricing reuses the planner's calibrated
:class:`~repro.analysis.cost.BackendCostModel`
(:func:`~repro.analysis.cost.estimate_backend_costs`): a request is charged
the *cheapest* backend that could serve it — rejecting on an expensive
backend the planner would never pick would be wrong — and requests that
ride the server's warm per-query prototypes are charged only the marginal
per-sample term, because the O(rows) setup they would otherwise pay is
already resident.  Samples the cache tier already holds
(``cached_samples``) are likewise free: re-consuming a materialized block
is an array gather, not a draw, so a fully cached warm request prices at
(near) zero.  Priced seconds are model units, not a wall-clock promise;
they only need to rank requests consistently, exactly like the planner.

:meth:`AdmissionController.admit` checks, in order:

1. the **permanent** limits (:class:`AdmissionLimits`): the per-request
   sample budget, then the priced-seconds ceiling.  A request that fails
   them fails every retry, so it never enters the backlog and carries no
   ``retry_after``;
2. the **transient** limits: the inflight cap, then — with the overload
   layer on (:class:`OverloadConfig`) — health-state shedding
   (:class:`HealthMonitor`: ``overloaded`` sheds every priced request,
   ``degraded`` shrinks the price ceiling to a fraction of the remaining
   headroom, so the most expensive work goes first), the priced-seconds
   backlog bound, and capacity, which a request may wait for in the
   backlog for at most ``max_queue_wait``.  Every transient rejection
   carries ``retry_after`` from :func:`retry_after_hint`, the one source
   of the hint.

It then reserves the inflight slot and the priced seconds in the same
locked step and returns a :class:`Ticket` whose idempotent
:meth:`~Ticket.release` the service calls in a ``finally`` — so a request
that fails (or dies) after admission always gives both back, and ``/stats``
drains to exactly 0 inflight / 0.0 reserved seconds however requests end.
Every transition runs on an **injected clock**, so the whole gate is
unit-testable without sleeping.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from repro.analysis.cost import (
    acceptance_ratio,
    estimate_backend_costs,
    walk_success_ratio,
)
from repro.joins.query import JoinQuery
from repro.server.protocol import RequestError

#: An injected monotonic clock; the service passes ``time.monotonic``,
#: deterministic tests pass a manually-advanced counter.
Clock = Callable[[], float]

HEALTHY = "healthy"
DEGRADED = "degraded"
OVERLOADED = "overloaded"
#: severity order of the health states (index = rank)
HEALTH_STATES = (HEALTHY, DEGRADED, OVERLOADED)


def retry_after_hint(pending_seconds: float, drain_rate: float) -> int:
    """Whole seconds until ``pending_seconds`` of priced work should drain.

    Pure function of its arguments (no clock, no state): the server retires
    roughly ``drain_rate`` priced seconds per wall second, so the earliest
    useful retry is the drain time of everything already reserved or
    queued, never less than 1s (a sub-second hint is noise to a client).
    """
    if drain_rate <= 0.0 or pending_seconds <= 0.0:
        return 1
    return max(1, int(math.ceil(pending_seconds / drain_rate)))


@dataclass(frozen=True)
class AdmissionLimits:
    """The limits the gate enforces whether or not the overload layer is on.

    ``max_request_seconds``
        Priced-cost ceiling per request, in cost-model seconds.
    ``max_samples``
        Per-request sample budget (aggregate requests are priced at the
        sample demand their error target implies, and that demand is
        bounded too).
    ``max_inflight``
        Concurrent sample/aggregate requests allowed inside the service;
        request N+1 is rejected, not queued — a client that wants queueing
        semantics can retry on ``admission-rejected``.
    """

    max_request_seconds: float = 30.0
    max_samples: int = 1_000_000
    max_inflight: int = 32


@dataclass(frozen=True)
class OverloadConfig:
    """Every knob of the overload layer, with serving-friendly defaults.

    ``capacity_seconds`` / ``backlog_seconds`` bound the priced seconds the
    server will run / queue at once; ``drain_rate`` (priced seconds retired
    per wall second) converts pending work into ``Retry-After`` hints.
    ``max_queue_wait`` is the longest a request may wait in the backlog for
    capacity before being shed — brief on purpose: queueing smooths bursts,
    it must not become an unbounded hidden queue.
    """

    capacity_seconds: float = 60.0
    backlog_seconds: float = 30.0
    max_queue_wait: float = 0.25
    drain_rate: float = 1.0
    # ---- health thresholds -------------------------------------------------
    degraded_utilisation: float = 0.5
    overloaded_utilisation: float = 0.9
    degraded_miss_rate: float = 0.1
    overloaded_miss_rate: float = 0.5
    p99_budget_seconds: float = 2.0
    ewma_alpha: float = 0.2
    recovery_dwell_seconds: float = 1.0
    # ---- degraded-state shedding -------------------------------------------
    shed_ceiling_fraction: float = 0.5
    # ---- circuit breakers ---------------------------------------------------
    breaker_threshold: int = 3
    breaker_open_seconds: float = 5.0
    breaker_max_open_seconds: float = 60.0
    # ---- watchdog ------------------------------------------------------------
    watchdog_grace_seconds: float = 2.0
    watchdog_default_budget: float = 30.0

    def __post_init__(self) -> None:
        if self.capacity_seconds <= 0.0:
            raise ValueError("capacity_seconds must be positive")
        if self.backlog_seconds < 0.0 or self.max_queue_wait < 0.0:
            raise ValueError("backlog_seconds/max_queue_wait must be non-negative")
        if not 0.0 < self.degraded_utilisation <= self.overloaded_utilisation:
            raise ValueError(
                "need 0 < degraded_utilisation <= overloaded_utilisation"
            )
        if not 0.0 < self.degraded_miss_rate <= self.overloaded_miss_rate <= 1.0:
            raise ValueError(
                "need 0 < degraded_miss_rate <= overloaded_miss_rate <= 1"
            )
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if not 0.0 < self.shed_ceiling_fraction <= 1.0:
            raise ValueError("shed_ceiling_fraction must be in (0, 1]")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if not 0.0 < self.breaker_open_seconds <= self.breaker_max_open_seconds:
            raise ValueError(
                "need 0 < breaker_open_seconds <= breaker_max_open_seconds"
            )
        if self.watchdog_grace_seconds < 0.0 or self.watchdog_default_budget <= 0.0:
            raise ValueError("watchdog grace/budget must be sane")


# ----------------------------------------------------------------- health
class HealthMonitor:
    """The HEALTHY → DEGRADED → OVERLOADED state machine.

    ``record()`` feeds it per-request observations (latency, deadline
    missed); ``assess()`` folds in the current capacity utilisation and
    returns the state.  The p99 tracker is a peak-decay envelope — each
    observation decays the previous estimate by ``1 - ewma_alpha`` and
    takes the max with the new latency — which converges to the plateau
    under steady load, jumps instantly on a spike, and forgets it
    geometrically; the miss rate is a plain EWMA of the miss indicator.
    Escalation is immediate; de-escalation additionally waits
    ``recovery_dwell_seconds`` after the last state change (hysteresis).
    """

    def __init__(self, config: OverloadConfig, clock: Clock) -> None:
        self._config = config
        self._clock = clock
        self._lock = threading.Lock()
        self._p99 = 0.0
        self._miss_rate = 0.0
        self._state = HEALTHY
        self._state_since = clock()
        self._observations = 0

    def record(self, latency: float, deadline_missed: bool) -> None:
        """Fold one served request into the latency/miss-rate signals."""
        alpha = self._config.ewma_alpha
        with self._lock:
            self._p99 = max(float(latency), self._p99 * (1.0 - alpha))
            self._miss_rate += alpha * ((1.0 if deadline_missed else 0.0)
                                        - self._miss_rate)
            self._observations += 1

    def _target(self, utilisation: float) -> str:
        c = self._config
        if (
            utilisation >= c.overloaded_utilisation
            or self._miss_rate >= c.overloaded_miss_rate
            or self._p99 >= 2.0 * c.p99_budget_seconds
        ):
            return OVERLOADED
        if (
            utilisation >= c.degraded_utilisation
            or self._miss_rate >= c.degraded_miss_rate
            or self._p99 >= c.p99_budget_seconds
        ):
            return DEGRADED
        return HEALTHY

    def assess(self, utilisation: float) -> str:
        """Current health state given ``reserved+queued / capacity``."""
        with self._lock:
            target = self._target(utilisation)
            now = self._clock()
            current_rank = HEALTH_STATES.index(self._state)
            target_rank = HEALTH_STATES.index(target)
            if target_rank > current_rank:
                self._state = target
                self._state_since = now
            elif target_rank < current_rank and (
                now - self._state_since >= self._config.recovery_dwell_seconds
            ):
                self._state = target
                self._state_since = now
            return self._state

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "state": self._state,
                "p99_ewma_seconds": self._p99,
                "deadline_miss_rate": self._miss_rate,
                "observations": self._observations,
            }


# ------------------------------------------------------------------- gate
class Ticket:
    """One admitted request's reservation: an inflight slot plus its priced
    seconds.

    ``release()`` is idempotent — the service calls it in a ``finally`` so
    a double release on a convoluted error path can never drive the
    accounting negative.
    """

    __slots__ = ("priced_seconds", "_gate", "_released")

    def __init__(self, gate: "AdmissionController", priced_seconds: float) -> None:
        self.priced_seconds = priced_seconds
        self._gate = gate
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._gate._release(self)


class AdmissionController:
    """The one priced admission gate in front of the sampling service.

    ``overload=None`` turns the overload layer off: the gate then enforces
    only :class:`AdmissionLimits` (no health-state shedding, no capacity or
    backlog bound) but still accounts every reservation the same way.
    """

    def __init__(
        self,
        limits: Optional[AdmissionLimits] = None,
        overload: Optional[OverloadConfig] = None,
        clock: Clock = time.monotonic,
    ) -> None:
        self.limits = limits or AdmissionLimits()
        self.overload = overload
        self._config = overload or OverloadConfig()
        self._clock = clock
        self.monitor = HealthMonitor(self._config, clock)
        self._cond = threading.Condition()
        self._inflight = 0
        self._reserved = 0.0
        self._queued = 0.0
        self.admitted = 0
        self.rejected = 0

    # ------------------------------------------------------------------ price
    def price(
        self,
        queries: Sequence[JoinQuery],
        sample_size: int,
        *,
        warm: bool = False,
        cached_samples: int = 0,
    ) -> float:
        """Cheapest-backend cost of the request, in cost-model seconds.

        Unions are priced as the sum of their per-join minima (the union
        sampler visits every join).  ``warm=True`` subtracts the setup term
        — ``estimate_backend_costs(q, 0)`` is exactly the setup-only price —
        because requests served from a warm prototype never pay it; both
        calls share one pass of the O(rows) ratio statistics.
        ``cached_samples`` discounts the sample demand: draws the cache
        tier already materialized under the current epoch cost a gather,
        not a walk, so a fully cached warm request prices at zero.
        """
        effective = max(int(sample_size) - max(int(cached_samples), 0), 0)
        total = 0.0
        for query in queries:
            acceptance = acceptance_ratio(query)
            walk_success = walk_success_ratio(query)
            costs = estimate_backend_costs(
                query, effective, acceptance=acceptance, walk_success=walk_success
            )
            if warm:
                setup = estimate_backend_costs(
                    query, 0, acceptance=acceptance, walk_success=walk_success
                )
                costs = {name: cost - setup[name] for name, cost in costs.items()}
            total += min(costs.values())
        return total

    # ------------------------------------------------------------------ admit
    def admit(
        self,
        queries: Sequence[JoinQuery],
        sample_size: int,
        *,
        warm: bool = False,
        cached_samples: int = 0,
    ) -> Ticket:
        """Price the request, check every limit, reserve, or raise.

        Permanent rejections (``max_samples``, ``max_request_seconds``) are
        ``admission-rejected`` without ``retry_after``.  Transient ones are
        ``admission-rejected`` (429, ``limit`` = ``max_inflight`` /
        ``overload-shed`` / ``backlog`` / ``capacity``) or ``overloaded``
        (503), each with ``retry_after``.  The returned ticket MUST be
        released in a ``finally``: the reservation survives any exception
        the request raises later, and only ``release()`` gives it back.
        """
        limits = self.limits
        if sample_size > limits.max_samples:
            self._reject(RequestError(
                "admission-rejected",
                f"request wants {sample_size} samples but the per-request "
                f"budget is {limits.max_samples}; split the request or ask "
                "the operator to raise max_samples",
                limit="max_samples",
                max_samples=limits.max_samples,
                requested_samples=sample_size,
            ))
        priced = self.price(
            queries, sample_size, warm=warm, cached_samples=cached_samples
        )
        if priced > limits.max_request_seconds:
            self._reject(RequestError(
                "admission-rejected",
                f"request priced at {priced:.3f} cost-model seconds exceeds "
                f"the {limits.max_request_seconds:g}s admission ceiling; "
                "reduce the sample count or loosen the error target",
                limit="max_request_seconds",
                max_request_seconds=limits.max_request_seconds,
                priced_seconds=priced,
            ))
        c = self._config
        with self._cond:
            self._check_inflight_locked(priced)
            if self.overload is not None:
                self._check_pressure_locked(priced)
                # Backpressure: wait (bounded) in the backlog for capacity.
                self._queued += priced
                try:
                    wait_until = self._clock() + c.max_queue_wait
                    while self._reserved + priced > c.capacity_seconds:
                        remaining = wait_until - self._clock()
                        if remaining <= 0.0:
                            self._reject(RequestError(
                                "admission-rejected",
                                "no capacity freed within the "
                                f"{c.max_queue_wait:g}s queue-wait budget",
                                limit="capacity",
                                retry_after=self._retry_after_locked(),
                            ))
                        self._cond.wait(remaining)
                        # Slots may have gone to others while this waited.
                        self._check_inflight_locked(0.0)
                finally:
                    self._queued -= priced
            self._inflight += 1
            self._reserved += priced
            self.admitted += 1
        return Ticket(self, priced)

    # --------------------------------------------------------------- internals
    def _reject(self, error: RequestError) -> None:
        """Count one rejection and raise it (reentrant on the condition)."""
        with self._cond:
            self.rejected += 1
        raise error

    def _retry_after_locked(self, extra: float = 0.0) -> int:
        """The hint every transient rejection carries; caller holds ``_cond``.

        Pending work is everything reserved or queued, plus ``extra`` — the
        rejected request's own price when it is not queued yet.
        """
        return retry_after_hint(
            self._reserved + self._queued + extra, self._config.drain_rate
        )

    def _check_inflight_locked(self, priced: float) -> None:
        if self._inflight >= self.limits.max_inflight:
            self._reject(RequestError(
                "admission-rejected",
                f"server already has {self._inflight} requests in flight "
                f"(limit {self.limits.max_inflight}); retry later",
                limit="max_inflight",
                max_inflight=self.limits.max_inflight,
                retry_after=self._retry_after_locked(priced),
            ))

    def _check_pressure_locked(self, priced: float) -> None:
        """Health-state shedding and the backlog bound, before queueing."""
        c = self._config
        state = self._assess_locked()
        hint = self._retry_after_locked(priced)
        if state == OVERLOADED and priced > 0.0:
            self._reject(RequestError(
                "overloaded",
                "server is overloaded and shedding all priced work; "
                f"retry after ~{hint}s",
                state=state,
                retry_after=hint,
            ))
        if state == DEGRADED:
            headroom = max(c.capacity_seconds - self._reserved - self._queued, 0.0)
            ceiling = c.shed_ceiling_fraction * headroom
            if priced > ceiling:
                self._reject(RequestError(
                    "admission-rejected",
                    f"server is degraded: request priced at {priced:.3f}s "
                    f"exceeds the shrunken {ceiling:.3f}s ceiling; "
                    "cheaper requests are still admitted",
                    limit="overload-shed",
                    state=state,
                    priced_seconds=priced,
                    retry_after=hint,
                ))
        if self._queued + priced > c.backlog_seconds:
            self._reject(RequestError(
                "admission-rejected",
                f"backlog is full ({self._queued:.3f}s of "
                f"{c.backlog_seconds:g}s priced seconds queued); "
                f"retry after ~{hint}s",
                limit="backlog",
                state=state,
                retry_after=hint,
            ))

    # The monitor folds live pressure in: utilisation is everything reserved
    # or waiting over capacity.  Callers hold _cond; the monitor has its own
    # leaf lock and never calls back into the gate.
    def _assess_locked(self) -> str:
        if self.overload is None:
            return HEALTHY
        utilisation = (self._reserved + self._queued) / self._config.capacity_seconds
        return self.monitor.assess(utilisation)

    def _release(self, ticket: Ticket) -> None:
        with self._cond:
            self._inflight -= 1
            self._reserved = max(self._reserved - ticket.priced_seconds, 0.0)
            if self._inflight == 0:
                # Snap float accumulation drift: an idle gate reports
                # exactly 0.0 reserved seconds, not 1e-18.
                self._reserved = 0.0
            self._cond.notify_all()

    def snapshot(self) -> Dict[str, object]:
        """The ``/stats`` gate section; ``state`` is re-assessed live."""
        with self._cond:
            state = self._assess_locked()
            counts = {
                "admitted": self.admitted,
                "rejected": self.rejected,
                "inflight": self._inflight,
                "reserved_seconds": self._reserved,
                "queued_seconds": self._queued,
            }
        enabled = self.overload is not None
        return {
            **self.monitor.snapshot(),
            "overload": enabled,
            "state": state,
            **counts,
            "max_request_seconds": self.limits.max_request_seconds,
            "max_samples": self.limits.max_samples,
            "max_inflight": self.limits.max_inflight,
            "capacity_seconds": self._config.capacity_seconds if enabled else None,
            "backlog_seconds": self._config.backlog_seconds if enabled else None,
        }


__all__ = [
    "AdmissionController",
    "AdmissionLimits",
    "Clock",
    "DEGRADED",
    "HEALTHY",
    "HEALTH_STATES",
    "HealthMonitor",
    "OVERLOADED",
    "OverloadConfig",
    "Ticket",
    "retry_after_hint",
]
