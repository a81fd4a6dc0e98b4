"""Overload robustness beyond the admission gate: breakers and a watchdog.

The gate itself — health states, priced-seconds backpressure and load
shedding — is :class:`~repro.server.admission.AdmissionController`, the one
priced check every ``sample``/``aggregate`` request passes; this module
re-exports its health machinery (:class:`OverloadConfig`,
:class:`HealthMonitor`, :func:`retry_after_hint`, the state names) so the
whole overload layer keeps one import path.  It adds two pieces, each
driven by the same **injected clock** so every transition is unit-testable
without sleeping:

:class:`BreakerRegistry`
    One circuit breaker per ``(query, weights)``.  ``breaker_threshold``
    consecutive deadline/epoch failures open it; while open, requests for
    that key are rejected up front (``circuit-open``, ``Retry-After`` = the
    remaining open window) instead of burning capacity on work that keeps
    timing out.  After ``breaker_open_seconds`` the breaker lets **one**
    half-open probe through: success closes it, failure re-opens it with a
    doubled (capped) window.

:class:`Watchdog`
    Stuck-request detection.  Every executing request is tracked with its
    start time and deadline budget; :meth:`Watchdog.scan` reports requests
    that outlived their budget plus ``watchdog_grace_seconds`` — the
    in-process complement of the transport-level socket timeouts in
    :mod:`repro.server.http` (a handler thread cannot be killed in Python,
    but it can always be *seen*).

See ``docs/overload.md`` for the full policy.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Tuple

from repro.server.admission import (
    DEGRADED,
    HEALTH_STATES,
    HEALTHY,
    OVERLOADED,
    AdmissionController,
    Clock,
    HealthMonitor,
    OverloadConfig,
    retry_after_hint,
)
from repro.server.protocol import RequestError

#: Alias of the one admission gate, kept because the benchmark tracer
#: (``perfbench/tracing.py``) imports and patches this name.
OverloadGate = AdmissionController

#: error codes that count as a breaker failure: the request ran and died on
#: its deadline/epoch budget (sheds and caller mistakes are neutral).
BREAKER_FAILURE_CODES = frozenset(
    {"deadline-exceeded", "empty-result", "epoch-restart-exhausted"}
)


# --------------------------------------------------------------- breakers
class _Breaker:
    """Per-key breaker record; only ever touched under the registry lock."""

    __slots__ = ("state", "failures", "opened_at", "open_seconds", "probes")

    def __init__(self, open_seconds: float) -> None:
        self.state = "closed"
        self.failures = 0
        self.opened_at = 0.0
        self.open_seconds = open_seconds
        self.probes = 0


class BreakerRegistry:
    """Per-(query, weights) circuit breakers over the injected clock.

    Protocol: the service calls :meth:`check` *before* running a request
    (raises ``circuit-open`` while the key's breaker is open) and
    :meth:`record` in a ``finally`` with the outcome — ``"success"``,
    ``"failure"`` (a :data:`BREAKER_FAILURE_CODES` error), or
    ``"neutral"`` (sheds, caller mistakes) — so a half-open probe slot is
    always returned no matter how the probe ends.
    """

    def __init__(self, config: OverloadConfig, clock: Clock,
                 enabled: bool = True) -> None:
        self.enabled = enabled
        self._config = config
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: Dict[Tuple[str, str], _Breaker] = {}
        self.rejections = 0

    def check(self, key: Tuple[str, str]) -> None:
        """Raise ``circuit-open`` if ``key``'s breaker refuses requests."""
        if not self.enabled:
            return
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None or breaker.state == "closed":
                return
            now = self._clock()
            if breaker.state == "open":
                remaining = breaker.opened_at + breaker.open_seconds - now
                if remaining > 0.0:
                    self.rejections += 1
                    raise RequestError(
                        "circuit-open",
                        f"circuit for {key[0]!r}/{key[1]} is open after "
                        f"{breaker.failures} consecutive failures; "
                        f"probes resume in {remaining:.1f}s",
                        query=key[0],
                        weights=key[1],
                        retry_after=max(1, int(math.ceil(remaining))),
                    )
                breaker.state = "half-open"
                breaker.probes = 0
            # half-open: exactly one probe may be in flight at a time.
            if breaker.probes >= 1:
                self.rejections += 1
                raise RequestError(
                    "circuit-open",
                    f"circuit for {key[0]!r}/{key[1]} is half-open with a "
                    "probe already in flight",
                    query=key[0],
                    weights=key[1],
                    retry_after=max(1, int(math.ceil(breaker.open_seconds))),
                )
            breaker.probes += 1

    def record(self, key: Tuple[str, str], outcome: str) -> None:
        """Fold one finished request (that passed ``check``) back in."""
        if not self.enabled:
            return
        if outcome not in ("success", "failure", "neutral"):
            raise ValueError(f"unknown breaker outcome {outcome!r}")
        c = self._config
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                if outcome != "failure":
                    return
                breaker = _Breaker(c.breaker_open_seconds)
                self._breakers[key] = breaker
            if breaker.state == "half-open":
                breaker.probes = max(breaker.probes - 1, 0)
                if outcome == "success":
                    breaker.state = "closed"
                    breaker.failures = 0
                    breaker.open_seconds = c.breaker_open_seconds
                elif outcome == "failure":
                    # The probe failed: back to open, with a doubled window.
                    breaker.state = "open"
                    breaker.opened_at = self._clock()
                    breaker.open_seconds = min(
                        breaker.open_seconds * 2.0, c.breaker_max_open_seconds
                    )
                    breaker.failures += 1
                return
            if breaker.state == "open":
                # Stale record from before the breaker opened; ignore.
                return
            if outcome == "success":
                breaker.failures = 0
            elif outcome == "failure":
                breaker.failures += 1
                if breaker.failures >= c.breaker_threshold:
                    breaker.state = "open"
                    breaker.opened_at = self._clock()

    def state_of(self, key: Tuple[str, str]) -> str:
        with self._lock:
            breaker = self._breakers.get(key)
            return "closed" if breaker is None else breaker.state

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            states = [b.state for b in self._breakers.values()]
            rejections = self.rejections
        return {
            "enabled": self.enabled,
            "keys": len(states),
            "open": states.count("open"),
            "half_open": states.count("half-open"),
            "rejections": rejections,
        }


# --------------------------------------------------------------- watchdog
class WatchTicket:
    """One executing request under watchdog observation."""

    __slots__ = ("ticket_id", "kind", "label", "started", "budget",
                 "_watchdog", "_released")

    def __init__(self, watchdog: "Watchdog", ticket_id: int, kind: str,
                 label: str, started: float, budget: float) -> None:
        self.ticket_id = ticket_id
        self.kind = kind
        self.label = label
        self.started = started
        self.budget = budget
        self._watchdog = watchdog
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._watchdog._release(self)


class Watchdog:
    """Registry of executing requests; flags the ones past deadline+grace.

    Python cannot kill a wedged handler thread, but it can make one
    impossible to miss: :meth:`scan` (called by every ``/health`` and
    ``/stats``) lists requests that outlived their deadline budget plus
    the grace window, with their age — turning a silent hang into an
    observable, alertable fact.
    """

    def __init__(self, config: OverloadConfig, clock: Clock) -> None:
        self._config = config
        self._clock = clock
        self._lock = threading.Lock()
        self._active: Dict[int, WatchTicket] = {}
        self._next_id = 0
        self.stuck_seen = 0

    def watch(self, kind: str, label: str,
              deadline: Optional[float] = None) -> WatchTicket:
        """Track one executing request; release() in a ``finally``."""
        budget = (self._config.watchdog_default_budget
                  if deadline is None else float(deadline))
        with self._lock:
            self._next_id += 1
            ticket = WatchTicket(
                self, self._next_id, kind, label, self._clock(), budget
            )
            self._active[ticket.ticket_id] = ticket
        return ticket

    def _release(self, ticket: WatchTicket) -> None:
        with self._lock:
            self._active.pop(ticket.ticket_id, None)

    def scan(self) -> List[Dict[str, object]]:
        """Requests that outlived ``budget + grace``, oldest first."""
        now = self._clock()
        grace = self._config.watchdog_grace_seconds
        with self._lock:
            stuck = [
                {
                    "id": t.ticket_id,
                    "kind": t.kind,
                    "label": t.label,
                    "age_seconds": now - t.started,
                    "budget_seconds": t.budget,
                }
                for t in self._active.values()
                if now - t.started > t.budget + grace
            ]
            if stuck:
                self.stuck_seen = max(self.stuck_seen, len(stuck))
        return sorted(stuck, key=lambda item: item["id"])

    def snapshot(self) -> Dict[str, object]:
        stuck = self.scan()
        with self._lock:
            active = len(self._active)
            worst = self.stuck_seen
        return {"active": active, "stuck": len(stuck),
                "stuck_requests": stuck, "max_stuck_seen": worst}


__all__ = [
    "BREAKER_FAILURE_CODES",
    "BreakerRegistry",
    "Clock",
    "DEGRADED",
    "HEALTHY",
    "HEALTH_STATES",
    "HealthMonitor",
    "OVERLOADED",
    "OverloadConfig",
    "OverloadGate",
    "WatchTicket",
    "Watchdog",
    "retry_after_hint",
]
