"""Sampling-as-a-service: a long-lived concurrent query server.

Load the relations once, keep the per-query sampling structures warm, and
serve concurrent ``sample``/``aggregate`` jobs over JSON-over-HTTP — each
answer epoch-consistent, admission-controlled, and bit-identical to the
same request served sequentially.  One priced admission gate
(:class:`AdmissionController`) enforces the request limits and, with the
overload layer on, a health state machine and priced-seconds backpressure
with load shedding; :mod:`repro.server.overload` adds per-query circuit
breakers and a stuck-request watchdog.  See ``docs/server.md`` and
``docs/overload.md``.
"""

from repro.server.admission import AdmissionController, AdmissionLimits
from repro.server.chaos import ChaosClient
from repro.server.http import (
    SamplingHTTPServer,
    ServerClient,
    ServerError,
    start_server,
)
from repro.server.overload import (
    DEGRADED,
    HEALTH_STATES,
    HEALTHY,
    OVERLOADED,
    BreakerRegistry,
    HealthMonitor,
    OverloadConfig,
    Watchdog,
    retry_after_hint,
)
from repro.server.protocol import ERROR_CODES, RETRYABLE_CODES, RequestError
from repro.server.service import SamplingService

__all__ = [
    "DEGRADED",
    "ERROR_CODES",
    "HEALTHY",
    "HEALTH_STATES",
    "OVERLOADED",
    "RETRYABLE_CODES",
    "AdmissionController",
    "AdmissionLimits",
    "BreakerRegistry",
    "ChaosClient",
    "HealthMonitor",
    "OverloadConfig",
    "RequestError",
    "SamplingHTTPServer",
    "SamplingService",
    "ServerClient",
    "ServerError",
    "Watchdog",
    "retry_after_hint",
    "start_server",
]
