"""The machine-readable contracts the checkers enforce.

Each registry is keyed by *name* (class or function), not by module path,
so the contracts follow the code through refactors, scratch copies, and
test fixtures alike.  They are seeded from the real classes that carry the
invariants today; a new class opts in by adding an entry here — which is
the point: the contract is written down once, in one reviewable place,
instead of living in five docstrings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Tuple


# --------------------------------------------------------------------- locks
@dataclass(frozen=True)
class LockContract:
    """Which attributes of a class may only be touched under which lock.

    ``locks`` maps a lock attribute (``_lock``) to the attributes it
    guards.  ``locked_decorators`` maps a decorator name to the lock it
    acquires for the whole method body (``@_locked`` on ``JoinSampler``).
    Private helpers reached *only* from lock-holding call sites inherit the
    context (the checker computes that closure); ``__init__``/``__new__``
    are exempt — the object is not shared during construction.
    """

    locks: Mapping[str, FrozenSet[str]]
    locked_decorators: Mapping[str, str] = field(default_factory=dict)

    def guarded_by(self, attr: str) -> Tuple[str, ...]:
        return tuple(lock for lock, attrs in self.locks.items() if attr in attrs)


LOCK_REGISTRY: Dict[str, LockContract] = {
    # The one admission gate: slots, reserved and queued priced seconds and
    # its counts move together under the condition variable — any of them
    # touched outside it can drift negative, wedge the backpressure queue,
    # or wedge the server at its inflight cap.
    "AdmissionController": LockContract(
        locks={
            "_cond": frozenset(
                {"_inflight", "_reserved", "_queued", "admitted", "rejected"}
            )
        }
    ),
    # PR 8: LRU byte accounting and epoch-pinned entries — an unguarded
    # publish/evict race corrupts `_bytes` or serves a half-dropped entry.
    "SampleCache": LockContract(
        locks={
            "_lock": frozenset(
                {
                    "_entries",
                    "_bytes",
                    "_tick",
                    "hits",
                    "misses",
                    "evictions",
                    "invalidations",
                    "stale_drops",
                }
            )
        }
    ),
    # PR 7: one pool multiplexes every server request; executor lifecycle,
    # supervision counters and last-run bookkeeping are shared.
    "ParallelSamplerPool": LockContract(
        locks={
            "_lock": frozenset(
                {
                    "_thread_executor",
                    "_closed",
                    "stats",
                    "epochs_restarted",
                    "_last_execution",
                    "_last_outcome",
                }
            )
        }
    ),
    # PR 7/8: warm-prototype registry under `_proto_lock`, request counters
    # under `_stats_lock` — two locks, disjoint state.
    "SamplingService": LockContract(
        locks={
            "_proto_lock": frozenset({"_prototypes", "_proto_builds"}),
            "_stats_lock": frozenset({"_counters"}),
        }
    ),
    # PR 7: a shared sampler serves concurrent server requests; buffers and
    # lazily-built plans mutate on every draw.
    "JoinSampler": LockContract(
        locks={
            "_lock": frozenset(
                {"_block_buffer", "_draw_buffer", "_plans", "_shard_samplers"}
            )
        },
        locked_decorators={"_locked": "_lock"},
    ),
    # PR 7: step/estimate interleave from concurrent callers; the
    # accumulator and epoch bookkeeping move together under the lock.
    "OnlineAggregator": LockContract(
        locks={
            "_lock": frozenset(
                {"accumulator", "_db_versions", "epochs_restarted"}
            )
        }
    ),
    # PR 10: every handler thread records latencies into the health EWMAs;
    # a torn p99/state pair mis-triggers (or misses) a shed transition.
    "HealthMonitor": LockContract(
        locks={
            "_lock": frozenset(
                {"_p99", "_miss_rate", "_state", "_state_since", "_observations"}
            )
        }
    ),
    # PR 10: breaker states shared by every handler; an unguarded half-open
    # probe count lets concurrent probes stampede a recovering query.
    "BreakerRegistry": LockContract(
        locks={"_lock": frozenset({"_breakers", "rejections"})}
    ),
    # PR 10: watch/release tickets come from handler threads while scan()
    # runs from anywhere; the active table must move atomically.
    "Watchdog": LockContract(
        locks={"_lock": frozenset({"_active", "_next_id", "stuck_seen"})}
    ),
}


# --------------------------------------------------------------------- epoch
@dataclass(frozen=True)
class EpochContract:
    """The PR 2 staleness protocol of one versioned class.

    ``entry_points`` must call a ``refresh_method`` unconditionally; any
    *other* public method that reads a ``cached_attr`` directly must call a
    refresh method first (by line order).  ``exempt`` methods are the
    protocol's own machinery.
    """

    refresh_methods: FrozenSet[str]
    cached_attrs: FrozenSet[str]
    entry_points: FrozenSet[str] = frozenset()
    exempt: FrozenSet[str] = frozenset()


EPOCH_REGISTRY: Dict[str, EpochContract] = {
    # Every public draw path must re-sync weights/alias tables and discard
    # stale buffers before serving — the PR 2 protocol.
    "JoinSampler": EpochContract(
        refresh_methods=frozenset({"refresh"}),
        cached_attrs=frozenset(
            {
                "_root_alias",
                "_root_weights",
                "_root_total",
                "_root_cumulative",
                "_plans",
                "_block_buffer",
                "_draw_buffer",
            }
        ),
        entry_points=frozenset(
            {
                "try_sample",
                "sample",
                "sample_batch",
                "sample_many",
                "sample_block",
                "warm",
                "pop_buffered",
                "pop_buffered_blocks",
            }
        ),
        exempt=frozenset({"stale"}),
    ),
    # Union-level uniformity needs the membership cache and per-join
    # samplers re-synced before any draw.
    "OnlineUnionSampler": EpochContract(
        refresh_methods=frozenset({"refresh"}),
        cached_attrs=frozenset({"_selector"}),
        entry_points=frozenset({"sample"}),
    ),
    # The aggregator restarts its accumulator on epoch bumps; step() is the
    # only path that ingests draws, and it must sync first.
    "OnlineAggregator": EpochContract(
        refresh_methods=frozenset({"_sync_epoch"}),
        cached_attrs=frozenset(),
        entry_points=frozenset({"step"}),
    ),
}


# ----------------------------------------------------------------- merge law
@dataclass(frozen=True)
class MergeContract:
    """The PR 3 merge law of one mergeable accumulator class.

    Statistical contributions must be *kept* (list extend) and summed once
    with :func:`math.fsum` at estimate time; folding previously-rounded
    float partials with ``+=`` destroys chunk-order invariance.  Integer
    tallies in ``int_counters`` are exact under ``+=`` and exempt.
    """

    int_counters: FrozenSet[str]


MERGE_REGISTRY: Dict[str, MergeContract] = {
    "AggregateAccumulator": MergeContract(
        int_counters=frozenset({"attempts", "accepted"})
    ),
    "_GroupData": MergeContract(int_counters=frozenset()),
}


# -------------------------------------------------------------- determinism
#: functions whose output keys caches or shard plans: any wall-clock,
#: entropy, or unordered-set dependence makes answers non-reproducible.
DETERMINISM_FUNCTIONS: FrozenSet[str] = frozenset(
    {
        "shape_key",
        "epoch_vector",
        "plan_tasks",
        "observed_versions",
        "shard_seed_sequences",
        "keyed_rng",
        # PR 10: the Retry-After hint must be a pure function of queue
        # state, and client backoff a pure function of (seed, attempt) —
        # wall-clock in either makes overload runs unreplayable.
        "retry_after_hint",
        "backoff_for",
    }
)

#: dotted call names that read wall clocks or OS entropy
NONDETERMINISTIC_CALLS: FrozenSet[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "os.urandom",
        "os.getpid",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.randbits",
    }
)


# ---------------------------------------------------------------- resources
#: acquisition method name -> method names that release it.  The PR 8 leak
#: class: an `admit()` ticket not released in a `finally` wedges the
#: server's inflight accounting when a request dies mid-flight.
RESOURCE_ACQUISITIONS: Dict[str, FrozenSet[str]] = {
    "admit": frozenset({"release"}),
    # PR 10: a watchdog ticket not released leaves a phantom "stuck"
    # request that keeps /health degraded forever.
    "watch": frozenset({"release"}),
}

#: executor factories that own OS threads/processes: every construction
#: must be a `with` block or a close()-managed instance attribute.
EXECUTOR_FACTORIES: FrozenSet[str] = frozenset(
    {
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.thread.ThreadPoolExecutor",
        "concurrent.futures.process.ProcessPoolExecutor",
    }
)

#: method names whose presence marks a class as lifecycle-managing
LIFECYCLE_METHODS: FrozenSet[str] = frozenset({"close", "shutdown", "__exit__"})


# ----------------------------------------------------------------------- rng
#: the one module allowed to construct generators directly
RNG_MODULE_SUFFIX = "repro/utils/rng.py"

#: numpy.random module-state / legacy-global functions — forbidden anywhere
NUMPY_MODULE_STATE = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "beta",
        "binomial",
        "poisson",
        "exponential",
        "get_state",
        "set_state",
    }
)

#: direct generator constructors — allowed only inside RNG_MODULE_SUFFIX
RNG_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.RandomState",
    }
)


__all__ = [
    "DETERMINISM_FUNCTIONS",
    "EPOCH_REGISTRY",
    "EXECUTOR_FACTORIES",
    "EpochContract",
    "LIFECYCLE_METHODS",
    "LOCK_REGISTRY",
    "LockContract",
    "MERGE_REGISTRY",
    "MergeContract",
    "NONDETERMINISTIC_CALLS",
    "NUMPY_MODULE_STATE",
    "RESOURCE_ACQUISITIONS",
    "RNG_CONSTRUCTORS",
    "RNG_MODULE_SUFFIX",
]
