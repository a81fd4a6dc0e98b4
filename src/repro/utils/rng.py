"""Random number generation helpers.

Every stochastic component in the library accepts either an integer seed, an
existing :class:`numpy.random.Generator`, or ``None`` (fresh entropy).  This
module centralizes the conversion so that experiments are reproducible while
library users keep a familiar ``seed=`` keyword.

The aliasing contract
---------------------

:func:`ensure_rng` returns a *passed-in generator unchanged*.  That is the
right behaviour for threading one stream through a sequential pipeline, but it
means that handing the **same** ``Generator`` (or the same **integer seed**)
to two sibling components makes them consume the **same stream**: their draws
interleave (shared generator) or repeat verbatim (shared int seed), silently
correlating samplers that the estimator math assumes are independent.

The rules every call site in this library follows — and that user code should
follow too:

* one component, one stream: a component may thread ``self.rng`` through its
  *own* sequential steps, but must never hand ``self.rng`` itself to two
  sub-components that draw independently;
* sub-streams are **derived**, not shared: use :func:`spawn_rngs` (child
  ``Generator`` objects) or :func:`shard_seed_sequences` (picklable
  :class:`numpy.random.SeedSequence` children for parallel workers) so each
  sub-component gets a statistically independent stream from one root seed;
* reproducibility lives at the root: deriving children from an ``int`` seed
  is deterministic, so experiments stay replayable without stream sharing.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import numpy as np

RandomState = Union[int, np.random.Generator, np.random.SeedSequence, None]


def ensure_rng(seed: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for the given seed-like value.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an ``int`` seed, a
        :class:`numpy.random.SeedSequence` (the picklable derived children
        :func:`shard_seed_sequences` hands to parallel shards), or an
        existing generator (returned unchanged so that callers can thread
        one generator through a whole pipeline).

    .. warning::
       Because generators pass through unchanged, giving the *same* generator
       (or the same ``int`` seed) to two components aliases their streams —
       see the module docstring.  Derive independent sub-streams with
       :func:`spawn_rngs` or :func:`shard_seed_sequences` instead.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: RandomState, count: int) -> list[np.random.Generator]:
    """Create ``count`` independent child generators from one seed.

    Child streams are statistically independent, which keeps parallel
    components (for example one sampler per join in a union) from sharing a
    stream and accidentally correlating their draws.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive children deterministically from the generator's own stream.
        child_seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in child_seeds]
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed if isinstance(seed, int) else None)
    return [np.random.default_rng(s) for s in root.spawn(count)]


def shard_seed_sequences(seed: RandomState, count: int) -> list[np.random.SeedSequence]:
    """``count`` independent, *picklable* child seeds for parallel shards.

    Unlike :func:`spawn_rngs` (which returns live ``Generator`` objects) this
    returns :class:`numpy.random.SeedSequence` children, which pickle cheaply
    and reproduce the exact same stream in a worker process as they would in
    a thread: ``np.random.default_rng(seq)`` on either side of the process
    boundary yields identical draws.  The children depend only on ``seed``
    and ``count`` — not on how many workers later execute the shards — which
    is what makes parallel runs bit-identical across worker counts.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.SeedSequence):
        return list(seed.spawn(count))
    if isinstance(seed, np.random.Generator):
        # Derive one entropy value from the generator's own stream so a
        # threaded root generator still produces independent shard seeds.
        entropy = int(seed.integers(0, 2**63 - 1))
        return list(np.random.SeedSequence(entropy).spawn(count))
    return list(np.random.SeedSequence(seed).spawn(count))


def keyed_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for a hierarchical ``(seed, k1, k2, ...)`` key.

    The stream depends only on the root seed and the key — never on call
    order — which is what lets the fault-injection harness and the retry
    backoff jitter stay deterministic no matter which worker, thread, or
    retry attempt asks first.  Keys must be non-negative integers (shard
    ids, attempt counters); the root seed is masked into the non-negative
    range ``SeedSequence`` requires.
    """
    parts = [int(seed) & (2**63 - 1)]
    for k in key:
        k = int(k)
        if k < 0:
            raise ValueError(f"key components must be non-negative, got {k}")
        parts.append(k)
    return np.random.default_rng(np.random.SeedSequence(parts))


def weighted_choice(
    rng: np.random.Generator,
    items: Sequence[object],
    weights: Iterable[float],
) -> object:
    """Pick one element of ``items`` with probability proportional to ``weights``.

    Raises ``ValueError`` when all weights are zero or any weight is negative.
    """
    w = np.asarray(list(weights), dtype=float)
    if len(w) != len(items):
        raise ValueError("items and weights must have the same length")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    total = w.sum()
    if total <= 0:
        raise ValueError("at least one weight must be positive")
    idx = rng.choice(len(items), p=w / total)
    return items[int(idx)]


def bernoulli(rng: np.random.Generator, probability: float) -> bool:
    """Return ``True`` with the given probability (clamped to [0, 1])."""
    p = min(max(probability, 0.0), 1.0)
    return bool(rng.random() < p)


class BatchedCategorical:
    """Draws from a fixed categorical distribution in batches.

    The union samplers select one join per iteration from a distribution that
    only changes when parameters are refined; drawing those selections one
    multinomial batch at a time amortizes the per-draw RNG and normalization
    cost.  All-zero (or empty) weights fall back to a uniform choice, matching
    the scalar ``_select_join`` behaviour.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        items: Sequence[object],
        weights: Iterable[float],
        batch_size: int = 256,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self._rng = rng
        self._items = list(items)
        if not self._items:
            raise ValueError("at least one item is required")
        w = np.asarray([max(float(x), 0.0) for x in weights], dtype=float)
        if len(w) != len(self._items):
            raise ValueError("items and weights must have the same length")
        total = w.sum()
        self._probabilities = w / total if total > 0 else None
        self._batch_size = batch_size
        self._queue: list[object] = []

    def draw_indices(self, size: int) -> np.ndarray:
        """``size`` item indices in one multinomial draw (bypasses the queue)."""
        if self._probabilities is None:
            return self._rng.integers(0, len(self._items), size=size)
        return self._rng.choice(len(self._items), size=size, p=self._probabilities)

    def draw(self) -> object:
        """One item, drawn with probability proportional to its weight."""
        if not self._queue:
            indices = self.draw_indices(self._batch_size)
            self._queue = [self._items[int(i)] for i in indices]
            self._queue.reverse()  # pop() consumes in draw order
        return self._queue.pop()


__all__ = [
    "RandomState",
    "ensure_rng",
    "keyed_rng",
    "spawn_rngs",
    "shard_seed_sequences",
    "weighted_choice",
    "bernoulli",
    "BatchedCategorical",
]
