"""Online union sampling with sample reuse and backtracking — Algorithm 2 (§7).

The histogram-based warm-up is nearly free but loose; the random-walk warm-up
is accurate but costs walks.  The online sampler combines them:

* parameters are initialized with a cheap warm-up (histogram by default, or a
  short random-walk warm-up whose walks seed the reuse pools);
* every iteration proceeds like Algorithm 1, except that when the selected
  join still has warm-up walk results in its pool, one of them is *reused*: a
  pooled tuple ``t`` with walk probability ``p(t)`` is accepted with
  probability ``l / (p(t)·|J_j|)`` (``l`` = current pool size), which restores
  uniformity of the reused tuple within its join (§7, Sample Reuse);
* the probabilities of all tuples obtained so far are recorded; every ``phi``
  recordings the join/overlap/union estimates are refined with the random-walk
  estimator of §6 and *backtracking* re-weights the already accepted samples —
  each accepted tuple is kept with probability
  ``min(1, (|J'_j|'/|U|') / (|J'_j|/|U|))`` so that the retained sample remains
  uniform under the refined parameters;
* refinement stops once the overlap estimates reach the target confidence
  level ``gamma``.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.result import SampleResult, SamplingStats, UnionSample
from repro.core.union_sampler import drain_value_queue
from repro.estimation.histogram import HistogramUnionEstimator
from repro.estimation.parameters import UnionParameters
from repro.estimation.random_walk import CollectedSample, RandomWalkUnionEstimator
from repro.estimation.union_size import (
    compute_all_overlaps,
    compute_k_overlaps,
    cover_sizes_from_overlaps,
    union_size_from_k_overlaps,
)
from repro.joins.membership import UnionMembershipIndex
from repro.joins.query import JoinQuery, check_union_compatible
from repro.sampling.join_sampler import JoinSampler
from repro.sampling.wander_join import z_value
from repro.utils.rng import BatchedCategorical, RandomState, ensure_rng, spawn_rngs


@dataclass
class _Record:
    """One recorded draw: the tuple value and the probability it carried."""

    value: Tuple
    weight: float  # Horvitz–Thompson style weight used for overlap refinement


class OnlineUnionSampler:
    """Algorithm 2: set-union sampling with sample reuse and backtracking."""

    algorithm = "online-set-union"

    def __init__(
        self,
        queries: Sequence[JoinQuery],
        seed: RandomState = None,
        warmup: str = "random-walk",
        reuse: bool = True,
        phi: int = 200,
        gamma: float = 0.9,
        join_weights: str = "ew",
        walks_per_join: int = 500,
        warmup_estimator: Optional[RandomWalkUnionEstimator | HistogramUnionEstimator] = None,
        max_iterations_factor: int = 1000,
    ) -> None:
        check_union_compatible(list(queries))
        if warmup not in ("random-walk", "histogram"):
            raise ValueError("warmup must be 'random-walk' or 'histogram'")
        if phi <= 0:
            raise ValueError("phi must be positive")
        if not 0.0 < gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        self.queries: List[JoinQuery] = list(queries)
        self.names = [q.name for q in self.queries]
        self._positions = {name: i for i, name in enumerate(self.names)}
        self.reuse = reuse
        self.phi = phi
        self.gamma = gamma
        self.max_iterations_factor = max_iterations_factor
        self.rng = ensure_rng(seed)
        self.stats = SamplingStats()
        self.confidence_level = 0.0

        with self.stats.timer.phase("warmup"):
            # Derive the warm-up and per-join streams from self.rng instead of
            # sharing the generator itself: handing self.rng to the estimator
            # would alias its walk stream with this sampler's selection and
            # backtracking draws (see the aliasing contract in repro.utils.rng).
            warmup_rng, sampler_parent = spawn_rngs(self.rng, 2)
            if warmup_estimator is not None:
                estimator = warmup_estimator
            elif warmup == "random-walk":
                estimator = RandomWalkUnionEstimator(
                    self.queries, walks_per_join=walks_per_join, seed=warmup_rng
                )
            else:
                estimator = HistogramUnionEstimator(self.queries, join_size_method="eo")
            self.parameters: UnionParameters = estimator.estimate()
            self._pools: Dict[str, List[CollectedSample]] = {n: [] for n in self.names}
            if self.reuse and isinstance(estimator, RandomWalkUnionEstimator):
                for name, samples in estimator.all_collected_samples().items():
                    self._pools[name] = list(samples)
            sampler_seeds = spawn_rngs(sampler_parent, len(self.queries))
            self.join_samplers: Dict[str, JoinSampler] = {
                q.name: JoinSampler(q, weights=join_weights, seed=s)
                for q, s in zip(self.queries, sampler_seeds)
            }
            self.membership = UnionMembershipIndex(self.queries)
            self._membership_cache: Dict[Tuple[str, Tuple], bool] = {}
            #: per-join uniform sample values, refilled block-wise
            self._value_queues: Dict[str, Deque[Tuple]] = {
                n: deque() for n in self.names
            }

        self._probabilities = self.parameters.selection_probabilities(use_cover=True)
        self._selector: Optional[BatchedCategorical] = None
        #: per-join recorded draws (line 3 of Algorithm 2)
        self._records: Dict[str, List[_Record]] = {n: [] for n in self.names}
        self._records_since_update = 0
        self._orig_join: Dict[Tuple, int] = {}
        #: accepted samples in acceptance order; revisions tombstone entries
        #: (set them to None) via the value -> slots side index
        self._accepted: List[Optional[UnionSample]] = []
        self._value_slots: Dict[Tuple, List[int]] = {}
        self._live_count = 0

    # ------------------------------------------------------------------ public
    def refresh(self) -> bool:
        """Start a new epoch after the base relations mutated.

        Returns True when any underlying relation was stale.  The per-join
        samplers re-sync themselves (delta-maintained weights/plans); this
        method additionally drops everything whose validity was tied to the
        previous database snapshot: the reuse pools (their walk probabilities
        were computed against old degrees), the recorded draws and accepted
        samples (uniform over the *old* union, not the new one), the
        membership cache, and the join-selection distribution, which is
        re-estimated from the delta-maintained histogram statistics.  Samples
        returned before the refresh remain valid uniform draws over the
        snapshot they were taken from.
        """
        refreshed = [sampler.refresh() for sampler in self.join_samplers.values()]
        if not any(refreshed):
            return False
        with self.stats.timer.phase("refresh"):
            estimator = HistogramUnionEstimator(self.queries, join_size_method="eo")
            self.parameters = estimator.estimate()
            self._probabilities = self.parameters.selection_probabilities(use_cover=True)
            self._selector = None
            self._pools = {name: [] for name in self.names}
            self._records = {name: [] for name in self.names}
            self._records_since_update = 0
            self._orig_join = {}
            self._accepted = []
            self._value_slots = {}
            self._live_count = 0
            self._membership_cache.clear()
            for queue in self._value_queues.values():
                queue.clear()
            self.confidence_level = 0.0
        return True

    def sample(self, count: int) -> SampleResult:
        """Draw ``count`` samples from the set union.

        Staleness is detected automatically: if a base relation mutated since
        the last epoch, :meth:`refresh` runs first — the membership cache and
        selection probabilities must never outlive the snapshot they were
        computed from, or the union sample silently biases.  (The per-join
        samplers refresh themselves, but uniformity over the *union* also
        depends on this class's own cached state.)
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        self.refresh()
        max_iterations = max(count, 1) * self.max_iterations_factor
        while self._live_count < count:
            if self.stats.iterations >= max_iterations:
                raise RuntimeError(
                    f"OnlineUnionSampler exceeded {max_iterations} iterations while "
                    f"collecting {count} samples"
                )
            self.stats.iterations += 1
            started = time.perf_counter()
            sample = self._iterate()
            elapsed = time.perf_counter() - started
            if sample is not None:
                self.stats.timer.add("accepted", elapsed)
                if sample.reused:
                    self.stats.timer.add("reuse_accepted", elapsed)
                self.stats.accepted += 1
            else:
                self.stats.timer.add("rejected", elapsed)
            self._maybe_update_parameters()
        self.stats.join_sampler_attempts = sum(
            s.stats.attempts for s in self.join_samplers.values()
        )
        self.stats.join_sampler_rejections = self.stats.join_sampler_attempts - sum(
            s.stats.accepted for s in self.join_samplers.values()
        )
        live = [s for s in self._accepted if s is not None]
        return SampleResult(
            samples=live[:count],
            parameters=self.parameters,
            stats=self.stats,
            algorithm=self.algorithm + ("-reuse" if self.reuse else ""),
        )

    # --------------------------------------------------------------- iteration
    def _iterate(self) -> Optional[UnionSample]:
        join_name = self._select_join()
        position = self._positions[join_name]
        join_size = max(self.parameters.join_sizes[join_name], 1e-12)

        value: Optional[Tuple] = None
        reused = False

        pool = self._pools[join_name]
        if self.reuse and pool:
            # Sample Reuse (lines 7-8): draw from the warm-up pool without
            # replacement and accept with probability l / (p(t)·|J_j|).
            pool_size = len(pool)
            idx = int(self.rng.integers(0, pool_size))
            candidate = pool.pop(idx)
            acceptance = pool_size / (max(candidate.probability, 1e-300) * join_size)
            if self.rng.random() < min(acceptance, 1.0):
                value = candidate.value
                reused = True
                self._record(join_name, candidate.value, 1.0 / max(candidate.probability, 1e-300))
            else:
                self.stats.reused_rejected += 1

        if value is None:
            # Lines 9-10: fall back to a regular uniform draw from the join,
            # served value-only through the block pipeline (no draw boxing).
            self.stats.record_draw(join_name)
            value = drain_value_queue(
                self.join_samplers[join_name], self._value_queues[join_name]
            )
            self._record(join_name, value, join_size)

        # Lines 11-17: the orig_join record with revision, as in Algorithm 1.
        recorded = self._orig_join.get(value)
        if recorded is not None and recorded < position:
            self.stats.rejected_duplicate += 1
            return None
        if recorded is not None and recorded > position:
            self.stats.revisions += 1
            removed = 0
            for slot in self._value_slots.pop(value, ()):
                if self._accepted[slot] is not None:
                    self._accepted[slot] = None
                    removed += 1
            self._live_count -= removed
            self.stats.revision_removed += removed
        self._orig_join[value] = position
        sample = UnionSample(value, join_name, self.stats.iterations, reused=reused)
        if reused:
            self.stats.reused_accepted += 1
        self._value_slots.setdefault(value, []).append(len(self._accepted))
        self._accepted.append(sample)
        self._live_count += 1
        return sample

    def _select_join(self) -> str:
        """Select a join; selections are drawn one multinomial batch at a time."""
        if self._selector is None:
            weights = [self._probabilities.get(n, 0.0) for n in self.names]
            self._selector = BatchedCategorical(self.rng, self.names, weights)
        return self._selector.draw()

    def _record(self, join_name: str, value: Tuple, weight: float) -> None:
        self._records[join_name].append(_Record(value, weight))
        self._records_since_update += 1

    # ----------------------------------------------------- parameter refinement
    def _maybe_update_parameters(self) -> None:
        if self._records_since_update < self.phi or self.confidence_level >= self.gamma:
            return
        self._records_since_update = 0
        self.stats.backtrack_rounds += 1
        started = time.perf_counter()
        old = self.parameters
        refined = self._refine_parameters(old)
        self._backtrack(old, refined)
        self.parameters = refined
        self._probabilities = refined.selection_probabilities(use_cover=True)
        self._selector = None  # refreshed distribution: rebuild the batch
        self.stats.timer.add("estimation_update", time.perf_counter() - started)

    def _refine_parameters(self, old: UnionParameters) -> UnionParameters:
        """Re-estimate overlaps from the recorded draws (random-walk method, §6.2)."""
        join_sizes = dict(old.join_sizes)
        worst_half_width = 0.0

        def overlap_of(subset: FrozenSet[str]) -> float:
            nonlocal worst_half_width
            if len(subset) == 1:
                return join_sizes[next(iter(subset))]
            # Walk the subset in union order, never frozenset order: set
            # iteration follows PYTHONHASHSEED, and max() keeps the first
            # of tied record counts, so the pivot must not depend on it.
            members = [n for n in self.names if n in subset]
            pivot = max(members, key=lambda n: len(self._records[n]))
            records = self._records[pivot]
            if not records:
                return old.overlap(members)
            others = [n for n in members if n != pivot]
            total_weight = sum(r.weight for r in records)
            hit_weight = 0.0
            hits = 0
            for record in records:
                if all(self._contains(name, record.value) for name in others):
                    hit_weight += record.weight
                    hits += 1
            if total_weight <= 0:
                return old.overlap(members)
            ratio = hit_weight / total_weight
            p_hat = hits / len(records)
            half_width = z_value(min(self.gamma, 0.999)) * math.sqrt(
                max(p_hat * (1 - p_hat) / len(records), 0.0)
            )
            worst_half_width = max(worst_half_width, half_width)
            return join_sizes[pivot] * ratio

        overlaps = compute_all_overlaps(self.names, overlap_of)
        k_overlaps = compute_k_overlaps(self.names, overlaps)
        union_size = union_size_from_k_overlaps(k_overlaps)
        union_size = min(
            max(union_size, max(join_sizes.values(), default=0.0)), sum(join_sizes.values())
        )
        covers = cover_sizes_from_overlaps(self.names, overlaps)
        # Confidence: how tight the binomial overlap ratios are.
        self.confidence_level = max(0.0, 1.0 - worst_half_width)
        return UnionParameters(
            join_order=list(self.names),
            join_sizes=join_sizes,
            cover_sizes=covers,
            union_size=union_size,
            overlaps={k: v for k, v in overlaps.items() if len(k) >= 2},
            method="online-refined",
            metadata={"rounds": self.stats.backtrack_rounds},
        )

    def _backtrack(self, old: UnionParameters, new: UnionParameters) -> None:
        """Re-accept previously sampled tuples under the refined parameters (§7).

        Backtracking touches every accepted sample by design, so it compacts
        tombstoned slots and rebuilds the value -> slots index as it goes.
        """
        retained: List[Optional[UnionSample]] = []
        slots: Dict[Tuple, List[int]] = {}
        removed = 0
        for sample in self._accepted:
            if sample is None:
                continue
            name = sample.source_join
            old_ratio = old.cover_sizes[name] / max(old.union_size, 1e-12)
            new_ratio = new.cover_sizes[name] / max(new.union_size, 1e-12)
            if old_ratio <= 0:
                keep_probability = 1.0
            else:
                keep_probability = min(new_ratio / old_ratio, 1.0)
            if self.rng.random() < keep_probability:
                slots.setdefault(sample.value, []).append(len(retained))
                retained.append(sample)
            else:
                removed += 1
        self._accepted = retained
        self._value_slots = slots
        self._live_count = len(retained)
        self.stats.backtrack_removed += removed

    def _contains(self, query_name: str, value: Tuple) -> bool:
        key = (query_name, value)
        if key not in self._membership_cache:
            self._membership_cache[key] = self.membership.contains(query_name, value)
        return self._membership_cache[key]


__all__ = ["OnlineUnionSampler"]
