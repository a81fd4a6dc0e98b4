"""Drive samplers against a mutating database, one epoch at a time.

A :class:`StreamingScenario` owns the tables, a refresh stream, and a set of
named samplers.  Each epoch applies one update batch (through the O(Δ)
delta-maintenance path) and then draws from every sampler:

* :class:`~repro.sampling.join_sampler.JoinSampler` detects the epoch change
  through the relations' version counters and patches its weights/plans;
* :class:`~repro.sampling.wander_join.WanderJoin` reads the maintained
  indexes directly (its walks carry no cross-epoch state);
* :class:`~repro.core.online_sampler.OnlineUnionSampler` is refreshed
  explicitly — its reuse pools and accepted-sample bookkeeping are tied to
  one database snapshot (see ``OnlineUnionSampler.refresh``).

The per-epoch :class:`EpochReport` records what changed and how long
maintenance vs. sampling took, which is exactly the trade-off
``benchmarks/bench_updates.py`` quantifies at scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

from repro.core.online_sampler import OnlineUnionSampler
from repro.dynamic.stream import TPCHRefreshStream, UpdateBatch, apply_batch
from repro.joins.conditions import JoinCondition, OutputAttribute
from repro.joins.query import JoinQuery
from repro.relational.relation import Relation
from repro.sampling.join_sampler import JoinSampler
from repro.sampling.wander_join import WanderJoin
from repro.tpch.generator import generate_tpch
from repro.utils.rng import RandomState, shard_seed_sequences


@dataclass
class EpochReport:
    """What one epoch of a streaming scenario did."""

    epoch: int
    inserted_rows: int
    deleted_rows: int
    table_sizes: Dict[str, int]
    maintenance_seconds: float
    sampling_seconds: float
    #: sampler name -> values drawn this epoch
    samples: Dict[str, List[Tuple]] = field(default_factory=dict)


class StreamingScenario:
    """Interleave update batches with sampling epochs over shared tables."""

    def __init__(
        self,
        tables: Dict[str, Relation],
        stream: Iterable[UpdateBatch],
        samplers: Mapping[str, object],
        samples_per_epoch: int = 256,
    ) -> None:
        if samples_per_epoch < 0:
            raise ValueError("samples_per_epoch must be non-negative")
        self.tables = tables
        self._stream: Iterator[UpdateBatch] = iter(stream)
        self.samplers = dict(samplers)
        self.samples_per_epoch = samples_per_epoch
        self.reports: List[EpochReport] = []

    # ------------------------------------------------------------------ epochs
    def run_epoch(self) -> EpochReport:
        """Apply the next update batch, then draw from every sampler."""
        batch = next(self._stream)
        started = time.perf_counter()
        counts = apply_batch(self.tables, batch)
        # Refresh eagerly so maintenance time is attributed to this phase
        # rather than smeared over the first draw of each sampler.
        for sampler in self.samplers.values():
            refresh = getattr(sampler, "refresh", None)
            if refresh is not None:
                refresh()
        maintenance = time.perf_counter() - started

        started = time.perf_counter()
        samples = {
            name: self._draw(sampler, self.samples_per_epoch)
            for name, sampler in self.samplers.items()
        }
        sampling = time.perf_counter() - started

        report = EpochReport(
            epoch=batch.sequence,
            inserted_rows=counts["inserted"],
            deleted_rows=counts["deleted"],
            table_sizes={name: len(rel) for name, rel in self.tables.items()},
            maintenance_seconds=maintenance,
            sampling_seconds=sampling,
            samples=samples,
        )
        self.reports.append(report)
        return report

    def run(self, epochs: int) -> List[EpochReport]:
        """Run ``epochs`` consecutive epochs; returns their reports."""
        return [self.run_epoch() for _ in range(epochs)]

    # ------------------------------------------------------------------- draws
    @staticmethod
    def _draw(sampler: object, count: int) -> List[Tuple]:
        if count == 0:
            return []
        if isinstance(sampler, OnlineUnionSampler):
            return [s.value for s in sampler.sample(count).samples]
        if isinstance(sampler, WanderJoin):
            return sampler.walk_block(count).values(sampler.query)
        if isinstance(sampler, JoinSampler):
            return sampler.sample_block(count).values(sampler.query)
        raise TypeError(
            f"unsupported sampler type {type(sampler).__name__}; expected "
            "JoinSampler, WanderJoin, or OnlineUnionSampler"
        )


def build_order_stream_scenario(
    scale_factor: float = 0.001,
    seed: RandomState = 0,
    orders_per_batch: int = 32,
    insert_fraction: float = 0.5,
) -> Tuple[Dict[str, Relation], JoinQuery, TPCHRefreshStream]:
    """Tables + customer ⋈ orders ⋈ lineitem query + refresh stream.

    The standard entry point for dynamic experiments: generate the TPC-H
    tables, build the chain join that the refresh functions churn the most,
    and attach an RF1/RF2 stream to it.  Compose the pieces into a
    :class:`StreamingScenario` with whatever samplers the experiment needs.
    """
    # One root seed, two independent children: handing the same seed to the
    # generator *and* the refresh stream would alias their draw streams (the
    # PR 4 bug class repro.lint's RNG004 now rejects).
    data_seed, stream_seed = shard_seed_sequences(seed, 2)
    tables = generate_tpch(scale_factor, seed=data_seed)
    query = JoinQuery(
        "dynamic_orders",
        [tables["customer"], tables["orders"], tables["lineitem"]],
        [
            JoinCondition("customer", "custkey", "orders", "custkey"),
            JoinCondition("orders", "orderkey", "lineitem", "orderkey"),
        ],
        [
            OutputAttribute.direct("customer", "custkey"),
            OutputAttribute.direct("orders", "orderkey"),
            OutputAttribute.direct("lineitem", "linenumber"),
            OutputAttribute.direct("lineitem", "quantity"),
        ],
    )
    stream = TPCHRefreshStream(
        tables,
        seed=stream_seed,
        orders_per_batch=orders_per_batch,
        insert_fraction=insert_fraction,
    )
    return tables, query, stream


__all__ = [
    "EpochReport",
    "StreamingScenario",
    "build_order_stream_scenario",
]
