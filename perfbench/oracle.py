"""Exact answers the benchmark checks the program's outputs against.

The oracle is built from the data seed in the benchmark's own process,
never in the measured one: every join is materialised with
``repro.joins.execute_join``, and ``FullJoinUnionEstimator`` gives the
exact union parameters the warm-up estimates are scored against.  On UQ1
at SF 0.01 that takes about 10 s, so the result is kept in the output
directory under a key made of the digest of ``src/`` and the data
parameters: a later run of the same source and data loads it instead.

A join's result set is kept as the set of 64-bit digests of its values'
JSON encoding, which is also how values arrive from the server.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from offline import parameters_dict

#: bump when the cached file's layout changes
FORMAT = 1
#: the attribute the server workloads aggregate
SUM_ATTRIBUTE = "totalprice"


def value_key(value: Sequence) -> int:
    """Digest of one output value; equal values give equal keys."""
    encoded = json.dumps(list(value), separators=(",", ":")).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(encoded, digest_size=8).digest(), "little")


class Oracle:
    """Result sets, bag SUM/COUNT and exact union parameters of one workload."""

    def __init__(self, names: List[str], sets: Dict[str, Set[int]],
                 facts: Dict[str, object]) -> None:
        self.names = names
        self.sets = sets
        #: per join: bag SUM and COUNT of ``SUM_ATTRIBUTE``, where the join has it
        self.sums: Dict[str, float] = facts["sums"]  # type: ignore[assignment]
        self.counts: Dict[str, int] = facts["counts"]  # type: ignore[assignment]
        #: join_order / join_sizes / cover_sizes / union_size of the union
        self.parameters: Dict[str, object] = facts["parameters"]  # type: ignore[assignment]

    @classmethod
    def load_or_build(cls, workload_name: str, build, cache: Path) -> "Oracle":
        """Load ``cache`` if present; else ``build()`` the workload, execute it, save."""
        if cache.exists():
            with np.load(cache, allow_pickle=False) as stored:
                facts = json.loads(str(stored["facts"]))
                sets = {name: set(stored[f"join:{name}"].tolist()) for name in facts["names"]}
            return cls(facts["names"], sets, facts)
        oracle = cls.build(build())
        arrays = {f"join:{name}": np.fromiter(keys, dtype=np.uint64, count=len(keys))
                  for name, keys in oracle.sets.items()}
        facts = {"workload": workload_name, "names": oracle.names, "sums": oracle.sums,
                 "counts": oracle.counts, "parameters": oracle.parameters}
        partial = cache.with_name(cache.name + f".{os.getpid()}.partial.npz")
        np.savez(partial, facts=np.array(json.dumps(facts)), **arrays)
        os.replace(partial, cache)
        return oracle

    @classmethod
    def build(cls, workload) -> "Oracle":
        from repro.estimation.exact import FullJoinUnionEstimator
        from repro.joins.executor import execute_join

        names = list(workload.query_names)
        result_sets = {}
        sums: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for query in workload.queries:
            rows = execute_join(query)
            result_sets[query.name] = set(rows)
            if SUM_ATTRIBUTE in query.output_schema:
                position = query.output_schema.index(SUM_ATTRIBUTE)
                sums[query.name] = math.fsum(row[position] for row in rows)
                counts[query.name] = len(rows)
        # FullJoinUnionEstimator would execute every join again; hand it the
        # sets just built so the exact parameters come from the same run.
        estimator = FullJoinUnionEstimator(workload.queries)
        estimator._result_sets = result_sets
        parameters = parameters_dict(estimator.estimate())
        sets = {name: {value_key(v) for v in values} for name, values in result_sets.items()}
        return cls(names, sets, {"sums": sums, "counts": counts, "parameters": parameters})

    def owner(self, key: int) -> Optional[str]:
        """Lowest-index join containing the value with ``key``."""
        for name in self.names:
            if key in self.sets[name]:
                return name
        return None


class Checker:
    """Accumulates output-check failures; the run is correct when none."""

    def __init__(self) -> None:
        self.checked = 0
        self.failures: List[str] = []

    def fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)
        else:
            self.failures[-1] = f"... and more (latest: {message})"

    @property
    def ok(self) -> bool:
        return not self.failures

    def values_in_join(self, oracle: Oracle, where: str, values: Iterable[Sequence],
                       sources: Iterable[str], strict: bool = False) -> None:
        """Every value belongs to its source join; strict: and is owned by it."""
        for value, source in zip(values, sources):
            self.checked += 1
            key = value_key(value)
            if source not in oracle.sets:
                self.fail(f"{where}: unknown source join {source!r}")
            elif key not in oracle.sets[source]:
                self.fail(f"{where}: value {list(value)} is not in join {source}")
            elif strict and oracle.owner(key) != source:
                self.fail(f"{where}: value {list(value)} drawn from {source} but owned by "
                          f"{oracle.owner(key)}")

    def aggregate_report(self, where: str, report: dict, rel_error: float,
                         exact: Optional[float] = None) -> None:
        """CI sanity, the requested width, and (when known) the exact answer.

        The exact answer must lie within five half-widths of the estimate:
        a miss is a bias, not the 5% a 95% interval may miss by chance.
        """
        self.checked += 1
        if report.get("degraded"):
            self.fail(f"{where}: degraded answer")
        achieved = report.get("achieved_rel_error")
        if achieved is None or achieved > rel_error * (1 + 1e-9):
            self.fail(f"{where}: achieved rel error {achieved} > requested {rel_error}")
        groups = report.get("groups") or []
        if len(groups) != 1:
            self.fail(f"{where}: expected one group, got {len(groups)}")
            return
        group = groups[0]
        estimate, low, high = group["estimate"], group["ci_low"], group["ci_high"]
        if not all(map(math.isfinite, (estimate, low, high))) or not low <= estimate <= high:
            self.fail(f"{where}: bad interval {low} <= {estimate} <= {high}")
            return
        if exact is not None:
            half = (high - low) / 2.0
            if abs(estimate - exact) > 5.0 * half + 1e-9 * abs(exact):
                self.fail(f"{where}: estimate {estimate} too far from exact {exact} "
                          f"(half width {half})")
