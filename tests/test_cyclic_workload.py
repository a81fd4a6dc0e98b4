"""End-to-end tests of the cyclic-join union workload (Fig. 1 / §8.2 machinery)."""

import pytest

from repro.core.union_sampler import SetUnionSampler
from repro.core.online_sampler import OnlineUnionSampler
from repro.estimation.exact import FullJoinUnionEstimator
from repro.estimation.histogram import HistogramUnionEstimator
from repro.estimation.random_walk import RandomWalkUnionEstimator
from repro.joins.executor import exact_overlap_size, join_result_set
from repro.joins.join_tree import build_join_tree
from repro.joins.query import JoinType
from repro.sampling.join_sampler import JoinSampler
from repro.tpch.cyclic import build_cyclic_bundle_workload


@pytest.fixture(scope="module")
def cy_workload():
    return build_cyclic_bundle_workload(scale_factor=0.0005, overlap_scale=0.4, seed=13)


class TestWorkloadStructure:
    def test_join_types(self, cy_workload):
        types = {q.name: q.join_type for q in cy_workload.queries}
        assert types["CY_W"] is JoinType.CYCLIC
        assert types["CY_E"] is JoinType.CHAIN or types["CY_E"] is JoinType.ACYCLIC

    def test_cycle_produces_residual_conditions(self, cy_workload):
        tree = build_join_tree(cy_workload.query("CY_W"))
        assert tree.has_residuals

    def test_queries_overlap(self, cy_workload):
        assert exact_overlap_size(cy_workload.queries) > 0

    def test_cyclic_and_denormalized_views_agree_on_shared_customers(self, cy_workload):
        """The cyclic self-join and the denormalized pair view describe the same
        logical result; on customers visible to both joins they must coincide."""
        results_w = join_result_set(cy_workload.query("CY_W"))
        results_e = join_result_set(cy_workload.query("CY_E"))
        customers_w = {value[0] for value in results_w}
        customers_e = {value[0] for value in results_e}
        shared = customers_w & customers_e
        assert shared
        shared_w = {v for v in results_w if v[0] in shared}
        shared_e = {v for v in results_e if v[0] in shared}
        assert shared_w == shared_e

    def test_invalid_overlap_scale(self):
        with pytest.raises(ValueError):
            build_cyclic_bundle_workload(overlap_scale=2.0)


class TestCyclicSampling:
    def test_single_join_sampler_respects_cycle(self, cy_workload):
        query = cy_workload.query("CY_W")
        results = join_result_set(query)
        sampler = JoinSampler(query, weights="ew", seed=3)
        for value in sampler.sample_block(100).values(query):
            assert value in results
        assert sampler.stats.rejected_residual >= 0

    def test_estimators_run_on_cyclic_union(self, cy_workload):
        exact = FullJoinUnionEstimator(cy_workload.queries).estimate()
        histogram = HistogramUnionEstimator(cy_workload.queries, join_size_method="ew").estimate()
        walks = RandomWalkUnionEstimator(
            cy_workload.queries, walks_per_join=400, seed=5
        ).estimate()
        assert exact.union_size > 0
        assert histogram.union_size > 0
        assert walks.union_size == pytest.approx(exact.union_size, rel=0.4)

    def test_set_union_sampling_over_cyclic_union(self, cy_workload):
        exact = FullJoinUnionEstimator(cy_workload.queries).estimate()
        universe = set()
        for query in cy_workload.queries:
            universe |= join_result_set(query)
        sampler = SetUnionSampler(cy_workload.queries, exact, seed=7, mode="strict")
        result = sampler.sample(150)
        assert len(result) == 150
        assert all(s.value in universe for s in result.samples)
        assert set(result.sources()) <= {"CY_W", "CY_E"}

    def test_online_sampling_over_cyclic_union(self, cy_workload):
        universe = set()
        for query in cy_workload.queries:
            universe |= join_result_set(query)
        sampler = OnlineUnionSampler(cy_workload.queries, seed=9, walks_per_join=200)
        result = sampler.sample(100)
        assert len(result) == 100
        assert all(s.value in universe for s in result.samples)
