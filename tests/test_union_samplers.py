"""Tests for repro.core.union_sampler (disjoint, Bernoulli, set-union)."""

import pytest

from repro.analysis.uniformity import chi_square_uniformity
from repro.core.union_sampler import (
    BernoulliUnionSampler,
    DisjointUnionSampler,
    SetUnionSampler,
)
from repro.estimation.exact import FullJoinUnionEstimator
from repro.estimation.histogram import HistogramUnionEstimator
from repro.joins.executor import join_result_set
from repro.joins.membership import JoinMembershipProber

from tests.conftest import make_chain_query
from tests.stat_helpers import STAT_SEED, assert_follows


@pytest.fixture
def exact_params(union_triple):
    return FullJoinUnionEstimator(union_triple).estimate()


def union_values(queries):
    union = set()
    for query in queries:
        union |= join_result_set(query)
    return sorted(union)


class TestDisjointUnionSampler:
    def test_sample_count_and_membership(self, union_triple, exact_params):
        sampler = DisjointUnionSampler(union_triple, exact_params, seed=1)
        result = sampler.sample(200)
        assert len(result) == 200
        universe = set(union_values(union_triple))
        assert all(s.value in universe for s in result.samples)

    def test_join_selection_proportional_to_sizes(self, union_triple, exact_params):
        sampler = DisjointUnionSampler(union_triple, exact_params, seed=2)
        result = sampler.sample(1500)
        sources = result.sources()
        total = sum(sources.values())
        for query in union_triple:
            expected = exact_params.join_sizes[query.name] / exact_params.disjoint_union_size()
            assert sources[query.name] / total == pytest.approx(expected, abs=0.06)

    def test_disjoint_union_weights_values_by_multiplicity(self, union_triple, exact_params):
        """A value present in k joins must appear ~k times as often as a value
        present in one join (that is what distinguishes disjoint from set union)."""
        sampler = DisjointUnionSampler(union_triple, exact_params, seed=3)
        values = [s.value for s in sampler.sample(4000).samples]
        in_all_three = values.count((1, 100))
        exclusive = values.count((3, 400))
        assert in_all_three > 1.8 * exclusive

    def test_zero_samples(self, union_triple, exact_params):
        assert len(DisjointUnionSampler(union_triple, exact_params, seed=4).sample(0)) == 0

    def test_negative_count_rejected(self, union_triple, exact_params):
        with pytest.raises(ValueError):
            DisjointUnionSampler(union_triple, exact_params, seed=4).sample(-1)


class TestBernoulliUnionSampler:
    def test_uniform_over_set_union(self, union_triple, exact_params):
        sampler = BernoulliUnionSampler(union_triple, exact_params, seed=5)
        result = sampler.sample(3000)
        check = chi_square_uniformity([s.value for s in result.samples],
                                      union_values(union_triple))
        assert not check.rejects_uniformity(alpha=0.001)

    def test_rejects_duplicates_from_later_joins(self, union_triple, exact_params):
        sampler = BernoulliUnionSampler(union_triple, exact_params, seed=6)
        result = sampler.sample(500)
        # (1, 100) is in every join; it must only ever be attributed to J1.
        for sample in result.samples:
            if sample.value == (1, 100):
                assert sample.source_join == "J1"
        assert result.stats.rejected_duplicate > 0

    def test_accepts_estimated_parameters(self, union_triple):
        estimator = HistogramUnionEstimator(union_triple, join_size_method="ew")
        sampler = BernoulliUnionSampler(union_triple, estimator, seed=7)
        assert len(sampler.sample(100)) == 100


class TestSetUnionSamplerStrict:
    def test_uniform_over_set_union(self, union_triple, exact_params):
        sampler = SetUnionSampler(union_triple, exact_params, seed=8, mode="strict")
        result = sampler.sample(3000)
        check = chi_square_uniformity([s.value for s in result.samples],
                                      union_values(union_triple))
        assert not check.rejects_uniformity(alpha=0.001)

    def test_every_value_attributed_to_its_cover_owner(self, union_triple, exact_params):
        sampler = SetUnionSampler(union_triple, exact_params, seed=9, mode="strict")
        result = sampler.sample(800)
        # Cover owners: values in J1 belong to J1; (3,400) to J2; (5,500) to J3.
        for sample in result.samples:
            if sample.value in join_result_set(union_triple[0]):
                assert sample.source_join == "J1"
        assert any(s.source_join == "J2" for s in result.samples)
        assert any(s.source_join == "J3" for s in result.samples)


class TestSetUnionSamplerRecord:
    def test_samples_come_from_the_union(self, union_triple, exact_params):
        sampler = SetUnionSampler(union_triple, exact_params, seed=10, mode="record")
        result = sampler.sample(500)
        universe = set(union_values(union_triple))
        assert len(result) == 500
        assert all(s.value in universe for s in result.samples)

    def test_revisions_reassign_ownership_to_earlier_joins(self, union_triple, exact_params):
        # Fixed stream chosen to exercise the revision path (revisions are
        # rare on this tiny workload; not every seed produces one).
        sampler = SetUnionSampler(union_triple, exact_params, seed=16, mode="record")
        result = sampler.sample(1500)
        assert sampler.stats.revisions > 0
        # After enough sampling, overlap values must end up owned by the first
        # join that contains them (the record converges to the cover).
        final_owner = {}
        for sample in result.samples:
            final_owner[sample.value] = sample.source_join
        j1_values = join_result_set(union_triple[0])
        owned_elsewhere = [
            v for v, owner in final_owner.items() if v in j1_values and owner != "J1"
        ]
        # Revision can only leave a non-J1 owner for values whose J1 copy was
        # never drawn; with 1500 draws over 5 values that is vanishingly rare.
        assert not owned_elsewhere

    def test_rejection_and_acceptance_counters_consistent(self, union_triple, exact_params):
        sampler = SetUnionSampler(union_triple, exact_params, seed=12, mode="record")
        result = sampler.sample(300)
        stats = result.stats
        assert stats.iterations == stats.accepted + stats.rejected_duplicate
        assert stats.accepted >= 300

    def test_invalid_mode_rejected(self, union_triple, exact_params):
        with pytest.raises(ValueError):
            SetUnionSampler(union_triple, exact_params, mode="loose")

    def test_runaway_rejection_raises(self, union_pair):
        """With absurd parameters (union much larger than reality) the sampler
        must give up rather than loop forever."""
        from repro.estimation.parameters import UnionParameters

        bogus = UnionParameters(
            join_order=["J1", "J2"],
            join_sizes={"J1": 3.0, "J2": 3.0},
            cover_sizes={"J1": 0.0, "J2": 0.0},
            union_size=4.0,
        )
        sampler = SetUnionSampler(
            union_pair, bogus, seed=13, mode="record", max_iterations_factor=2
        )
        # Cover sizes of zero fall back to uniform selection, so sampling still
        # works; the guard only trips when nothing can ever be accepted.
        result = sampler.sample(5)
        assert len(result) == 5


class TestTimeAccounting:
    def test_breakdown_has_all_phases(self, union_triple, exact_params):
        sampler = SetUnionSampler(union_triple, exact_params, seed=14, mode="record")
        result = sampler.sample(200)
        breakdown = result.stats.breakdown()
        assert set(breakdown) == {"estimation", "accepted", "rejected"}
        assert breakdown["accepted"] > 0

    def test_warmup_time_recorded_when_estimator_passed(self, union_triple):
        estimator = FullJoinUnionEstimator(union_triple)
        sampler = SetUnionSampler(union_triple, estimator, seed=15)
        assert sampler.stats.warmup_seconds > 0


class TestBatchedIterations:
    """Strict and Bernoulli run their iterations in batches; the accepted
    stream must still come out in iteration order and the iteration guard
    must still trip."""

    SEEDS = 400

    def first_sources(self, make):
        return [
            make(STAT_SEED + i).sample(1).samples[0].source_join for i in range(self.SEEDS)
        ]

    def test_strict_first_sample_follows_cover_sizes(self, union_triple, exact_params):
        # One iteration accepts at most one tuple, so the first accepted
        # tuple comes from join j with probability |J'_j| / |U|.  A batch
        # emitted grouped by join would hand J1 nearly every first sample.
        sources = self.first_sources(
            lambda seed: SetUnionSampler(union_triple, exact_params, seed=seed, mode="strict")
        )
        expected = {
            name: exact_params.cover_sizes[name] / exact_params.union_size
            for name in exact_params.join_order
        }
        assert_follows(sources, expected)

    def test_bernoulli_first_sample_follows_iteration_order(self, union_triple, exact_params):
        # Join j accepts in an iteration with probability
        # q_j = min(|J_j|/|U|, 1) * |J'_j|/|J_j|, independently of the other
        # joins, and one iteration may accept several tuples.  Emitted in
        # (iteration, join) order, the first accepted tuple is then from j
        # with probability q_j * prod_{k<j}(1 - q_k) / (1 - prod_k(1 - q_k)).
        sources = self.first_sources(
            lambda seed: BernoulliUnionSampler(union_triple, exact_params, seed=seed)
        )
        union_size = exact_params.union_size
        q = {
            name: min(exact_params.join_sizes[name] / union_size, 1.0)
            * exact_params.cover_sizes[name] / exact_params.join_sizes[name]
            for name in exact_params.join_order
        }
        none_accept = 1.0
        expected = {}
        for name in exact_params.join_order:
            expected[name] = q[name] * none_accept
            none_accept *= 1.0 - q[name]
        expected = {name: p / (1.0 - none_accept) for name, p in expected.items()}
        assert_follows(sources, expected)

    @staticmethod
    def covered_union():
        """J2 ⊆ J1, and only J2 can be selected: nothing is ever accepted."""
        from repro.estimation.parameters import UnionParameters

        j1 = make_chain_query("J1", r_rows=[(1, 10), (2, 20)], s_rows=[(10, 100), (20, 300)])
        j2 = make_chain_query("J2", r_rows=[(1, 10)], s_rows=[(10, 100)])
        parameters = UnionParameters(
            join_order=["J1", "J2"],
            join_sizes={"J1": 0.0, "J2": 1.0},
            cover_sizes={"J1": 0.0, "J2": 1.0},
            union_size=1.0,
        )
        return [j1, j2], parameters

    @pytest.mark.parametrize("kind", ["strict", "bernoulli"])
    def test_runaway_guard_trips_at_the_iteration_budget(self, kind):
        queries, parameters = self.covered_union()
        if kind == "strict":
            sampler = SetUnionSampler(
                queries, parameters, seed=3, mode="strict", max_iterations_factor=10
            )
        else:
            sampler = BernoulliUnionSampler(
                queries, parameters, seed=3, max_iterations_factor=10
            )
        with pytest.raises(RuntimeError, match="exceeded 50 iterations"):
            sampler.sample(5)
        # batches are cut to the remaining budget: no overshoot at all
        assert sampler.stats.iterations == 50
        assert sampler.stats.rejected_duplicate == 50

    @pytest.mark.parametrize("kind", ["strict", "bernoulli"])
    def test_batched_samplers_never_take_the_scalar_probe(
        self, kind, union_triple, exact_params, monkeypatch
    ):
        batches = []
        contains_many = JoinMembershipProber.contains_many

        def spy(prober, values):
            batches.append(len(values))
            return contains_many(prober, values)

        def scalar(prober, value):
            raise AssertionError("scalar membership probe called")

        monkeypatch.setattr(JoinMembershipProber, "contains_many", spy)
        monkeypatch.setattr(JoinMembershipProber, "contains", scalar)
        if kind == "strict":
            sampler = SetUnionSampler(union_triple, exact_params, seed=21, mode="strict")
        else:
            sampler = BernoulliUnionSampler(union_triple, exact_params, seed=21)
        result = sampler.sample(300)
        assert len(result) == 300
        assert batches and max(batches) > 1
