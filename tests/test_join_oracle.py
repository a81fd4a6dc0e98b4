"""Generated-shape differential: the block draw path against the executor
and the scalar reference oracle (``tests/join_oracle.py``).

On the generated chains, stars and triangles (with a cycle-closing residual)
of the membership suite — single or composite, int or string keys — every
assignment ``JoinSampler.sample_block`` returns must be one the executor's
``iterate_join_assignments`` yields, the exact-weight size must match the
executed join, and the oracle's one-walk-at-a-time ``try_sample`` must
accept only join members on the very instance the block path draws from.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.joins.executor import exact_join_size, iterate_join_assignments
from repro.sampling.join_sampler import JoinSampler

from tests.join_oracle import try_sample
from tests.test_membership import probe_cases


def _assignment_key(assignment):
    return tuple(sorted(assignment.items()))


def _block_assignments(block):
    return {
        tuple(sorted((name, int(block.positions[name][i])) for name in block.relation_order))
        for i in range(len(block))
    }


class TestGeneratedShapes:
    @given(case=probe_cases(), weights=st.sampled_from(["ew", "eo"]), seed=st.integers(0, 2**16))
    @settings(max_examples=120, deadline=None)
    def test_block_and_oracle_accept_only_join_members(self, case, weights, seed):
        query, members, _ = case
        sampler = JoinSampler(query, weights=weights, seed=seed)
        joined = {_assignment_key(a) for a in iterate_join_assignments(query, sampler.tree)}
        if not joined:
            with pytest.raises(RuntimeError, match="failed to accept"):
                sampler.sample_block(1, max_attempts=256)
            assert all(try_sample(sampler) is None for _ in range(32))
            return
        block = sampler.sample_block(40)
        assert len(block) == 40
        assert _block_assignments(block) <= joined
        assert set(block.values(query)) <= members
        # The oracle draws on the same instance: same weights, same stats,
        # the generator the block path just advanced.
        for _ in range(60):
            draw = try_sample(sampler)
            if draw is not None:
                assert _assignment_key(draw.assignment) in joined
                assert draw.value in members
        assert sampler.stats.accepted >= 40

    @given(case=probe_cases())
    @settings(max_examples=120, deadline=None)
    def test_exact_size_matches_executed_join(self, case):
        query, _, _ = case
        sampler = JoinSampler(query, weights="ew", seed=0)
        # Exact weights count the skeleton (the tree without its residual
        # conditions); the residual is checked per accepted walk.
        skeleton = dataclasses.replace(sampler.tree, residual_conditions=())
        skeleton_size = sum(1 for _ in iterate_join_assignments(query, skeleton))
        assert sampler.exact_size() == skeleton_size
        if not sampler.tree.residual_conditions:
            assert sampler.exact_size() == exact_join_size(query, distinct=False)
        else:
            assert sampler.exact_size() >= exact_join_size(query, distinct=False)
