"""Reference join samplers: one root-to-leaf walk at a time.

These are the scalar walks the library drew with before every draw went
through the batched block path (:meth:`JoinSampler.sample_block`,
:meth:`WanderJoin.walk_block`).  They are slow but direct transcriptions of
the algorithms:

* :func:`try_sample` — one accept/reject walk of Zhao et al.: a weighted root
  choice, then per child the joinable rows from the hash index, an
  accept/reject test against the weight function's bound and a weighted
  child choice, then the residual and predicate checks;
* :func:`walk` — one wander-join walk (Li et al.): uniform root row, uniform
  joinable row per hop, probability ``1/|R_1| · Π 1/d``.

Both read the sampler's own weight function, tree, stats and generator, so a
test can run the oracle and the block path side by side on one instance and
compare what they accept.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.sampling.join_sampler import JoinSampler, SampleDraw
from repro.sampling.wander_join import WalkResult, WanderJoin


def try_sample(sampler: JoinSampler) -> Optional[SampleDraw]:
    """One root-to-leaf attempt on ``sampler``; ``None`` when rejected.

    Counts into ``sampler.stats`` exactly as the block path does, and runs
    the sampler's staleness check first.
    """
    sampler.refresh()
    stats = sampler.stats
    stats.attempts += 1
    root_pos = _weighted_root_choice(sampler)
    if root_pos is None:
        stats.rejected_empty += 1
        return None
    query = sampler.query
    assignment: Dict[str, int] = {sampler.tree.root.relation: root_pos}
    for node, parent in sampler._order:
        if parent is None:
            continue
        parent_rel = query.relation(parent.relation)
        child_rel = query.relation(node.relation)
        parent_row = parent_rel.row(assignment[parent.relation])
        key = tuple(
            parent_row[parent_rel.schema.position(a)] for a in node.parent_attributes
        )
        lookup = key if len(key) > 1 else key[0]
        joinable = child_rel.index_on_columns(node.child_attributes).positions(lookup)
        if not joinable:
            stats.rejected_empty += 1
            return None
        weights = sampler.weight_function.weights_for(node, joinable)
        realized = float(weights.sum())
        if realized <= 0:
            stats.rejected_empty += 1
            return None
        bound = sampler.weight_function.acceptance_bound(node)
        if bound is not None and bound > 0:
            if sampler.rng.random() >= realized / bound:
                stats.rejected_weight += 1
                return None
        chosen = int(sampler.rng.choice(len(joinable), p=weights / realized))
        assignment[node.relation] = joinable[chosen]

    if not sampler.tree.residual_satisfied(assignment):
        stats.rejected_residual += 1
        return None
    if sampler.enforce_predicates and not _predicates_satisfied(sampler, assignment):
        stats.rejected_predicate += 1
        return None
    stats.accepted += 1
    return SampleDraw(
        value=query.project_assignment(assignment), assignment=dict(assignment)
    )


def sample(sampler: JoinSampler, max_attempts: int = 1_000_000) -> SampleDraw:
    """One accepted scalar draw; ``RuntimeError`` after ``max_attempts``."""
    for _ in range(max_attempts):
        draw = try_sample(sampler)
        if draw is not None:
            return draw
    raise RuntimeError(
        f"scalar oracle on {sampler.query.name!r} failed to accept a sample "
        f"after {max_attempts} attempts"
    )


def _weighted_root_choice(sampler: JoinSampler) -> Optional[int]:
    """Root row by inverse-CDF search over the cumulative root weights."""
    root_weights = sampler._root_weights
    if sampler._root_total <= 0:
        return None
    cumulative = np.cumsum(root_weights)
    target = sampler.rng.random() * sampler._root_total
    pos = int(np.searchsorted(cumulative, target, side="right"))
    if pos >= len(root_weights):
        pos = len(root_weights) - 1
    if root_weights[pos] <= 0:
        # Landed on a zero-weight row through floating-point edge effects;
        # fall back to an explicit renormalized choice.
        positive = np.flatnonzero(root_weights > 0)
        if positive.size == 0:
            return None
        probabilities = root_weights[positive] / root_weights[positive].sum()
        pos = int(sampler.rng.choice(positive, p=probabilities))
    return pos


def _predicates_satisfied(sampler: JoinSampler, assignment: Dict[str, int]) -> bool:
    query = sampler.query
    if query.push_down_predicates or not query.predicates:
        return True
    for rel_name, predicate in query.predicates.items():
        relation = query.relation(rel_name)
        if not predicate.evaluate(relation.row(assignment[rel_name]), relation.schema):
            return False
    return True


def walk(walker: WanderJoin) -> WalkResult:
    """One wander-join walk on ``walker``; counts into its walk counters."""
    walker.walk_count += 1
    query = walker.query
    root = walker.tree.root
    root_rel = query.relation(root.relation)
    if len(root_rel) == 0:
        return WalkResult(success=False)
    probability = 1.0 / len(root_rel)
    assignment: Dict[str, int] = {
        root.relation: int(walker.rng.integers(0, len(root_rel)))
    }
    for node, parent in walker._order:
        if parent is None:
            continue
        parent_rel = query.relation(parent.relation)
        child_rel = query.relation(node.relation)
        parent_row = parent_rel.row(assignment[parent.relation])
        key = tuple(
            parent_row[parent_rel.schema.position(a)] for a in node.parent_attributes
        )
        lookup = key if len(key) > 1 else key[0]
        joinable = child_rel.index_on_columns(node.child_attributes).positions(lookup)
        if not joinable:
            return WalkResult(success=False)
        probability *= 1.0 / len(joinable)
        assignment[node.relation] = joinable[int(walker.rng.integers(0, len(joinable)))]

    if not walker.tree.residual_satisfied(assignment):
        return WalkResult(success=False)
    walker.success_count += 1
    return WalkResult(
        success=True,
        value=query.project_assignment(assignment),
        assignment=assignment,
        probability=probability,
    )
