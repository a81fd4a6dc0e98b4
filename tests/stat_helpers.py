"""Shared statistical assertions for sampler tests.

Every sampler test used to hand-roll the same three lines around
``chi_square_uniformity``; these helpers centralize that boilerplate (and its
failure messages) so uniformity checks read identically across
``test_join_sampler``, ``test_online_sampler``, ``test_batch_sampling`` and
``test_dynamic``.

The companion fixed-seed RNG fixture lives in ``conftest.py`` (``stat_rng``).
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping, Sequence, Tuple, Union

from repro.analysis.uniformity import (
    ChiSquareResult,
    chi_square_sf,
    chi_square_uniformity,
    frequency_table,
)

#: One shared seed for statistical fixtures: tests stay deterministic, and a
#: future re-seed (if a fixed stream ever lands on an unlucky tail) is one
#: edit instead of a hunt through every test module.
STAT_SEED = 20230717


def assert_uniform(
    samples: Iterable[Hashable],
    population: Sequence[Hashable],
    alpha: float = 0.001,
) -> ChiSquareResult:
    """Assert the samples are chi-square-compatible with uniformity.

    Returns the :class:`ChiSquareResult` so callers can make further
    assertions (e.g. on the statistic being finite).
    """
    result = chi_square_uniformity(list(samples), list(population))
    assert not result.rejects_uniformity(alpha=alpha), (
        f"uniformity rejected at alpha={alpha}: chi2={result.statistic:.2f} "
        f"(dof={result.degrees_of_freedom}), p={result.p_value:.2e}, "
        f"n={result.sample_size} over {result.population_size} values"
    )
    return result


def assert_follows(
    samples: Iterable[Hashable],
    probabilities: Mapping[Hashable, float],
    alpha: float = 0.001,
) -> float:
    """Assert the samples are chi-square-compatible with ``probabilities``.

    Cells with probability 0 must stay empty, as must values outside the
    mapping.  Returns the p-value.
    """
    counts = frequency_table(samples)
    n = sum(counts.values())
    assert n > 0, "at least one sample is required"
    impossible = {v: c for v, c in counts.items() if probabilities.get(v, 0.0) <= 0}
    assert not impossible, f"samples hit zero-probability cells: {impossible}"
    cells = [v for v, p in probabilities.items() if p > 0]
    statistic = sum(
        (counts.get(v, 0) - n * probabilities[v]) ** 2 / (n * probabilities[v]) for v in cells
    )
    p_value = chi_square_sf(statistic, len(cells) - 1) if len(cells) > 1 else 1.0
    observed = {v: counts.get(v, 0) / n for v in cells}
    assert p_value >= alpha, (
        f"distribution rejected at alpha={alpha}: chi2={statistic:.2f}, p={p_value:.2e}, "
        f"observed {observed} vs expected {dict(probabilities)}"
    )
    return p_value


def assert_no_catastrophic_bias(
    samples: Sequence[Hashable],
    population: Sequence[Hashable],
    factor: float = 2.0,
) -> ChiSquareResult:
    """Loose sanity check for approximate-by-design samplers.

    Asserts full coverage of the population, no impossible values (finite
    chi-square statistic), and that no value is sampled more than ``factor``
    times its uniform expectation.
    """
    values = list(samples)
    universe = list(dict.fromkeys(population))
    assert set(values) == set(universe), (
        f"samples cover {len(set(values))} of {len(universe)} union values"
    )
    result = chi_square_uniformity(values, universe)
    assert result.statistic < float("inf"), "sampler produced impossible values"
    expected = len(values) / len(universe)
    worst = max(values.count(u) for u in universe)
    assert worst < factor * expected, (
        f"worst value sampled {worst} times vs uniform expectation "
        f"{expected:.1f} (factor {factor})"
    )
    return result


#: A trial either returns an ``(low, high)`` tuple or any object exposing
#: ``ci_low``/``ci_high`` (e.g. :class:`repro.aqp.AggregateEstimate`).
IntervalLike = Union[Tuple[float, float], object]


def assert_ci_coverage(
    trial: Callable[[int], IntervalLike],
    truth: float,
    trials: int = 120,
    min_coverage: float = 0.90,
    seed_base: int = STAT_SEED,
) -> float:
    """Empirical confidence-interval coverage over many fixed-seed trials.

    Runs ``trial(seed)`` for ``trials`` consecutive seeds starting at
    ``seed_base``; each trial returns one confidence interval computed from an
    independent sample stream.  Asserts that the fraction of intervals
    containing ``truth`` is at least ``min_coverage`` (the harness's standard:
    nominal 95% intervals must achieve >= 90% empirically), and returns the
    observed coverage for further assertions.

    Seeds are fixed so the check is deterministic; bumping ``STAT_SEED``
    re-seeds every statistical test at once.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    covered = 0
    worst: list = []
    for i in range(trials):
        interval = trial(seed_base + i)
        if isinstance(interval, tuple):
            low, high = interval
        else:
            low, high = interval.ci_low, interval.ci_high
        if low <= truth <= high:
            covered += 1
        elif len(worst) < 5:
            worst.append((seed_base + i, low, high))
    coverage = covered / trials
    assert coverage >= min_coverage, (
        f"CI coverage {coverage:.3f} ({covered}/{trials}) below the required "
        f"{min_coverage:.2f} for truth={truth!r}; first misses "
        f"(seed, low, high): {worst}"
    )
    return coverage


__all__ = [
    "STAT_SEED",
    "assert_uniform",
    "assert_follows",
    "assert_no_catastrophic_bias",
    "assert_ci_coverage",
]
