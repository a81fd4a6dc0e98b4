"""Checker registry: every project-specific rule family, in one place."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.lint.checkers import (
    contracts,
    determinism,
    epoch,
    locks,
    merge,
    resources,
    rng,
)
from repro.lint.core import PARSE_RULE, Rule, SUPPRESSION_RULE

#: every checker module, in report order
CHECKERS = (rng, epoch, locks, contracts, merge, determinism, resources)


def all_rules() -> Tuple[Rule, ...]:
    """Every rule the linter can raise, framework rules included."""
    rules: List[Rule] = [SUPPRESSION_RULE, PARSE_RULE]
    for checker in CHECKERS:
        rules.extend(checker.RULES)
    return tuple(rules)


def rules_by_id() -> Dict[str, Rule]:
    return {rule.id: rule for rule in all_rules()}


__all__ = ["CHECKERS", "all_rules", "rules_by_id"]
