"""Stale contracts: a registry entry must name members its class defines.

The lock and epoch checkers only *look up* the names a contract lists, so an
entry naming a deleted buffer or draw method silently guards nothing and the
registry drifts from the code.  This rule reports each such name at the
class definition, so deleting code forces shrinking its contract too.

Only real library files (paths under ``src/repro/``) are held to it, even
under ``assume_library``: fixtures mirror registered classes by name with
minimal stand-in bodies that legitimately omit most of a contract.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, List, Set, Tuple

from repro.lint.core import Finding, Rule, is_library_path
from repro.lint.registry import EPOCH_REGISTRY, LOCK_REGISTRY
from repro.lint.symbols import ClassInfo, ModuleSymbols, ProjectSymbols

if TYPE_CHECKING:
    from repro.lint.runner import LintConfig

RULES = (
    Rule(
        id="CONTRACT001",
        name="stale-contract",
        invariant=(
            "every method or attribute a LOCK_REGISTRY/EPOCH_REGISTRY entry "
            "names must still be defined by its class"
        ),
    ),
)

_RULE = RULES[0]


def _defined_members(info: ClassInfo) -> Set[str]:
    """Methods, class-body names, and attributes stored via ``self.<attr>``."""
    members = set(info.methods)
    for stmt in info.node.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else []
        if isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        members.update(t.id for t in targets if isinstance(t, ast.Name))
    for method in info.methods.values():
        members.update(a.attr for a in method.accesses if a.is_store)
    return members


def _named_members(class_name: str) -> List[Tuple[str, str]]:
    """``(registry, member)`` for every member the contracts of a class name."""
    named: Set[Tuple[str, str]] = set()
    lock = LOCK_REGISTRY.get(class_name)
    if lock is not None:
        for lock_attr, guarded in lock.locks.items():
            named.update(("LOCK_REGISTRY", m) for m in {lock_attr, *guarded})
    epoch = EPOCH_REGISTRY.get(class_name)
    if epoch is not None:
        members = epoch.refresh_methods | epoch.cached_attrs | epoch.entry_points | epoch.exempt
        named.update(("EPOCH_REGISTRY", m) for m in members)
    return sorted(named)


def check(
    module: ModuleSymbols, project: ProjectSymbols, config: "LintConfig"
) -> List[Finding]:
    if not is_library_path(module.path):
        return []
    findings: List[Finding] = []
    for name, info in module.classes.items():
        defined = _defined_members(info)
        for registry, member in _named_members(name):
            if member in defined:
                continue
            findings.append(
                Finding(
                    rule_id=_RULE.id,
                    severity=_RULE.severity,
                    path=module.path,
                    line=info.node.lineno,
                    col=info.node.col_offset,
                    message=(
                        f"{registry}[{name!r}] names `{member}`, which {name} "
                        "no longer defines; drop it from the contract"
                    ),
                )
            )
    return findings


__all__ = ["RULES", "check"]
