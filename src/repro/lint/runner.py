"""Discovery and orchestration: files in, sorted findings and an exit code out.

The exit-code contract is what CI keys on:

* ``0`` — no live error-severity findings (suppressed ones do not count);
* ``1`` — at least one live error finding;
* ``2`` — the linter itself failed (reserved for ``__main__``).

Contract rules (RNG/epoch/lock/merge/determinism/resource) apply only to
*library* files — paths under ``src/repro/`` — so ``python -m repro.lint
src/ tests/`` does not hold test scaffolding to production invariants.
Fixture-based tests opt in with ``assume_library=True``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.lint.checkers import CHECKERS, all_rules
from repro.lint.core import (
    Finding,
    PARSE_RULE,
    Rule,
    Severity,
    apply_suppressions,
    is_library_path,
    parse_suppressions,
)
from repro.lint.symbols import ModuleSymbols, build_project

#: directory names never descended into during discovery
DEFAULT_EXCLUDES: Tuple[str, ...] = (
    "__pycache__",
    ".git",
    "lint_fixtures",
    "goldens",
    ".venv",
    "build",
    "dist",
)


@dataclass
class LintConfig:
    """Knobs for one lint run."""

    #: treat every file as library code (fixture tests use this)
    assume_library: bool = False
    #: restrict to these rule ids; empty means all
    rules: Tuple[str, ...] = ()
    #: directory names to skip during discovery
    excludes: Tuple[str, ...] = DEFAULT_EXCLUDES

    def is_library(self, path: str) -> bool:
        return self.assume_library or is_library_path(path)

    def wants(self, rule_id: str) -> bool:
        return not self.rules or rule_id in self.rules


@dataclass
class LintResult:
    """Everything one run produced, ready for a reporter."""

    findings: List[Finding] = field(default_factory=list)
    files: List[str] = field(default_factory=list)

    @property
    def live(self) -> List[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> List[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.live if f.severity is Severity.ERROR]

    @property
    def exit_code(self) -> int:
        return 1 if self.errors else 0


def discover(paths: Sequence[str], excludes: Iterable[str]) -> List[Path]:
    """Expand files and directories into a sorted list of ``.py`` files."""
    excluded = set(excludes)
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix == ".py":
                out.append(path)
            continue
        if not path.is_dir():
            continue
        for candidate in sorted(path.rglob("*.py")):
            if any(part in excluded for part in candidate.parts):
                continue
            out.append(candidate)
    # De-duplicate while preserving the sorted-per-root order.
    seen = set()
    unique: List[Path] = []
    for path in out:
        key = str(path)
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return unique


def _parse_modules(
    files: Sequence[Path],
) -> Tuple[List[ModuleSymbols], List[Finding]]:
    modules: List[ModuleSymbols] = []
    parse_findings: List[Finding] = []
    for path in files:
        text = path.read_text(encoding="utf-8")
        try:
            modules.append(ModuleSymbols.parse(str(path), text))
        except SyntaxError as exc:
            parse_findings.append(
                Finding(
                    rule_id=PARSE_RULE.id,
                    severity=PARSE_RULE.severity,
                    path=str(path),
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    message=f"syntax error: {exc.msg}",
                )
            )
    return modules, parse_findings


def run_lint(
    paths: Sequence[str], config: Optional[LintConfig] = None
) -> LintResult:
    """Lint ``paths`` (files or directories) under ``config``."""
    config = config or LintConfig()
    files = discover(paths, config.excludes)
    modules, parse_findings = _parse_modules(files)
    project = build_project(modules)

    result = LintResult(files=[str(p) for p in files])
    result.findings.extend(parse_findings)

    for module in modules:
        collected: List[Finding] = []
        for checker in CHECKERS:
            for finding in checker.check(module, project, config):
                if config.wants(finding.rule_id):
                    collected.append(finding)
        suppressions = parse_suppressions(module.source)
        result.findings.extend(
            apply_suppressions(collected, suppressions, module.path)
        )

    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return result


def known_rules() -> Tuple[Rule, ...]:
    """Every rule the checkers can emit (plus SUP001/PARSE001)."""
    return all_rules()


__all__ = [
    "DEFAULT_EXCLUDES",
    "LintConfig",
    "LintResult",
    "discover",
    "known_rules",
    "run_lint",
]
