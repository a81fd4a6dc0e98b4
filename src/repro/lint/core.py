"""Finding/severity model and the suppression contract of ``repro.lint``.

A *rule* is a stable identifier plus the invariant it encodes; a *finding*
is one rule violated at one source location.  Suppressions are inline
comments::

    do_something()  # repro-lint: disable=RNG001 -- reference scalar path

The justification after ``--`` is **required**: a suppression without one
does not suppress anything and instead raises ``SUP001`` at the directive
line, so every silenced finding carries a written reason a reviewer can
audit.  A directive suppresses findings on its own line or, when the
comment stands alone, on the following line.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


class Severity(enum.Enum):
    """How a finding affects the exit code: errors fail, warnings inform."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Rule:
    """One enforceable invariant: stable id, short name, and the contract."""

    id: str
    name: str
    invariant: str
    severity: Severity = Severity.ERROR


@dataclass
class Finding:
    """One rule violated at one location (1-indexed line, 0-indexed column)."""

    rule_id: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    justification: Optional[str] = None

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule_id,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "suppressed": self.suppressed,
            "justification": self.justification,
        }


SUPPRESSION_RULE = Rule(
    id="SUP001",
    name="suppression-without-justification",
    invariant=(
        "every `# repro-lint: disable=<rule>` directive must carry a "
        "`-- <justification>` explaining why the invariant does not apply"
    ),
)

PARSE_RULE = Rule(
    id="PARSE001",
    name="unparseable-source",
    invariant="every linted file must be valid Python",
)

def is_library_path(path: str) -> bool:
    """True for files of the real library package (``src/repro/...``)."""
    normalized = "/" + path.replace("\\", "/").lstrip("/")
    return "/src/repro/" in normalized or normalized.startswith("/repro/")


_DIRECTIVE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<rules>[A-Za-z0-9_,\s]+?)"
    r"(?:\s*--\s*(?P<why>.*\S))?\s*$"
)


@dataclass
class Suppression:
    """One parsed directive: the rules it silences and where it applies."""

    line: int
    rule_ids: Tuple[str, ...]
    justification: Optional[str]
    #: lines whose findings this directive covers (its own, plus the next
    #: line when the directive is a standalone comment)
    covered_lines: Tuple[int, ...] = field(default_factory=tuple)

    def covers(self, rule_id: str, line: int) -> bool:
        return line in self.covered_lines and rule_id in self.rule_ids


def parse_suppressions(source: str) -> List[Suppression]:
    """Extract every ``repro-lint: disable`` directive from ``source``."""
    suppressions: List[Suppression] = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _DIRECTIVE.search(text)
        if match is None:
            continue
        rule_ids = tuple(
            part.strip() for part in match.group("rules").split(",") if part.strip()
        )
        standalone = text.lstrip().startswith("#")
        covered = (lineno, lineno + 1) if standalone else (lineno,)
        suppressions.append(
            Suppression(
                line=lineno,
                rule_ids=rule_ids,
                justification=match.group("why"),
                covered_lines=covered,
            )
        )
    return suppressions


def apply_suppressions(
    findings: Iterable[Finding], suppressions: List[Suppression], path: str
) -> List[Finding]:
    """Mark suppressed findings; emit ``SUP001`` for directives missing a reason.

    A directive without a justification suppresses nothing — the underlying
    finding stays live *and* the directive itself is reported, so the fix is
    always either a written reason or a real repair.
    """
    out: List[Finding] = []
    for directive in suppressions:
        if not directive.justification:
            out.append(
                Finding(
                    rule_id=SUPPRESSION_RULE.id,
                    severity=SUPPRESSION_RULE.severity,
                    path=path,
                    line=directive.line,
                    col=0,
                    message=(
                        "suppression lists "
                        + ",".join(directive.rule_ids)
                        + " but has no `-- <justification>`; findings are NOT "
                        "suppressed until a reason is written"
                    ),
                )
            )
    for finding in findings:
        for directive in suppressions:
            if directive.justification and directive.covers(
                finding.rule_id, finding.line
            ):
                finding.suppressed = True
                finding.justification = directive.justification
                break
        out.append(finding)
    return out


__all__ = [
    "Finding",
    "Rule",
    "Severity",
    "Suppression",
    "SUPPRESSION_RULE",
    "PARSE_RULE",
    "apply_suppressions",
    "is_library_path",
    "parse_suppressions",
]
