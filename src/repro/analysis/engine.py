"""The ``repro check`` driver: run rules, apply suppressions.

:func:`run_check` is the whole pipeline —

1. resolve the requested rule set against the registry (unknown rule
   ids get the standard "did you mean" error);
2. run each rule over one shared :class:`AnalysisContext`;
3. validate every ``# repro: allow[...]`` comment (unknown rule ids
   and missing justifications are findings of the built-in
   ``bad-suppression`` pseudo-rule, and cannot themselves be
   suppressed);
4. drop findings covered by an allow on their line or the line above,
   and fingerprint what remains.

The returned :class:`CheckReport` carries the surviving findings (the
failure set), plus the suppressed bucket for the ``--json`` view, and
renders both the human and the machine form.  Every surviving finding
fails the check.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.analysis.context import AnalysisContext
from repro.analysis.findings import Finding, fingerprint
from repro.analysis.rules import RULES
from repro.analysis.suppress import find_allows

__all__ = ["CheckReport", "run_check", "BAD_SUPPRESSION"]

#: Pseudo-rule id for malformed suppression comments.
BAD_SUPPRESSION = "bad-suppression"

REPORT_SCHEMA = 1


@dataclass
class CheckReport:
    """One ``repro check`` outcome."""

    root: str
    rules: list[str]
    findings: list[Finding]  # the failure set (not suppressed)
    suppressed: list[Finding] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": REPORT_SCHEMA,
            "kind": "check_report",
            "root": self.root,
            "rules": list(self.rules),
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "seconds": round(self.seconds, 3),
        }

    def render(self) -> str:
        lines = [finding.render() for finding in self.findings]
        counts = Counter(finding.rule for finding in self.findings)
        summary = (
            "repro check: OK"
            if self.ok
            else "repro check: "
            + ", ".join(f"{n}x {rule}" for rule, n in sorted(counts.items()))
        )
        tail = (
            f"({len(self.rules)} rules, {len(self.suppressed)} suppressed, "
            f"{self.seconds:.2f}s)"
        )
        return "\n".join([*lines, f"{summary} {tail}"])


def _assign_fingerprints(
    findings: Sequence[Finding], ctx: AnalysisContext
) -> list[Finding]:
    """Fill content fingerprints, disambiguating identical lines."""
    seen: Counter[tuple[str, str, str]] = Counter()
    out: list[Finding] = []
    for finding in sorted(findings, key=lambda f: (f.path, f.line, f.rule)):
        path = ctx.root / finding.path
        text = (
            ctx.line_text(path, finding.line) if path.is_file() else ""
        )
        key = (finding.rule, finding.path, text.strip())
        occurrence = seen[key]
        seen[key] += 1
        out.append(
            Finding(
                finding.rule,
                finding.path,
                finding.line,
                finding.message,
                fingerprint(finding.rule, finding.path, text, occurrence),
            )
        )
    return out


def run_check(
    root: Path | str,
    rules: Sequence[str] | None = None,
) -> CheckReport:
    """Run the analysis pass and return the report.

    ``rules`` selects a subset by id (default: every registered rule).
    """
    started = time.perf_counter()
    ctx = AnalysisContext(root)
    rule_ids = list(rules) if rules else RULES.names()
    specs = [RULES.get(rule_id) for rule_id in rule_ids]

    raw: list[Finding] = []
    for spec in specs:
        raw.extend(spec.check(ctx))

    # Unparsable files are reported once, whichever rules ran.
    for path in ctx.python_files():
        if ctx.tree(path) is None:
            raw.append(
                Finding(
                    BAD_SUPPRESSION,
                    ctx.rel(path),
                    1,
                    "file does not parse; fix the syntax error first",
                )
            )

    # Validate every suppression comment in the scanned tree.
    known = set(RULES.names()) | {BAD_SUPPRESSION}
    allow_maps: dict[str, dict[int, Any]] = {}
    for path in ctx.python_files():
        rel = ctx.rel(path)
        allows = find_allows(ctx.source(path))
        if allows:
            allow_maps[rel] = {a.line: a for a in allows}
        for allow in allows:
            if not allow.justification:
                raw.append(
                    Finding(
                        BAD_SUPPRESSION,
                        rel,
                        allow.line,
                        "suppression without justification; write "
                        "'# repro: allow[rule-id] <why>'",
                    )
                )
            for rule_id in allow.rules:
                if rule_id not in known:
                    raw.append(
                        Finding(
                            BAD_SUPPRESSION,
                            rel,
                            allow.line,
                            f"suppression names unknown rule '{rule_id}'",
                        )
                    )

    # Apply suppressions: an allow covers its own line and the next.
    active: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in raw:
        allows = allow_maps.get(finding.path, {})
        allow = allows.get(finding.line) or allows.get(finding.line - 1)
        if (
            finding.rule != BAD_SUPPRESSION
            and allow is not None
            and allow.covers(finding.rule)
            and allow.justification
        ):
            suppressed.append(finding)
        else:
            active.append(finding)

    return CheckReport(
        root=str(ctx.root),
        rules=rule_ids,
        findings=_assign_fingerprints(active, ctx),
        suppressed=suppressed,
        seconds=time.perf_counter() - started,
    )
