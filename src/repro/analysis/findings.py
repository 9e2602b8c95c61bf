"""The findings model shared by every analysis rule.

A :class:`Finding` is one diagnostic anchored to a repo-relative file
and line, carrying the rule id that produced it — rendered in the
classic ``file:line:rule-id message`` form so editors and CI log
scrapers can jump to it.  Fingerprints (:func:`fingerprint`) are
content-based — a hash of the rule, the file and the *text* of the
anchor line plus an occurrence counter — so a finding in the ``--json``
report keeps its identity through unrelated edits that only shift line
numbers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Finding", "fingerprint"]


@dataclass(frozen=True)
class Finding:
    """One diagnostic: ``path:line:rule`` plus a human message."""

    rule: str
    path: str  # repo-relative, POSIX separators
    line: int  # 1-based; 0 for whole-file findings
    message: str
    #: Content fingerprint (stable across line shifts); filled by the engine.
    fingerprint: str = field(default="", compare=False)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.rule} {self.message}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }


def fingerprint(rule: str, path: str, line_text: str, occurrence: int) -> str:
    """Line-number-independent identity for one finding.

    ``occurrence`` disambiguates identical anchor lines in one file
    (the n-th finding of ``rule`` on that exact stripped text).
    """
    digest = hashlib.sha256(
        f"{rule}|{path}|{line_text.strip()}|{occurrence}".encode()
    ).hexdigest()
    return digest[:16]
