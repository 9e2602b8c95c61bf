"""Rule ``docs-links`` — every local markdown link resolves.

Run it alone with ``python -m repro check --rule docs-links``: inline
links/images and reference definitions in the README and the ``docs/`` tree must point
at files that exist, and ``file.md#anchor`` targets must name a real
ATX heading by GitHub's slug rules.  External ``http(s)``/``mailto``
links are skipped — CI must not flake on the network.  Fenced code
blocks are masked (newline-preserving, so findings keep real line
numbers).
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.analysis.context import AnalysisContext
from repro.analysis.findings import Finding
from repro.analysis.rules import register_rule

RULE = "docs-links"

__all__ = [
    "RULE",
    "github_slug",
    "heading_slugs",
    "iter_links",
    "check_file",
    "check_paths",
]

#: Inline [text](target) — target up to the first unescaped ')'; also
#: matches images (the leading '!' is irrelevant to target checking).
_INLINE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
#: Reference definitions: [label]: target
_REFDEF = re.compile(r"^\s*\[[^\]]+\]:\s+(\S+)", re.MULTILINE)
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_CODE_FENCE = re.compile(r"```.*?```", re.DOTALL)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for an ATX heading."""
    text = re.sub(r"[`*_~]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _mask_fences(markdown: str) -> str:
    """Blank out fenced code, keeping every line number stable."""
    return _CODE_FENCE.sub(
        lambda m: "\n" * m.group(0).count("\n"), markdown
    )


def heading_slugs(markdown: str) -> set[str]:
    """All anchor slugs a markdown document defines."""
    return {
        github_slug(match)
        for match in _HEADING.findall(_mask_fences(markdown))
    }


def iter_links(markdown: str):
    """Every ``(target, line)`` pair in a document (inline links plus
    reference definitions), fenced code masked out."""
    stripped = _mask_fences(markdown)
    for pattern in (_INLINE, _REFDEF):
        for match in pattern.finditer(stripped):
            line = stripped.count("\n", 0, match.start()) + 1
            yield match.group(1), line


def check_file(path: Path) -> list[tuple[int, str]]:
    """Broken-link ``(line, message)`` pairs for one markdown file."""
    markdown = path.read_text(encoding="utf-8")
    errors: list[tuple[int, str]] = []
    for target, line in iter_links(markdown):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        base, _, anchor = target.partition("#")
        if not base:  # pure in-page anchor
            if anchor and github_slug(anchor) not in heading_slugs(markdown):
                errors.append((line, f"missing in-page anchor #{anchor}"))
            continue
        resolved = (path.parent / base).resolve()
        if not resolved.exists():
            errors.append((line, f"broken link -> {target}"))
            continue
        if anchor and resolved.suffix == ".md":
            slugs = heading_slugs(resolved.read_text(encoding="utf-8"))
            if github_slug(anchor) not in slugs:
                errors.append((line, f"missing anchor -> {target}"))
    return errors


def check_paths(paths: list[str]) -> list[str]:
    """Flat error strings for files and (recursively) directories of
    markdown (the form ``tests/test_docs.py`` asserts on)."""
    errors: list[str] = []
    for entry in paths:
        path = Path(entry)
        files = sorted(path.rglob("*.md")) if path.is_dir() else [path]
        for markdown_file in files:
            errors.extend(
                f"{markdown_file}: {message}"
                for _line, message in check_file(markdown_file)
            )
    return errors


@register_rule(
    RULE,
    "local markdown links in README.md and docs/ resolve (files exist, "
    "anchors name real headings)",
)
def check(ctx: AnalysisContext) -> list[Finding]:
    findings: list[Finding] = []
    for path in ctx.markdown_files():
        rel = ctx.rel(path)
        findings.extend(
            Finding(RULE, rel, line, message)
            for line, message in check_file(path)
        )
    return findings
