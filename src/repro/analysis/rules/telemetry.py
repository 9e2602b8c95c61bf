"""Rule ``telemetry`` — metric names are valid and documented.

Two contracts from PR 8's observability work, machine-checked:

* **naming** — every metric name in ``src/repro`` (a string literal
  fully matching ``repro_...``, or an f-string with a ``repro_``
  literal prefix, e.g. ``f"repro_cache_{outcome}_total"``) must match
  ``repro_[a-z_]+``;
* **documentation** — every concrete name must be covered by the
  glossary in ``docs/observability.md`` (f-strings count as covered
  when at least one documented name matches their pattern), and every
  documented name must correspond to something the code can emit (the
  reverse direction catches doc rot and typos on both sides).

``GET /stats`` needs no check of its own: the serve layer renders it
from the same registry ``GET /metrics`` exports, so the two cannot
disagree.

The glossary grammar understood here: backticked tokens, optional
trailing ``{label=}`` spec (stripped), inner ``{a,b,c}`` alternation
(expanded — ``repro_cache_{hits,misses,corrupt}_total`` is three
names), and ``repro_xxx_*`` prefix wildcards (cover code names but are
not required to be emitted literally).
"""

from __future__ import annotations

import ast
import re

from repro.analysis.context import AnalysisContext
from repro.analysis.findings import Finding
from repro.analysis.rules import register_rule
from repro.analysis.rules.docs_links import _mask_fences

RULE = "telemetry"

_NAME_RE = re.compile(r"repro_[a-z_]+")
_COLLECT_RE = re.compile(r"repro_[a-z0-9_]+")
_CODE_SPAN = re.compile(r"`([^`]+)`")

def _doc_names(text: str) -> tuple[set[str], list[str], dict[str, int]]:
    """Concrete names, wildcard prefixes, and name -> doc line."""
    names: set[str] = set()
    wildcards: list[str] = []
    lines: dict[str, int] = {}
    # Fenced code blocks desync backtick pairing (``` is an odd run of
    # backticks as far as the inline-span regex is concerned); mask them
    # newline-preservingly so spans and line numbers both stay honest.
    text = _mask_fences(text)
    for match in _CODE_SPAN.finditer(text):
        token = match.group(1)
        if not token.startswith("repro_"):
            continue
        line = text.count("\n", 0, match.start()) + 1
        if token.endswith("*"):
            wildcards.append(token.rstrip("*"))
            continue
        # Strip a trailing {label=...} spec.
        token = re.sub(r"\{[^{}]*=[^{}]*\}$", "", token)
        # Expand one inner {a,b,c} alternation.
        alt = re.match(r"^([a-z_]*)\{([a-z_,]+)\}([a-z_]*)$", token)
        expanded = (
            [f"{alt.group(1)}{part}{alt.group(3)}" for part in alt.group(2).split(",")]
            if alt
            else [token]
        )
        for name in expanded:
            if _COLLECT_RE.fullmatch(name):
                names.add(name)
                lines.setdefault(name, line)
    return names, wildcards, lines


def _code_metric_names(
    ctx: AnalysisContext,
) -> tuple[list[tuple[str, str, int]], list[tuple[re.Pattern, str, int]]]:
    """(literal, file, line) names and (regex, file, line) f-string
    patterns found anywhere under ``src/repro``."""
    literals: list[tuple[str, str, int]] = []
    patterns: list[tuple[re.Pattern, str, int]] = []
    for path in ctx.src_files():
        tree = ctx.tree(path)
        if tree is None:
            continue
        rel = ctx.rel(path)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _COLLECT_RE.fullmatch(node.value)
            ):
                literals.append((node.value, rel, node.lineno))
            elif isinstance(node, ast.JoinedStr):
                parts = node.values
                if not parts or not isinstance(parts[0], ast.Constant):
                    continue
                first = parts[0].value
                if not isinstance(first, str) or not first.startswith("repro_"):
                    continue
                regex = "".join(
                    re.escape(p.value)
                    if isinstance(p, ast.Constant)
                    else "[a-z0-9_]+"
                    for p in parts
                )
                patterns.append((re.compile(regex), rel, node.lineno))
    return literals, patterns


@register_rule(
    RULE,
    "metric names match repro_[a-z_]+ and are documented in "
    "docs/observability.md",
)
def check(ctx: AnalysisContext) -> list[Finding]:
    findings: list[Finding] = []
    literals, patterns = _code_metric_names(ctx)
    doc_path = ctx.root / "docs" / "observability.md"
    if doc_path.is_file():
        doc_names, wildcards, doc_lines = _doc_names(
            doc_path.read_text(encoding="utf-8")
        )
    else:
        doc_names, wildcards, doc_lines = set(), [], {}
    have_docs = doc_path.is_file()

    for name, rel, line in literals:
        if not _NAME_RE.fullmatch(name):
            findings.append(
                Finding(
                    RULE,
                    rel,
                    line,
                    f"metric name '{name}' does not match repro_[a-z_]+",
                )
            )
            continue
        if have_docs and name not in doc_names and not any(
            name.startswith(w) for w in wildcards
        ):
            findings.append(
                Finding(
                    RULE,
                    rel,
                    line,
                    f"metric '{name}' is not documented in "
                    "docs/observability.md",
                )
            )
    for regex, rel, line in patterns:
        matched = {name for name in doc_names if regex.fullmatch(name)}
        if have_docs and not matched:
            findings.append(
                Finding(
                    RULE,
                    rel,
                    line,
                    f"metric name pattern '{regex.pattern}' matches no "
                    "documented series in docs/observability.md",
                )
            )
    if have_docs:
        doc_rel = ctx.rel(doc_path)
        literal_names = {name for name, _, _ in literals}
        for name in sorted(doc_names):
            if name in literal_names:
                continue
            if any(regex.fullmatch(name) for regex, _, _ in patterns):
                continue
            findings.append(
                Finding(
                    RULE,
                    doc_rel,
                    doc_lines.get(name, 1),
                    f"documented metric '{name}' is never emitted by the code",
                )
            )
    return findings
