"""Rule ``schema-kinds`` — every codec kind has round-trip coverage.

``flow/serialize.py`` keeps every schema kind in one literal table,
``KINDS = {"<kind>": "<module.Class>", ...}``: ``encode`` stamps exactly
those kinds and ``decode`` checks them.  A kind without a round-trip
test is a schema that can drift silently — the serve protocol and the
artifact store both ride on these envelopes.  This rule reads the table
and requires each kind to appear as a string literal somewhere under
``tests/`` (the round-trip suites parametrize over kind names, so the
literal is the reliable signal; a missing literal means no test ever
names that schema).  A codec whose table cannot be found, or is empty,
is a finding too: the rule never passes by seeing nothing.
"""

from __future__ import annotations

import ast

from repro.analysis.context import AnalysisContext
from repro.analysis.findings import Finding
from repro.analysis.rules import register_rule

RULE = "schema-kinds"

_SERIALIZE = "src/repro/flow/serialize.py"


def codec_kinds(tree: ast.Module) -> dict[str, int]:
    """kind -> line, from the module-level ``KINDS = {...}`` literal."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "KINDS" for t in node.targets)
            and isinstance(node.value, ast.Dict)
        ):
            return {
                key.value: key.lineno
                for key in node.value.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            }
    return {}


@register_rule(
    RULE,
    "every kind in flow/serialize.py's KINDS table appears in a "
    "round-trip test under tests/",
)
def check(ctx: AnalysisContext) -> list[Finding]:
    serialize_path = ctx.root / _SERIALIZE
    if not serialize_path.is_file():
        return []
    tree = ctx.tree(serialize_path)
    if tree is None:
        return []
    rel = ctx.rel(serialize_path)
    kinds = codec_kinds(tree)
    if not kinds:
        return [
            Finding(
                RULE,
                rel,
                1,
                "no schema kinds found: the codec must keep them in a "
                "literal module-level `KINDS = {...}` dict",
            )
        ]
    test_literals: set[str] = set()
    tests_dir = ctx.root / "tests"
    for path in ctx.python_files():
        if tests_dir not in path.parents:
            continue
        test_tree = ctx.tree(path)
        if test_tree is None:
            continue
        for node in ast.walk(test_tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                test_literals.add(node.value)
    return [
        Finding(
            RULE,
            rel,
            line,
            f"schema kind '{kind}' never appears in tests/; add a "
            "round-trip test that names it",
        )
        for kind, line in sorted(kinds.items(), key=lambda item: item[1])
        if kind not in test_literals
    ]
