"""Rule ``kernel-purity`` — registered hot paths stay word-parallel.

A function decorated ``@kernel`` (:mod:`repro.utils.kernels`) promises
to be pure packed numpy: whole-array calls over ``uint64`` planes, 64
patterns per instruction.  This rule rejects the constructs that break
that promise —

* Python-level ``for`` / ``while`` loops and comprehensions (one
  iteration per element is a 64x+ slowdown on the packed layout);
* ``int(...)`` / ``float(...)`` scalarization of array data and
  ``.tolist()`` / ``.item()`` materialisation;

with two deliberate escape hatches:

* *error paths*: conversions inside a ``raise`` or inside an ``if``
  block that raises are diagnostics, not hot-path work;
* *metadata*: ``int(len(x))``, ``int(x.size)``, ``int(x.shape[0])``
  and friends scalarize shape bookkeeping, not per-element data.

Functions whose names mark them as scalar oracles (``*_scalar``) must
**not** be registered — the differential suites need them slow and
obvious — and each known hot module must register at least one kernel
so the rule cannot be dodged by simply never decorating anything.
Structural walks that are intentionally O(depth) or O(pieces) (never
O(patterns)) carry a function-level ``# repro: allow[kernel-purity]``
on their ``def`` line with a one-line justification.
"""

from __future__ import annotations

import ast

from repro.analysis.astutil import (
    ancestors,
    dotted_name,
    is_kernel_function,
    parent_map,
)
from repro.analysis.context import AnalysisContext
from repro.analysis.findings import Finding
from repro.analysis.rules import register_rule
from repro.analysis.suppress import allow_index

RULE = "kernel-purity"

#: Modules that carry the packed hot paths; each must register at
#: least one kernel (checked only when the file exists, so fixture
#: trees stay small).
HOT_MODULES = (
    "src/repro/sim/batch.py",
    "src/repro/sim/threeval.py",
    "src/repro/atpg/batch_podem.py",
    "src/repro/utils/bitvec.py",
    "src/repro/circuit/gates.py",
    "src/repro/tpg/lfsr.py",
    "src/repro/tpg/accumulator.py",
)

_LOOP_NODES = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_MATERIALIZE_ATTRS = {"tolist", "item"}
_SCALARIZE_NAMES = {"int", "float"}
#: Attribute reads whose int() conversion is shape/metadata bookkeeping.
_METADATA_ATTRS = {"size", "ndim", "nbytes", "n_patterns", "n_words", "width", "shape"}


def _is_metadata_arg(arg: ast.expr) -> bool:
    """Is this ``int(...)`` argument metadata rather than array data?"""
    if isinstance(arg, ast.Call) and dotted_name(arg.func) == "len":
        return True
    if isinstance(arg, ast.Attribute) and arg.attr in _METADATA_ATTRS:
        return True
    if isinstance(arg, ast.Subscript):
        value = arg.value
        if isinstance(value, ast.Attribute) and value.attr == "shape":
            return True
    return False


def _on_error_path(node: ast.AST, parents: dict[ast.AST, ast.AST]) -> bool:
    """Inside a ``raise`` (or an ``if`` whose subtree raises)?"""
    for ancestor in ancestors(node, parents):
        if isinstance(ancestor, ast.Raise):
            return True
        if isinstance(ancestor, ast.If) and any(
            isinstance(sub, ast.Raise) for sub in ast.walk(ancestor)
        ):
            return True
        if isinstance(ancestor, ast.FunctionDef):
            break
    return False


def _function_allowed(
    func: ast.FunctionDef, allows: dict[int, "object"]
) -> bool:
    """A ``# repro: allow[kernel-purity]`` on the def line, a decorator
    line, or the line directly above the function suppresses the whole
    body."""
    lines = {func.lineno}
    lines.update(d.lineno for d in func.decorator_list)
    lines.add(min(lines) - 1)
    for line in lines:
        allow = allows.get(line)
        if allow is not None and allow.covers(RULE) and allow.justification:
            return True
    return False


@register_rule(
    RULE,
    "registered @kernel hot paths must stay word-parallel "
    "(no Python loops, int() scalarization, or .tolist())",
)
def check(ctx: AnalysisContext) -> list[Finding]:
    findings: list[Finding] = []
    for path in ctx.src_files():
        tree = ctx.tree(path)
        if tree is None:
            continue
        rel = ctx.rel(path)
        kernels = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and is_kernel_function(node)
        ]
        if rel in HOT_MODULES and not kernels:
            findings.append(
                Finding(
                    RULE,
                    rel,
                    1,
                    "hot module registers no @kernel functions; decorate its "
                    "packed fast paths (see repro.utils.kernels)",
                )
            )
        if not kernels:
            continue
        allows = allow_index(ctx.source(path))
        for func in kernels:
            if "scalar" in func.name:
                findings.append(
                    Finding(
                        RULE,
                        rel,
                        func.lineno,
                        f"'{func.name}' is a scalar oracle by naming convention "
                        "and must not be registered as a @kernel",
                    )
                )
                continue
            if _function_allowed(func, allows):
                continue
            parents = parent_map(func)
            for node in ast.walk(func):
                if node is func:
                    continue
                if isinstance(node, ast.FunctionDef):
                    # Nested defs are their own kernels only if decorated.
                    continue
                if isinstance(node, _LOOP_NODES):
                    kind = (
                        "while loop"
                        if isinstance(node, ast.While)
                        else "for loop"
                        if isinstance(node, ast.For)
                        else "comprehension"
                    )
                    findings.append(
                        Finding(
                            RULE,
                            rel,
                            node.lineno,
                            f"Python-level {kind} in @kernel '{func.name}'; "
                            "hot paths must be whole-array numpy calls",
                        )
                    )
                elif isinstance(node, ast.Call):
                    func_name = dotted_name(node.func)
                    if (
                        isinstance(node.func, ast.Attribute)
                        and node.func.attr in _MATERIALIZE_ATTRS
                    ):
                        findings.append(
                            Finding(
                                RULE,
                                rel,
                                node.lineno,
                                f".{node.func.attr}() materialises Python objects "
                                f"in @kernel '{func.name}'",
                            )
                        )
                    elif func_name in _SCALARIZE_NAMES and node.args:
                        if _is_metadata_arg(node.args[0]):
                            continue
                        if _on_error_path(node, parents):
                            continue
                        findings.append(
                            Finding(
                                RULE,
                                rel,
                                node.lineno,
                                f"{func_name}() scalarizes array data in @kernel "
                                f"'{func.name}' (metadata like int(x.size) and "
                                "raise-path diagnostics are exempt)",
                            )
                        )
    return findings
