"""``repro.analysis`` — the repo-aware static-analysis pass.

An AST-based rule engine that machine-checks the conventions the
codebase rests on: packed kernels stay word-parallel, serve coroutines
never block the event loop, every metric is documented,
every serialize kind has round-trip coverage, the public API surface
is pinned, and the docs' links resolve.  Surfaced as ``repro check``;
rules, suppression grammar and the baseline workflow are documented in
``docs/static-analysis.md``.
"""

from repro.analysis.baseline import BASELINE_NAME, load_baseline, save_baseline
from repro.analysis.context import AnalysisContext
from repro.analysis.engine import BAD_SUPPRESSION, CheckReport, run_check
from repro.analysis.findings import Finding, fingerprint
from repro.analysis.rules import RULES, RuleSpec, register_rule

__all__ = [
    "AnalysisContext",
    "BAD_SUPPRESSION",
    "BASELINE_NAME",
    "CheckReport",
    "Finding",
    "RULES",
    "RuleSpec",
    "fingerprint",
    "load_baseline",
    "register_rule",
    "run_check",
    "save_baseline",
]
