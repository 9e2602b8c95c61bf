"""Rule ``asyncio-hygiene`` — serve coroutines must not block the loop.

``repro serve`` runs all compute on one ``ThreadPoolExecutor(1)``
thread; the event loop only parses, batches and writes.  Anything that
blocks a coroutine — ``time.sleep``, file I/O, ``subprocess``, a
direct ``Session`` compute call, or an artifact-store
(``self.store``, an :class:`~repro.flow.session.ArtifactCache`) disk
hit — stalls *every* in-flight connection at once.  The PR 8
near-miss (a copy-pasted blocking timing call in a handler) is exactly
the regression class this rule pins down.

Scope: every ``async def`` in ``src/repro/serve/``, plus one level of
propagation — a sync method of the same class invoked as
``self.method(...)`` from a coroutine is scanned too, with the finding
naming the async caller.  Routing the work through
``loop.run_in_executor(self._executor, fn, ...)`` is clean by
construction: the callable is passed as a reference, not called, so
nothing here fires on it.
"""

from __future__ import annotations

import ast

from repro.analysis.astutil import dotted_name
from repro.analysis.context import AnalysisContext
from repro.analysis.findings import Finding
from repro.analysis.rules import register_rule

RULE = "asyncio-hygiene"

#: Call attribute names that hit the filesystem.
_FILE_IO_ATTRS = {
    "read_text",
    "write_text",
    "read_bytes",
    "write_bytes",
    "unlink",
    "mkdir",
    "rmdir",
    "replace",
    "rename",
}
#: Session compute entry points that must stay on the compute thread.
_COMPUTE_ATTRS = {
    "diagnose", "diagnose_batch", "atpg_for", "atpg_info", "run", "run_info",
    "fault_dictionary", "golden_responses", "packed_evolution",
}


def _blocking_reason(node: ast.Call) -> str | None:
    """Why this call must not run on the event loop (None = clean)."""
    name = dotted_name(node.func)
    if name == "time.sleep":
        return "time.sleep blocks the event loop; use asyncio.sleep"
    if name.startswith("subprocess.") or name in ("os.system", "os.popen"):
        return f"{name} blocks the event loop; move it to the executor"
    if name == "open":
        return "open() is blocking file I/O on the event loop"
    if isinstance(node.func, ast.Attribute):
        attr = node.func.attr
        if attr in _FILE_IO_ATTRS:
            return f".{attr}() is blocking file I/O on the event loop"
        value = node.func.value
        store_base = (
            isinstance(value, ast.Attribute) and value.attr == "store"
        ) or (isinstance(value, ast.Name) and value.id == "store")
        if store_base and attr in ("put", "get", "attach"):
            return (
                f"store.{attr}() hits the shared artifact store (disk) on "
                "the event loop; route it through the compute executor"
            )
        if attr in _COMPUTE_ATTRS:
            return (
                f".{attr}() is Session compute; it must run on the "
                "compute-thread executor, not the event loop"
            )
        if attr == "_session" or name.endswith("._session"):
            return (
                "_session() loads netlists (real work); compute-thread only"
            )
    if isinstance(node.func, ast.Name) and node.func.id == "_session":
        return "_session() loads netlists (real work); compute-thread only"
    return None


def _scan_body(
    func: ast.AST, rel: str, label: str, findings: list[Finding]
) -> set[str]:
    """Flag blocking calls in one function body; returns the names of
    ``self.<method>(...)`` sync calls for one-level propagation."""
    called: set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        reason = _blocking_reason(node)
        if reason is not None:
            findings.append(Finding(RULE, rel, node.lineno, f"{reason} ({label})"))
            continue
        target = node.func
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            called.add(target.attr)
    return called


@register_rule(
    RULE,
    "async def bodies in src/repro/serve/ must not sleep, do file I/O, "
    "spawn subprocesses, or call Session compute directly",
)
def check(ctx: AnalysisContext) -> list[Finding]:
    findings: list[Finding] = []
    serve_prefix = ctx.root / "src" / "repro" / "serve"
    for path in ctx.src_files():
        if serve_prefix not in path.parents:
            continue
        tree = ctx.tree(path)
        if tree is None:
            continue
        rel = ctx.rel(path)
        # Module-level coroutines.
        for node in tree.body:
            if isinstance(node, ast.AsyncFunctionDef):
                _scan_body(node, rel, f"in async {node.name}", findings)
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            sync_methods = {
                m.name: m for m in cls.body if isinstance(m, ast.FunctionDef)
            }
            scanned: set[str] = set()
            for method in cls.body:
                if not isinstance(method, ast.AsyncFunctionDef):
                    continue
                called = _scan_body(
                    method, rel, f"in async {method.name}", findings
                )
                # One-level propagation into same-class sync helpers.
                for name in sorted(called):
                    target = sync_methods.get(name)
                    if target is None or name in scanned:
                        continue
                    scanned.add(name)
                    _scan_body(
                        target,
                        rel,
                        f"in {name}, called from async {method.name}",
                        findings,
                    )
            # Nested async defs inside sync methods (e.g. bootstrap.run's
            # inner main()) are coroutines too.
            for method in cls.body:
                if isinstance(method, ast.FunctionDef):
                    for sub in ast.walk(method):
                        if isinstance(sub, ast.AsyncFunctionDef):
                            _scan_body(
                                sub, rel, f"in async {sub.name}", findings
                            )
        # Async defs nested in module-level sync functions.
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.AsyncFunctionDef):
                        _scan_body(sub, rel, f"in async {sub.name}", findings)
    return findings
