"""The static-analysis engine (``repro check``) and its rules.

Each rule is pinned against positive *and* negative fixture snippets in
throwaway synthetic roots (the :class:`repro.analysis.AnalysisContext`
never needs the real tree), plus the engine-level semantics: allow
suppressions, ``bad-suppression`` validation, fingerprint stability,
the ``--json`` schema, and the whole-repo run staying clean and fast.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import BAD_SUPPRESSION, RULES, run_check
from repro.cli import main as cli_main
from repro.utils.registry import UnknownComponentError

REPO_ROOT = Path(__file__).resolve().parents[1]

EXPECTED_RULES = {
    "kernel-purity",
    "dtype-discipline",
    "asyncio-hygiene",
    "telemetry",
    "schema-kinds",
    "public-api",
    "docs-links",
}


def write(root: Path, rel: str, text: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


def findings_for(report, rule: str):
    return [f for f in report.findings if f.rule == rule]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_all_rules_registered():
    assert EXPECTED_RULES <= set(RULES.names())


def test_unknown_rule_suggests():
    with pytest.raises(UnknownComponentError, match="kernel-purity"):
        run_check(REPO_ROOT, rules=["kernel-purty"])


# ---------------------------------------------------------------------------
# kernel-purity
# ---------------------------------------------------------------------------


def test_kernel_purity_flags_loops_and_scalarization(tmp_path):
    write(
        tmp_path,
        "src/repro/sim/hot.py",
        """
        from repro.utils.kernels import kernel

        @kernel
        def bad(words):
            total = 0
            for w in words.tolist():
                total += int(w)
            return [w for w in words]
        """,
    )
    report = run_check(tmp_path, rules=["kernel-purity"])
    messages = [f.message for f in findings_for(report, "kernel-purity")]
    assert any("for loop" in m for m in messages)
    assert any(".tolist()" in m for m in messages)
    assert any("int() scalarizes" in m for m in messages)
    assert any("comprehension" in m for m in messages)


def test_kernel_purity_exemptions(tmp_path):
    write(
        tmp_path,
        "src/repro/sim/hot.py",
        """
        import numpy as np
        from repro.utils.kernels import kernel

        @kernel
        def clean(words):
            n = int(words.size)          # metadata
            m = int(words.shape[0])      # metadata
            k = int(len(words))          # metadata
            if n != m:
                raise ValueError(int(words[0]))  # raise path
            return words & np.uint64(1)

        def unregistered(words):
            return [int(w) for w in words]  # not a kernel: ignored
        """,
    )
    report = run_check(tmp_path, rules=["kernel-purity"])
    assert not findings_for(report, "kernel-purity")


def test_kernel_purity_scalar_oracle_must_not_register(tmp_path):
    write(
        tmp_path,
        "src/repro/sim/hot.py",
        """
        from repro.utils.kernels import kernel

        @kernel
        def detect_scalar(words):
            return words
        """,
    )
    report = run_check(tmp_path, rules=["kernel-purity"])
    assert any(
        "scalar oracle" in f.message
        for f in findings_for(report, "kernel-purity")
    )


def test_kernel_purity_function_level_allow(tmp_path):
    write(
        tmp_path,
        "src/repro/sim/hot.py",
        """
        from repro.utils.kernels import kernel

        # repro: allow[kernel-purity] O(depth) level walk, word-parallel per level
        @kernel
        def structural(levels):
            for level in levels:
                level.sum()
            return levels
        """,
    )
    report = run_check(tmp_path, rules=["kernel-purity"])
    assert not report.findings


def test_kernel_purity_hot_module_must_register(tmp_path):
    write(tmp_path, "src/repro/sim/batch.py", "X = 1\n")
    report = run_check(tmp_path, rules=["kernel-purity"])
    assert any(
        "registers no @kernel" in f.message
        for f in findings_for(report, "kernel-purity")
    )


def test_kernel_purity_threeval_is_a_hot_module(tmp_path):
    """The 3-valued plane module carries packed hot paths and is held to
    the same must-register contract as the 2-valued engines."""
    write(tmp_path, "src/repro/sim/threeval.py", "X = 1\n")
    report = run_check(tmp_path, rules=["kernel-purity"])
    assert any(
        "registers no @kernel" in f.message and "threeval" in str(f.path)
        for f in findings_for(report, "kernel-purity")
    )
    # A registered plane kernel satisfies the contract; the scalar
    # oracle next to it must stay unregistered.
    write(
        tmp_path,
        "src/repro/sim/threeval.py",
        """
        from repro.utils.kernels import kernel

        @kernel
        def eval_gates(v, c):
            return v & c, c

        def logic_sim_3v_scalar(codes):
            return codes
        """,
    )
    assert not run_check(tmp_path, rules=["kernel-purity"]).findings


# ---------------------------------------------------------------------------
# dtype-discipline
# ---------------------------------------------------------------------------


def test_dtype_discipline_flags_promotion_hazards(tmp_path):
    write(
        tmp_path,
        "src/repro/sim/hot.py",
        """
        import numpy as np
        from repro.utils.kernels import kernel

        @kernel
        def bad(words):
            buf = np.zeros(words.shape)   # no dtype=
            return (words << 3) | buf     # bare-int shift
        """,
    )
    report = run_check(tmp_path, rules=["dtype-discipline"])
    messages = [f.message for f in findings_for(report, "dtype-discipline")]
    assert any("without dtype=" in m for m in messages)
    assert any("bare-int shift" in m for m in messages)


def test_dtype_discipline_clean_kernel(tmp_path):
    write(
        tmp_path,
        "src/repro/sim/hot.py",
        """
        import numpy as np
        from repro.utils.kernels import kernel

        @kernel
        def clean(words, width):
            buf = np.zeros(words.shape, dtype=np.uint64)
            mask = np.uint64((1 << width) - 1)      # wrapped: python-int math
            shifted = words >> np.uint64(3)
            return (shifted & mask) | buf

        def not_a_kernel(words):
            return words << 3  # unregistered functions are out of scope
        """,
    )
    report = run_check(tmp_path, rules=["dtype-discipline"])
    assert not report.findings


def test_dtype_discipline_covers_plane_kernels(tmp_path):
    """A value/care plane kernel is held to the same promotion rules —
    an unwrapped constructor in the care path is a finding, the wrapped
    twin is clean."""
    write(
        tmp_path,
        "src/repro/sim/threeval.py",
        """
        import numpy as np
        from repro.utils.kernels import kernel

        @kernel
        def bad_planes(v, c):
            care = np.ones(c.shape)        # no dtype= -> float64 care plane
            return v & c, care

        @kernel
        def good_planes(v, c):
            care = np.ones(c.shape, dtype=np.uint64)
            return v & c, care
        """,
    )
    report = run_check(tmp_path, rules=["dtype-discipline"])
    messages = [f.message for f in findings_for(report, "dtype-discipline")]
    assert len(messages) == 1
    assert "without dtype=" in messages[0]


# ---------------------------------------------------------------------------
# asyncio-hygiene
# ---------------------------------------------------------------------------


def test_asyncio_hygiene_flags_blocking_calls(tmp_path):
    write(
        tmp_path,
        "src/repro/serve/handlers.py",
        """
        import time

        async def handler(request, store):
            time.sleep(0.1)
            open("dump.json")
            payload = store.get("ref", "pattern_set")
            return payload
        """,
    )
    report = run_check(tmp_path, rules=["asyncio-hygiene"])
    messages = [f.message for f in findings_for(report, "asyncio-hygiene")]
    assert any("time.sleep" in m for m in messages)
    assert any("open()" in m for m in messages)
    assert any("store.get()" in m for m in messages)


def test_asyncio_hygiene_executor_reference_is_clean(tmp_path):
    write(
        tmp_path,
        "src/repro/serve/handlers.py",
        """
        import asyncio

        class Server:
            async def handle(self, ref, payload):
                loop = asyncio.get_running_loop()
                return await loop.run_in_executor(
                    self._executor, self.store.put, ref, payload
                )
        """,
    )
    report = run_check(tmp_path, rules=["asyncio-hygiene"])
    assert not report.findings


def test_asyncio_hygiene_propagates_into_sync_helper(tmp_path):
    write(
        tmp_path,
        "src/repro/serve/handlers.py",
        """
        class Server:
            async def handle(self, request):
                return self.resolve(request)

            def resolve(self, request):
                return self.store.get(request, "pattern_set")
        """,
    )
    report = run_check(tmp_path, rules=["asyncio-hygiene"])
    found = findings_for(report, "asyncio-hygiene")
    assert len(found) == 1
    assert "called from async handle" in found[0].message


def test_asyncio_hygiene_flags_session_artifact_calls(tmp_path):
    write(
        tmp_path,
        "src/repro/serve/handlers.py",
        """
        class Server:
            async def handle(self, session, patterns):
                return session.fault_dictionary(patterns)
        """,
    )
    report = run_check(tmp_path, rules=["asyncio-hygiene"])
    found = findings_for(report, "asyncio-hygiene")
    assert len(found) == 1
    assert ".fault_dictionary() is Session compute" in found[0].message


def test_asyncio_hygiene_ignores_code_outside_serve(tmp_path):
    write(
        tmp_path,
        "src/repro/flow/tasks.py",
        """
        import time

        async def not_served():
            time.sleep(1)
        """,
    )
    report = run_check(tmp_path, rules=["asyncio-hygiene"])
    assert not report.findings


# ---------------------------------------------------------------------------
# telemetry
# ---------------------------------------------------------------------------


def test_telemetry_invalid_name(tmp_path):
    # Digits are collected (so typos are seen) but rejected by the
    # naming contract; version the series name, not the metric.
    write(
        tmp_path,
        "src/repro/obs/emit.py",
        'NAME = "repro_atpg_v2_total"\n',
    )
    report = run_check(tmp_path, rules=["telemetry"])
    assert any(
        "does not match" in f.message for f in findings_for(report, "telemetry")
    )


def test_telemetry_doc_code_cross_check(tmp_path):
    write(
        tmp_path,
        "src/repro/obs/emit.py",
        """
        EMITTED = "repro_undocumented_total"
        PATTERNED = f"repro_cache_{'x'}_total"
        """,
    )
    write(
        tmp_path,
        "docs/observability.md",
        """
        # Metrics

        | series | meaning |
        |---|---|
        | `repro_cache_{hits,misses}_total` | cache outcomes |
        | `repro_ghost_series_total` | documented but never emitted |

        ```
        `repro_fenced_total` is masked out with the code fence
        ```
        """,
    )
    report = run_check(tmp_path, rules=["telemetry"])
    messages = [f.message for f in findings_for(report, "telemetry")]
    assert any(
        "'repro_undocumented_total' is not documented" in m for m in messages
    )
    assert any("'repro_ghost_series_total' is never emitted" in m for m in messages)
    # The f-string matches the expanded {hits,misses} alternation: covered.
    assert not any("pattern" in m and "matches no" in m for m in messages)
    # Fence-masked names must not create "never emitted" findings.
    assert not any("repro_fenced_total" in m for m in messages)


# ---------------------------------------------------------------------------
# schema-kinds
# ---------------------------------------------------------------------------


def test_schema_kinds_requires_test_literal(tmp_path):
    write(
        tmp_path,
        "src/repro/flow/serialize.py",
        """
        KINDS = {
            "tested_doc": "repro.docs.Tested",
            "untested_doc": "repro.docs.Untested",
        }

        def encode(obj):
            return {"kind": "stamped_elsewhere", "schema_version": 1}
        """,
    )
    write(
        tmp_path,
        "tests/test_roundtrip.py",
        'KIND = "tested_doc"\n',
    )
    report = run_check(tmp_path, rules=["schema-kinds"])
    found = findings_for(report, "schema-kinds")
    assert len(found) == 1
    assert "untested_doc" in found[0].message


def test_schema_kinds_missing_table_is_a_finding(tmp_path):
    write(
        tmp_path,
        "src/repro/flow/serialize.py",
        """
        def to_dict():
            return {"kind": "tested_doc", "schema_version": 1}
        """,
    )
    write(tmp_path, "tests/test_roundtrip.py", 'KIND = "tested_doc"\n')
    found = findings_for(run_check(tmp_path, rules=["schema-kinds"]), "schema-kinds")
    assert len(found) == 1
    assert "no schema kinds found" in found[0].message


def test_schema_kinds_enumerates_every_codec_kind():
    """On the real tree the rule reads exactly the kinds ``encode`` can
    stamp, and each names a class the codec can import."""
    import ast
    import importlib

    from repro.analysis.rules.schema_kinds import codec_kinds
    from repro.flow.serialize import KINDS

    tree = ast.parse((REPO_ROOT / "src/repro/flow/serialize.py").read_text())
    assert set(codec_kinds(tree)) == set(KINDS)
    assert len(KINDS) == 14
    for path in KINDS.values():
        module, _, name = path.rpartition(".")
        assert isinstance(getattr(importlib.import_module(module), name), type)
    assert not findings_for(run_check(REPO_ROOT, rules=["schema-kinds"]), "schema-kinds")


# ---------------------------------------------------------------------------
# public-api
# ---------------------------------------------------------------------------


def test_public_api_init_needs_dunder_all(tmp_path):
    write(tmp_path, "src/repro/obs/__init__.py", "from x import y\n")
    report = run_check(tmp_path, rules=["public-api"])
    assert any(
        "__all__" in f.message for f in findings_for(report, "public-api")
    )


def test_public_api_flags_cross_package_private_import(tmp_path):
    write(
        tmp_path,
        "src/repro/serve/server.py",
        """
        from repro.obs.metrics import _render_one
        from repro.obs._internal import helper
        from repro.serve.batcher import _same_package_is_fine
        """,
    )
    report = run_check(tmp_path, rules=["public-api"])
    messages = [f.message for f in findings_for(report, "public-api")]
    assert any("private name '_render_one'" in m for m in messages)
    assert any("private module 'repro.obs._internal'" in m for m in messages)
    assert len(messages) == 2  # same-subpackage import is fair game


# ---------------------------------------------------------------------------
# docs-links
# ---------------------------------------------------------------------------


def test_docs_links_reports_broken_targets_with_lines(tmp_path):
    write(
        tmp_path,
        "README.md",
        """
        # Title

        [good](docs/guide.md) and [bad](docs/missing.md)

        ```
        [fenced](docs/never-checked.md)
        ```

        [bad anchor](docs/guide.md#nope)
        """,
    )
    write(tmp_path, "docs/guide.md", "# Guide\n\n## Setup\n")
    report = run_check(tmp_path, rules=["docs-links"])
    found = findings_for(report, "docs-links")
    assert {f.message for f in found} == {
        "broken link -> docs/missing.md",
        "missing anchor -> docs/guide.md#nope",
    }
    broken = next(f for f in found if "missing.md" in f.message)
    assert broken.path == "README.md"
    assert broken.line == 4  # fence masking keeps line numbers honest


# ---------------------------------------------------------------------------
# suppression semantics
# ---------------------------------------------------------------------------

_LOOPY = """
from repro.utils.kernels import kernel

@kernel
def hot(words):
    {line}
    return words
"""


def test_allow_on_own_line_suppresses(tmp_path):
    write(
        tmp_path,
        "src/repro/sim/hot.py",
        _LOOPY.format(
            line="x = words.tolist()  "
            "# repro: allow[kernel-purity] debug dump, cold path"
        ),
    )
    report = run_check(tmp_path, rules=["kernel-purity"])
    assert report.ok
    assert len(report.suppressed) == 1


def test_allow_on_line_above_suppresses(tmp_path):
    write(
        tmp_path,
        "src/repro/sim/hot.py",
        """
        from repro.utils.kernels import kernel

        @kernel
        def hot(words):
            # repro: allow[kernel-purity] one-off materialisation at the tail
            x = words.tolist()
            return words
        """,
    )
    report = run_check(tmp_path, rules=["kernel-purity"])
    assert report.ok
    assert len(report.suppressed) == 1


def test_allow_without_justification_is_a_finding(tmp_path):
    write(
        tmp_path,
        "src/repro/sim/hot.py",
        _LOOPY.format(line="x = words.tolist()  # repro: allow[kernel-purity]"),
    )
    report = run_check(tmp_path, rules=["kernel-purity"])
    rules = {f.rule for f in report.findings}
    # The suppression is invalid, so the original finding survives too.
    assert rules == {BAD_SUPPRESSION, "kernel-purity"}


def test_allow_with_unknown_rule_is_a_finding(tmp_path):
    write(
        tmp_path,
        "src/repro/sim/mod.py",
        "X = 1  # repro: allow[no-such-rule] because reasons\n",
    )
    report = run_check(tmp_path, rules=["kernel-purity"])
    assert any(
        "unknown rule 'no-such-rule'" in f.message
        for f in findings_for(report, BAD_SUPPRESSION)
    )


def test_allow_in_docstring_is_not_a_suppression(tmp_path):
    write(
        tmp_path,
        "src/repro/sim/mod.py",
        '''
        def helper():
            """Docs may show `# repro: allow[made-up-rule]` verbatim."""
            return 1
        ''',
    )
    report = run_check(tmp_path)
    assert not findings_for(report, BAD_SUPPRESSION)


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def _violating_root(tmp_path: Path) -> Path:
    write(
        tmp_path,
        "src/repro/sim/hot.py",
        _LOOPY.format(line="x = words.tolist()"),
    )
    return tmp_path


def test_fingerprints_survive_line_shifts(tmp_path):
    root = _violating_root(tmp_path)
    (before,) = run_check(root, rules=["kernel-purity"]).findings

    hot = root / "src/repro/sim/hot.py"
    hot.write_text("# a new comment shifts every line\n" + hot.read_text())
    (after,) = run_check(root, rules=["kernel-purity"]).findings
    assert after.line == before.line + 1
    assert after.fingerprint == before.fingerprint


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_json_schema(tmp_path, capsys):
    root = _violating_root(tmp_path)
    code = cli_main(["check", "--root", str(root), "--json"])
    assert code == 1
    document = json.loads(capsys.readouterr().out)
    assert document["schema_version"] == 1
    assert document["kind"] == "check_report"
    assert document["ok"] is False
    assert set(EXPECTED_RULES) <= set(document["rules"])
    finding = document["findings"][0]
    assert set(finding) == {"rule", "path", "line", "message", "fingerprint"}
    assert finding["rule"] == "kernel-purity"
    assert finding["fingerprint"]


def test_cli_has_no_baseline(tmp_path, capsys):
    """Every finding fails the check: there is no baseline to accept
    findings into."""
    root = _violating_root(tmp_path)
    assert cli_main(["check", "--root", str(root)]) == 1
    assert "baselined" not in capsys.readouterr().out
    for flag in ("--baseline", "--update-baseline"):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["check", "--root", str(root), flag])
        assert exit_info.value.code == 2


def test_cli_rule_selection_and_unknown_rule(tmp_path, capsys):
    root = _violating_root(tmp_path)
    assert cli_main(["check", "--root", str(root), "--rule", "docs-links"]) == 0
    capsys.readouterr()
    assert cli_main(["check", "--root", str(root), "--rule", "nope"]) == 2
    assert "unknown analysis rule" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the real tree
# ---------------------------------------------------------------------------


def test_repo_is_clean_and_fast():
    report = run_check(REPO_ROOT)
    assert report.ok, "\n" + "\n".join(f.render() for f in report.findings)
    assert report.seconds < 10.0


def test_repo_has_registered_kernels():
    from repro.utils.kernels import KERNELS

    # Importing the hot modules populates the registry.
    import repro.atpg.batch_podem  # noqa: F401
    import repro.circuit.gates  # noqa: F401
    import repro.sim.batch  # noqa: F401
    import repro.sim.threeval  # noqa: F401
    import repro.tpg.accumulator  # noqa: F401
    import repro.tpg.lfsr  # noqa: F401
    import repro.utils.bitvec  # noqa: F401

    names = KERNELS.names()
    assert len(names) >= 10
    assert any(name.endswith("gates.eval_gates") for name in names)
    assert any("_lfsr_walk_values" in name for name in names)
    # The one gate kernel, the one fault machine and the one fault-free
    # simulation serve 0/1 and 0/1/X alike; the three-valued module
    # registers only its true-value simulation of planes.
    assert any(name.endswith("_BatchPlan.detect") for name in names)
    assert any(name.endswith("BatchFaultSimulator._good_values") for name in names)
    assert any(name.endswith("threeval.logic_sim_3v") for name in names)
    assert any("_pack_bit_rows" in name for name in names)
