"""Documentation guard rails: examples run, links resolve, docstrings
execute.

Three rot vectors, one test module:

* every ``examples/*.py`` is smoke-run end to end (reduced circuit
  scales keep the whole sweep a few seconds) — a README/docs snippet
  that imports a renamed symbol or drives a changed API fails here;
* the ``docs-links`` rule (:mod:`repro.analysis.rules.docs_links`)
  verifies every local link and anchor in ``README.md`` and ``docs/`` —
  the same check CI's docs job runs;
* ``python -m doctest`` executes the ``>>>`` docstring examples, so the
  documented behaviour is the actual behaviour.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.rules.docs_links import check_paths

REPO_ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = REPO_ROOT / "examples"

#: Reduced-scale arguments per example: small enough for the test
#: suite, but every example still exercises its full code path.
EXAMPLE_ARGS: dict[str, list[str]] = {
    "quickstart.py": [],
    "batch_atpg.py": ["--circuit", "s420", "--scale", "0.25"],
    "lfsr_reseeding.py": ["--circuit", "s420", "--scale", "0.15"],
    "custom_tpg.py": ["--circuit", "s420", "--scale", "0.15"],
    "full_bist_session.py": ["--circuit", "s420", "--scale", "0.15"],
    "soc_accumulator_bist.py": ["--scale", "0.1", "--evolution-length", "16"],
    "tradeoff_exploration.py": ["--circuit", "s420", "--scale", "0.15"],
    "diagnose_bist_failure.py": ["--circuit", "c499", "--patterns", "64"],
    "serve_client.py": [
        "--circuit", "c499", "--patterns", "48",
        "--requests", "12", "--clients", "4",
    ],
    "metrics_scrape.py": [
        "--circuit", "c17", "--patterns", "32",
        "--requests", "6", "--clients", "3",
    ],
}

#: Modules whose docstrings carry executable ``>>>`` examples — keep in
#: sync with the CI docs job's doctest step.
DOCTEST_MODULES = [
    "src/repro/utils/bitvec.py",
    "src/repro/tpg/base.py",
    "src/repro/utils/tables.py",
]


def _run(command: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        command,
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_every_example_has_smoke_args():
    """A new example must register reduced-scale args here (and a row
    in the README's documentation table)."""
    on_disk = {path.name for path in EXAMPLES.glob("*.py")}
    assert on_disk == set(EXAMPLE_ARGS)


@pytest.mark.parametrize("name", sorted(EXAMPLE_ARGS))
def test_example_runs(name):
    result = _run(
        [sys.executable, str(EXAMPLES / name), *EXAMPLE_ARGS[name]]
    )
    assert result.returncode == 0, (
        f"{name} failed\nstdout:\n{result.stdout[-2000:]}\n"
        f"stderr:\n{result.stderr[-2000:]}"
    )
    assert result.stdout.strip(), f"{name} printed nothing"


def test_markdown_links_resolve():
    errors = check_paths(
        [str(REPO_ROOT / "README.md"), str(REPO_ROOT / "docs")]
    )
    assert not errors, "\n".join(errors)


def test_docs_tree_complete():
    """The docs/ tree the README table of contents promises."""
    docs = (
        "architecture.md",
        "internals-bitpacking.md",
        "benchmarks.md",
        "observability.md",
    )
    for name in docs:
        assert (REPO_ROOT / "docs" / name).is_file(), name
    readme = (REPO_ROOT / "README.md").read_text()
    for name in docs:
        assert f"docs/{name}" in readme, f"README TOC missing docs/{name}"
    for example in EXAMPLE_ARGS:
        assert f"examples/{example}" in readme, (
            f"README TOC missing examples/{example}"
        )


def test_doctests_pass():
    result = _run([sys.executable, "-m", "doctest", *DOCTEST_MODULES])
    assert result.returncode == 0, result.stdout + result.stderr
