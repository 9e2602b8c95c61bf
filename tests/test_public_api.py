"""Contract tests for the public API surface.

A downstream user's first contact is ``import repro``; these tests pin
the promises that imports make: every exported name resolves, carries a
docstring, and the package metadata is consistent.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SUBPACKAGES = [
    "repro.atpg",
    "repro.circuit",
    "repro.circuits",
    "repro.diagnosis",
    "repro.experiments",
    "repro.faults",
    "repro.flow",
    "repro.gatsby",
    "repro.obs",
    "repro.reseeding",
    "repro.serve",
    "repro.setcover",
    "repro.sim",
    "repro.tpg",
    "repro.utils",
]


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_all_is_sorted_unique(self):
        assert len(set(repro.__all__)) == len(repro.__all__)

    def test_exports_are_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{name} lacks a docstring"


class TestOneFaultSimulator:
    """One fault simulator serves 0/1 and 0/1/X: the packed carrier
    picks the logic, so no second class and no config field does."""

    def test_fault_simulator_is_the_batched_engine(self):
        from repro.sim import BatchFaultSimulator, FaultSimulator

        assert FaultSimulator is BatchFaultSimulator
        assert repro.FaultSimulator is BatchFaultSimulator

    def test_removed_names_stay_gone(self):
        import dataclasses

        import repro.sim
        import repro.sim.threeval

        for module in (repro, repro.sim, repro.sim.threeval):
            assert not hasattr(module, "XFaultSimulator"), module.__name__
            assert "XFaultSimulator" not in getattr(module, "__all__", ())
        fields = [field.name for field in dataclasses.fields(repro.PipelineConfig)]
        assert fields == [
            "seed", "evolution_length", "cover_method", "max_random_patterns",
            "backtrack_limit", "grasp_iterations", "matrix_workers",
        ]


#: Names that left the product: the test oracles (now in
#: ``tests/oracles/``) and helpers nothing in ``src/`` called.
REMOVED_NAMES = frozenset(
    {
        "Podem",
        "SerialFaultSimulator",
        "ReferenceSimulator",
        "SequentialSimulator",
        "detected_faults",
        "eval_gate_3v_scalar",
        "logic_sim_3v_scalar",
        "pack_patterns_scalar",
        "unpack_words_scalar",
        "planes_from_codes_scalar",
        "BASELINE_NAME",
        "load_baseline",
        "save_baseline",
    }
)

#: The modules that held only oracles.
REMOVED_MODULES = ("repro.atpg.podem", "repro.sim.event", "repro.sim.sequential")

SRC = Path(repro.__file__).resolve().parent


class TestOraclesStayOutOfTheProduct:
    """The slow references the product is pinned against live with the
    tests; these guards keep them from growing back into ``src/``."""

    @pytest.mark.parametrize("module_name", ["repro", *SUBPACKAGES, "repro.analysis"])
    def test_no_removed_name_exported(self, module_name):
        module = importlib.import_module(module_name)
        assert not REMOVED_NAMES & set(module.__all__), module_name

    def test_no_scalar_functions_in_src(self):
        """``evolve_batch_scalar`` is the one ``*_scalar`` product
        function: a custom TPG inherits it as its batch fallback."""
        found = sorted(
            f"{path.relative_to(SRC)}:{node.name}"
            for path in SRC.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.endswith("_scalar")
            and node.name != "evolve_batch_scalar"
        )
        assert found == []

    def test_import_loads_no_oracle_module(self):
        code = (
            "import sys, repro, repro.atpg, repro.sim, repro.utils\n"
            f"print(sorted(set(sys.modules) & set({REMOVED_MODULES!r})))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        ).stdout
        assert out.strip() == "[]"
        for name in REMOVED_MODULES:
            assert not (SRC.parent / (name.replace(".", "/") + ".py")).exists(), name


@pytest.mark.parametrize("module_name", SUBPACKAGES)
class TestSubpackages:
    def test_importable_with_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"

    def test_declared_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"


class TestPublicClassesDocumented:
    @pytest.mark.parametrize(
        "cls_name",
        [
            "AtpgEngine",
            "BitVector",
            "CompiledCircuit",
            "CoverMatrix",
            "Circuit",
            "DetectionMatrix",
            "Fault",
            "FaultSimulator",
            "GatsbyReseeder",
            "InitialReseedingBuilder",
            "PipelineConfig",
            "Session",
            "Triplet",
        ],
    )
    def test_public_methods_documented(self, cls_name):
        cls = getattr(repro, cls_name)
        for name, member in inspect.getmembers(cls):
            if name.startswith("_"):
                continue
            if inspect.isfunction(member) or isinstance(member, property):
                doc = (
                    member.fget.__doc__
                    if isinstance(member, property)
                    else member.__doc__
                )
                assert doc, f"{cls_name}.{name} lacks a docstring"
