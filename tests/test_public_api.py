"""Contract tests for the public API surface.

A downstream user's first contact is ``import repro``; these tests pin
the promises that imports make: every exported name resolves, carries a
docstring, and the package metadata is consistent.
"""

from __future__ import annotations

import importlib
import inspect

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
            "Podem",
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
