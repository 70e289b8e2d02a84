"""Public-API integrity: every exported name exists and is importable."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.search",
    "repro.cluster",
    "repro.database",
    "repro.workloads",
    "repro.analysis",
    "repro.experiments",
    "repro.online",
]


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        assert hasattr(module, "__all__"), f"{package} lacks __all__"
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name} missing"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_sorted_unique(self, package):
        module = importlib.import_module(package)
        names = list(module.__all__)
        assert len(names) == len(set(names)), f"{package}.__all__ has duplicates"

    def test_top_level_version(self):
        import repro

        assert repro.__version__ == "12.0.0"

    def test_core_reexports_through_top_level(self):
        import repro

        for name in ("PlacementProblem", "LPRRPlanner", "Placement"):
            assert getattr(repro, name) is not None

    def test_exceptions_hierarchy(self):
        from repro.exceptions import (
            InfeasibleProblemError,
            PlacementError,
            ProblemDefinitionError,
            ReproError,
            SolverError,
            TraceFormatError,
        )

        for exc in (
            InfeasibleProblemError,
            PlacementError,
            ProblemDefinitionError,
            SolverError,
            TraceFormatError,
        ):
            assert issubclass(exc, ReproError)
