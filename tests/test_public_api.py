"""Public-API integrity: every exported name exists and is importable."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.lpsolve",
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

        assert repro.__version__ == "8.0.0"

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


class TestBackendSwitching:
    def test_auto_uses_simplex_compatible_result_small(self):
        from repro.lpsolve import LinearProgram, Sense

        lp = LinearProgram()
        x = lp.add_variable(objective=1.0)
        lp.add_constraint([(x, 1.0)], Sense.GE, 2.0)
        auto = lp.solve(backend="auto")
        explicit = lp.solve(backend="highs")
        assert auto.objective == pytest.approx(explicit.objective)

    def test_auto_threshold_constant_sane(self):
        from repro.lpsolve import LinearProgram

        assert LinearProgram.AUTO_IPM_THRESHOLD > 1000

    def test_ipm_backend_agrees_with_simplex(self):
        from repro.lpsolve import LinearProgram, Sense

        lp = LinearProgram()
        x = lp.add_variable(objective=2.0, upper=10.0)
        y = lp.add_variable(objective=3.0, upper=10.0)
        lp.add_constraint([(x, 1.0), (y, 1.0)], Sense.GE, 4.0)
        ds = lp.solve(backend="highs")
        ipm = lp.solve(backend="highs-ipm")
        assert ipm.objective == pytest.approx(ds.objective, abs=1e-6)
