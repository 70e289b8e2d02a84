"""Exact CCA solver: the paper's Figure 4 integer program under HiGHS.

The CCA problem is NP-hard (Theorem 1), so this solver exists only as
ground truth: optimality-gap tests and the ablation benchmark compare
LPRR against the true optimum on instances small enough to solve.

The program is :func:`~repro.core.lp.build_placement_lp` — the same
Figure 4 rows the LP oracle relaxes — with the ``x`` block integral,
solved by scipy's HiGHS MILP at a relative gap of 0 (HiGHS's absolute
gap stays at its 1e-6 default).  Once ``x`` is integral, each split
pair has exactly one node where ``x[i,k] - x[j,k] = 1``, so the
objective is objective (1).

HiGHS accepts a row that holds within its feasibility tolerance, so a
returned set of objects may overrun a node by a hair that
:meth:`~repro.core.placement.Placement.is_feasible` rejects.  Each such
node ``k`` and overrun set ``S`` gets a cover cut
``Σ_{i∈S} x[i,k] ≤ |S| − 1``, which no strictly feasible placement
violates, and the program is solved again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from repro import obs
from repro.core.lp import build_placement_lp
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.exceptions import InfeasibleProblemError, SolverError

DEFAULT_MAX_OBJECTS = 64


@dataclass(frozen=True)
class ExactSolution:
    """An optimal placement.

    Attributes:
        placement: An optimal strictly feasible placement.
        cost: Its communication cost: the optimum, to HiGHS's 1e-6
            absolute MIP gap.
    """

    placement: Placement
    cost: float


def solve_exact(
    problem: PlacementProblem, max_objects: int = DEFAULT_MAX_OBJECTS
) -> ExactSolution:
    """Find a provably optimal placement with HiGHS MILP.

    Args:
        problem: The CCA instance; capacities and resource budgets are
            enforced strictly, as ``Placement.is_feasible()`` reads them.
        max_objects: Guard against accidental exponential blowups.

    Raises:
        ValueError: If the instance exceeds ``max_objects``.
        InfeasibleProblemError: If no feasible placement exists.
        SolverError: If HiGHS stops without proving optimality.
    """
    t, n = problem.num_objects, problem.num_nodes
    if t > max_objects:
        raise ValueError(
            f"exact solver limited to {max_objects} objects (got {t}); "
            "raise max_objects explicitly if you really mean it"
        )
    if t == 0:
        return ExactSolution(Placement(problem, np.zeros(0, dtype=np.int64)), 0.0)

    with obs.span("exact.solve", objects=t, nodes=n) as span:
        from scipy import sparse  # a first call's import counts in the span

        program = build_placement_lp(problem)
        # Cover cuts join the <= block ahead of its closing y rows.
        cut_row = program.a_ub.shape[0] - (program.num_variables - t * n)
        for solves in itertools.count(1):
            x = _solve_milp(program, t * n).reshape(t, n)
            placement = Placement(problem, x.argmax(axis=1))
            if placement.is_feasible():
                span.set(solves=solves)
                return ExactSolution(placement, placement.communication_cost())
            for k, members in _overrun_sets(placement):
                cut = np.zeros((1, program.num_variables))
                cut[0, np.asarray(members) * n + k] = 1.0
                a_ub, b_ub = program.a_ub, program.b_ub
                program = replace(
                    program,
                    a_ub=sparse.vstack(
                        [a_ub[:cut_row], sparse.csr_matrix(cut), a_ub[cut_row:]],
                        format="csr",
                    ),
                    b_ub=np.insert(b_ub, cut_row, len(members) - 1),
                )
                cut_row += 1


def _solve_milp(program, num_integral: int) -> np.ndarray:
    """Solve ``program`` with its first ``num_integral`` variables integral."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    integrality = np.zeros(program.num_variables)
    integrality[:num_integral] = 1
    result = milp(
        program.c,
        integrality=integrality,
        bounds=Bounds(np.zeros(program.num_variables), program.upper),
        constraints=[
            LinearConstraint(program.a_ub, -np.inf, program.b_ub),
            LinearConstraint(program.a_eq, program.b_eq, program.b_eq),
        ],
        options={"mip_rel_gap": 0},
    )
    if result.status == 2:
        raise InfeasibleProblemError("no feasible placement exists")
    if result.status != 0:
        raise SolverError(
            f"HiGHS MILP ended with status {result.status}: {result.message}"
        )
    return result.x[:num_integral]


def _overrun_sets(placement: Placement):
    """Yield ``(node index, object indices)`` for every node whose bytes
    or Section 3.3 budget the placement overruns; the objects are those
    on the node that carry the overrun demand."""
    problem = placement.problem
    overruns = [(problem.sizes, placement.capacity_violations())]
    resource_overruns = placement.resource_violations()
    overruns += [
        (spec.loads, resource_overruns.get(spec.name, {})) for spec in problem.resources
    ]
    for loads, nodes in overruns:
        for node in nodes:
            k = problem.node_index(node)
            yield k, np.flatnonzero((placement.assignment == k) & (loads > 0)).tolist()
