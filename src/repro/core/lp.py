"""The LP relaxation of the CCA problem (Figure 4) and its closed form.

The integer program of the paper uses three variable families:

* ``x[i,k] ∈ {0,1}`` — object ``i`` is placed on node ``k``;
* ``y[i,j,k] = |x[i,k] - x[j,k]|`` for each correlated pair;
* ``z[i,j] = ½ Σ_k y[i,j,k]`` — the split indicator of a pair.

Relaxing ``x`` to ``[0, 1]`` makes the optimum trivial (DESIGN.md
§5.1): every objective term is a pair inside one connected component
of the correlation graph, so any fractional placement that gives all
objects of a component the *same* row costs exactly 0.  Whenever such a
placement fits the capacities, it is an optimum, and the only freedom
left is each component's row on the transport polytope
``Σ_c S_c·v_c ≤ c``.  :func:`pack_components` builds one vertex of it
directly, which is what LPRR hands to Algorithm 2.1.

The explicit program stays as the test oracle for that claim:
:func:`build_placement_lp` assembles Figure 4 (compacted in two
optimum-preserving steps — ``z`` substituted out, and one
``y ≥ x[i,k] - x[j,k]`` row per (pair, node) carrying the full pair
weight, because the positive and negative parts of ``x_i - x_j`` have
equal mass when both rows sum to 1) as the arrays HiGHS takes, and
:func:`solve_placement_lp` solves it with ``scipy.optimize.linprog``.
Both import scipy only when called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.core.decompose import component_groups
from repro.core.problem import PlacementProblem
from repro.exceptions import InfeasibleProblemError, SolverError

if TYPE_CHECKING:  # scipy loads only when the program is built
    from scipy import sparse

# Relative slack below which a component counts as fitting a node: a
# float shortfall of this size is not worth a split.
_FIT_SLACK = 1e-9


@dataclass(frozen=True)
class LPStats:
    """Size and timing of one fractional placement (Section 3.1).

    For the HiGHS oracle these describe the Figure 4 program.  For
    :func:`pack_components` no program is built: ``num_variables`` is
    the ``t × n`` fraction matrix, ``num_nonzeros`` its nonzero
    fractions, ``num_constraints`` and ``iterations`` are 0, and
    ``solve_seconds`` is the packing time.
    """

    num_variables: int
    num_constraints: int
    num_nonzeros: int
    solve_seconds: float
    iterations: int

    def __str__(self) -> str:
        return (
            f"{self.num_variables} vars, {self.num_constraints} constraints, "
            f"{self.num_nonzeros} nonzeros, solved in {self.solve_seconds:.3f}s"
        )


@dataclass(frozen=True)
class FractionalPlacement:
    """Optimal solution of the relaxed placement LP.

    Attributes:
        problem: The instance that was relaxed.
        fractions: ``(t, n)`` matrix; row ``i`` is object ``i``'s
            fractional distribution over nodes (each row sums to 1).
        lower_bound: The LP optimum — a lower bound on the optimal
            integral communication cost, and by Theorem 2 the exact
            expected cost of the randomized rounding.
        stats: Program size and solve statistics.
    """

    problem: PlacementProblem
    fractions: np.ndarray
    lower_bound: float
    stats: LPStats

    def is_integral(self, tolerance: float = 1e-6) -> bool:
        """Whether the LP optimum is already an integral placement."""
        return bool(
            np.all(
                (self.fractions <= tolerance) | (self.fractions >= 1.0 - tolerance)
            )
        )

    def expected_node_loads(self) -> np.ndarray:
        """Expected per-node load ``Σ_i x[i,k] * s(i)`` (Theorem 3)."""
        return self.fractions.T @ self.problem.sizes


def pack_components(problem: PlacementProblem) -> FractionalPlacement:
    """The closed-form optimum of the relaxed LP (DESIGN.md §5.1).

    Walks the correlation components largest-bytes-first
    (:func:`~repro.core.decompose.component_groups`) and fills nodes in
    index order up to their capacities — by the tightest dimension
    when §3.3 resource budgets exist — splitting a component only
    where it overflows into the next node.  Every object of a
    component gets the component's row, so the objective is exactly 0,
    and each node boundary splits at most one component: at most
    ``n - 1`` components have fractional rows.  With one resource and
    total capacity covering total size, expected loads never exceed
    the capacities (Theorem 3).  When resource budgets leave the
    last node too small, it takes the rest, and the planner's repair
    is left to find room.

    Raises:
        InfeasibleProblemError: If a total demand exceeds its total
            capacity (no fractional placement fits).
    """
    overrun = problem.capacity_overrun()
    if overrun is not None:
        raise InfeasibleProblemError(overrun)
    t, n = problem.num_objects, problem.num_nodes
    with obs.timed("lp.pack", objects=t, nodes=n) as span:
        groups = component_groups(problem)
        labels = np.empty(t, dtype=np.int64)
        for c, members in enumerate(groups):
            labels[members] = c
        # One column per dimension: bytes, then each §3.3 resource.
        dims = [(problem.sizes, problem.capacities)] + [
            (spec.loads, spec.budgets) for spec in problem.resources
        ]
        needs = np.column_stack(
            [np.bincount(labels, weights=d, minlength=len(groups)) for d, _ in dims]
        ).tolist()
        free = np.column_stack([b for _, b in dims]).astype(float).tolist()
        rows = np.zeros((len(groups), n))
        k = 0
        for c, need in enumerate(needs):
            left = 1.0
            while left > 0.0:
                room = min(
                    (f / q for f, q in zip(free[k], need) if q > 0), default=math.inf
                )
                if room >= left - _FIT_SLACK or k == n - 1:
                    take = left
                else:
                    take = room if room > _FIT_SLACK else 0.0
                if take > 0.0:
                    rows[c, k] = take
                    free[k] = [f - take * q for f, q in zip(free[k], need)]
                    left -= take
                if left > 0.0:
                    k += 1
        fractions = rows[labels]
        split = int(np.count_nonzero(np.count_nonzero(rows, axis=1) > 1))
        span.set(components=len(groups), split=split)
    stats = LPStats(
        num_variables=t * n,
        num_constraints=0,
        num_nonzeros=int(np.count_nonzero(fractions)),
        solve_seconds=span.duration,
        iterations=0,
    )
    return FractionalPlacement(problem, fractions, 0.0, stats)


@dataclass(frozen=True)
class PlacementLP:
    """The compacted Figure 4 program as the arrays HiGHS takes.

    Minimize ``c @ v`` subject to ``0 ≤ v ≤ upper``,
    ``a_ub @ v ≤ b_ub`` and ``a_eq @ v = b_eq``.  ``a_ub`` holds the
    capacity rows, then each §3.3 budget's rows, then one negated
    ``y`` row per ``y`` variable, so the last ``len(c) - t*n`` rows
    are the ``y`` rows.  ``a_eq`` holds one assignment row per object.
    """

    c: np.ndarray
    upper: np.ndarray
    a_ub: "sparse.csr_matrix"
    b_ub: np.ndarray
    a_eq: "sparse.csr_matrix"
    b_eq: np.ndarray

    @property
    def num_variables(self) -> int:
        return len(self.c)

    @property
    def num_constraints(self) -> int:
        return self.a_ub.shape[0] + self.a_eq.shape[0]

    @property
    def num_nonzeros(self) -> int:
        return self.a_ub.nnz + self.a_eq.nnz


def build_placement_lp(problem: PlacementProblem) -> PlacementLP:
    """Construct the relaxed LP of Figure 4 for ``problem``.

    Variable layout: ``x[i,k]`` at index ``i*n + k``; ``y`` variables
    for pair ``p`` and node ``k`` at index ``t*n + p*n + k``.  Pairs
    with zero objective weight are excluded (they cannot affect the
    optimum), matching the paper's restriction to ``r(i,j) > 0``.
    """
    from scipy import sparse

    t, n = problem.num_objects, problem.num_nodes
    active_pairs = np.flatnonzero(problem.pair_weights > 0)
    num_y = len(active_pairs) * n
    num_variables = t * n + num_y
    objects = np.arange(t, dtype=np.int64)

    # (9): per-node capacity; skip unconstrained (infinite) nodes.  Then
    # Section 3.3: one more (9)-style row per extra resource and node.
    dims = [(objects, problem.sizes, problem.capacities)]
    for spec in problem.resources:
        loaded = np.flatnonzero(spec.loads > 0)
        if loaded.size:
            dims.append((loaded, spec.loads, spec.budgets))
    rows, cols, vals, b_ub = [], [], [], []
    for members, loads, limits in dims:
        finite_k = np.flatnonzero(np.isfinite(limits))
        rows.append(len(b_ub) + np.repeat(np.arange(finite_k.size), members.size))
        cols.append((members[None, :] * n + finite_k[:, None]).reshape(-1))
        vals.append(np.tile(loads[members], finite_k.size))
        b_ub.extend(limits[finite_k].tolist())

    # (6)-(7) compacted: y >= x_i - x_j captures the positive part;
    # the negative part carries equal mass (see module docstring).
    # Negated to -y + x_i - x_j <= 0, one row per y variable.
    ks = np.arange(n, dtype=np.int64)
    pair_i, pair_j = problem.pair_index[active_pairs].T
    y_cols = t * n + np.arange(num_y, dtype=np.int64).reshape(len(active_pairs), n)
    xi_cols = pair_i[:, None] * n + ks[None, :]
    xj_cols = pair_j[:, None] * n + ks[None, :]
    rows.append(len(b_ub) + np.repeat(np.arange(num_y), 3))
    cols.append(np.stack([y_cols, xi_cols, xj_cols], axis=2).reshape(-1))
    vals.append(np.tile([-1.0, 1.0, -1.0], num_y))
    b_ub.extend([0.0] * num_y)

    a_ub = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(b_ub), num_variables),
    )
    # (5): each object fully placed.
    a_eq = sparse.csr_matrix(
        (np.ones(t * n), (np.repeat(objects, n), np.arange(t * n))),
        shape=(t, num_variables),
    )
    return PlacementLP(
        c=np.concatenate(
            [np.zeros(t * n), np.repeat(problem.pair_weights[active_pairs], n)]
        ),
        upper=np.concatenate([np.ones(t * n), np.full(num_y, np.inf)]),
        a_ub=a_ub,
        b_ub=np.asarray(b_ub, dtype=float),
        a_eq=a_eq,
        b_eq=np.ones(t),
    )


def solve_placement_lp(problem: PlacementProblem) -> FractionalPlacement:
    """Solve the Figure 4 LP with HiGHS: the test oracle.

    Planning never calls this — :func:`pack_components` gives an
    optimum in closed form.  The tests solve the explicit program to
    check that claim (objective 0, same feasibility) and to reproduce
    the paper's formulation.

    Returns:
        The optimal :class:`FractionalPlacement`.

    Raises:
        InfeasibleProblemError: If the capacities cannot hold the
            objects (detected up front or reported by the solver).
        SolverError: On unexpected solver failure.
    """
    from scipy.optimize import OptimizeResult, linprog

    overrun = problem.capacity_overrun()
    if overrun is not None:
        raise InfeasibleProblemError(overrun)
    t, n = problem.num_objects, problem.num_nodes
    with obs.span("lp", objects=t, nodes=n):
        with obs.span("lp.build"):
            program = build_placement_lp(problem)
        obs.gauge("lp.num_variables").set(program.num_variables)
        obs.gauge("lp.num_constraints").set(program.num_constraints)
        obs.gauge("lp.num_nonzeros").set(program.num_nonzeros)
        bounds = np.column_stack([np.zeros(program.num_variables), program.upper])
        with obs.timed("lp.solve") as solve_span:
            if not program.num_variables:  # linprog rejects an empty objective
                result = OptimizeResult(status=0, x=np.empty(0), fun=0.0, nit=0)
            else:
                try:
                    result = linprog(
                        program.c,
                        A_ub=program.a_ub,
                        b_ub=program.b_ub,
                        A_eq=program.a_eq,
                        b_eq=program.b_eq,
                        bounds=bounds,
                        method="highs",
                    )
                except ValueError as exc:  # e.g. an infinite pair weight
                    raise SolverError(
                        f"scipy linprog rejected the program: {exc}"
                    ) from exc
        elapsed = solve_span.duration
        solve_span.set(status=result.status, iterations=result.nit)
        obs.histogram("lp.solve_seconds").observe(elapsed)
        obs.counter("lp.solves").inc()

    if result.status == 2:
        raise InfeasibleProblemError(f"placement LP infeasible: {result.message}")
    if result.status != 0:
        raise SolverError(
            f"placement LP ended with status {result.status}: {result.message}"
        )

    fractions = np.clip(result.x[: t * n].reshape(t, n), 0.0, 1.0)
    row_sums = fractions.sum(axis=1, keepdims=True)
    # Guard against solver round-off; rows are 1 up to tolerance already.
    np.divide(fractions, row_sums, out=fractions, where=row_sums > 0)

    stats = LPStats(
        num_variables=program.num_variables,
        num_constraints=program.num_constraints,
        num_nonzeros=program.num_nonzeros,
        solve_seconds=elapsed,
        iterations=int(result.nit),
    )
    return FractionalPlacement(problem, fractions, float(result.fun), stats)
