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
equal mass when both rows sum to 1) and :func:`solve_placement_lp`
solves it with HiGHS.  Both import the modelling layer, and with it
scipy, only when called.
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

if TYPE_CHECKING:  # the modelling layer imports scipy; load it on use
    from repro.lpsolve import LinearProgram

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
        capacity_duals: Shadow price of each node's capacity row, from
            the HiGHS oracle only (None for uncapacitated nodes and for
            the closed form).  A strongly negative value marks a node
            whose space binds the optimum — the capacity to grow first.
    """

    problem: PlacementProblem
    fractions: np.ndarray
    lower_bound: float
    stats: LPStats
    capacity_duals: np.ndarray | None = None

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
    if problem.is_trivially_infeasible():
        raise InfeasibleProblemError(
            f"total object size {problem.total_size:.6g} exceeds "
            f"total capacity {problem.total_capacity:.6g}"
        )
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


def build_placement_lp(problem: PlacementProblem) -> "LinearProgram":
    """Construct the relaxed LP of Figure 4 for ``problem``.

    Variable layout: ``x[i,k]`` at index ``i*n + k``; ``y`` variables
    for pair ``p`` and node ``k`` at index ``t*n + p*n + k``.  Pairs
    with zero objective weight are excluded (they cannot affect the
    optimum), matching the paper's restriction to ``r(i,j) > 0``.

    All ``O(|E||N|)`` rows are assembled as whole COO blocks through
    :meth:`~repro.lpsolve.LinearProgram.add_constraints_from_arrays`.
    """
    from repro.lpsolve import LinearProgram, Sense

    t, n = problem.num_objects, problem.num_nodes
    lp = LinearProgram(f"cca-{t}x{n}")

    lp.add_variables_from_arrays(
        [f"x[{i},{k}]" for i in range(t) for k in range(n)],
        lower=0.0,
        upper=1.0,
    )

    active_pairs = np.where(problem.pair_weights > 0)[0]
    num_active = len(active_pairs)
    pair_i = problem.pair_index[active_pairs, 0]
    pair_j = problem.pair_index[active_pairs, 1]
    if num_active:
        lp.add_variables_from_arrays(
            [
                f"y[{i},{j},{k}]"
                for i, j in zip(pair_i.tolist(), pair_j.tolist())
                for k in range(n)
            ],
            lower=0.0,
            objective=np.repeat(problem.pair_weights[active_pairs], n),
        )

    ks = np.arange(n, dtype=np.int64)

    # (5): each object fully placed.
    lp.add_constraints_from_arrays(
        rows=np.repeat(np.arange(t, dtype=np.int64), n),
        cols=np.arange(t * n, dtype=np.int64),
        vals=np.ones(t * n),
        senses=Sense.EQ,
        rhs=np.ones(t),
        names=[f"assign[{i}]" for i in range(t)],
    )

    # (6)-(7) compacted: y >= x_i - x_j captures the positive part;
    # the negative part carries equal mass (see module docstring).
    y_base = t * n
    if num_active:
        y_cols = y_base + np.arange(num_active * n, dtype=np.int64).reshape(
            num_active, n
        )
        xi_cols = pair_i[:, None] * n + ks[None, :]
        xj_cols = pair_j[:, None] * n + ks[None, :]
        lp.add_constraints_from_arrays(
            rows=np.repeat(np.arange(num_active * n, dtype=np.int64), 3),
            cols=np.stack([y_cols, xi_cols, xj_cols], axis=2).reshape(-1),
            vals=np.tile([1.0, -1.0, 1.0], num_active * n),
            senses=Sense.GE,
            rhs=np.zeros(num_active * n),
        )

    # (9): per-node capacity; skip unconstrained (infinite) nodes.
    finite_k = np.flatnonzero(np.isfinite(problem.capacities))
    if finite_k.size:
        m = len(finite_k)
        lp.add_constraints_from_arrays(
            rows=np.repeat(np.arange(m, dtype=np.int64), t),
            cols=(
                np.arange(t, dtype=np.int64)[None, :] * n + finite_k[:, None]
            ).reshape(-1),
            vals=np.tile(np.asarray(problem.sizes, dtype=float), m),
            senses=Sense.LE,
            rhs=problem.capacities[finite_k],
            names=[f"capacity[{k}]" for k in finite_k.tolist()],
        )

    # Section 3.3: one more (9)-style row per extra resource and node.
    for spec in problem.resources:
        loaded = np.flatnonzero(np.asarray(spec.loads) > 0)
        budget_k = np.flatnonzero(np.isfinite(spec.budgets))
        if not loaded.size or not budget_k.size:
            continue
        m = len(budget_k)
        lp.add_constraints_from_arrays(
            rows=np.repeat(np.arange(m, dtype=np.int64), loaded.size),
            cols=(loaded[None, :] * n + budget_k[:, None]).reshape(-1),
            vals=np.tile(np.asarray(spec.loads, dtype=float)[loaded], m),
            senses=Sense.LE,
            rhs=np.asarray(spec.budgets, dtype=float)[budget_k],
            names=[f"{spec.name}[{k}]" for k in budget_k.tolist()],
        )
    return lp


def solve_placement_lp(
    problem: PlacementProblem, backend: str = "auto"
) -> FractionalPlacement:
    """Solve the Figure 4 LP with HiGHS: the test oracle.

    Planning never calls this — :func:`pack_components` gives an
    optimum in closed form.  The tests solve the explicit program to
    check that claim (objective 0, same feasibility) and to reproduce
    the paper's formulation.

    Args:
        problem: The CCA instance.
        backend: HiGHS method: ``"auto"``, ``"highs"``, or
            ``"highs-ipm"``.

    Returns:
        The optimal :class:`FractionalPlacement`.

    Raises:
        InfeasibleProblemError: If the capacities cannot hold the
            objects (detected up front or reported by the solver).
        SolverError: On unexpected solver failure.
    """
    from repro.lpsolve import LPStatus

    if problem.is_trivially_infeasible():
        raise InfeasibleProblemError(
            f"total object size {problem.total_size:.6g} exceeds "
            f"total capacity {problem.total_capacity:.6g}"
        )
    with obs.span("lp", objects=problem.num_objects, nodes=problem.num_nodes):
        with obs.span("lp.build"):
            lp = build_placement_lp(problem)
        obs.gauge("lp.num_variables").set(lp.num_variables)
        obs.gauge("lp.num_constraints").set(lp.num_constraints)
        obs.gauge("lp.num_nonzeros").set(lp.num_nonzeros)
        with obs.timed("lp.solve", backend=backend) as solve_span:
            result = lp.solve(backend=backend)
        elapsed = solve_span.duration
        solve_span.set(status=result.status.name, iterations=result.iterations)
        obs.histogram("lp.solve_seconds").observe(elapsed)
        obs.counter("lp.solves").inc()

    if result.status is LPStatus.INFEASIBLE:
        raise InfeasibleProblemError(
            f"placement LP infeasible: {result.message}"
        )
    if result.status is not LPStatus.OPTIMAL:
        raise SolverError(
            f"placement LP ended with status {result.status}: {result.message}"
        )

    t, n = problem.num_objects, problem.num_nodes
    fractions = np.clip(result.x[: t * n].reshape(t, n), 0.0, 1.0)
    row_sums = fractions.sum(axis=1, keepdims=True)
    # Guard against solver round-off; rows are 1 up to tolerance already.
    np.divide(fractions, row_sums, out=fractions, where=row_sums > 0)

    capacity_duals = None
    if result.duals is not None:
        capacity_duals = np.full(n, np.nan)
        names = {lp.constraint_name(r): r for r in range(lp.num_constraints)}
        for k in range(n):
            row = names.get(f"capacity[{k}]")
            if row is not None:
                capacity_duals[k] = result.duals[row]

    stats = LPStats(
        num_variables=lp.num_variables,
        num_constraints=lp.num_constraints,
        num_nonzeros=lp.num_nonzeros,
        solve_seconds=elapsed,
        iterations=result.iterations,
    )
    return FractionalPlacement(
        problem, fractions, float(result.objective), stats, capacity_duals
    )
