"""Ablation: LP size and solve-time scaling (Section 3.1).

The paper argues the program has O(|T| * |N|) variables and constraints
when the correlation set E is sparse, and reports up to 48 hours of
LPsolve time at scope 10000.  This bench measures program size and
HiGHS solve time across scopes and node counts and asserts the O(T*N)
variable-count law.
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.importance import top_important
from repro.core.lp import solve_placement_lp

SCOPES = (100, 200, 400)
NODES = (5, 10, 20)


def _scoped_subproblem(problem, scope, n_nodes):
    scoped = top_important(problem, scope)
    caps = np.full(
        n_nodes, 2.0 * sum(problem.size_of(o) for o in scoped) / n_nodes
    )
    return problem.subproblem(scoped, capacities=caps)


def test_lp_scaling(benchmark, study):
    def sweep():
        rows = []
        for n in NODES:
            problem = study.placement_problem(n)
            for scope in SCOPES:
                sub = _scoped_subproblem(problem, scope, n)
                fractional = solve_placement_lp(sub)
                stats = fractional.stats
                rows.append(
                    (
                        scope,
                        n,
                        sub.num_pairs,
                        stats.num_variables,
                        stats.num_constraints,
                        stats.solve_seconds,
                    )
                )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print(
        "\n"
        + format_table(
            ["scope", "nodes", "pairs", "vars", "constraints", "seconds"],
            [list(r) for r in rows],
            float_format="{:.3f}",
        )
    )

    # O(|T|*|N|) variables: vars = (t + |E|) * n, and |E| = O(t) in
    # sparse workloads, so vars / (t * n) is bounded by a constant.
    ratios = [vars_ / (scope * n) for scope, n, _, vars_, _, _ in rows]
    assert max(ratios) < 12.0

    # Doubling nodes at fixed scope roughly doubles variables.
    by_key = {(scope, n): vars_ for scope, n, _, vars_, _, _ in rows}
    for scope in SCOPES:
        growth = by_key[(scope, 20)] / by_key[(scope, 5)]
        assert 2.0 < growth < 8.0
