"""Ablation: sketch-mined vs exact correlations for placement quality.

The online subsystem estimates ``r(i, j)`` in bounded memory (Count-Min
sketch + Space-Saving top-K) instead of exact per-pair counters.  The
estimate is lossy — only heavy hitters survive, each somewhat
overcounted — so the question is whether placements planned from it are
materially worse than placements planned from the exact counts.

This bench mines the study's query log both ways, plans a greedy
placement from each estimate, and evaluates **both placements under the
exact problem**.  The sketch keeps a few thousand cells versus tens of
thousands of distinct pairs, and the paper's skew (Figure 2A: the mass
concentrates in the top pairs) is exactly why the top-K summary
suffices for placement purposes.
"""

from repro.analysis.reporting import format_table
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.core.strategies import PlanConfig, plan
from repro.online import SketchCorrelationEstimator

NUM_NODES = 10
SKETCH_WIDTH = 4096
SKETCH_DEPTH = 4
HEAVY_HITTERS = 2048


def test_online_mining(benchmark, study):
    exact_problem = study.placement_problem(NUM_NODES)
    sizes = dict(zip(exact_problem.object_ids, exact_problem.sizes))
    trace = [q.keywords for q in study.log]
    config = PlanConfig(seed=study.config.seed)

    def run():
        estimator = SketchCorrelationEstimator(
            mode="two_smallest",
            sizes=sizes,
            width=SKETCH_WIDTH,
            depth=SKETCH_DEPTH,
            heavy_hitters=HEAVY_HITTERS,
            seed=study.config.seed,
        )
        estimator.observe_trace(trace)
        sketch_problem = PlacementProblem.build(
            sizes,
            NUM_NODES,
            estimator.correlations(min_support=study.config.min_support),
        )
        exact_placement = plan(exact_problem, "greedy", config).placement
        sketch_placement = Placement.from_mapping(
            exact_problem,
            plan(sketch_problem, "greedy", config).placement.to_mapping(),
        )
        return {
            "exact": (
                len(exact_problem.pair_index),
                exact_placement.communication_cost(),
            ),
            "sketch": (
                estimator.memory_cells,
                sketch_placement.communication_cost(),
            ),
        }

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        "\n"
        + format_table(
            ["estimator", "state (pairs/cells)", "cost under exact problem"],
            [[name, state, cost] for name, (state, cost) in rows.items()],
            float_format="{:.4f}",
        )
    )

    exact_cost = rows["exact"][1]
    sketch_cost = rows["sketch"][1]
    # The sketch-planned placement must stay close to the exact-planned
    # one when both are judged by the exact correlations.
    assert sketch_cost <= 1.25 * exact_cost + 1e-9
    # And the memory bound must hold regardless of stream content.
    assert rows["sketch"][0] == SKETCH_WIDTH * SKETCH_DEPTH + HEAVY_HITTERS
