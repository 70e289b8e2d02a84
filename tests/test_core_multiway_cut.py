"""Theorem 1's NP-hardness reduction, executable, and its checks.

Theorem 1 proves CCA NP-hard by embedding minimum multiway cut: with
``n`` equal-capacity nodes and ``n`` "terminal" objects of size
``s ∈ (c/2, c]``, the terminals are forced into a bijection with the
nodes, and all remaining (tiny) objects distribute freely — so an
optimal placement is exactly a minimum multiway cut.

The helpers below are the forward construction (multiway-cut instance
→ CCA instance), the cost correspondence, and the classic isolation
heuristic (a ``2 - 2/k`` approximation) as an independent reference
algorithm for cross-checking placements on cut-structured instances.
They need ``networkx``, a test-only dependency.
"""

from typing import Hashable, Sequence

import networkx as nx
import numpy as np
import pytest

from repro.core.exact import solve_exact
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem

TERMINAL_SIZE = 0.6
TINY_BUDGET = 0.4  # total size available to all non-terminal objects


def cca_from_multiway_cut(
    graph: nx.Graph, terminals: Sequence[Hashable]
) -> PlacementProblem:
    """Encode a multiway-cut instance as a CCA instance (Theorem 1).

    Args:
        graph: Undirected graph; edge attribute ``weight`` (default 1)
            is the cut cost of the edge.
        terminals: ``n >= 2`` distinct vertices to separate.  Each
            becomes an object of size 0.6 on nodes of capacity 1, so
            no two terminals share a node; every other vertex becomes
            an object small enough to go anywhere.

    Returns:
        A CCA instance whose optimal cost equals the minimum multiway
        cut value (pair cost ``w = 1``, correlation = edge weight).
    """
    terminals = list(terminals)
    if len(terminals) < 2:
        raise ValueError("need at least two terminals")
    if len(set(terminals)) != len(terminals):
        raise ValueError("terminals must be distinct")
    for terminal in terminals:
        if terminal not in graph:
            raise ValueError(f"terminal {terminal!r} not in graph")

    others = [v for v in graph.nodes if v not in set(terminals)]
    tiny = TINY_BUDGET / max(len(others), 1)
    objects = {v: TERMINAL_SIZE for v in terminals}
    objects.update({v: tiny for v in others})

    correlations = {
        (u, v): float(data.get("weight", 1.0))
        for u, v, data in graph.edges(data=True)
    }
    nodes = {k: 1.0 for k in range(len(terminals))}
    return PlacementProblem.build(objects, nodes, correlations, pair_cost=lambda a, b: 1.0)


def multiway_cut_value(graph: nx.Graph, partition: dict[Hashable, int]) -> float:
    """Total weight of edges whose endpoints are in different parts."""
    return float(
        sum(
            data.get("weight", 1.0)
            for u, v, data in graph.edges(data=True)
            if partition[u] != partition[v]
        )
    )


def partition_from_placement(placement: Placement) -> dict[Hashable, int]:
    """View a CCA placement as a graph partition (object -> node index)."""
    return {
        obj: int(k)
        for obj, k in zip(placement.problem.object_ids, placement.assignment)
    }


def isolation_heuristic(
    graph: nx.Graph, terminals: Sequence[Hashable]
) -> tuple[dict[Hashable, int], float]:
    """The classic isolation heuristic for minimum multiway cut.

    For each terminal, compute a minimum cut isolating it from all
    other terminals (via a super-sink), then take the union of the
    ``k - 1`` cheapest isolating cuts — a ``2 - 2/k`` approximation.

    Returns:
        ``(partition, cut_value)`` where ``partition`` maps every
        vertex to the index of the terminal whose side it lands on.
    """
    terminals = list(terminals)
    if len(terminals) < 2:
        raise ValueError("need at least two terminals")

    cuts: list[tuple[float, int, set]] = []
    for index, terminal in enumerate(terminals):
        work = nx.Graph()
        work.add_nodes_from(graph.nodes)
        for u, v, data in graph.edges(data=True):
            work.add_edge(u, v, capacity=float(data.get("weight", 1.0)))
        sink = ("__sink__", index)
        for other in terminals:
            if other != terminal:
                work.add_edge(other, sink, capacity=float("inf"))
        cut_value, (reachable, _) = nx.minimum_cut(work, terminal, sink)
        reachable = set(reachable) - {sink}
        cuts.append((float(cut_value), index, reachable))

    # Drop the most expensive isolating cut; its terminal keeps the rest.
    cuts.sort(key=lambda item: item[0])
    kept = cuts[: len(terminals) - 1]
    fallback_index = cuts[-1][1]

    partition: dict[Hashable, int] = {v: fallback_index for v in graph.nodes}
    claimed: set = set()
    for _, index, side in kept:
        for vertex in side - claimed:
            partition[vertex] = index
        claimed |= side
    # Terminals always belong to their own side.
    for index, terminal in enumerate(terminals):
        partition[terminal] = index
    return partition, multiway_cut_value(graph, partition)


def path_graph_instance():
    """t1 - a - t2 with unit weights: min multiway cut = 1."""
    g = nx.Graph()
    g.add_edge("t1", "a", weight=1.0)
    g.add_edge("a", "t2", weight=1.0)
    return g, ["t1", "t2"]


def triangle_instance():
    """Three terminals pairwise connected; any 2-of-3 edges form the cut."""
    g = nx.Graph()
    g.add_edge("t1", "t2", weight=1.0)
    g.add_edge("t2", "t3", weight=1.0)
    g.add_edge("t1", "t3", weight=1.0)
    return g, ["t1", "t2", "t3"]


class TestReduction:
    def test_terminals_forced_apart(self):
        g, terminals = path_graph_instance()
        problem = cca_from_multiway_cut(g, terminals)
        solution = solve_exact(problem)
        assert solution.placement.node_of("t1") != solution.placement.node_of("t2")

    def test_cca_optimum_equals_min_cut(self):
        g, terminals = path_graph_instance()
        problem = cca_from_multiway_cut(g, terminals)
        assert solve_exact(problem).cost == pytest.approx(1.0)

    def test_triangle_cut_value(self):
        g, terminals = triangle_instance()
        problem = cca_from_multiway_cut(g, terminals)
        assert solve_exact(problem).cost == pytest.approx(3.0)  # all edges cut

    def test_weighted_instance(self):
        g = nx.Graph()
        g.add_edge("t1", "a", weight=10.0)
        g.add_edge("a", "t2", weight=1.0)
        problem = cca_from_multiway_cut(g, ["t1", "t2"])
        # Cut the cheap edge: a stays with t1.
        solution = solve_exact(problem)
        assert solution.cost == pytest.approx(1.0)
        assert solution.placement.node_of("a") == solution.placement.node_of("t1")

    def test_partition_round_trip(self):
        g, terminals = path_graph_instance()
        problem = cca_from_multiway_cut(g, terminals)
        solution = solve_exact(problem)
        partition = partition_from_placement(solution.placement)
        assert multiway_cut_value(g, partition) == pytest.approx(solution.cost)

    def test_validation(self):
        g, _ = path_graph_instance()
        with pytest.raises(ValueError, match="at least two"):
            cca_from_multiway_cut(g, ["t1"])
        with pytest.raises(ValueError, match="distinct"):
            cca_from_multiway_cut(g, ["t1", "t1"])
        with pytest.raises(ValueError, match="not in graph"):
            cca_from_multiway_cut(g, ["t1", "zzz"])


class TestIsolationHeuristic:
    def test_exact_on_path(self):
        g, terminals = path_graph_instance()
        partition, value = isolation_heuristic(g, terminals)
        assert value == pytest.approx(1.0)
        assert partition["t1"] != partition["t2"]

    def test_terminals_in_own_parts(self):
        g, terminals = triangle_instance()
        partition, _ = isolation_heuristic(g, terminals)
        assert len({partition[t] for t in terminals}) == 3

    def test_approximation_ratio_bound(self):
        """On random graphs the heuristic is within 2 - 2/k of optimum."""
        rng = np.random.default_rng(0)
        g = nx.gnm_random_graph(8, 16, seed=1)
        for u, v in g.edges:
            g[u][v]["weight"] = float(rng.uniform(0.5, 2.0))
        terminals = [0, 1, 2]
        partition, value = isolation_heuristic(g, terminals)
        problem = cca_from_multiway_cut(g, terminals)
        optimum = solve_exact(problem).cost
        k = len(terminals)
        assert optimum <= value + 1e-9
        assert value <= (2 - 2 / k) * optimum + 1e-9

    def test_heuristic_value_consistent_with_partition(self):
        g, terminals = triangle_instance()
        partition, value = isolation_heuristic(g, terminals)
        assert value == pytest.approx(multiway_cut_value(g, partition))
