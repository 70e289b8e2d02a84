"""Property tests: every vectorized fast path is byte-identical to its loop.

PR 5 added batched engines behind existing APIs — bulk LP constraint
assembly, batched randomized rounding, deduplicating query-log replay,
vectorized Count-Min ingestion, and chunked correlation mining.  Each
one promises *byte-identical* output to the legacy per-item loop under
fixed seeds; these hypothesis suites hold them to it, including dict
insertion order and the type-gate fallbacks of the miner.
"""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.correlation import (
    CorrelationEstimator,
    cooccurrence_correlations,
    operation_pairs,
    two_smallest_correlations,
    union_largest_correlations,
)
from repro.core.lp import build_placement_lp
from repro.core.problem import PlacementProblem
from repro.core.rounding import _round_trials_loop, round_trials_batched
from repro.lpsolve import LinearProgram, Sense
from repro.online.sketch import SketchCorrelationEstimator
from repro.search.documents import Corpus, Document
from repro.search.engine import DistributedSearchEngine
from repro.search.index import InvertedIndex
from repro.search.query import Query

# ----------------------------------------------------------------------
# Shared strategies
# ----------------------------------------------------------------------

# Ids that keep the miner on its vectorized fast path (homogeneous str
# or numeric tables) and ids that force the exact loop fallback (bool
# conflation, str/number mixes, unhashable-rank tuples, NaN).
FAST_IDS = [f"o{i}" for i in range(8)]
GATE_IDS = [0, 1, True, 1.0, 2.5, "o0", ("t", 1), float("nan")]


def _traces(ids, max_ops=25, max_len=5):
    operation = st.lists(st.sampled_from(ids), min_size=0, max_size=max_len)
    return st.lists(operation.map(tuple), min_size=0, max_size=max_ops)


def _sizes_for(ids, draw, rng):
    # Deliberately includes ties so tie-breaking order is exercised.
    return {obj: float(rng.integers(1, 5)) for obj in ids}


def _mine_reference(trace, mode="cooccurrence", sizes=None, min_support=1):
    """The pre-vectorization miner: one Counter update per operation."""
    counts: Counter = Counter()
    total = 0
    for operation in trace:
        total += 1
        counts.update(operation_pairs(operation, mode, sizes))
    if total == 0:
        return {}
    return {p: c / total for p, c in counts.items() if c >= min_support}


def _assert_same_mapping(fast, legacy):
    assert fast == legacy
    assert list(fast) == list(legacy)  # insertion order is part of the contract


# ----------------------------------------------------------------------
# Correlation mining
# ----------------------------------------------------------------------

class TestMiningEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(trace=_traces(FAST_IDS), min_support=st.integers(1, 3))
    def test_cooccurrence_fast_path(self, trace, min_support):
        _assert_same_mapping(
            cooccurrence_correlations(trace, min_support=min_support),
            _mine_reference(trace, min_support=min_support),
        )

    @settings(max_examples=40, deadline=None)
    @given(trace=_traces(GATE_IDS), min_support=st.integers(1, 2))
    def test_cooccurrence_gate_fallback(self, trace, min_support):
        _assert_same_mapping(
            cooccurrence_correlations(trace, min_support=min_support),
            _mine_reference(trace, min_support=min_support),
        )

    @settings(max_examples=40, deadline=None)
    @given(trace=_traces(FAST_IDS), seed=st.integers(0, 2**31 - 1))
    def test_two_smallest_fast_path(self, trace, seed):
        sizes = _sizes_for(FAST_IDS, None, np.random.default_rng(seed))
        _assert_same_mapping(
            two_smallest_correlations(trace, sizes),
            _mine_reference(trace, "two_smallest", sizes),
        )

    @settings(max_examples=40, deadline=None)
    @given(trace=_traces(FAST_IDS), seed=st.integers(0, 2**31 - 1))
    def test_union_largest_fast_path(self, trace, seed):
        sizes = _sizes_for(FAST_IDS, None, np.random.default_rng(seed))
        _assert_same_mapping(
            union_largest_correlations(trace, sizes),
            _mine_reference(trace, "union_largest", sizes),
        )

    @settings(max_examples=25, deadline=None)
    @given(trace=_traces(FAST_IDS), seed=st.integers(0, 2**31 - 1))
    def test_sized_modes_with_partial_sizes(self, trace, seed):
        # Unknown objects must be dropped identically on both paths.
        rng = np.random.default_rng(seed)
        sizes = _sizes_for(FAST_IDS[:5], None, rng)
        for mode, fn in (
            ("two_smallest", two_smallest_correlations),
            ("union_largest", union_largest_correlations),
        ):
            _assert_same_mapping(fn(trace, sizes), _mine_reference(trace, mode, sizes))

    @settings(max_examples=30, deadline=None)
    @given(trace=_traces(FAST_IDS, max_ops=15))
    def test_exact_estimator_observe_trace(self, trace):
        incremental = CorrelationEstimator()
        incremental.observe_all(trace)
        batched = CorrelationEstimator()
        batched.observe_trace(list(trace))
        _assert_same_mapping(batched.correlations(), incremental.correlations())
        assert batched.num_operations == incremental.num_operations


# ----------------------------------------------------------------------
# Sketch ingestion
# ----------------------------------------------------------------------

class TestSketchIngestEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        trace=_traces(FAST_IDS, max_ops=20),
        mode=st.sampled_from(["cooccurrence", "two_smallest", "union_largest"]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_observe_trace_matches_observe_all(self, trace, mode, seed):
        rng = np.random.default_rng(seed)
        sizes = None if mode == "cooccurrence" else _sizes_for(FAST_IDS, None, rng)
        kwargs = dict(mode=mode, sizes=sizes, width=64, depth=3, heavy_hitters=8, seed=seed)
        incremental = SketchCorrelationEstimator(**kwargs)
        incremental.observe_all(trace)
        batched = SketchCorrelationEstimator(**kwargs)
        assert batched.observe_trace(list(trace)) == len(trace)
        # Full serialized state: sketch table, heavy-hitter entries
        # (including dict order), and the operation total.
        assert json.dumps(batched.to_dict(), sort_keys=False) == json.dumps(
            incremental.to_dict(), sort_keys=False
        )
        _assert_same_mapping(batched.correlations(), incremental.correlations())


# ----------------------------------------------------------------------
# LP assembly and randomized rounding
# ----------------------------------------------------------------------

@st.composite
def _problems(draw, max_objects=10, max_nodes=4):
    t = draw(st.integers(2, max_objects))
    n = draw(st.integers(2, max_nodes))
    seed = draw(st.integers(0, 2**31 - 1))
    with_resource = draw(st.booleans())
    rng = np.random.default_rng(seed)
    objects = {f"o{i}": float(rng.uniform(0.5, 2.0)) for i in range(t)}
    capacity = sum(objects.values()) / n * 2.0 + max(objects.values())
    correlations = {}
    ids = list(objects)
    for i in range(t):
        for j in range(i + 1, t):
            if rng.random() < 0.5:
                correlations[(ids[i], ids[j])] = float(rng.uniform(0.01, 1.0))
    resources = None
    if with_resource:
        loads = {o: float(rng.uniform(0.1, 1.5)) for o in ids}
        resources = {"cpu": (loads, 2.0 * sum(loads.values()) / n)}
    return PlacementProblem.build(
        objects, {k: capacity for k in range(n)}, correlations, resources=resources
    )


def _lp_state(program):
    return (
        program._var_names,
        program._lower,
        program._upper,
        program._objective,
        program._rows,
        program._cols,
        program._vals,
        program._senses,
        program._rhs,
        program._con_names,
    )


def _build_placement_lp_loop(problem: PlacementProblem) -> LinearProgram:
    """Per-row reference assembly of the Figure 4 LP.

    The equivalence oracle for :func:`build_placement_lp`: the property
    test below asserts identical program state.
    """
    t, n = problem.num_objects, problem.num_nodes
    lp = LinearProgram(f"cca-{t}x{n}")

    for i in range(t):
        for k in range(n):
            lp.add_variable(f"x[{i},{k}]", lower=0.0, upper=1.0)

    active_pairs = np.where(problem.pair_weights > 0)[0]
    for p in active_pairs:
        i, j = problem.pair_index[p]
        weight = problem.pair_weights[p]
        for k in range(n):
            lp.add_variable(f"y[{i},{j},{k}]", lower=0.0, objective=weight)

    for i in range(t):
        lp.add_constraint(
            [(i * n + k, 1.0) for k in range(n)], Sense.EQ, 1.0, f"assign[{i}]"
        )

    y_base = t * n
    for idx, p in enumerate(active_pairs):
        i, j = problem.pair_index[p]
        for k in range(n):
            y_var = y_base + idx * n + k
            xi, xj = i * n + k, j * n + k
            lp.add_constraint(
                [(y_var, 1.0), (xi, -1.0), (xj, 1.0)], Sense.GE, 0.0
            )

    for k in range(n):
        cap = problem.capacities[k]
        if np.isfinite(cap):
            lp.add_constraint(
                [(i * n + k, float(problem.sizes[i])) for i in range(t)],
                Sense.LE,
                float(cap),
                f"capacity[{k}]",
            )

    for spec in problem.resources:
        for k in range(n):
            budget = spec.budgets[k]
            if not np.isfinite(budget):
                continue
            terms = [
                (i * n + k, float(spec.loads[i]))
                for i in range(t)
                if spec.loads[i] > 0
            ]
            if terms:
                lp.add_constraint(
                    terms, Sense.LE, float(budget), f"{spec.name}[{k}]"
                )
    return lp


class TestLPAssemblyEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(problem=_problems())
    def test_bulk_assembly_matches_loop(self, problem):
        assert _lp_state(build_placement_lp(problem)) == _lp_state(
            _build_placement_lp_loop(problem)
        )


class TestRoundingEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        problem=_problems(max_objects=8, max_nodes=4),
        trials=st.integers(1, 8),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_batched_sweep_matches_per_trial_loop(self, problem, trials, seed):
        from repro.core.lp import FractionalPlacement, LPStats

        rng = np.random.default_rng(seed)
        fractions = rng.dirichlet(
            np.full(len(problem.node_ids), 0.5), size=len(problem.object_ids)
        )
        fractional = FractionalPlacement(problem, fractions, 0.0, LPStats(0, 0, 0, 0.0, 0))
        seqs = np.random.SeedSequence(seed).spawn(trials)
        fast_assign, fast_rounds = round_trials_batched(fractional, seqs)
        loop_assign, loop_rounds = _round_trials_loop(fractional, seqs)
        np.testing.assert_array_equal(fast_assign, loop_assign)
        np.testing.assert_array_equal(fast_rounds, loop_rounds)


# ----------------------------------------------------------------------
# Query-log replay
# ----------------------------------------------------------------------

@st.composite
def _replay_cases(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    num_docs = draw(st.integers(3, 10))
    num_queries = draw(st.integers(0, 30))
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(8)]
    docs = []
    for d in range(num_docs):
        count = int(rng.integers(1, 5))
        words = frozenset(rng.choice(vocab, size=count, replace=False).tolist())
        docs.append(Document(f"d{d}", words))
    index = InvertedIndex.from_corpus(Corpus(docs))
    lookup = {w: int(rng.integers(0, 3)) for w in index.vocabulary}
    present = sorted(index.vocabulary)
    queries = []
    for _ in range(num_queries):
        count = int(rng.integers(1, min(4, len(present)) + 1))
        words = rng.choice(present, size=count, replace=False).tolist()
        queries.append(Query(tuple(words)))
    return index, lookup, queries


class TestReplayEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(case=_replay_cases(), mode=st.sampled_from(["intersection", "union"]))
    def test_dedup_replay_matches_sequential(self, case, mode):
        index, lookup, queries = case
        engine = DistributedSearchEngine(index, lookup)
        fast = engine.execute_log(queries, mode=mode, dedup=True)
        legacy = engine.execute_log(queries, mode=mode, dedup=False)
        assert fast.queries == legacy.queries
        assert fast.total_bytes == legacy.total_bytes
        assert fast.local_queries == legacy.local_queries
        assert fast.total_hops == legacy.total_hops
        assert fast.unserved_queries == legacy.unserved_queries
        assert fast.per_node_bytes_sent == legacy.per_node_bytes_sent
        assert list(fast.per_node_bytes_sent) == list(legacy.per_node_bytes_sent)
