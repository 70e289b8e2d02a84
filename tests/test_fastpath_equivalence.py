"""Property tests: every vectorized fast path is byte-identical to its loop.

Batched engines sit behind existing APIs — bulk LP constraint
assembly, capacity repair from cached move deltas, migration
selection from memoized gains, the columnar query-log compile,
query-log replay from a compiled profile, replica routing on bitset
intersection counts, Count-Min rows hashed once per distinct key,
heap-based Space-Saving eviction folded per batch, correlation mining
through one vectorized reduction of distinct operations (of a trace
or of a compiled profile), the first-appearance importance order,
problem construction from one ``np.unique`` merge, the scalar
streaming-partitioner pass, index-array scoping, online replans that
plan only the paired objects, and the selector-free virtual-time
loop.  Each one promises
*byte-identical* output to the legacy per-item loop under fixed seeds;
these hypothesis suites hold them to it, including dict insertion
order and the miner's type gate, which sends every trace whose ids
are not all ``str`` or all ``int`` to the per-operation loop.
"""

import asyncio
import hashlib
import heapq
import itertools
import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import correlation, importance, streampart
from repro.core.correlation import (
    CorrelationEstimator,
    cooccurrence_correlations,
    operation_pairs,
    two_smallest_correlations,
    union_largest_correlations,
)
from repro.core.importance import importance_ranking, importance_scores, top_important
from repro.core.hashing import hash_node
from repro.core.lp import build_placement_lp
from repro.core.migration import Migration, MigrationPlan, select_migrations
from repro.core.partial import scoped_capacities, scoped_placement
from repro.core.problem import (
    PlacementProblem,
    min_size_pair_cost,
    sum_size_pair_cost,
    unit_pair_cost,
)
from repro.core.repair import repair_capacity
from repro.core.replication import ReplicatedPlacement
from repro.core.resources import ResourceSpec
from repro.core.strategies import PlanConfig, PlanScope
from repro.core.streampart import streaming_greedy_placement
from repro.exceptions import InfeasibleProblemError, ProblemDefinitionError
from repro.online.controller import _replan_target, heavy_hitter_plan
from repro.online.sketch import (
    CountMinSketch,
    SketchCorrelationEstimator,
    SpaceSavingPairs,
)
from repro.pg.aggregate import aggregate_problem, build_grouping
from repro import obs
from repro.core.placement import Placement
from repro.search.documents import Corpus, Document
from repro.search.engine import (
    DistributedSearchEngine,
    EngineStats,
    QueryExecution,
    QueryProfile,
    build_placement_problem,
)
from repro.search.index import ITEM_BYTES, InvertedIndex
from repro.search.query import Query, QueryLog
from repro.search.replicated_engine import ReplicatedSearchEngine
from repro.search.simulation import TimingModel, simulate_latencies
from repro.serve.router import QueryRouter, ServeConfig
from repro.serve.snapshot import PlanHandle, PlanSnapshot
from repro.serve.vtime import VirtualTimeLoop, run_virtual

from tests.helpers import estimator_state

# ----------------------------------------------------------------------
# Shared strategies
# ----------------------------------------------------------------------

# Ids that keep the miner on its vectorized path (all str; all int
# would too) and ids that send a trace to the exact per-operation loop
# (bool conflation, floats, ``np.str_``, str/number mixes, tuples, NaN).
FAST_IDS = [f"o{i}" for i in range(8)]
GATE_IDS = [0, 1, True, 1.0, 2.5, "o0", np.str_("o0"), ("t", 1), float("nan")]


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


def _observe_reference(estimator, trace):
    """The per-operation ingest, the reference for ``observe_trace``.

    ``operation_pairs`` feeds ``Counter.update`` (exact) or
    ``CountMinSketch.add`` plus ``SpaceSavingPairs.add`` (sketch), and
    the operation total grows by 1 per operation.
    """
    for operation in trace:
        pairs = operation_pairs(operation, estimator.mode, estimator.sizes)
        if isinstance(estimator, SketchCorrelationEstimator):
            estimator._total_ops += 1
            for pair in pairs:
                estimator.sketch.add(pair)
                estimator.heavy.add(pair)
        else:
            estimator._total += 1
            estimator._counts.update(pairs)


_MINERS = {
    "cooccurrence": lambda trace, sizes: cooccurrence_correlations(trace),
    "two_smallest": two_smallest_correlations,
    "union_largest": union_largest_correlations,
}


@st.composite
def _ingest_cases(draw, max_ops=15):
    """(mode, sizes, batches, decay factor) over fast or gate ids."""
    ids = draw(st.sampled_from([FAST_IDS, GATE_IDS]))
    mode = draw(st.sampled_from(CorrelationEstimator.MODES))
    seed = draw(st.integers(0, 2**31 - 1))
    sizes = None if mode == "cooccurrence" else _sizes_for(ids, None, np.random.default_rng(seed))
    batches = draw(st.lists(_traces(ids, max_ops=max_ops), min_size=1, max_size=3))
    factor = draw(st.sampled_from([1.0, 0.7, 0.5]))
    return mode, sizes, batches, factor


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

    def test_signed_zero_ids_keep_their_own_sign(self):
        # 0.0 == -0.0 with different reprs: the pairs must hold each
        # operation's own zero, not the first one interned.
        trace = [(-0.0,), (0.0, 1.0), (-0.0, 2.0), (0.0, 1.0)]
        assert repr(list(cooccurrence_correlations(trace).items())) == repr(
            list(_mine_reference(trace).items())
        )
        kwargs = dict(width=64, depth=3, heavy_hitters=8, seed=0)
        batched = SketchCorrelationEstimator(**kwargs)
        batched.observe_trace(trace)
        reference = SketchCorrelationEstimator(**kwargs)
        _observe_reference(reference, trace)
        assert json.dumps(estimator_state(batched)) == json.dumps(estimator_state(reference))

    @settings(max_examples=50, deadline=None)
    @given(case=_ingest_cases())
    def test_exact_estimator_observe_trace(self, case):
        mode, sizes, batches, factor = case
        reference = CorrelationEstimator(mode, sizes)
        batched = CorrelationEstimator(mode, sizes)
        for batch in batches:
            _observe_reference(reference, batch)
            assert batched.observe_trace(iter(batch)) == len(batch)
            reference.decay(factor)
            batched.decay(factor)
        # repr tells 1 from True and 0.0 from -0.0; order is compared too.
        assert repr(list(batched._counts.items())) == repr(
            list(reference._counts.items())
        )
        assert batched._total == reference._total
        _assert_same_mapping(batched.correlations(), reference.correlations())


# Traces the miner's one type scan must send to the per-operation loop,
# or group exactly: ``True`` after an equal ``1`` (grouped with it, the
# second operation would emit ``(1, 2)``, and Count-Min hashes each
# pair's repr), ``np.str_`` ids beside equal ``str`` ones, operations
# given as one-shot iterators (each must be read once), and one
# operation repeated beside its permutation.  Each is built afresh for
# every miner.
_GATE_TRACES = {
    "bool_after_int": lambda: [(1, 2), (True, 2)],
    "np_str": lambda: [("a", "b"), tuple(np.array(["b", "a", "c"])), ("c", np.str_("b"))],
    "iterators": lambda: [iter(("a", "b", "c")), iter(("b", "c"))],
    "permutation": lambda: [("a", "b", "c"), ("b", "d"), ("a", "b", "c"), ("c", "a", "b")],
}


class TestTypeGate:
    @pytest.mark.parametrize("mode", CorrelationEstimator.MODES)
    @pytest.mark.parametrize("case", sorted(_GATE_TRACES))
    def test_miner_and_ingest_match_the_loop(self, case, mode):
        make = _GATE_TRACES[case]
        ids = dict.fromkeys(obj for operation in make() for obj in operation)
        sizes = None
        if mode != "cooccurrence":
            sizes = {obj: float(1 + k % 2) for k, obj in enumerate(ids)}
        mined = _MINERS[mode](make(), sizes)
        reference = _mine_reference(list(make()), mode, sizes)
        assert mined
        # repr tells 1 from True and np.str_ from str.
        assert repr(list(mined.items())) == repr(list(reference.items()))
        kwargs = dict(mode=mode, sizes=sizes, width=64, depth=3, heavy_hitters=8, seed=0)
        batched = SketchCorrelationEstimator(**kwargs)
        assert batched.observe_trace(make()) == len(make())
        loop = SketchCorrelationEstimator(**kwargs)
        _observe_reference(loop, make())
        assert json.dumps(estimator_state(batched)) == json.dumps(estimator_state(loop))
        exact, exact_loop = CorrelationEstimator(mode, sizes), CorrelationEstimator(mode, sizes)
        exact.observe_trace(make())
        _observe_reference(exact_loop, make())
        assert repr(list(exact._counts.items())) == repr(list(exact_loop._counts.items()))


# ----------------------------------------------------------------------
# Sketch ingestion
# ----------------------------------------------------------------------

class TestSketchIngestEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(case=_ingest_cases(max_ops=20), seed=st.integers(0, 2**31 - 1))
    def test_observe_trace_matches_reference(self, case, seed):
        mode, sizes, batches, factor = case
        kwargs = dict(mode=mode, sizes=sizes, width=64, depth=3, heavy_hitters=8, seed=seed)
        reference = SketchCorrelationEstimator(**kwargs)
        batched = SketchCorrelationEstimator(**kwargs)
        for batch in batches:
            _observe_reference(reference, batch)
            assert batched.observe_trace(iter(batch)) == len(batch)
            reference.decay(factor)
            batched.decay(factor)
        # Full state: sketch table, heavy-hitter entries and the
        # operation total.
        assert json.dumps(estimator_state(batched)) == json.dumps(
            estimator_state(reference)
        )
        _assert_same_mapping(batched.correlations(), reference.correlations())


def _indices_reference(sketch, key):
    """Big-int Count-Min rows: one digest per key, ``(h1 + row * h2) % width``."""
    digest = hashlib.blake2b(
        repr(key).encode("utf-8"), digest_size=16, key=sketch._key
    ).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:], "big") | 1  # odd, never degenerate
    return [(h1 + row * h2) % sketch.width for row in range(sketch.depth)]


# Widths where a wrong modular reduction shows (powers of two hide
# it), and keys equal under == whose reprs differ.
_CM_WIDTHS = [1, 7, 61, 1000] + [2**k + d for k in (5, 10, 16) for d in (-1, 1)]
_EQUAL_KEYS = [1, True, 1.0, 0, False, 0.0, -0.0, (0, 1), (0, True), (0.0, 1), (-0.0, 1), "1"]


class TestCountMinEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(
        width=st.sampled_from(_CM_WIDTHS),
        depth=st.integers(1, 6),
        seed=st.integers(0, 2**31 - 1),
        batches=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(_EQUAL_KEYS),
                    st.sampled_from([0.0, 0.1, 1.0, 2.5]) | st.floats(0, 1e6),
                ),
                max_size=10,
            ),
            max_size=4,
        ),
        unit=st.booleans(),
    )
    def test_rows_match_big_int_reference(self, width, depth, seed, batches, unit):
        batched = CountMinSketch(width, depth, seed)
        single = CountMinSketch(width, depth, seed)
        cells = np.zeros((depth, width))
        total = 0.0
        for batch in batches:
            keys = [key for key, _count in batch]
            counts = [1.0] * len(batch) if unit else [count for _key, count in batch]
            batched.update_many(keys, None if unit else counts)
            for key, count in zip(keys, counts):
                single.add(key, count)
                for row, col in enumerate(_indices_reference(batched, key)):
                    cells[row, col] += count
                total += count
        for sketch in (batched, single):
            assert sketch._cells.tobytes() == cells.tobytes()
            assert sketch.total == total
        expected = [
            float(min(cells[row, col] for row, col in enumerate(_indices_reference(batched, key))))
            for key in _EQUAL_KEYS
        ]
        assert [batched.estimate(key) for key in _EQUAL_KEYS] == expected
        assert batched.estimate_many(_EQUAL_KEYS) == expected


# ----------------------------------------------------------------------
# A fast prefix, then fast or gate ids, through the shared miner
# ----------------------------------------------------------------------

class TestChunkSeams:
    """A vectorized prefix followed by fast or gate ids.

    A trace is a prefix of fast ids followed by fast or gate ids, read
    once through iterators, so a gate id anywhere sends the whole trace
    to the per-operation loop, and an all-fast trace takes the
    vectorized reduction with repeated operations grouped.  Both paths
    must give the loop's pair stream and counts.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        prefix=_traces(FAST_IDS, max_ops=15),
        ids=st.sampled_from([FAST_IDS, GATE_IDS]),
        mode=st.sampled_from(CorrelationEstimator.MODES),
        seed=st.integers(0, 2**31 - 1),
        data=st.data(),
    )
    def test_pair_stream_and_counts_across_seams(self, prefix, ids, mode, seed, data):
        trace = prefix + data.draw(_traces(ids, max_ops=15))
        universe = FAST_IDS + GATE_IDS
        sizes = None if mode == "cooccurrence" else _sizes_for(universe, None, np.random.default_rng(seed))
        pairs, ops = correlation._trace_pairs(iter(trace), mode, sizes)
        mined = _MINERS[mode](iter(trace), sizes)
        expected = [
            pair for operation in trace for pair in operation_pairs(operation, mode, sizes)
        ]
        assert ops == len(trace)
        # Every pair, duplicates and order included, holding the same
        # objects (repr tells 1 from True).
        assert repr(pairs) == repr(expected)
        _assert_same_mapping(mined, _mine_reference(trace, mode, sizes))


# ----------------------------------------------------------------------
# Space-Saving eviction
# ----------------------------------------------------------------------

class _SpaceSavingScan:
    """The linear-scan Space-Saving tracker: two passes per eviction.

    Victim = the first entry in insertion order among those minimal by
    ``(count, repr)``.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = {}  # pair -> [count, error]
        self.total = 0.0
        self.max_tracked = 0
        self.evictions = 0

    def add(self, pair, count):
        self.total += count
        entry = self.entries.get(pair)
        if entry is not None:
            entry[0] += count
        elif len(self.entries) < self.capacity:
            self.entries[pair] = [count, 0.0]
        else:
            lowest = min(entry[0] for entry in self.entries.values())
            victim = min(
                (p for p, entry in self.entries.items() if entry[0] == lowest),
                key=repr,
            )
            floor = self.entries.pop(victim)[0]
            self.entries[pair] = [floor + count, floor]
            self.evictions += 1
        self.max_tracked = max(self.max_tracked, len(self.entries))

    def scale(self, factor):
        if factor == 0.0:
            self.entries.clear()
            self.total = 0.0
            return
        for entry in self.entries.values():
            entry[0] *= factor
            entry[1] *= factor
        self.total *= factor

    def items(self):
        return sorted(
            ((pair, float(c), float(e)) for pair, (c, e) in self.entries.items()),
            key=lambda row: (-row[1], repr(row[0])),
        )


class _Faceless(str):
    """An object id with an empty repr.

    Every pair of them has the repr ``"(, )"``, which sorts before the
    repr of every pair of ints, so faceless pairs are the victims
    whenever their count is lowest and ties among them fall through to
    insertion order.
    """

    def __repr__(self):
        return ""


_SS_UNIVERSE = [(0, 1), (0, 2), (1, 2), (2, 3)] + [
    (_Faceless(f"f{i}"), _Faceless(f"f{i + 1}")) for i in (0, 2, 4)
]


@st.composite
def _ss_steps(draw):
    kind = draw(st.sampled_from(["add"] * 8 + ["scale"]))
    if kind == "add":
        return kind, draw(st.sampled_from(_SS_UNIVERSE)), draw(
            st.sampled_from([0.5, 1.0, 2.0])
        )
    return kind, draw(st.sampled_from([0.0, 0.5, 0.7, 1.0]))


@st.composite
def _ss_fold_steps(draw):
    """A batch fold (unit or explicit counts, reprs passed or not), or a
    step of :func:`_ss_steps`."""
    if draw(st.integers(0, 2)):
        return draw(_ss_steps())
    pairs = draw(st.lists(st.sampled_from(_SS_UNIVERSE), max_size=12))
    counts = draw(
        st.none()
        | st.lists(
            st.sampled_from([0.5, 1.0, 2.0]), min_size=len(pairs), max_size=len(pairs)
        )
    )
    return "fold", pairs, counts, draw(st.booleans())


def _ss_step(tracker, reference, step):
    """Apply ``step`` to both trackers and compare them."""
    if step[0] == "add":
        tracker.add(step[1], step[2])
        reference.add(step[1], step[2])
    elif step[0] == "fold":
        _kind, pairs, counts, with_reprs = step
        tracker._fold(pairs, counts, [repr(pair) for pair in pairs] if with_reprs else None)
        for pair, count in zip(pairs, [1.0] * len(pairs) if counts is None else counts):
            reference.add(pair, count)
    else:
        tracker.scale(step[1])
        reference.scale(step[1])
    assert tracker.items() == reference.items()
    assert tracker.evictions == reference.evictions
    assert tracker.max_tracked == reference.max_tracked
    assert tracker.total == reference.total
    for pair in _SS_UNIVERSE:
        entry = reference.entries.get(pair, [0.0, 0.0])
        assert tracker.count(pair) == entry[0]
        assert tracker.error(pair) == entry[1]


class TestSpaceSavingEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(1, 4),
        steps=st.lists(_ss_steps(), min_size=20, max_size=80),
    )
    def test_heap_eviction_matches_linear_scan(self, capacity, steps):
        tracker = SpaceSavingPairs(capacity)
        reference = _SpaceSavingScan(capacity)
        for step in steps:
            _ss_step(tracker, reference, step)

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(1, 4),
        steps=st.lists(_ss_fold_steps(), min_size=10, max_size=40),
    )
    def test_batch_folds_match_linear_scan(self, capacity, steps):
        tracker = SpaceSavingPairs(capacity)
        reference = _SpaceSavingScan(capacity)
        for step in steps:
            _ss_step(tracker, reference, step)


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


def _rows(matrix):
    """A CSR matrix as one list of ``(column, value)`` terms per row."""
    bounds = matrix.indptr.tolist()
    return [
        list(zip(matrix.indices[lo:hi].tolist(), matrix.data[lo:hi].tolist()))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def _lp_state(program):
    return (
        program.c.tolist(),
        program.upper.tolist(),
        program.a_ub.shape,
        _rows(program.a_ub),
        program.b_ub.tolist(),
        program.a_eq.shape,
        _rows(program.a_eq),
        program.b_eq.tolist(),
    )


def _build_placement_lp_loop(problem: PlacementProblem):
    """Per-row reference assembly of the Figure 4 LP.

    The equivalence oracle for :func:`build_placement_lp`: the tests
    below assert the same objective, bounds and rows, term by term, in
    the :func:`_lp_state` layout.  Each row is its ``(column, value)``
    terms in column order.
    """
    t, n = problem.num_objects, problem.num_nodes
    c = [0.0] * (t * n)
    upper = [1.0] * (t * n)
    active_pairs = np.where(problem.pair_weights > 0)[0]
    for p in active_pairs:
        for k in range(n):
            c.append(float(problem.pair_weights[p]))
            upper.append(math.inf)

    ub_rows, b_ub = [], []
    for k in range(n):
        cap = problem.capacities[k]
        if np.isfinite(cap):
            ub_rows.append([(i * n + k, float(problem.sizes[i])) for i in range(t)])
            b_ub.append(float(cap))

    for spec in problem.resources:
        for k in range(n):
            budget = spec.budgets[k]
            terms = [
                (i * n + k, float(spec.loads[i]))
                for i in range(t)
                if spec.loads[i] > 0
            ]
            if np.isfinite(budget) and terms:
                ub_rows.append(terms)
                b_ub.append(float(budget))

    # y >= x_i - x_j, negated into the <= block.
    y_base = t * n
    for idx, p in enumerate(active_pairs):
        i, j = problem.pair_index[p]
        for k in range(n):
            terms = [(y_base + idx * n + k, -1.0), (i * n + k, 1.0), (j * n + k, -1.0)]
            ub_rows.append(sorted(terms))
            b_ub.append(0.0)

    eq_rows = [[(i * n + k, 1.0) for k in range(n)] for i in range(t)]
    return (
        c,
        upper,
        (len(ub_rows), len(c)),
        ub_rows,
        b_ub,
        (t, len(c)),
        eq_rows,
        [1.0] * t,
    )


class TestLPAssemblyEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(problem=_problems())
    # An infinite capacity, a zero-weight pair, a zero load, an infinite
    # budget, and a resource no object loads.
    @example(
        problem=PlacementProblem.build(
            {"a": 1.0, "b": 2.0, "c": 1.0},
            {0: 3.0, 1: math.inf},
            {("a", "b"): 0.5, ("b", "c"): 0.0, ("a", "c"): 0.25},
            resources={
                "cpu": ({"a": 1.0, "b": 0.0, "c": 2.0}, {0: 2.0, 1: math.inf}),
                "idle": ({"a": 0.0, "b": 0.0, "c": 0.0}, 1.0),
            },
        )
    )
    @example(
        problem=PlacementProblem.build(
            {"a": 1.0, "b": 1.0, "c": 1.0}, 3, {("a", "b"): 0.5, ("b", "c"): 0.0}
        )
    )
    @example(problem=PlacementProblem.build({}, {0: 1.0, 1: 2.0}, {}))
    def test_bulk_assembly_matches_loop(self, problem):
        assert _lp_state(build_placement_lp(problem)) == _build_placement_lp_loop(
            problem
        )


# ----------------------------------------------------------------------
# Capacity repair
# ----------------------------------------------------------------------

def _repair_reference(placement, capacities=None, tolerance=0.0):
    """The pre-cache repair loop: every move rebuilds the whole
    (member × destination) candidate heap and recomputes each delta.

    Once the bytes fit, the node and resource with the largest
    load-to-budget ratio over a budget give up a member with a positive
    load there, ranked per unit of that load."""
    problem = placement.problem
    caps = problem.capacities if capacities is None else np.asarray(capacities, float)
    limits = caps * (1.0 + tolerance)

    assignment = placement.assignment.copy()
    loads = np.bincount(assignment, weights=problem.sizes, minlength=problem.num_nodes)
    resource_loads = [
        np.bincount(assignment, weights=spec.loads, minlength=problem.num_nodes)
        for spec in problem.resources
    ]
    resource_limits = [
        spec.budgets * (1.0 + tolerance) for spec in problem.resources
    ]

    def worst_budget():
        worst = None
        for r, (rl, rlim) in enumerate(zip(resource_loads, resource_limits)):
            for k in range(problem.num_nodes):
                if rl[k] > rlim[k] + 1e-9:
                    ratio = math.inf if rlim[k] == 0 else rl[k] / rlim[k]
                    if worst is None or ratio > worst[0]:
                        worst = (ratio, r, k)
        return worst

    bytes_fit = np.all(loads <= limits + 1e-9)
    if bytes_fit and worst_budget() is None:
        return placement
    if (
        not bytes_fit
        and problem.total_size > np.sum(limits[np.isfinite(limits)])
        and np.all(np.isfinite(limits))
    ):
        raise InfeasibleProblemError(
            "repair impossible: total object size exceeds total allowed load"
        )

    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(problem.num_objects)]
    for (i, j), weight in zip(problem.pair_index, problem.pair_weights):
        if weight > 0:
            adjacency[int(i)].append((int(j), float(weight)))
            adjacency[int(j)].append((int(i), float(weight)))

    def move_delta(obj, src, dst):
        delta = 0.0
        for neighbor, weight in adjacency[obj]:
            where = assignment[neighbor]
            if where == src:
                delta += weight
            elif where == dst:
                delta -= weight
        return delta

    max_moves = 4 * problem.num_objects
    moves = 0
    while True:
        overloaded = np.where(loads > limits + 1e-9)[0]
        if overloaded.size:
            src = int(overloaded[np.argmax(loads[overloaded] - limits[overloaded])])
            members = np.where(assignment == src)[0]
            relief = problem.sizes
            what = "overloaded node index"
        else:
            worst = worst_budget()
            if worst is None:
                break
            spec, src = problem.resources[worst[1]], worst[2]
            members = [i for i in np.where(assignment == src)[0] if spec.loads[i] > 0]
            relief = spec.loads
            what = f"node index over its {spec.name!r} budget"
        moves += 1
        if moves > max_moves:
            raise InfeasibleProblemError(
                "capacity repair did not converge; capacities may be too tight"
            )
        candidates = []
        for obj in members:
            size = problem.sizes[obj]
            for dst in range(problem.num_nodes):
                if dst == src or loads[dst] + size > limits[dst] + 1e-9:
                    continue
                if any(
                    rl[dst] + spec.loads[obj] > rlim[dst] + 1e-9
                    for rl, rlim, spec in zip(
                        resource_loads, resource_limits, problem.resources
                    )
                ):
                    continue
                delta = move_delta(int(obj), src, dst)
                heapq.heappush(
                    candidates, (delta / relief[obj], -relief[obj], int(obj), dst)
                )
        if not candidates:
            raise InfeasibleProblemError(
                f"capacity repair stuck: no destination can absorb any "
                f"object of {what} {src}"
            )
        _, _, obj, dst = heapq.heappop(candidates)
        assignment[obj] = dst
        loads[src] -= problem.sizes[obj]
        loads[dst] += problem.sizes[obj]
        for rl, spec in zip(resource_loads, problem.resources):
            rl[src] -= spec.loads[obj]
            rl[dst] += spec.loads[obj]

    return Placement(problem, assignment)


_CAPACITY = st.one_of(st.just(math.inf), st.integers(0, 12).map(float))


@st.composite
def _repair_cases(draw):
    """Small integer instances, so ratio and size ties are common.

    Objects start on the first ``spread`` nodes, which overloads them
    often; capacities mix finite and infinite values, and some cases
    pass an explicit ``capacities=`` vector over a problem of its own.
    """
    t = draw(st.integers(1, 40))
    n = draw(st.integers(2, 6))
    ids = [f"o{i}" for i in range(t)]
    sizes = draw(st.lists(st.integers(1, 4), min_size=t, max_size=t))
    capacities = draw(st.lists(_CAPACITY, min_size=n, max_size=n))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, t - 1), st.integers(0, t - 1), st.integers(0, 3)),
            max_size=3 * t,
        )
    )
    correlations = {(ids[i], ids[j]): float(w) for i, j, w in edges if i != j}
    resources = None
    if draw(st.booleans()):
        loads = draw(st.lists(st.integers(0, 3), min_size=t, max_size=t))
        budgets = draw(st.lists(_CAPACITY, min_size=n, max_size=n))
        resources = {
            "cpu": (dict(zip(ids, map(float, loads))), dict(enumerate(budgets)))
        }
    problem = PlacementProblem.build(
        dict(zip(ids, map(float, sizes))),
        dict(enumerate(capacities)),
        correlations,
        resources=resources,
    )
    spread = draw(st.integers(1, n))
    assignment = draw(st.lists(st.integers(0, spread - 1), min_size=t, max_size=t))
    explicit = draw(
        st.none() | st.lists(_CAPACITY, min_size=n, max_size=n).map(np.array)
    )
    tolerance = draw(st.sampled_from([0.0, 0.05]))
    return Placement(problem, np.array(assignment)), explicit, tolerance


def _repair_outcome(repair, placement, capacities, tolerance):
    try:
        result = repair(placement, capacities=capacities, tolerance=tolerance)
    except InfeasibleProblemError as exc:
        return type(exc), str(exc)
    return result is placement, result.assignment.tolist()


class TestRepairEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(case=_repair_cases())
    def test_cached_deltas_match_heap_loop(self, case):
        placement, capacities, tolerance = case
        assert _repair_outcome(
            repair_capacity, placement, capacities, tolerance
        ) == _repair_outcome(_repair_reference, placement, capacities, tolerance)

    def test_delta_sums_follow_pair_order(self):
        # a's delta sums 0.1 + 0.2 + 0.3 in pair order, one ulp above
        # b's 0.6; summed in any other order the two would tie and a,
        # the lower index, would move.  The big neighbours cannot move.
        weights = {("a", "n1"): 0.1, ("a", "n2"): 0.2, ("a", "n3"): 0.3, ("b", "m"): 0.6}
        problem = PlacementProblem.build(
            {"a": 1.0, "b": 1.0, "n1": 10.0, "n2": 10.0, "n3": 10.0, "m": 10.0},
            {0: 41.0, 1: 1.0},
            weights,
            pair_cost=dict.fromkeys(weights, 1.0),
        )
        placement = Placement(problem, np.zeros(6, dtype=np.int64))
        expected = _repair_reference(placement)
        assert expected.node_of("b") == 1
        assert repair_capacity(placement) == expected


# ----------------------------------------------------------------------
# Migration selection
# ----------------------------------------------------------------------

def _select_migrations_reference(
    current, target, budget_bytes=None, respect_capacity=True
):
    """The re-scoring loop: every candidate's gain through numpy scalars
    after each move.  Candidates are scanned in set order and a strictly
    better gain per byte wins."""
    problem = target.problem
    assignment = current.assignment.copy()
    loads = np.bincount(assignment, weights=problem.sizes, minlength=problem.num_nodes)
    capacities = problem.capacities

    adjacency = [[] for _ in range(problem.num_objects)]
    for (i, j), weight in zip(problem.pair_index, problem.pair_weights):
        if weight > 0:
            adjacency[int(i)].append((int(j), float(weight)))
            adjacency[int(j)].append((int(i), float(weight)))

    def gain(obj):
        src, dst = assignment[obj], target.assignment[obj]
        value = 0.0
        for neighbor, weight in adjacency[obj]:
            where = assignment[neighbor]
            if where == src:
                value -= weight
            elif where == dst:
                value += weight
        return value

    candidates = set(np.where(assignment != target.assignment)[0].tolist())
    cost_before = Placement(problem, current.assignment).communication_cost()
    moves = []
    moved_bytes = 0.0

    while candidates:
        best_obj, best_rate, best_gain = -1, -np.inf, 0.0
        for obj in candidates:
            size = problem.sizes[obj]
            if budget_bytes is not None and moved_bytes + size > budget_bytes + 1e-9:
                continue
            dst = target.assignment[obj]
            if respect_capacity and np.isfinite(capacities[dst]):
                if loads[dst] + size > capacities[dst] + 1e-9:
                    continue
            g = gain(int(obj))
            rate = g / size
            if rate > best_rate:
                best_obj, best_rate, best_gain = int(obj), rate, g
        if best_obj < 0 or best_gain < 0:
            break
        src, dst = assignment[best_obj], target.assignment[best_obj]
        moves.append(
            Migration(
                obj=problem.object_ids[best_obj],
                source=problem.node_ids[src],
                destination=problem.node_ids[dst],
                size=float(problem.sizes[best_obj]),
            )
        )
        moved_bytes += problem.sizes[best_obj]
        loads[src] -= problem.sizes[best_obj]
        loads[dst] += problem.sizes[best_obj]
        assignment[best_obj] = dst
        candidates.discard(best_obj)

    cost_after = Placement(problem, assignment).communication_cost()
    return MigrationPlan(
        migrations=tuple(moves),
        bytes_moved=float(moved_bytes),
        cost_before=cost_before,
        cost_after=cost_after,
    )


@st.composite
def _migration_cases(draw):
    """Small integer instances, so gain-per-byte ties are common.

    Weights include zeros, capacities mix finite and infinite values,
    and the budget is unlimited, zero or partial.
    """
    t = draw(st.integers(1, 30))
    n = draw(st.integers(2, 5))
    ids = [f"o{i}" for i in range(t)]
    sizes = draw(st.lists(st.integers(1, 3), min_size=t, max_size=t))
    capacities = draw(st.lists(_CAPACITY, min_size=n, max_size=n))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, t - 1), st.integers(0, t - 1), st.integers(0, 3)),
            max_size=3 * t,
        )
    )
    correlations = {(ids[i], ids[j]): float(w) for i, j, w in edges if i != j}
    problem = PlacementProblem.build(
        dict(zip(ids, map(float, sizes))), dict(enumerate(capacities)), correlations
    )
    current, target = (
        Placement(problem, np.array(draw(st.lists(st.integers(0, n - 1), min_size=t, max_size=t))))
        for _ in range(2)
    )
    budget = draw(
        st.sampled_from([None, 0.0])
        | st.integers(0, 2 * sum(sizes)).map(lambda half: half / 2)
    )
    return current, target, budget, draw(st.booleans())


class TestMigrationEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(case=_migration_cases())
    def test_memoized_gains_match_rescoring_loop(self, case):
        current, target, budget, respect_capacity = case
        fast = select_migrations(current, target, budget, respect_capacity)
        reference = _select_migrations_reference(current, target, budget, respect_capacity)
        # Move order included; repr also tells a float from a numpy scalar.
        assert fast == reference
        assert repr(fast) == repr(reference)


# ----------------------------------------------------------------------
# Online replan targets
# ----------------------------------------------------------------------

def _replan_target_reference(problem, current, config):
    """Plan the whole problem, then pin every object outside the pairs
    back to its current node."""
    result = heavy_hitter_plan(problem, config=config)
    heavy = {problem.object_ids[int(i)] for pair in problem.pair_index for i in pair}
    target = current.copy()
    for i, obj in enumerate(problem.object_ids):
        if obj in heavy:
            target[i] = result.placement.assignment[i]
    return target


@st.composite
def _replan_cases(draw):
    """Sketch-like estimates over part of the objects.

    At least one object is left out of every pair; the paired ones are
    a random subset, so paired and unpaired indices interleave.  Scopes
    are uncapped or cap the paired objects, and seeds vary the rounding
    draws.
    """
    t = draw(st.integers(3, 30))
    n = draw(st.integers(2, 5))
    ids = [f"w{i:02d}" for i in range(t)]
    members = draw(st.permutations(range(t)))[: draw(st.integers(2, t - 1))]
    edges = draw(
        st.lists(
            st.tuples(st.sampled_from(members), st.sampled_from(members), st.integers(1, 40)),
            min_size=1,
            max_size=2 * t,
        ).filter(lambda edges: any(i != j for i, j, _ in edges))
    )
    correlations = {
        (ids[min(i, j)], ids[max(i, j)]): w / 100 for i, j, w in edges if i != j
    }
    sizes = draw(st.lists(st.integers(1, 20), min_size=t, max_size=t))
    problem = PlacementProblem.build(dict(zip(ids, map(float, sizes))), n, correlations)
    current = np.array(draw(st.lists(st.integers(0, n - 1), min_size=t, max_size=t)))
    config = PlanConfig(scope=draw(st.none() | st.integers(1, t)), seed=draw(st.integers(0, 5)))
    return problem, current, config


class TestReplanTargetEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(case=_replan_cases())
    def test_paired_subproblem_matches_whole_problem_plan(self, case):
        problem, current, config = case
        assert np.unique(problem.pair_index).size < problem.num_objects
        _result, target = _replan_target(problem, current, config)
        assert np.array_equal(target, _replan_target_reference(problem, current, config))

    @settings(max_examples=40, deadline=None)
    @given(case=_replan_cases(), groups=st.integers(1, 6), important=st.integers(0, 3))
    def test_pg_scope_moves_only_paired_objects_within_capacity(
        self, case, groups, important
    ):
        # Under a pg scope the replan groups only the paired objects, so
        # it has no whole-problem reference; it must still pin every
        # unpaired object and keep its coarse plan's capacities.
        problem, current, config = case
        config = config.with_options(scope=PlanScope.pg(groups, important))
        result, target = _replan_target(problem, current, config)
        assert result.diagnostics["groups"] == groups
        paired = np.unique(problem.pair_index)
        unpaired = np.setdiff1d(np.arange(problem.num_objects), paired)
        assert np.array_equal(target[unpaired], current[unpaired])
        sub = result.placement
        assert list(sub.problem.object_ids) == [problem.object_ids[i] for i in paired.tolist()]
        assert np.array_equal(target[paired], sub.assignment)
        coarse = aggregate_problem(sub.problem, build_grouping(sub.problem, groups, important))
        limits = scoped_capacities(
            coarse, np.arange(coarse.num_objects), config.capacity_factor
        ) * (1.0 + config.capacity_tolerance)
        assert np.all(sub.node_loads() <= limits + 1e-9)


# ----------------------------------------------------------------------
# Query-log replay
# ----------------------------------------------------------------------

def _execute_reference(index, lookup, query):
    """The pre-profile engine: one intersection chain per query.

    Returns the execution and its ``(sender node, bytes)`` list.
    """
    if not isinstance(query, Query):
        query = Query(tuple(query))
    words = [w for w in dict.fromkeys(query.keywords) if w in index]
    senders = []
    if not words:
        return QueryExecution(query, 0, 0, 0, 0), senders
    words.sort(key=lambda w: (index.document_frequency(w), w))
    targets = [lookup.get(w) for w in words]
    nodes = set(targets)
    nodes.discard(None)
    result = index.postings(words[0])
    current_node = targets[0]
    transferred = 0
    hops = 0
    for word, target in zip(words[1:], targets[1:]):
        if target is not None and target != current_node:
            shipped = ITEM_BYTES * int(result.size)
            transferred += shipped
            if shipped:
                senders.append((current_node, shipped))
            hops += 1
            current_node = target
        result = np.intersect1d(result, index.postings(word), assume_unique=True)
    execution = QueryExecution(query, int(result.size), transferred, len(nodes), hops)
    return execution, senders


def _execute_union_reference(index, lookup, query):
    """The pre-profile union execution, plus each mover's own charge.

    Charging movers to their node is the one accounting change of the
    profile replay (the old loop recorded no union senders).
    """
    if not isinstance(query, Query):
        query = Query(tuple(query))
    words = [w for w in dict.fromkeys(query.keywords) if w in index]
    senders = []
    if not words:
        return QueryExecution(query, 0, 0, 0, 0), senders
    words.sort(key=lambda w: (index.document_frequency(w), w))
    coordinator = lookup.get(words[-1])
    nodes = {lookup.get(w) for w in words}
    nodes.discard(None)
    transferred = 0
    hops = 0
    for word in words[:-1]:
        source = lookup.get(word)
        if source is not None and source != coordinator:
            shipped = ITEM_BYTES * index.document_frequency(word)
            transferred += shipped
            senders.append((source, shipped))
            hops += 1
    result = index.union(words)
    execution = QueryExecution(query, int(result.size), transferred, len(nodes), hops)
    return execution, senders


def _replay_reference(index, lookup, log, mode="intersection"):
    """The sequential replay: every query executed and recorded in order,
    with the instrumentation the old ``execute_log`` emitted."""
    execute = _execute_reference if mode == "intersection" else _execute_union_reference
    stats = EngineStats()
    bytes_hist = obs.histogram("engine.query.bytes")
    hops_hist = obs.histogram("engine.query.hops")
    nodes_hist = obs.histogram("engine.query.nodes_contacted")
    queries = [q.keywords if isinstance(q, Query) else tuple(q) for q in log]
    obs.counter("engine.unique_queries").inc(len(set(queries)))
    for query in queries:
        execution, senders = execute(index, lookup, query)
        stats.record(execution, senders)
        bytes_hist.observe(execution.bytes_transferred)
        hops_hist.observe(execution.hops)
        nodes_hist.observe(execution.nodes_contacted)
    obs.counter("engine.queries").inc(stats.queries)
    obs.counter("engine.local_queries").inc(stats.local_queries)
    obs.counter("engine.bytes").inc(stats.total_bytes)
    obs.counter("engine.hops").inc(stats.total_hops)
    return stats


def _simulate_reference(index, placement, log, arrival_rate_qps, timing, seed):
    """The pre-profile latency simulation: one intersection chain per position."""
    rng = np.random.default_rng(seed)
    lookup = placement.to_mapping()
    num_nodes = placement.problem.num_nodes
    node_index = {nid: k for k, nid in enumerate(placement.problem.node_ids)}
    arrivals = np.cumsum(rng.exponential(1.0 / arrival_rate_qps, size=len(log)))
    uplink_free = np.zeros(num_nodes)
    uplink_busy = np.zeros(num_nodes)
    latencies = np.empty(len(log))
    makespan = 0.0
    for q, (query, arrival) in enumerate(zip(log, arrivals)):
        words = [w for w in dict.fromkeys(query.keywords) if w in index]
        clock = float(arrival)
        if words:
            words.sort(key=lambda w: (index.document_frequency(w), w))
            result = index.postings(words[0])
            current = lookup.get(words[0])
            clock += timing.scan_time(ITEM_BYTES * result.size)
            for word in words[1:]:
                target = lookup.get(word)
                postings = index.postings(word)
                if target is not None and target != current:
                    shipped = ITEM_BYTES * int(result.size)
                    if current is not None and shipped:
                        k = node_index[current]
                        start = max(clock, uplink_free[k])
                        wire = timing.transfer_time(shipped)
                        uplink_free[k] = start + wire
                        uplink_busy[k] += wire
                        clock = start + wire
                    else:
                        clock += timing.link_latency_s
                    current = target
                result = np.intersect1d(result, postings, assume_unique=True)
                clock += timing.scan_time(ITEM_BYTES * int(postings.size))
        latencies[q] = clock - arrival
        makespan = max(makespan, clock)
    return latencies, uplink_busy, float(makespan)


def _as_input(queries, form):
    """The same queries as each accepted log form."""
    if form == "querylog":
        return QueryLog(queries)
    if form == "tuples":
        return [q.keywords for q in queries]
    return list(queries)


@st.composite
def _replay_cases(draw):
    """Index, complete lookup and queries with repeats and unknown words."""
    seed = draw(st.integers(0, 2**31 - 1))
    num_docs = draw(st.integers(3, 10))
    num_queries = draw(st.integers(0, 30))
    num_nodes = draw(st.integers(1, 4))
    str_nodes = draw(st.booleans())
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(8)]
    docs = []
    for d in range(num_docs):
        count = int(rng.integers(1, 5))
        words = frozenset(rng.choice(vocab, size=count, replace=False).tolist())
        docs.append(Document(f"d{d}", words))
    index = InvertedIndex.from_corpus(Corpus(docs))
    node_ids = [f"n{k}" if str_nodes else k for k in range(num_nodes)]
    lookup = {w: node_ids[int(rng.integers(0, num_nodes))] for w in index.vocabulary}
    pool = sorted(index.vocabulary) + ["zz", "yy"]  # two unindexed words
    queries = []
    for _ in range(num_queries):
        if queries and rng.random() < 0.3:
            queries.append(queries[int(rng.integers(0, len(queries)))])
            continue
        count = int(rng.integers(1, 5))
        words = rng.choice(pool, size=count, replace=True).tolist()
        queries.append(Query(tuple(words)))
    return index, lookup, queries


def _compile_reference(index, log, mode="intersection"):
    """The per-query compile loop: one ``intersect1d`` per hop.

    Returns every :class:`QueryProfile` attribute by name.
    """
    ids = {}
    vocab = {}
    queries, inverse, codes, shipped, offsets = [], [], [], [], [0]
    for query in log:
        if not isinstance(query, Query):
            if isinstance(query, str):
                raise TypeError(f"query {query!r} is a str, not keywords")
            query = Query(tuple(query))
        qid = ids.setdefault(query.keywords, len(ids))
        inverse.append(qid)
        if qid < len(queries):
            continue
        queries.append(query)
        words = [w for w in dict.fromkeys(query.keywords) if w in index]
        words.sort(key=lambda w: (index.document_frequency(w), w))
        codes.extend(vocab.setdefault(w, len(vocab)) for w in words)
        offsets.append(len(codes))
        if mode == "union" or not words:
            continue
        result = index.postings(words[0])
        shipped.append(0)
        for p in range(1, len(words)):
            if p > 1 and result.size:
                postings = index.postings(words[p - 1])
                result = np.intersect1d(result, postings, assume_unique=True)
            shipped.append(ITEM_BYTES * int(result.size))

    out = {"queries": tuple(queries), "words": tuple(vocab)}
    out["inverse"] = np.asarray(inverse, dtype=np.int64)
    out["counts"] = np.bincount(out["inverse"], minlength=len(queries))
    out["offsets"] = np.asarray(offsets, dtype=np.int64)
    out["codes"] = np.asarray(codes, dtype=np.int64)
    out["owner"] = np.repeat(np.arange(len(queries)), np.diff(out["offsets"]))
    sizes = np.array([index.size_bytes(w) for w in vocab], dtype=np.int64)
    out["scanned"] = sizes[out["codes"]]
    positions = np.arange(len(codes))
    if mode == "intersection":
        first = out["offsets"][:-1][out["owner"]]
        out["src"], out["dst"] = positions - (positions > first), positions
        out["shipped"] = np.asarray(shipped, dtype=np.int64)
    else:
        out["src"], out["dst"] = positions, (out["offsets"][1:] - 1)[out["owner"]]
        out["shipped"] = out["scanned"]
    return out


def _assert_same_profile(profile, reference):
    """Every attribute equal in value, dtype and order."""
    for name, expected in reference.items():
        actual = getattr(profile, name)
        if isinstance(expected, np.ndarray):
            assert actual.dtype == expected.dtype, name
            assert actual.shape == expected.shape, name
            assert np.array_equal(actual, expected), name
        else:
            assert actual == expected, name


@st.composite
def _compile_cases(draw):
    """An index with empty postings and df ties, and a log of 1–7
    keyword queries with repeats and unindexed words."""
    seed = draw(st.integers(0, 2**31 - 1))
    num_docs = draw(st.integers(1, 12))
    num_queries = draw(st.integers(0, 30))
    rng = np.random.default_rng(seed)
    docs = rng.choice(2**40, size=num_docs, replace=False)
    postings = {}
    for w in range(8):
        density = rng.choice([0.0, 0.2, 0.5, 0.9])  # 0.0: empty postings
        postings[f"w{w}"] = docs[rng.random(num_docs) < density]
    index = InvertedIndex(postings)
    pool = sorted(postings) + ["zz", "yy"]  # two unindexed words
    queries = []
    for _ in range(num_queries):
        if queries and rng.random() < 0.3:
            queries.append(queries[int(rng.integers(0, len(queries)))])
            continue
        count = int(rng.integers(1, 8))
        words = rng.choice(pool, size=count, replace=True).tolist()
        queries.append(Query(tuple(words)))
    return index, queries


class TestCompileEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        case=_compile_cases(),
        mode=st.sampled_from(["intersection", "union"]),
        form=st.sampled_from(["querylog", "queries", "tuples"]),
    )
    def test_profile_matches_compile_loop(self, case, mode, form):
        index, queries = case
        profile = QueryProfile(index, _as_input(queries, form), mode)
        _assert_same_profile(profile, _compile_reference(index, queries, mode))

    @pytest.mark.parametrize("mode", ["intersection", "union"])
    def test_empty_log(self, mode):
        index = InvertedIndex({"a": [1, 2], "b": []})
        profile = QueryProfile(index, [], mode)
        _assert_same_profile(profile, _compile_reference(index, [], mode))

    def test_disjoint_smallest_postings_ship_nothing_past_the_first_hop(self):
        index = InvertedIndex({
            "w0": [1, 2],
            "w1": [3, 4, 5],
            "w2": [1, 2, 3, 4, 5, 6],
            "w3": list(range(1, 11)),
        })
        query = ("w3", "w1", "w2", "w0")
        profile = QueryProfile(index, [query])
        assert profile.words == ("w0", "w1", "w2", "w3")
        assert profile.shipped.tolist() == [0, 2 * ITEM_BYTES, 0, 0]
        _assert_same_profile(profile, _compile_reference(index, [query]))


# Keywords whose repr order differs from their str order ("a" < "a'b",
# but repr("a'b") < repr("a")), so a df tie between them breaks one way
# in the engine's (df, word) order and the other in the miner's.
_MINING_WORDS = ["a", "a'b", "a!", "b", 'q"', "a\\b", "w0", "w1"]


@st.composite
def _mining_cases(draw):
    """An index with df ties among repr-ordered words, and a log with
    repeated, unindexed and empty queries."""
    seed = draw(st.integers(0, 2**31 - 1))
    num_docs = draw(st.integers(1, 6))
    num_queries = draw(st.integers(0, 30))
    rng = np.random.default_rng(seed)
    docs = rng.choice(2**40, size=num_docs, replace=False)
    postings = {}
    for word in _MINING_WORDS:
        density = rng.choice([0.0, 0.3, 0.6, 1.0])  # few distinct dfs: ties
        postings[word] = docs[rng.random(num_docs) < density]
    index = InvertedIndex(postings)
    pool = _MINING_WORDS + ["zz", "y'y"]  # two unindexed words
    queries = []
    for _ in range(num_queries):
        if queries and rng.random() < 0.3:
            queries.append(queries[int(rng.integers(0, len(queries)))])
            continue
        count = int(rng.integers(0, 6))
        words = rng.choice(pool, size=count, replace=True).tolist()
        queries.append(Query(tuple(words)))
    return index, queries


def _mine_oracle(index, queries, mode, min_support):
    """The per-query loop over the log, with index sizes: one
    ``operation_pairs`` call per query, independent of the vectorized
    reduction the profile shares with the trace miner.  Co-occurrence
    reads only indexed keywords, as the profile does."""
    if mode == "cooccurrence":
        trace = [tuple(w for w in q.keywords if w in index) for q in queries]
        return _mine_reference(trace, mode, min_support=min_support)
    sizes = {w: float(b) for w, b in index.sizes_bytes().items()}
    return _mine_reference([q.keywords for q in queries], mode, sizes, min_support)


_MODES = ["two_smallest", "union_largest", "cooccurrence"]


class TestProfileMiningEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(
        case=_mining_cases(),
        mode=st.sampled_from(_MODES),
        min_support=st.integers(1, 3),
        profile_mode=st.sampled_from(["intersection", "union"]),
        form=st.sampled_from(["querylog", "queries", "tuples"]),
    )
    def test_profile_matches_miner(self, case, mode, min_support, profile_mode, form):
        index, queries = case
        profile = QueryProfile(index, _as_input(queries, form), profile_mode)
        mined = profile.correlations(mode, min_support)
        oracle = _mine_oracle(index, queries, mode, min_support)
        assert list(mined.items()) == list(oracle.items())  # dict order too

    @settings(max_examples=30, deadline=None)
    @given(case=_mining_cases(), mode=st.sampled_from(_MODES))
    def test_problem_from_profile_matches_problem_from_miner(self, case, mode):
        index, queries = case
        # A problem needs positive sizes: keep the nonempty postings.
        index = InvertedIndex(
            {w: index.postings(w) for w in index.vocabulary if index.size_bytes(w)}
        )
        sizes = {w: float(b) for w, b in index.sizes_bytes().items()}
        expected = PlacementProblem.build(sizes, 3, _mine_oracle(index, queries, mode, 1))
        for log in (QueryLog(queries), QueryProfile(index, queries)):
            problem = build_placement_problem(index, log, 3, correlation_mode=mode)
            assert problem.object_ids == expected.object_ids
            assert np.array_equal(problem.pair_index, expected.pair_index)
            assert problem.correlations.tolist() == expected.correlations.tolist()
            assert problem.pair_costs.tolist() == expected.pair_costs.tolist()

    @pytest.mark.parametrize("mode", _MODES)
    def test_empty_log(self, mode):
        index = InvertedIndex({"a": [1, 2], "b": []})
        assert QueryProfile(index, []).correlations(mode) == {}

    def test_repr_breaks_df_ties_as_the_miner_does(self):
        # One df: str order is a < a! < a'b, repr order "a'b" < 'a!' < 'a'.
        index = InvertedIndex({"a": [1], "a!": [2], "a'b": [3]})
        profile = QueryProfile(index, [("a", "a!", "a'b")])
        assert profile.words == ("a", "a!", "a'b")  # the engine's (df, word) order
        assert list(profile.correlations("two_smallest")) == [("a!", "a'b")]
        assert list(profile.correlations("union_largest")) == [("a", "a'b"), ("a", "a!")]

    def test_profile_of_another_index_rejected(self):
        index = InvertedIndex({"a": [1], "b": [1]})
        other = InvertedIndex({"a": [1], "b": [1]})
        with pytest.raises(ValueError, match="different index"):
            build_placement_problem(index, QueryProfile(other, [("a", "b")]), 2)


def _assert_same_stats(fast, reference):
    assert fast == reference
    assert list(fast.per_node_bytes_sent) == list(reference.per_node_bytes_sent)
    assert sum(fast.per_node_bytes_sent.values()) == fast.total_bytes


class TestReplayEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        case=_replay_cases(),
        mode=st.sampled_from(["intersection", "union"]),
        form=st.sampled_from(["querylog", "queries", "tuples"]),
    )
    def test_dedup_replay_matches_sequential(self, case, mode, form):
        index, lookup, queries = case
        engine = DistributedSearchEngine(index, lookup)
        fast = engine.execute_log(_as_input(queries, form), mode=mode)
        _assert_same_stats(fast, _replay_reference(index, lookup, queries, mode))

    @settings(max_examples=30, deadline=None)
    @given(case=_replay_cases())
    def test_execute_matches_reference(self, case):
        index, lookup, queries = case
        engine = DistributedSearchEngine(index, lookup)
        for query in queries:
            assert engine.execute(query) == _execute_reference(index, lookup, query)[0]
            assert engine.execute_union(query) == (
                _execute_union_reference(index, lookup, query)[0]
            )

    @settings(max_examples=20, deadline=None)
    @given(case=_replay_cases(), mode=st.sampled_from(["intersection", "union"]))
    def test_instrumentation_matches_reference(self, case, mode):
        index, lookup, queries = case
        engine = DistributedSearchEngine(index, lookup)
        previous = obs.current()
        try:
            fast = obs.enable(obs.Instrumentation())
            engine.execute_log(queries, mode=mode)
            reference = obs.enable(obs.Instrumentation())
            _replay_reference(index, lookup, queries, mode)
        finally:
            obs.disable()
            if previous is not None:
                obs.enable(previous)
        for name in ("bytes", "hops", "nodes_contacted"):
            key = f"engine.query.{name}"
            assert fast.metrics.histogram(key).summary() == (
                reference.metrics.histogram(key).summary()
            )
        for name in ("queries", "unique_queries", "local_queries", "bytes", "hops"):
            key = f"engine.{name}"
            assert fast.metrics.counter(key).value == reference.metrics.counter(key).value
        assert [s.name for s in fast.tracer.roots] == ["replay.compile", "replay"]

    @settings(max_examples=20, deadline=None)
    @given(case=_replay_cases(), seed=st.integers(0, 2**16))
    def test_latency_simulation_matches_reference(self, case, seed):
        index, lookup, queries = case
        log = QueryLog(queries)
        node_ids = sorted(set(lookup.values()), key=str)
        problem = build_placement_problem(
            index, log, {n: float("inf") for n in node_ids}
        )
        placement = Placement.from_mapping(problem, lookup)
        timing = TimingModel(bandwidth_bytes_per_s=1e4, link_latency_s=1e-3)
        report = simulate_latencies(
            index, placement, log, arrival_rate_qps=500.0, timing=timing, seed=seed
        )
        latencies, busy, makespan = _simulate_reference(
            index, placement, log, 500.0, timing, seed
        )
        assert np.array_equal(report.latencies_s, latencies)
        assert np.array_equal(report.uplink_busy_s, busy)
        assert report.makespan_s == makespan


# ----------------------------------------------------------------------
# Replica routing
# ----------------------------------------------------------------------

def _route_reference(engine, query):
    """The per-query replica route: one ``intersect1d`` per hop.

    Reads the engine's index, copies and down and slow nodes through
    its public surface, and counts nothing.
    """
    if not isinstance(query, Query):
        query = Query(tuple(query))
    index, down, slow = engine.index, engine.down_nodes, engine.slow_nodes
    alive = {}
    for w in dict.fromkeys(query.keywords):
        if w not in index:
            continue
        copies = engine.copies_of(w)
        if not copies:
            continue
        survivors = copies - down
        if not survivors:
            return QueryExecution(query, 0, 0, 0, 0, served=False)
        alive[w] = survivors
    words = list(alive)
    if not words:
        return QueryExecution(query, 0, 0, 0, 0)
    words.sort(key=lambda w: (index.document_frequency(w), w))

    def route_key(node, remaining):
        shared = sum(1 for w in remaining if node in alive[w])
        return (shared, node not in slow, -node)

    current = max(sorted(alive[words[0]]), key=lambda k: route_key(k, words[1:]))
    result = index.postings(words[0])
    transferred = 0
    hops = 0
    visited = {current}
    for position, word in enumerate(words[1:], start=1):
        copies = alive[word]
        if current not in copies:
            remaining = words[position + 1 :]
            current = max(sorted(copies), key=lambda k: route_key(k, remaining))
            transferred += ITEM_BYTES * int(result.size)
            hops += 1
        visited.add(current)
        result = np.intersect1d(result, index.postings(word), assume_unique=True)
    return QueryExecution(query, int(result.size), transferred, len(visited), hops)


@st.composite
def _route_cases(draw):
    """An index with empty postings and df ties; an R-copy placement
    (R of 1–3) over all or some indexed words plus a placed word the
    index lacks; down and slow nodes; and queries with repeated,
    unindexed and unplaced words.  With ``kill``, every copy of one
    queried word is down."""
    seed = draw(st.integers(0, 2**31 - 1))
    replicas = draw(st.integers(1, 3))
    num_nodes = draw(st.integers(replicas, replicas + 3))
    subset = draw(st.booleans())
    kill = draw(st.booleans())
    rng = np.random.default_rng(seed)
    num_docs = int(rng.integers(1, 12))
    docs = rng.choice(2**40, size=num_docs, replace=False)
    postings = {}
    for w in range(8):
        density = rng.choice([0.0, 0.2, 0.5, 0.9])  # 0.0: empty postings
        postings[f"w{w}"] = docs[rng.random(num_docs) < density]
    index = InvertedIndex(postings)
    placed = [w for w in sorted(postings) if not subset or rng.random() < 0.6]
    placed.append("zz")  # placed, never indexed
    problem = PlacementProblem.build({w: 1.0 for w in placed}, num_nodes, {})
    assignment = np.array(
        [rng.choice(num_nodes, size=replicas, replace=False) for _ in placed]
    )
    placement = ReplicatedPlacement(problem, assignment)
    down = set(np.flatnonzero(rng.random(num_nodes) < 0.2).tolist())
    slow = set(np.flatnonzero(rng.random(num_nodes) < 0.4).tolist())
    pool = sorted(postings) + ["zz", "yy"]  # yy: neither indexed nor placed
    queries = []
    for _ in range(int(rng.integers(0, 30))):
        if queries and rng.random() < 0.3:
            queries.append(queries[int(rng.integers(0, len(queries)))])
            continue
        count = int(rng.integers(1, 7))
        queries.append(Query(tuple(rng.choice(pool, size=count).tolist())))
    routable = [w for q in queries for w in q.keywords if w in index and w in placed]
    if kill and routable:
        victim = routable[int(rng.integers(0, len(routable)))]
        down.update(assignment[placed.index(victim)].tolist())
    return index, placement, down, slow, queries


def _route_engine(index, placement, down, slow):
    engine = ReplicatedSearchEngine(index, placement, down_nodes=down)
    engine.mark_slow(*slow)
    return engine


class TestRouteEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(case=_route_cases())
    def test_execute_matches_route_loop(self, case):
        index, placement, down, slow, queries = case
        engine = _route_engine(index, placement, down, slow)
        previous = obs.current()
        try:
            instrumentation = obs.enable(obs.Instrumentation())
            executions = [engine.execute(query) for query in queries]
            unserved = instrumentation.metrics.counter("engine.unserved_queries").value
        finally:
            obs.disable()
            if previous is not None:
                obs.enable(previous)
        expected = [_route_reference(engine, query) for query in queries]
        assert executions == expected
        assert unserved == sum(not execution.served for execution in expected)

    @settings(max_examples=20, deadline=None)
    @given(case=_route_cases())
    def test_router_batches_match_route_loop(self, case):
        index, placement, down, slow, queries = case
        engine = _route_engine(index, placement, down, slow)

        async def main():
            router = QueryRouter(PlanHandle(PlanSnapshot(1, engine)), ServeConfig(max_batch=4))
            return await asyncio.gather(*(router.submit(query) for query in queries))

        routed = run_virtual(main())
        assert [r.execution for r in routed] == [
            _route_reference(engine, query) for query in queries
        ]


# ----------------------------------------------------------------------
# Importance order
# ----------------------------------------------------------------------

def _importance_order_reference(problem: PlacementProblem) -> np.ndarray:
    """The per-pair ranking loop: walk the ranked pairs, i then j, and
    number each object at its first appearance."""
    t = problem.num_objects
    if problem.num_pairs == 0:
        return np.argsort(-problem.sizes, kind="stable")

    weights = problem.pair_weights
    pair_order = np.lexsort(
        (problem.pair_index[:, 1], problem.pair_index[:, 0], -weights)
    )

    first_seen = np.full(t, np.iinfo(np.int64).max, dtype=np.int64)
    position = 0
    for p in pair_order:
        for obj in problem.pair_index[p]:
            if first_seen[obj] == np.iinfo(np.int64).max:
                first_seen[obj] = position
                position += 1

    # Never-paired objects last, ordered by size descending (stable).
    by_size_rank = np.empty(t, dtype=np.int64)
    by_size_rank[np.argsort(-problem.sizes, kind="stable")] = np.arange(t)
    unseen = first_seen == np.iinfo(np.int64).max
    first_seen[unseen] = t + by_size_rank[unseen]
    return np.argsort(first_seen, kind="stable")


@st.composite
def _importance_problems(draw):
    """Problems with weight ties (few correlation values, few sizes),
    size ties among never-paired objects, and zero pairs; ids are
    shuffled so index order is not name order."""
    t = draw(st.integers(1, 12))
    ids = draw(st.permutations([f"o{i}" for i in range(t)]))
    sizes = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0]), min_size=t, max_size=t))
    candidates = list(itertools.combinations(range(t), 2))
    chosen = (
        draw(st.lists(st.sampled_from(candidates), unique=True, max_size=len(candidates)))
        if candidates
        else []
    )
    correlations = {}
    for a, b in chosen:
        if draw(st.booleans()):
            a, b = b, a
        correlations[(ids[a], ids[b])] = draw(st.sampled_from([0.1, 0.25, 0.5, 1.0]))
    cost = draw(st.sampled_from([min_size_pair_cost, sum_size_pair_cost, unit_pair_cost]))
    return PlacementProblem.build(dict(zip(ids, sizes)), 2, correlations, pair_cost=cost)


class TestImportanceEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(problem=_importance_problems(), scope=st.integers(0, 14))
    def test_first_appearance_matches_pair_loop(self, problem, scope):
        order = _importance_order_reference(problem)
        assert importance._importance_order(problem).tolist() == order.tolist()
        ranking = [problem.object_ids[i] for i in order]
        assert importance_ranking(problem) == ranking
        scores = np.empty(problem.num_objects, dtype=np.int64)
        scores[order] = np.arange(problem.num_objects)
        assert importance_scores(problem).tobytes() == scores.tobytes()
        assert top_important(problem, scope) == ranking[:scope]


# ----------------------------------------------------------------------
# Problem construction
# ----------------------------------------------------------------------

def _build_reference(objects, nodes, correlations, pair_cost=None, resources=None):
    """``PlacementProblem.build`` reading correlations and costs back
    through ``pair_index`` rows, and sizes as numpy scalars."""
    object_ids = list(objects.keys())
    sizes = np.asarray([objects[o] for o in object_ids], dtype=float)
    if isinstance(nodes, int):
        node_ids = list(range(nodes))
        capacities = np.full(nodes, np.inf)
    else:
        node_ids = list(nodes.keys())
        capacities = np.asarray([nodes[k] for k in node_ids], dtype=float)

    index = {obj: i for i, obj in enumerate(object_ids)}
    merged = {}
    for (a, b), r in correlations.items():
        if a not in index or b not in index:
            missing = a if a not in index else b
            raise ProblemDefinitionError(f"correlation references unknown object {missing!r}")
        i, j = index[a], index[b]
        if i == j:
            raise ProblemDefinitionError(f"self-correlation for object {a!r}")
        key = (i, j) if i < j else (j, i)
        merged[key] = merged.get(key, 0.0) + float(r)

    pair_index = np.asarray(sorted(merged), dtype=np.int64).reshape(-1, 2)
    corr = np.asarray([merged[tuple(p)] for p in pair_index], dtype=float)

    if pair_cost is None:
        pair_cost = min_size_pair_cost
    if callable(pair_cost):
        costs = np.asarray(
            [pair_cost(sizes[i], sizes[j]) for i, j in pair_index], dtype=float
        )
    else:
        cost_by_key = {}
        for (a, b), w in pair_cost.items():
            if a not in index or b not in index:
                missing = a if a not in index else b
                raise ProblemDefinitionError(f"pair cost references unknown object {missing!r}")
            i, j = index[a], index[b]
            cost_by_key[(min(i, j), max(i, j))] = float(w)
        try:
            costs = np.asarray(
                [cost_by_key[tuple(p)] for p in pair_index], dtype=float
            )
        except KeyError as exc:
            raise ProblemDefinitionError(
                f"missing explicit pair cost for correlated pair index {exc}"
            ) from exc

    specs = []
    for name, (loads, budgets) in (resources or {}).items():
        for obj in loads:
            if obj not in index:
                raise ProblemDefinitionError(
                    f"resource {name!r} references unknown object {obj!r}"
                )
        specs.append(
            ResourceSpec.from_mappings(name, loads, budgets, object_ids, node_ids)
        )
    return PlacementProblem(
        object_ids, sizes, node_ids, capacities, pair_index, corr, costs, specs
    )


_BUILD_ERRORS = (
    None, "unknown_correlated", "self_correlated", "unknown_costed", "missing_cost",
    "unknown_resource", "nonfinite", "two_bad_pairs",
)


@st.composite
def _build_cases(draw):
    """``build`` arguments: mirrored duplicate pairs (summed), every
    built-in cost, an explicit cost mapping keyed either way round,
    an optional resource, and at most one injected definition error
    (a non-finite correlation or explicit cost among them, or two bad
    correlated pairs, of which the first must be the one reported)."""
    t = draw(st.integers(2, 8))
    ids = draw(st.permutations([f"o{i}" for i in range(t)]))
    size = st.sampled_from([0.5, 1.0, 3.0]) | st.floats(1e-3, 1e6)
    objects = {obj: draw(size) for obj in ids}
    nodes = draw(st.sampled_from([3, {"a": 5.0, "b": 2.5}]))
    entries = draw(st.lists(
        st.tuples(st.integers(0, t - 1), st.integers(0, t - 1), st.floats(0.0, 1.0)),
        max_size=20,
    ))
    # (a, b) and (b, a) are distinct keys: their values are summed.
    correlations = {(ids[a], ids[b]): r for a, b, r in entries if a != b}
    cost = draw(st.sampled_from(
        ["mapping", None, min_size_pair_cost, sum_size_pair_cost, unit_pair_cost]
    ))
    if cost == "mapping":
        cost = {
            ((b, a) if draw(st.booleans()) else (a, b)): draw(st.floats(0.0, 100.0))
            for a, b in correlations
        }
    resources = None
    if draw(st.booleans()):
        resources = {"cpu": ({obj: 1.0 for obj in ids[: t // 2]}, 4.0)}

    error = draw(st.sampled_from(_BUILD_ERRORS))
    if error == "unknown_correlated":
        correlations[(ids[0], "ghost")] = 0.5
    elif error == "self_correlated":
        correlations[(ids[-1], ids[-1])] = 0.5
    elif error == "unknown_costed":
        cost = dict(cost) if isinstance(cost, dict) else {}
        cost[("ghost", ids[0])] = 1.0
    elif error == "missing_cost":
        correlations.setdefault((ids[0], ids[1]), 0.5)
        cost = {pair: 1.0 for pair in correlations}
        del cost[draw(st.sampled_from(sorted(cost)))]
    elif error == "unknown_resource":
        resources = {"cpu": ({"ghost": 1.0}, 4.0)}
    elif error == "two_bad_pairs":
        # Only the first bad pair in iteration order is reported.
        bad = [((ids[0], "ghost"), 0.5), (("ghost2", ids[0]), 0.5), ((ids[-1], ids[-1]), 0.5)]
        for key, value in draw(st.permutations(bad))[:2]:
            correlations[key] = value
    elif error == "nonfinite":
        value = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        if isinstance(cost, dict) and cost and draw(st.booleans()):
            cost[draw(st.sampled_from(sorted(cost)))] = value
        else:
            correlations[(ids[0], ids[1])] = value
            if isinstance(cost, dict):
                cost.setdefault((ids[0], ids[1]), 1.0)
    return objects, nodes, correlations, cost, resources


def _build_outcome(build, case):
    """The built arrays as bytes, or the definition error's message.

    Errors name a pair index as plain ints; the reference's numpy-row
    keys print as ``np.int64(...)`` under numpy 2.
    """
    try:
        problem = build(*case)
    except ProblemDefinitionError as exc:
        return re.sub(r"np\.int64\((-?\d+)\)", r"\1", str(exc))
    return (
        problem.object_ids,
        problem.sizes.tobytes(),
        problem.node_ids,
        problem.capacities.tobytes(),
        problem.pair_index.shape,
        problem.pair_index.tobytes(),
        problem.correlations.tobytes(),
        problem.pair_costs.tobytes(),
        [(spec.name, spec.loads.tobytes(), spec.budgets.tobytes()) for spec in problem.resources],
    )


class TestBuildEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(case=_build_cases())
    def test_key_tuples_match_row_loop(self, case):
        assert _build_outcome(PlacementProblem.build, case) == _build_outcome(
            _build_reference, case
        )


# ----------------------------------------------------------------------
# Streaming placement and scoping
# ----------------------------------------------------------------------

def _streaming_greedy_reference(problem: PlacementProblem) -> Placement:
    """The per-vertex numpy pass: gains by ``np.add.at`` over the placed
    neighbours, an ``argmax`` over the discounted scores with infeasible
    nodes at -inf, and an ``argmin`` over the load fractions when no
    placed neighbour sits on a feasible node."""
    t, n = problem.num_objects, problem.num_nodes
    sizes = problem.sizes.astype(float)
    capacities = problem.capacities.astype(float)
    free = capacities.copy()
    resource_free = [spec.budgets.astype(float).copy() for spec in problem.resources]
    resource_loads = [spec.loads for spec in problem.resources]
    assignment = -np.ones(t, dtype=np.int64)

    adjacency, neighbor, weight = streampart._adjacency(problem)
    degree = np.zeros(t)
    if problem.num_pairs:
        np.add.at(degree, problem.pair_index[:, 0], problem.pair_weights)
        np.add.at(degree, problem.pair_index[:, 1], problem.pair_weights)
    stream = np.argsort(-degree, kind="stable")

    safe_cap = np.where(capacities > 0, capacities, 1.0)
    for v in stream:
        lo, hi = adjacency[v], adjacency[v + 1]
        gains = np.zeros(n)
        if hi > lo:
            nb, w = neighbor[lo:hi], weight[lo:hi]
            placed = assignment[nb] >= 0
            if placed.any():
                np.add.at(gains, assignment[nb[placed]], w[placed])

        feasible = free >= sizes[v]
        for rf, loads in zip(resource_free, resource_loads):
            feasible &= rf >= loads[v]
        if not feasible.any():
            k = int(np.argmax(free))
        else:
            with np.errstate(invalid="ignore"):
                score = gains * np.maximum(free, 0.0) / safe_cap
                score[~feasible] = -np.inf
                k = int(np.argmax(score))
                if gains[k] <= 0.0:
                    fill = np.where(feasible, (capacities - free) / safe_cap, np.inf)
                    k = int(np.argmin(fill))
        assignment[v] = k
        free[k] -= sizes[v]
        for rf, loads in zip(resource_free, resource_loads):
            rf[k] -= loads[v]

    return Placement(problem, assignment)


def _scoped_placement_reference(
    problem, scope, place_subproblem, capacity_factor=2.0, hash_salt=""
):
    """Scoping by ids: ``top_important``, a set-membership hash loop,
    sizes by ``size_of`` and an id-by-id scatter back."""
    scope = problem.num_objects if scope is None else min(scope, problem.num_objects)
    scoped_ids = top_important(problem, scope)
    scoped_set = set(scoped_ids)

    assignment = np.empty(problem.num_objects, dtype=np.int64)
    for i, obj in enumerate(problem.object_ids):
        if obj not in scoped_set:
            assignment[i] = hash_node(obj, problem.num_nodes, hash_salt)

    if scoped_ids:
        if capacity_factor is None:
            capacities = problem.capacities.copy()
        else:
            scoped_size = float(sum(problem.size_of(o) for o in scoped_ids))
            per_node = capacity_factor * scoped_size / problem.num_nodes
            largest = max(problem.size_of(o) for o in scoped_ids)
            capacities = np.full(problem.num_nodes, max(per_node, largest))
        subproblem = problem.subproblem(scoped_ids, capacities=capacities)
        sub_placement = place_subproblem(subproblem)
        for local_i, obj in enumerate(subproblem.object_ids):
            assignment[problem.object_index(obj)] = sub_placement.assignment[local_i]

    return Placement(problem, assignment)


@st.composite
def _stream_problems(draw):
    """Problems for the streaming pass: tied weights (few correlation
    values and sizes), isolated objects, zero-capacity nodes, infinite
    capacities beside finite ones (infinite free space scores NaN),
    capacities too small for every object (the overflow to the most
    free space), and an optional Section 3.3 budget that can block an
    infinite node."""
    t = draw(st.integers(1, 12))
    n = draw(st.integers(1, 4))
    ids = draw(st.permutations([f"o{i}" for i in range(t)]))
    sizes = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=t, max_size=t))
    capacities = draw(st.lists(
        st.sampled_from([0.0, 0.75, 2.0, 5.0, math.inf]), min_size=n, max_size=n
    ))
    candidates = list(itertools.combinations(range(t), 2))
    chosen = (
        draw(st.lists(st.sampled_from(candidates), unique=True, max_size=len(candidates)))
        if candidates
        else []
    )
    correlations = {
        (ids[a], ids[b]): draw(st.sampled_from([0.1, 0.25, 0.5, 1.0])) for a, b in chosen
    }
    cost = draw(st.sampled_from([min_size_pair_cost, unit_pair_cost]))
    resources = None
    if draw(st.booleans()):
        loads = {obj: draw(st.sampled_from([0.0, 1.0, 2.0])) for obj in ids}
        budgets = {k: draw(st.sampled_from([0.0, 1.5, 4.0, math.inf])) for k in range(n)}
        resources = {"cpu": (loads, budgets)}
    return PlacementProblem.build(
        dict(zip(ids, sizes)),
        dict(enumerate(capacities)),
        correlations,
        pair_cost=cost,
        resources=resources,
    )


# Infinite free space over infinite capacity scores NaN, and the first
# NaN wins both the fill argmin and the score argmax: both objects go to
# node 1, not to the finite node 0.
_NAN_CASE = PlacementProblem.build(
    {"a": 1.0, "b": 1.0}, {0: 5.0, 1: math.inf, 2: math.inf}, {("a", "b"): 1.0}
)

# Scores whose rounding depends on association: (g * f) / c places the
# last object on node 1, g * (f / c) on node 0.
_ASSOCIATION_CASE = PlacementProblem.build(
    {"o0": 2.0, "o1": 1.0, "o2": 3.0, "o3": 2.0, "o4": 1.0},
    {0: 6.0, 1: 9.0},
    {
        ("o0", "o1"): 0.6, ("o0", "o3"): 0.6, ("o0", "o4"): 0.6, ("o1", "o2"): 0.6,
        ("o2", "o3"): 0.1, ("o2", "o4"): 0.2, ("o3", "o4"): 0.2,
    },
)


class TestStreamingEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(problem=_stream_problems())
    @example(problem=_NAN_CASE)
    @example(problem=_ASSOCIATION_CASE)
    def test_scalar_pass_matches_numpy_loop(self, problem):
        fast = streaming_greedy_placement(problem).assignment
        assert fast.tobytes() == _streaming_greedy_reference(problem).assignment.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        problem=_stream_problems(),
        scope=st.none() | st.integers(0, 13),
        capacity_factor=st.sampled_from([2.0, 1.0, None]),
        salt=st.sampled_from(["", "x"]),
    )
    def test_index_scoping_matches_id_scoping(self, problem, scope, capacity_factor, salt):
        fast = scoped_placement(
            problem, scope, streaming_greedy_placement,
            capacity_factor=capacity_factor, hash_salt=salt,
        )
        reference = _scoped_placement_reference(
            problem, scope, _streaming_greedy_reference,
            capacity_factor=capacity_factor, hash_salt=salt,
        )
        assert fast.assignment.tobytes() == reference.assignment.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(
        st.sampled_from([0.0, 0.5, 2.0, math.inf, -math.inf, math.nan]), min_size=1, max_size=6
    ))
    def test_argmax_argmin_match_numpy(self, values):
        """The first extremum wins, and the first NaN beats everything."""
        assert streampart._argmax(values) == int(np.argmax(values))
        assert streampart._argmin(values) == int(np.argmin(values))


# ----------------------------------------------------------------------
# Virtual-time loop
# ----------------------------------------------------------------------

class _SelectorVirtualTimeLoop(asyncio.SelectorEventLoop):
    """A selector loop whose clock is virtual and deterministic.

    The loop relies on two private-but-stable pieces of the asyncio
    base loop (unchanged across CPython 3.10–3.13): ``_ready``, the
    runnable-callback queue, and ``_scheduled``, the timer heap.  When
    nothing is runnable, virtual time advances to the earliest timer's
    deadline before the base ``_run_once`` computes its selector
    timeout, which then comes out as zero — so the loop never sleeps
    for real.
    """

    # Not quite: after popping a cancelled head, the base computes the
    # timeout from the next live deadline and waits that long in epoll.
    # The schedules below stay within milliseconds to keep that short.

    def __init__(self) -> None:
        super().__init__()
        self._vtime = 0.0

    def time(self) -> float:
        return self._vtime

    def _run_once(self) -> None:
        if not self._ready and self._scheduled:
            # A cancelled timer at the heap head is harmless here: time
            # jumps to its (defunct) deadline and the next iteration
            # advances again.  Monotonicity is preserved either way.
            when = self._scheduled[0]._when
            if when > self._vtime:
                self._vtime = when
        super()._run_once()


_LOOP_KINDS = ("call_at", "call_later", "call_soon", "sleep", "cancel", "bulk")

# Deadlines on a 0.1 ms grid, some nudged by less than the loop's 1e-9 s
# clock resolution, so equal and nearly equal deadlines are common.
_LOOP_DELAYS = st.builds(
    lambda step, nudge: step * 1e-4 + nudge,
    st.integers(0, 8),
    st.sampled_from([0.0, 0.0, 4e-10, 9e-10, 3e-9]),
)

# (kind, delay, number, children): a callback runs its children when it
# fires, so callbacks schedule and cancel more timers.
_LOOP_ACTIONS = st.recursive(
    st.tuples(
        st.sampled_from(_LOOP_KINDS), _LOOP_DELAYS, st.integers(0, 2**16), st.just(())
    ),
    lambda children: st.tuples(
        st.sampled_from(_LOOP_KINDS[:4]),
        _LOOP_DELAYS,
        st.integers(0, 2**16),
        st.lists(children, max_size=3).map(tuple),
    ),
    max_leaves=25,
)


def _run_schedule(loop_class, program):
    """Run ``program`` on a fresh ``loop_class``; return every firing as
    ``(tag, loop.time())`` in order, and the time the program ended.

    ``call_at`` deadlines are absolute, so a callback can schedule one
    in the past.  ``cancel`` cancels a handle or task counted back from
    the newest.  ``bulk`` schedules 101–160 timers and cancels 55–95%
    of them, so the heap is rebuilt without its cancelled timers.  The
    program ends when nothing it scheduled is left uncancelled.
    """
    fired = []
    live = {}
    tags = []
    counter = itertools.count()

    async def main():
        loop = asyncio.get_running_loop()
        done = loop.create_future()

        def fire(tag, children):
            fired.append((tag, loop.time()))
            del live[tag]
            run(children)
            if not live and not done.done():
                done.set_result(None)

        async def sleeper(delay, tag, children):
            await asyncio.sleep(delay)
            fire(tag, children)

        def schedule(kind, delay, children):
            tag = next(counter)
            if kind == "call_at":
                live[tag] = loop.call_at(delay, fire, tag, children)
            elif kind == "call_later":
                live[tag] = loop.call_later(delay, fire, tag, children)
            elif kind == "call_soon":
                live[tag] = loop.call_soon(fire, tag, children)
            else:
                live[tag] = loop.create_task(sleeper(delay, tag, children))
            tags.append(tag)

        def run(actions):
            for kind, delay, number, children in actions:
                if kind == "cancel":
                    if tags:
                        handle = live.pop(tags[-1 - number % len(tags)], None)
                        if handle is not None:
                            handle.cancel()
                elif kind == "bulk":
                    rng = np.random.default_rng(number)
                    count = int(rng.integers(101, 161))
                    share = rng.uniform(0.55, 0.95)
                    for step in rng.integers(0, 9, size=count).tolist():
                        schedule("call_later", step * 1e-4, ())
                    for tag in tags[-count:]:
                        if rng.random() < share:
                            live.pop(tag).cancel()
                else:
                    schedule(kind, delay, children)

        run(program)
        if not live:
            done.set_result(None)
        await done
        return loop.time()

    loop = loop_class()
    try:
        end = loop.run_until_complete(main())
    finally:
        loop.close()
    return fired, end


class TestVirtualLoopEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(program=st.lists(_LOOP_ACTIONS, max_size=8))
    # Time still jumps to a cancelled head's deadline, so a timer due
    # within the clock resolution after it fires at that deadline.
    @example(
        program=[
            ("call_at", 1e-4, 0, ()),
            ("cancel", 0.0, 0, ()),
            ("call_at", 1e-4 + 5e-10, 0, ()),
        ]
    )
    def test_same_callbacks_same_order_same_time(self, program):
        assert _run_schedule(VirtualTimeLoop, program) == _run_schedule(
            _SelectorVirtualTimeLoop, program
        )
