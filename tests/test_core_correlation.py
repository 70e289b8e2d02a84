"""Tests for correlation estimators (repro.core.correlation and the
sketch estimator that ingests its pair stream)."""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import correlation
from repro.core.correlation import (
    _trace_pairs,
    cooccurrence_correlations,
    operation_pairs,
    two_smallest_correlations,
    union_largest_correlations,
)
from repro.online.sketch import CountMinSketch, SketchCorrelationEstimator


class TestCooccurrence:
    def test_two_object_operations_exact(self):
        trace = [("a", "b"), ("a", "b"), ("a", "c"), ("b", "c")]
        corr = cooccurrence_correlations(trace)
        assert corr[("a", "b")] == pytest.approx(0.5)
        assert corr[("a", "c")] == pytest.approx(0.25)
        assert corr[("b", "c")] == pytest.approx(0.25)

    def test_multi_object_operation_counts_all_pairs(self):
        corr = cooccurrence_correlations([("a", "b", "c")])
        assert len(corr) == 3
        assert all(v == 1.0 for v in corr.values())

    def test_duplicates_within_operation_ignored(self):
        corr = cooccurrence_correlations([("a", "a", "b")])
        assert corr == {("a", "b"): 1.0}

    def test_single_object_operations_dilute(self):
        corr = cooccurrence_correlations([("a",), ("a", "b")])
        assert corr[("a", "b")] == pytest.approx(0.5)

    def test_min_support_filters(self):
        trace = [("a", "b"), ("a", "b"), ("c", "d")]
        corr = cooccurrence_correlations(trace, min_support=2)
        assert ("a", "b") in corr
        assert ("c", "d") not in corr

    def test_empty_trace(self):
        assert cooccurrence_correlations([]) == {}

    def test_pairs_canonicalized(self):
        corr = cooccurrence_correlations([("b", "a"), ("a", "b")])
        assert corr == {("a", "b"): 1.0}


class TestTwoSmallest:
    SIZES = {"small": 1.0, "mid": 5.0, "big": 50.0}

    def test_three_object_operation_keeps_two_smallest(self):
        corr = two_smallest_correlations([("small", "mid", "big")], self.SIZES)
        assert corr == {("mid", "small"): 1.0}

    def test_two_object_operation_unchanged(self):
        corr = two_smallest_correlations([("mid", "big")], self.SIZES)
        assert corr == {("big", "mid"): 1.0}

    def test_unknown_objects_ignored(self):
        corr = two_smallest_correlations([("small", "???", "mid")], self.SIZES)
        assert corr == {("mid", "small"): 1.0}

    def test_operations_without_two_known_objects_count_in_denominator(self):
        corr = two_smallest_correlations([("small",), ("small", "mid")], self.SIZES)
        assert corr[("mid", "small")] == pytest.approx(0.5)

    def test_size_ties_broken_deterministically(self):
        sizes = {"a": 1.0, "b": 1.0, "c": 1.0}
        first = two_smallest_correlations([("a", "b", "c")], sizes)
        second = two_smallest_correlations([("c", "b", "a")], sizes)
        assert first == second


class TestUnionLargest:
    SIZES = {"s": 1.0, "m": 5.0, "l": 50.0}

    def test_largest_paired_with_each_other(self):
        corr = union_largest_correlations([("s", "m", "l")], self.SIZES)
        assert corr == {("l", "s"): 1.0, ("l", "m"): 1.0}

    def test_q_objects_give_q_minus_1_pairs(self):
        sizes = {c: i + 1.0 for i, c in enumerate("abcde")}
        corr = union_largest_correlations([tuple("abcde")], sizes)
        assert len(corr) == 4
        assert all(pair.count("e") == 1 for pair in corr)


class TestEstimator:
    """The sketch estimator is exact while it tracks every pair."""

    def test_incremental_matches_batch(self):
        trace = [("a", "b"), ("a", "b", "c"), ("b", "c"), ("d",)]
        est = SketchCorrelationEstimator(mode="cooccurrence")
        est.observe_trace(trace)
        assert est.correlations() == cooccurrence_correlations(trace)
        assert est.num_operations == 4

    def test_two_smallest_mode_matches_batch(self):
        sizes = {"a": 1.0, "b": 2.0, "c": 3.0}
        trace = [("a", "b", "c"), ("b", "c")]
        est = SketchCorrelationEstimator(mode="two_smallest", sizes=sizes)
        est.observe_trace(trace)
        assert est.correlations() == two_smallest_correlations(trace, sizes)

    def test_union_mode_matches_batch(self):
        sizes = {"a": 1.0, "b": 2.0, "c": 3.0}
        trace = [("a", "b", "c")]
        est = SketchCorrelationEstimator(mode="union_largest", sizes=sizes)
        est.observe_trace(trace)
        assert est.correlations() == union_largest_correlations(trace, sizes)

    def test_sizes_required_for_size_modes(self):
        with pytest.raises(ValueError, match="requires object sizes"):
            SketchCorrelationEstimator(mode="two_smallest")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            SketchCorrelationEstimator(mode="bogus")

    def test_mode_checked_before_the_trace_is_read(self):
        # An empty trace raises like a non-empty one, and a trace that
        # cannot be read is never touched.
        def unread():
            raise AssertionError("trace read before the mode check")
            yield

        assert cooccurrence_correlations([]) == {}
        for fn in (two_smallest_correlations, union_largest_correlations):
            with pytest.raises(ValueError, match="requires object sizes"):
                fn([], None)
            with pytest.raises(ValueError, match="requires object sizes"):
                fn(unread(), None)


class TestSinglePassTraces:
    """The trace estimators must consume one-shot iterables correctly."""

    def test_cooccurrence_accepts_generator(self):
        trace = [("a", "b"), ("a", "b", "c"), ("b", "c")]
        from_list = cooccurrence_correlations(trace)
        from_generator = cooccurrence_correlations(op for op in trace)
        assert from_generator == from_list

    def test_two_smallest_accepts_generator(self):
        sizes = {"a": 1.0, "b": 2.0, "c": 3.0}
        trace = [("a", "b", "c"), ("b", "c")]
        assert two_smallest_correlations(
            (op for op in trace), sizes
        ) == two_smallest_correlations(trace, sizes)

    def test_union_largest_accepts_generator(self):
        sizes = {"a": 1.0, "b": 2.0, "c": 3.0}
        trace = [("a", "b", "c"), ("a", "c")]
        assert union_largest_correlations(
            (op for op in trace), sizes
        ) == union_largest_correlations(trace, sizes)


class TestOperationPairs:
    def test_cooccurrence_all_pairs(self):
        pairs = operation_pairs(("b", "a", "c"))
        assert pairs == [("a", "b"), ("a", "c"), ("b", "c")]

    def test_two_smallest_single_pair(self):
        sizes = {"a": 3.0, "b": 1.0, "c": 2.0}
        assert operation_pairs(("a", "b", "c"), "two_smallest", sizes) == [("b", "c")]

    def test_union_largest_star(self):
        sizes = {"a": 3.0, "b": 1.0, "c": 2.0}
        pairs = operation_pairs(("a", "b", "c"), "union_largest", sizes)
        assert sorted(pairs) == [("a", "b"), ("a", "c")]

    def test_union_largest_pairs_in_repr_order(self):
        sizes = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}
        pairs = operation_pairs(("c", "d", "b", "a"), "union_largest", sizes)
        assert pairs == [("a", "d"), ("b", "d"), ("c", "d")]

    def test_size_modes_require_sizes(self):
        with pytest.raises(ValueError, match="requires object sizes"):
            operation_pairs(("a", "b"), "two_smallest")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            operation_pairs(("a", "b"), "bogus", {"a": 1.0})


def row_pairs(operations):
    out = []
    for op in operations:
        out.extend(operation_pairs(op, "cooccurrence"))
    return out


def mined_pairs(operations):
    """The cooccurrence pair stream the estimators ingest."""
    pairs, ops = _trace_pairs(operations, "cooccurrence", None)
    assert ops == len(operations)
    return pairs


OPERATIONS = [
    ("b", "a", "c"),
    ("a", "a", "b"),  # duplicate inside one operation
    ("z",),  # singleton: no pairs
    (),  # empty operation
    ("c", "b"),
    ("a", "b", "c", "d", "e"),
]


class TestCooccurrencePairs:
    """The shared miner's pair stream is the per-operation loop's."""

    def test_matches_row_path_on_fixed_trace(self):
        assert mined_pairs(OPERATIONS) == row_pairs(OPERATIONS)

    def test_matches_row_path_when_repr_and_value_order_diverge(self):
        # repr('a\'b') == '"a\'b"' sorts differently from the raw value;
        # the canonical flip must still agree with the row path.
        tricky = [("a'b", 'x"y', "plain"), ('x"y', "a"), ("a'b", "a")]
        assert mined_pairs(tricky) == row_pairs(tricky)

    def test_non_str_ids_use_the_row_fallback(self):
        trace = [(3, "a", 2), ("a", 2), (1, 2)]
        assert mined_pairs(trace) == row_pairs(trace)

    def test_non_str_ids_clear_the_fast_path_gate(self):
        # A str/int mix fails the miner's type scan, so the trace takes
        # the per-operation loop and never reaches the vectorized
        # reduction; an all-str trace does.
        trace = [(1, 2), ("a", 3)]
        with mock.patch.object(
            correlation, "_reduce_pairs", wraps=correlation._reduce_pairs
        ) as spy:
            assert mined_pairs(trace) == row_pairs(trace)
            assert spy.call_count == 0
            assert mined_pairs([("a", "b")]) == [("a", "b")]
            assert spy.call_count == 1

    def test_empty_trace(self):
        assert mined_pairs([]) == []
        assert mined_pairs([(), ("x",)]) == []

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.text(
                    alphabet="abc'\"\\", min_size=1, max_size=3
                ),
                max_size=5,
            ).map(tuple),
            max_size=12,
        )
    )
    def test_property_equivalence(self, operations):
        assert mined_pairs(operations) == row_pairs(operations)


class TestDecay:
    def test_probabilities_survive_support_shrinks(self):
        est = SketchCorrelationEstimator()
        est.observe_trace([("a", "b")] * 4)
        est.decay(0.5)
        assert est.correlations()[("a", "b")] == 1.0
        assert est.num_operations == 2
        assert est.correlations(min_support=3) == {}

    def test_decay_zero_forgets(self):
        est = SketchCorrelationEstimator()
        est.observe_trace([("a", "b")])
        est.decay(0.0)
        assert est.correlations() == {}
        assert est.num_operations == 0

    def test_decay_one_is_noop(self):
        est = SketchCorrelationEstimator()
        est.observe_trace([("a", "b")])
        before = est.correlations()
        est.decay(1.0)
        assert est.correlations() == before

    def test_invalid_factor(self):
        with pytest.raises(ValueError, match="decay factor"):
            SketchCorrelationEstimator().decay(1.5)

    def test_total_after_decay_grows_one_step_per_operation(self):
        # 1 * 0.7 * 0.7 = 0.48999999999999994; two steps of += 1 give
        # 2.49, one += 2 gives 2.4899999999999998.
        est = SketchCorrelationEstimator(width=8, depth=2)
        est.observe_trace([("a", "b")])
        est.decay(0.7)
        est.decay(0.7)
        est.observe_trace([("a", "b"), ("a", "c")])
        assert est.correlations()[("a", "c")] == 1 / 2.49
        sketch = CountMinSketch(width=8, depth=2)
        sketch.add("a")
        sketch.scale(0.7)
        sketch.scale(0.7)
        sketch.update_many(["a", "b"])
        assert sketch.total == 2.49


class TestUnionOrderAcrossHashSeeds:
    # Mines one fixed trace in a fresh interpreter per string-hash seed.
    # The str trace takes the vectorized miner; the tuple ids trip its
    # gate, so that trace replays through the per-operation loop.
    SCRIPT = """
import numpy as np
from repro.core.correlation import operation_pairs, union_largest_correlations
rng = np.random.default_rng(5)
words = [f"w{i}" for i in range(40)]
sizes = {w: float(rng.integers(1, 9)) for w in words}
trace = [
    tuple(rng.choice(words, size=int(rng.integers(1, 7)), replace=False).tolist())
    for _ in range(300)
]
boxed = [tuple(("k", w) for w in op) for op in trace]
boxed_sizes = {("k", w): size for w, size in sizes.items()}
for ops, table in ((trace, sizes), (boxed, boxed_sizes)):
    print(list(union_largest_correlations(ops, table).items()))
    print([operation_pairs(op, "union_largest", table) for op in ops])
"""

    @classmethod
    def _mine(cls, hash_seed: str) -> str:
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", cls.SCRIPT],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        return out.stdout

    def test_union_pairs_do_not_depend_on_the_hash_seed(self):
        first = self._mine("1")
        assert first.count("\n") == 4
        assert first == self._mine("2")
