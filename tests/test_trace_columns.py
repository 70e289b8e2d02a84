"""Tests for columnar traces (repro.workloads.traces.TraceColumns) and
their consumers — the pair miner, estimator ingest and query-log
replay — each checked against the row-oriented trace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.correlation import (
    _mine_chunks,
    _TraceEncoder,
    _trace_pairs,
    operation_pairs,
)
from repro.online import OnlineConfig, OnlinePlanner, StreamPeriod
from repro.online.sketch import SketchCorrelationEstimator
from repro.search.documents import Corpus, Document
from repro.search.engine import DistributedSearchEngine
from repro.search.query import Query, QueryLog
from repro.workloads.traces import TraceColumns
from tests.test_fastpath_equivalence import _replay_reference


def row_pairs(operations):
    out = []
    for op in operations:
        out.extend(operation_pairs(op, "cooccurrence"))
    return out


def mined_pairs(columns):
    """The cooccurrence pair stream the estimators ingest from columns."""
    pairs, ops = _trace_pairs(columns, "cooccurrence", None)
    assert ops == len(columns)
    return pairs


OPERATIONS = [
    ("b", "a", "c"),
    ("a", "a", "b"),  # duplicate inside one operation
    ("z",),  # singleton: no pairs
    (),  # empty operation
    ("c", "b"),
    ("a", "b", "c", "d", "e"),
]


class TestFromOperations:
    def test_roundtrip_preserves_rows_exactly(self):
        columns = TraceColumns.from_operations(OPERATIONS)
        assert list(columns.operations()) == OPERATIONS
        assert list(columns) == OPERATIONS
        assert len(columns) == len(OPERATIONS)

    def test_codes_are_repr_order(self):
        columns = TraceColumns.from_operations([("b", "a"), ("c",)])
        assert columns.ids == ("a", "b", "c")
        assert columns.codes.tolist() == [1, 0, 2]

    def test_arrays_are_frozen(self):
        columns = TraceColumns.from_operations(OPERATIONS)
        with pytest.raises(ValueError):
            columns.codes[0] = 5
        with pytest.raises(ValueError):
            columns.offsets[0] = 5

    def test_times_validated_and_frozen(self):
        columns = TraceColumns.from_operations(
            [("a",), ("b",)], times=[0.0, 1.5]
        )
        assert columns.times.tolist() == [0.0, 1.5]
        with pytest.raises(ValueError):
            columns.times[0] = 9.0
        with pytest.raises(ValueError, match="one entry per operation"):
            TraceColumns.from_operations([("a",)], times=[0.0, 1.0])

    def test_non_str_ids_clear_the_fast_path_gate(self):
        # A str/int mix trips the miner's type gate, so the one chunk
        # is the per-operation loop's pair list, not packed keys.
        columns = TraceColumns.from_operations([(1, 2), ("a", 3)])
        assert list(columns.operations()) == [(1, 2), ("a", 3)]
        enc = _TraceEncoder()
        chunks = list(_mine_chunks(columns, "cooccurrence", None, enc))
        assert not enc.fast_ok()
        assert chunks == [(2, row_pairs(columns))]


class TestCooccurrencePairs:
    """The shared miner's pair stream over columns is the row path's."""

    def test_matches_row_path_on_fixed_trace(self):
        columns = TraceColumns.from_operations(OPERATIONS)
        assert mined_pairs(columns) == row_pairs(OPERATIONS)

    def test_matches_row_path_when_repr_and_value_order_diverge(self):
        # repr('a\'b') == '"a\'b"' sorts differently from the raw value;
        # the canonical flip must still agree with the row path.
        tricky = [("a'b", 'x"y', "plain"), ('x"y', "a"), ("a'b", "a")]
        columns = TraceColumns.from_operations(tricky)
        assert mined_pairs(columns) == row_pairs(tricky)

    def test_non_str_ids_use_the_row_fallback(self):
        trace = [(3, "a", 2), ("a", 2), (1, 2)]
        columns = TraceColumns.from_operations(trace)
        assert mined_pairs(columns) == row_pairs(trace)

    def test_empty_trace(self):
        assert mined_pairs(TraceColumns.from_operations([])) == []
        assert mined_pairs(TraceColumns.from_operations([(), ("x",)])) == []

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
        columns = TraceColumns.from_operations(operations)
        assert mined_pairs(columns) == row_pairs(operations)


class TestEstimatorIngest:
    def trace(self, seed=0, n=400):
        rng = np.random.default_rng(seed)
        words = [f"w{i}" for i in range(30)]
        return [
            tuple(rng.choice(words, size=rng.integers(1, 5)))
            for _ in range(n)
        ]

    def test_observe_columns_equals_observe_trace(self):
        # observe_trace reads TraceColumns like their rows, with decay
        # between batches.
        batches = [self.trace(seed=0), self.trace(seed=1)]
        by_rows = SketchCorrelationEstimator(seed=0)
        by_columns = SketchCorrelationEstimator(seed=0)
        for batch in batches:
            by_rows.observe_trace(batch)
            columns = TraceColumns.from_operations(batch)
            assert by_columns.observe_trace(columns) == len(batch)
            by_rows.decay(0.5)
            by_columns.decay(0.5)
        assert by_rows.to_dict() == by_columns.to_dict()
        assert by_rows.correlations() == by_columns.correlations()

    def test_decaying_estimator_delegates(self):
        # OnlinePlanner owns the per-period decay: it hands a period to
        # its estimator in one batch, then decays it, which leaves the
        # estimator where columns ingest followed by decay does.
        trace = self.trace(seed=1)
        planner = OnlinePlanner(
            {obj: 1.0 for op in trace for obj in op},
            OnlineConfig(num_nodes=2, window_s=10.0, decay=0.5),
            estimator=SketchCorrelationEstimator(seed=0),
        )
        planner.observe_period(StreamPeriod(0, 0.0, 10.0, tuple(trace)))
        by_columns = SketchCorrelationEstimator(seed=0)
        columns = TraceColumns.from_operations(trace)
        assert by_columns.observe_trace(columns) == len(trace)
        by_columns.decay(0.5)
        assert planner.estimator.to_dict() == by_columns.to_dict()


class TestExecuteLogColumnar:
    @pytest.fixture
    def engine(self):
        docs = []
        for i in range(10):
            words = {"alpha"}
            if i % 2 == 0:
                words.add("beta")
            if i % 3 == 0:
                words.add("gamma")
            docs.append(Document(f"d{i}", frozenset(words)))
        from repro.search.index import InvertedIndex

        index = InvertedIndex.from_corpus(Corpus(docs))
        placement = {"alpha": 0, "beta": 1, "gamma": 2}
        return DistributedSearchEngine(index, placement)

    def queries(self):
        base = [
            ("alpha",),
            ("alpha", "beta"),
            ("beta", "gamma"),
            ("alpha", "beta", "gamma"),
        ]
        return [base[i % len(base)] for i in range(50)]

    def test_columnar_replay_matches_row_replay(self, engine):
        rows = self.queries()
        columns = TraceColumns.from_operations(rows)
        by_rows = engine.execute_log(QueryLog(Query(q) for q in rows))
        by_columns = engine.execute_log(columns)
        assert by_rows == by_columns

    def test_columnar_replay_matches_undeduped_replay(self, engine):
        rows = self.queries()
        columns = TraceColumns.from_operations(rows)
        legacy = _replay_reference(engine.index, engine.lookup, rows)
        assert engine.execute_log(columns) == legacy
        assert list(engine.execute_log(columns).per_node_bytes_sent) == list(
            legacy.per_node_bytes_sent
        )
