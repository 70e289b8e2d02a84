"""Tests for the distributed database engine and workload generator."""

import numpy as np
import pytest

from repro.database.engine import DistributedDatabase
from repro.database.queries import AggregateQuery, JoinQuery
from repro.database.table import Table
from repro.database.workload import (
    JOIN_KEY,
    SchemaConfig,
    generate_queries,
    generate_schema,
)


@pytest.fixture
def tables():
    return [
        Table("small", {"key": np.array([1, 2]), "value": np.array([1, 2])}),
        Table(
            "mid",
            {"key": np.array([1, 2, 3, 4]), "value": np.array([10, 20, 30, 40])},
        ),
        Table(
            "big",
            {
                "key": np.arange(10),
                "value": np.arange(10) * 100,
            },
        ),
    ]


def db(tables, mapping):
    return DistributedDatabase(tables, mapping)


class TestQueryValidation:
    def test_join_needs_two_tables(self):
        with pytest.raises(ValueError, match="two tables"):
            JoinQuery(("only",), on="key")

    def test_join_tables_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            JoinQuery(("a", "a"), on="key")

    def test_aggregate_needs_tables(self):
        with pytest.raises(ValueError, match="at least one"):
            AggregateQuery(())


class TestJoinExecution:
    def test_colocated_join_free(self, tables):
        engine = db(tables, {"small": 0, "mid": 0, "big": 0})
        result = engine.execute_join(JoinQuery(("small", "mid"), on="key"))
        assert result.is_local
        assert result.rows == 2  # keys 1 and 2 both present

    def test_split_join_ships_smaller_table(self, tables):
        engine = db(tables, {"small": 0, "mid": 1, "big": 2})
        result = engine.execute_join(JoinQuery(("small", "mid"), on="key"))
        assert result.bytes_transferred == tables[0].size_bytes
        assert result.hops == 1

    def test_three_way_join_pipelines(self, tables):
        engine = db(tables, {"small": 0, "mid": 1, "big": 1})
        result = engine.execute_join(JoinQuery(("big", "mid", "small"), on="key"))
        # small (smallest) ships to mid's node; big is already there.
        assert result.hops == 1
        assert result.bytes_transferred == tables[0].size_bytes

    def test_join_value_independent_of_placement(self, tables):
        query = JoinQuery(("small", "mid"), on="key", aggregate_column="value")
        local = db(tables, {"small": 0, "mid": 0, "big": 0}).execute_join(query)
        remote = db(tables, {"small": 0, "mid": 1, "big": 2}).execute_join(query)
        assert local.value == remote.value

    def test_row_count_default_aggregate(self, tables):
        engine = db(tables, {"small": 0, "mid": 0, "big": 0})
        result = engine.execute_join(JoinQuery(("small", "big"), on="key"))
        assert result.value == result.rows


class TestAggregateExecution:
    def test_scatter_gather_free(self, tables):
        engine = db(tables, {"small": 0, "mid": 1, "big": 2})
        result = engine.execute_aggregate(
            AggregateQuery(("small", "mid", "big"), "value", "sum")
        )
        assert result.bytes_transferred == 0
        assert result.value == 3 + 100 + sum(range(10)) * 100

    def test_missing_column_skipped(self, tables):
        extra = Table("nocol", {"key": np.array([1])})
        engine = db(tables + [extra], {"small": 0, "mid": 0, "big": 0, "nocol": 1})
        result = engine.execute_aggregate(AggregateQuery(("small", "nocol"), "value"))
        assert result.value == 3.0

    def test_min_across_tables(self, tables):
        engine = db(tables, {"small": 0, "mid": 0, "big": 0})
        result = engine.execute_aggregate(
            AggregateQuery(("small", "mid"), "value", "min")
        )
        assert result.value == 1.0


class TestEngineInfrastructure:
    def test_missing_assignment_rejected(self, tables):
        with pytest.raises(ValueError, match="without a node"):
            DistributedDatabase(tables, {"small": 0})

    def test_unknown_table(self, tables):
        engine = db(tables, {"small": 0, "mid": 0, "big": 0})
        with pytest.raises(KeyError, match="unknown table"):
            engine.execute_join(JoinQuery(("small", "ghost"), on="key"))

    def test_log_statistics(self, tables):
        engine = db(tables, {"small": 0, "mid": 0, "big": 1})
        stats = engine.execute_log(
            [
                JoinQuery(("small", "mid"), on="key"),
                JoinQuery(("small", "big"), on="key"),
                AggregateQuery(("small",), "value"),
            ]
        )
        assert stats.queries == 3
        assert stats.local_queries == 2
        assert stats.total_bytes == tables[0].size_bytes

    def test_unsupported_query_type(self, tables):
        engine = db(tables, {"small": 0, "mid": 0, "big": 0})
        with pytest.raises(TypeError):
            engine.execute_log(["not a query"])

    def test_placement_problem_bridge(self, tables):
        engine = db(tables, {"small": 0, "mid": 0, "big": 0})
        queries = [JoinQuery(("small", "mid"), on="key")] * 4
        problem = engine.placement_problem(queries, 3)
        assert problem.num_objects == 3
        assert problem.num_pairs == 1
        assert problem.size_of("small") == tables[0].size_bytes


class TestWorkloadGeneration:
    def test_schema_shape(self):
        config = SchemaConfig(num_groups=3, dimensions_per_group=2, seed=0)
        tables = generate_schema(config)
        assert len(tables) == 3 * (1 + 2)
        names = {t.name for t in tables}
        assert "fact_0" in names and "dim_2_1" in names

    def test_queries_reference_real_tables(self):
        config = SchemaConfig(num_groups=3, dimensions_per_group=2, seed=0)
        names = {t.name for t in generate_schema(config)}
        queries = generate_queries(config, num_queries=200, seed=1)
        for q in queries:
            assert set(q.objects) <= names

    def test_mixture_of_query_types(self):
        config = SchemaConfig(num_groups=3, seed=0)
        queries = generate_queries(
            config, num_queries=400, aggregate_fraction=0.3, seed=2
        )
        joins = sum(1 for q in queries if isinstance(q, JoinQuery))
        aggs = sum(1 for q in queries if isinstance(q, AggregateQuery))
        assert joins > 0 and aggs > 0
        assert aggs / len(queries) == pytest.approx(0.3, abs=0.1)

    def test_group_locality_dominates(self):
        config = SchemaConfig(num_groups=4, seed=0)
        queries = generate_queries(
            config, num_queries=500, cross_group_fraction=0.0, seed=3
        )
        for q in queries:
            if isinstance(q, JoinQuery):
                groups = {name.split("_")[1] for name in q.tables}
                assert len(groups) == 1

    def test_table_names_are_plain_str(self):
        # A numpy string among them sends the trace to the per-operation
        # miner and breaks size ties by type instead of by name.
        config = SchemaConfig(num_groups=4, dimensions_per_group=3, seed=0)
        queries = generate_queries(
            config, num_queries=300, aggregate_fraction=0.3, seed=4
        )
        assert {type(name) for q in queries for name in q.objects} == {str}

    def test_deterministic(self):
        config = SchemaConfig(num_groups=3, seed=5)
        a = generate_queries(config, num_queries=50, seed=7)
        b = generate_queries(config, num_queries=50, seed=7)
        assert [q.objects for q in a] == [q.objects for q in b]

    def test_invalid_fractions(self):
        with pytest.raises(ValueError):
            generate_queries(SchemaConfig(), cross_group_fraction=1.5)

    def test_end_to_end_lprr_beats_hash(self):
        from repro.core import LPRRPlanner, random_hash_placement

        config = SchemaConfig(num_groups=5, fact_rows=400, seed=0)
        tables = generate_schema(config)
        queries = generate_queries(config, num_queries=300, seed=1)
        bootstrap = DistributedDatabase(tables, {t.name: 0 for t in tables})
        problem = bootstrap.placement_problem(queries, 4, min_support=2)

        def replay(placement):
            mapping = {str(k): v for k, v in placement.to_mapping().items()}
            return DistributedDatabase(tables, mapping).execute_log(queries).total_bytes

        hash_bytes = replay(random_hash_placement(problem))
        lprr_bytes = replay(LPRRPlanner(seed=0).plan(problem).placement)
        assert lprr_bytes < hash_bytes
