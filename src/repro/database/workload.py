"""Synthetic schema and query workloads for the database substrate.

Models a star-ish analytics schema: entity groups (a fact table plus
its dimensions) whose tables are queried together — the database-world
analogue of the search workload's keyword topics.  Join queries stay
mostly within a group (skewed by group popularity), occasionally
crossing groups; aggregate queries sweep a few tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.database.queries import AggregateQuery, JoinQuery
from repro.database.table import Table
from repro.workloads.zipf import zipf_probabilities

JOIN_KEY = "key"
VALUE_COLUMN = "value"


@dataclass(frozen=True)
class SchemaConfig:
    """Shape of the synthetic schema.

    Attributes:
        num_groups: Entity groups (fact + dimensions).
        dimensions_per_group: Dimension tables per group.
        fact_rows: Rows in each group's fact table.
        dimension_rows: Rows in each dimension table.
        key_space: Distinct join-key values within a group (controls
            join selectivity).
        seed: RNG seed.
    """

    num_groups: int = 8
    dimensions_per_group: int = 3
    fact_rows: int = 2000
    dimension_rows: int = 300
    key_space: int = 500
    seed: int = 0


def generate_schema(config: SchemaConfig = SchemaConfig()) -> list[Table]:
    """Generate the table catalog for a schema config."""
    rng = np.random.default_rng(config.seed)
    tables: list[Table] = []
    for g in range(config.num_groups):
        fact_keys = rng.integers(0, config.key_space, config.fact_rows)
        tables.append(
            Table(
                f"fact_{g}",
                {
                    JOIN_KEY: fact_keys,
                    VALUE_COLUMN: rng.integers(1, 1000, config.fact_rows),
                },
            )
        )
        for d in range(config.dimensions_per_group):
            # Dimensions hold a subset of the key space (like lookup
            # tables): distinct keys plus an attribute.
            keys = rng.choice(
                config.key_space,
                size=min(config.dimension_rows, config.key_space),
                replace=False,
            )
            tables.append(
                Table(
                    f"dim_{g}_{d}",
                    {
                        JOIN_KEY: keys,
                        VALUE_COLUMN: rng.integers(1, 100, keys.size),
                        "attr": rng.integers(0, 10, keys.size),
                    },
                )
            )
    return tables


def generate_queries(
    config: SchemaConfig = SchemaConfig(),
    num_queries: int = 2000,
    group_exponent: float = 1.0,
    cross_group_fraction: float = 0.1,
    aggregate_fraction: float = 0.15,
    seed: int | None = 1,
) -> list[JoinQuery | AggregateQuery]:
    """Generate a mixed join/aggregate query trace.

    Args:
        config: The schema the queries run against.
        num_queries: Trace length.
        group_exponent: Zipf skew of group popularity (drives the
            correlation skew, like topic popularity does for search).
        cross_group_fraction: Probability a join reaches into a second
            group (the workload's weak cross-correlations).
        aggregate_fraction: Share of scatter/gather aggregate queries.
        seed: RNG seed.
    """
    if not 0 <= cross_group_fraction <= 1 or not 0 <= aggregate_fraction <= 1:
        raise ValueError("fractions must be in [0, 1]")
    rng = np.random.default_rng(seed)
    popularity = zipf_probabilities(config.num_groups, group_exponent)

    def group_tables(g: int) -> list[str]:
        return [f"fact_{g}"] + [
            f"dim_{g}_{d}" for d in range(config.dimensions_per_group)
        ]

    queries: list[JoinQuery | AggregateQuery] = []
    for _ in range(num_queries):
        g = int(rng.choice(config.num_groups, p=popularity))
        members = group_tables(g)
        if rng.random() < aggregate_fraction:
            count = int(rng.integers(2, len(members) + 1))
            picked = rng.choice(members, size=count, replace=False).tolist()
            queries.append(AggregateQuery(tuple(sorted(picked)), VALUE_COLUMN, "sum"))
            continue
        # Join: the fact table with 1-2 of its dimensions.
        num_dims = int(rng.integers(1, min(2, config.dimensions_per_group) + 1))
        dims = rng.choice(members[1:], size=num_dims, replace=False).tolist()
        tables = [members[0], *dims]
        if rng.random() < cross_group_fraction and config.num_groups > 1:
            other = int(rng.choice([x for x in range(config.num_groups) if x != g]))
            tables.append(f"dim_{other}_0")
        queries.append(JoinQuery(tuple(tables), on=JOIN_KEY, aggregate_column=VALUE_COLUMN))
    return queries
