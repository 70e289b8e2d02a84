"""Shared case-study construction for all experiments.

Builds the synthetic analogue of the paper's evaluation setup — web
corpus, inverted index, two-period query log — once, with every size a
parameter.  Default sizes are scaled ~50x below the paper's (3.7M pages
/ 6.8M queries) so the full experiment grid runs on a laptop in
minutes; EXPERIMENTS.md records the shape comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.core.strategies import PlanConfig, PlanResult, get_planner
from repro.search.engine import (
    DistributedSearchEngine,
    QueryProfile,
    build_placement_problem,
)
from repro.search.index import InvertedIndex
from repro.search.query import QueryLog
from repro.workloads.corpus_gen import generate_corpus
from repro.workloads.query_gen import QueryWorkloadModel


@dataclass(frozen=True)
class CaseStudyConfig:
    """Sizes and seeds of the synthetic search case study.

    The defaults trade fidelity for runtime; raise them toward the
    paper's scale (3.7M docs, 254k vocabulary, 6.8M queries, scopes to
    10000) if you have hours to spend.
    """

    num_documents: int = 1500
    vocabulary_size: int = 4000
    words_per_doc: float = 60.0
    corpus_zipf_exponent: float = 1.0
    num_queries: int = 30_000
    num_topics: int = 400
    topic_query_fraction: float = 0.7
    topic_size_range: tuple[int, int] = (2, 3)
    membership_exponent: float = 0.3
    drift_fraction: float = 0.02
    min_support: int = 3
    seed: int = 0


@dataclass
class CaseStudy:
    """The materialized evaluation setup.

    Attributes:
        config: The generating configuration.
        index: Inverted index over the synthetic corpus.
        model: Period-one query workload model.
        log: Period-one query log (drives placement and evaluation).
        log_period2: Period-two log from the drifted model (stability
            analysis only).
    """

    config: CaseStudyConfig
    index: InvertedIndex
    model: QueryWorkloadModel
    log: QueryLog
    log_period2: QueryLog
    _problems: dict = field(default_factory=dict, repr=False)
    _profile: QueryProfile | None = field(default=None, init=False, repr=False)

    @classmethod
    def build(cls, config: CaseStudyConfig = CaseStudyConfig()) -> "CaseStudy":
        """Generate corpus, index, and both query-log periods."""
        corpus = generate_corpus(
            config.num_documents,
            config.vocabulary_size,
            words_per_doc=config.words_per_doc,
            zipf_exponent=config.corpus_zipf_exponent,
            seed=config.seed,
        )
        index = InvertedIndex.from_corpus(corpus)
        model = QueryWorkloadModel(
            index.vocabulary,
            num_topics=config.num_topics,
            topic_size_range=config.topic_size_range,
            topic_query_fraction=config.topic_query_fraction,
            membership_exponent=config.membership_exponent,
            seed=config.seed,
        )
        log = model.generate(config.num_queries, rng=config.seed)
        drifted = model.drifted(config.drift_fraction, seed=config.seed + 1)
        log_period2 = drifted.generate(config.num_queries, rng=config.seed + 2)
        return cls(config, index, model, log, log_period2)

    @property
    def profile(self) -> QueryProfile:
        """The period-one log compiled against the index, once per study.

        Mining every system size and replaying every placement read it,
        so the log itself is read once.
        """
        if self._profile is None:
            self._profile = QueryProfile(self.index, self.log)
        return self._profile

    def placement_problem(self, num_nodes: int) -> PlacementProblem:
        """The CCA instance for a given system size (cached).

        Nodes are uncapacitated here; strategies apply their own
        conservative capacities (the paper's 2x-average rule).  The
        pairs are mined from :attr:`profile`.
        """
        if num_nodes not in self._problems:
            self._problems[num_nodes] = build_placement_problem(
                self.index,
                self.profile,
                num_nodes,
                correlation_mode="two_smallest",
                min_support=self.config.min_support,
            )
        return self._problems[num_nodes]

    # ------------------------------------------------------------------
    # The paper's three placement strategies (via the Planner registry)
    # ------------------------------------------------------------------
    def plan_with(
        self, planner: str, num_nodes: int, **overrides: Any
    ) -> PlanResult:
        """Run a registered planner on this study's problem.

        The config is the default :class:`PlanConfig` with the workload
        seed and any ``overrides`` applied, so all placements across an
        experiment derive from one configuration.
        """
        config = PlanConfig(seed=self.config.seed, **overrides)
        return get_planner(planner)(
            self.placement_problem(num_nodes), config=config
        )

    def place_hash(self, num_nodes: int) -> Placement:
        """Random MD5-hash placement (baseline)."""
        return self.plan_with("hash", num_nodes).placement

    def place_greedy(self, num_nodes: int, scope: int | None) -> Placement:
        """Greedy correlation-aware placement at an optimization scope."""
        return self.plan_with("greedy", num_nodes, scope=scope).placement

    def place_lprr(
        self, num_nodes: int, scope: int | None, rounding_trials: int = 10
    ) -> Placement:
        """LPRR placement at an optimization scope."""
        return self.plan_with(
            "lprr", num_nodes, scope=scope, rounding_trials=rounding_trials
        ).placement

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def replay_cost(self, placement: Placement) -> int:
        """Total engine communication (bytes) replaying the query log.

        This mirrors the paper's methodology: the prototype executes
        the full trace against the placed indices and logs every
        inter-node transfer.  The log is compiled once per study, so
        each placement costs one gather over :attr:`profile`.
        """
        engine = DistributedSearchEngine(self.index, placement)
        return engine.replay(self.profile).total_bytes


@lru_cache(maxsize=4)
def default_case_study(seed: int = 0) -> CaseStudy:
    """A process-wide cached default case study (used by benchmarks)."""
    return CaseStudy.build(CaseStudyConfig(seed=seed))
