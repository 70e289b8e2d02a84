"""Tests for the experiment harness (repro.experiments) at tiny scale."""

import pytest

from repro import obs
from repro.experiments.common import CaseStudy, CaseStudyConfig
from repro.experiments.fig2 import SkewStabilityConfig, run_skewness_stability
from repro.experiments.fig5 import DominanceConfig, run_dominance
from repro.experiments.fig6 import ScopeSweepConfig, run_scope_sweep
from repro.experiments.fig7 import NodeSweepConfig, run_node_sweep

TINY = CaseStudyConfig(
    num_documents=120,
    vocabulary_size=400,
    words_per_doc=30.0,
    num_queries=2000,
    num_topics=60,
    min_support=2,
    seed=5,
)


@pytest.fixture(scope="module")
def study():
    return CaseStudy.build(TINY)


class TestCaseStudy:
    def test_build_produces_two_periods(self, study):
        assert len(study.log) == TINY.num_queries
        assert len(study.log_period2) == TINY.num_queries

    def test_problem_cached_per_node_count(self, study):
        assert study.placement_problem(4) is study.placement_problem(4)
        assert study.placement_problem(4) is not study.placement_problem(5)

    def test_problem_uses_index_sizes(self, study):
        problem = study.placement_problem(4)
        word = problem.object_ids[0]
        assert problem.size_of(word) == study.index.size_bytes(word)

    def test_replay_cost_nonnegative_and_strategy_sensitive(self, study):
        hash_cost = study.replay_cost(study.place_hash(4))
        lprr_cost = study.replay_cost(study.place_lprr(4, scope=80))
        assert hash_cost > 0
        assert lprr_cost < hash_cost

    def test_place_greedy_total(self, study):
        placement = study.place_greedy(4, scope=50)
        assert placement.assignment.shape == (
            study.placement_problem(4).num_objects,
        )


class TestFig2:
    def test_result_shape(self, study):
        result = run_skewness_stability(
            study, SkewStabilityConfig(top_pairs=100, min_count=5)
        )
        assert result.ranks[0] == 1
        assert len(result.ranks) == len(result.period1_probabilities)
        assert len(result.ranks) == len(result.period2_probabilities)
        assert result.skew >= 1.0

    def test_curve_descending(self, study):
        result = run_skewness_stability(study, SkewStabilityConfig(top_pairs=100))
        probs = result.period1_probabilities
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_render_mentions_both_panels(self, study):
        text = run_skewness_stability(study).render()
        assert "Figure 2(A)" in text and "Figure 2(B)" in text

    def test_stability_uses_support_threshold(self, study):
        strict = run_skewness_stability(
            study, SkewStabilityConfig(min_count=10)
        )
        loose = run_skewness_stability(study, SkewStabilityConfig(min_count=1))
        assert len(strict.stability.pairs) <= len(loose.stability.pairs)


class TestFig5:
    def test_curves_cover_everything_at_full_scope(self, study):
        result = run_dominance(study, DominanceConfig())
        assert result.curves.size_fraction[-1] == pytest.approx(1.0)
        assert result.curves.cost_fraction[-1] == pytest.approx(1.0)

    def test_custom_checkpoints(self, study):
        result = run_dominance(study, DominanceConfig(checkpoints=[10, 50]))
        assert result.curves.checkpoints == (10, 50)

    def test_render(self, study):
        assert "Figure 5" in run_dominance(study).render()


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self, study):
        return run_scope_sweep(
            study,
            ScopeSweepConfig(scopes=(30, 100), num_nodes=4, rounding_trials=5),
        )

    def test_normalization(self, result):
        assert len(result.normalized_lprr) == 2
        assert all(v > 0 for v in result.normalized_lprr)

    def test_savings_properties(self, result):
        assert 0.0 <= result.best_lprr_saving <= 1.0
        assert 0.0 <= result.best_greedy_saving <= 1.0

    def test_lprr_saves_at_wide_scope(self, result):
        assert result.normalized_lprr[-1] < 1.0

    def test_render(self, result):
        text = result.render()
        assert "Figure 6" in text and "LPRR" in text

    def test_default_scopes_derived_from_vocabulary(self, study):
        result = run_scope_sweep(
            study, ScopeSweepConfig(scopes=None, num_nodes=3, rounding_trials=2)
        )
        assert len(result.scopes) >= 5


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self, study):
        return run_node_sweep(
            study,
            NodeSweepConfig(node_counts=(3, 6), scope=80, rounding_trials=5),
        )

    def test_per_size_baselines(self, result):
        assert len(result.hash_bytes) == 2
        # Hash cost grows with node count ((n-1)/n split probability).
        assert result.hash_bytes[1] >= result.hash_bytes[0]

    def test_lprr_beats_hash_everywhere(self, result):
        assert all(v < 1.0 for v in result.normalized_lprr)

    def test_sweep_compiles_the_log_once(self):
        study = CaseStudy.build(TINY)
        previous = obs.current()
        try:
            inst = obs.enable(obs.Instrumentation())
            run_node_sweep(
                study,
                NodeSweepConfig(node_counts=(3, 6), scope=80, rounding_trials=2),
            )
        finally:
            obs.disable()
            if previous is not None:
                obs.enable(previous)
        assert len(inst.tracer.find("replay.compile")) == 1
        assert len(inst.tracer.find("replay")) == 6

    def test_savings_range_ordered(self, result):
        lo, hi = result.lprr_saving_range
        assert lo <= hi

    def test_render(self, result):
        assert "Figure 7" in result.render()


class TestFullReport:
    def test_report_runs_everything(self, study):
        from repro.experiments.report import run_full_report

        report = run_full_report(
            study,
            scopes=(30, 80),
            node_counts=(3, 5),
            fig7_scope=60,
            rounding_trials=3,
        )
        text = report.render()
        for marker in ("Figure 2(A)", "Figure 5", "Figure 6", "Figure 7", "Headline"):
            assert marker in text
        lo, hi = report.headline_vs_hash
        assert lo <= hi
        assert report.elapsed_seconds > 0
