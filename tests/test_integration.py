"""Integration tests: the paper's claims, end to end, on scaled-down workloads.

Each test wires several subsystems together the way the benchmark harness
does (circuit generators -> Monte-Carlo engine / SSTA -> core pipeline and
yield models -> optimizers) and checks the qualitative result the paper
reports, at a size small enough for the unit-test suite.
"""

import numpy as np
import pytest

from repro.api.design import snapshot_pipeline
from repro.core.pipeline_delay import PipelineDelayModel
from repro.core.variability import GateVariability, pipeline_variability_fixed_total_depth
from repro.core.yield_model import yield_correlated, yield_independent
from repro.montecarlo.engine import MonteCarloEngine
from repro.optimize.area_delay import characterize_stage
from repro.optimize.balance import design_balanced_pipeline
from repro.optimize.global_opt import GlobalPipelineOptimizer
from repro.optimize.lagrangian import LagrangianSizer
from repro.optimize.redistribute import redistribute_area
from repro.pipeline.builder import alu_decoder_pipeline, inverter_chain_pipeline
from repro.process.variation import VariationModel
from repro.timing.ssta import StatisticalTimingAnalyzer


class TestModelVersusMonteCarlo:
    """Section 2.4: the analytical model tracks Monte-Carlo closely."""

    @pytest.mark.parametrize(
        "variation",
        [
            VariationModel.intra_random_only(),
            VariationModel.inter_only(0.03),
            VariationModel.combined(),
        ],
        ids=["intra", "inter", "combined"],
    )
    def test_pipeline_moments_match(self, variation):
        pipeline = inverter_chain_pipeline(5, 8)
        engine = MonteCarloEngine(variation, n_samples=4000, seed=17)
        mc = engine.run_pipeline(pipeline)
        model = PipelineDelayModel(mc.stage_distributions(), mc.correlation_matrix())
        estimate = model.estimate()
        pipeline_mc = mc.pipeline_result()
        assert estimate.mean == pytest.approx(pipeline_mc.mean, rel=0.01)
        assert estimate.std == pytest.approx(pipeline_mc.std, rel=0.25)

    def test_yield_estimates_match_monte_carlo(self):
        pipeline = inverter_chain_pipeline(5, 8)
        variation = VariationModel.combined()
        engine = MonteCarloEngine(variation, n_samples=4000, seed=23)
        mc = engine.run_pipeline(pipeline)
        target = float(np.quantile(mc.pipeline_samples, 0.85))
        model_yield = yield_correlated(
            mc.stage_distributions(), target, mc.correlation_matrix()
        )
        assert model_yield == pytest.approx(0.85, abs=0.05)

    def test_independent_formula_valid_for_intra_only(self):
        pipeline = inverter_chain_pipeline(6, 6)
        variation = VariationModel.intra_random_only()
        engine = MonteCarloEngine(variation, n_samples=4000, seed=29)
        mc = engine.run_pipeline(pipeline)
        target = float(np.quantile(mc.pipeline_samples, 0.8))
        model_yield = yield_independent(mc.stage_distributions(), target)
        assert model_yield == pytest.approx(0.8, abs=0.05)

    def test_ssta_feeds_the_pipeline_model_without_monte_carlo(self, technology):
        """The fully analytical path: SSTA stage moments -> Clark -> yield."""
        pipeline = inverter_chain_pipeline(4, 8)
        variation = VariationModel.combined()
        analyzer = StatisticalTimingAnalyzer(technology, variation)
        forms = [
            analyzer.stage_delay(s.netlist, s.flipflop, s.register_position)
            for s in pipeline.stages
        ]
        from repro.core.stage_delay import StageDelayDistribution

        stages = [StageDelayDistribution.from_canonical(f, s.name)
                  for f, s in zip(forms, pipeline.stages)]
        corr = analyzer.correlation_matrix(forms)
        estimate = PipelineDelayModel(stages, corr).estimate()

        mc = MonteCarloEngine(variation, n_samples=4000, seed=31).run_pipeline(pipeline)
        assert estimate.mean == pytest.approx(mc.pipeline_result().mean, rel=0.02)
        assert estimate.std == pytest.approx(mc.pipeline_result().std, rel=0.35)


class TestErrorTrends:
    """Section 2.4 / Fig. 3: error grows with stage count and correlation."""

    def test_sigma_error_grows_with_stage_count(self, rng):
        stage_mean, stage_std = 200e-12, 8e-12
        errors = []
        for n_stages in (2, 16):
            from repro.core.stage_delay import StageDelayDistribution

            stages = [StageDelayDistribution(stage_mean, stage_std)] * n_stages
            model = PipelineDelayModel(stages)
            estimate = model.estimate()
            samples = model.sample(200000, rng)
            errors.append(abs(estimate.std - samples.std()) / samples.std())
        assert errors[1] >= errors[0]

    def test_mean_error_stays_small(self, rng):
        from repro.core.stage_delay import StageDelayDistribution

        stages = [StageDelayDistribution(200e-12, 8e-12)] * 20
        model = PipelineDelayModel(stages)
        estimate = model.estimate()
        samples = model.sample(200000, rng)
        assert abs(estimate.mean - samples.mean()) / samples.mean() < 0.005


class TestLogicDepthTradeoffs:
    """Section 3.1 / Fig. 5(c): the crossover between intra- and inter-dominated regimes."""

    def test_crossover_with_inter_die_strength(self):
        counts = [4, 8, 12, 24]
        intra_gate = GateVariability(mu=10e-12, sigma_random=1.5e-12)
        inter_gate = GateVariability(mu=10e-12, sigma_random=0.3e-12, sigma_die=2.0e-12)
        intra_series = pipeline_variability_fixed_total_depth(intra_gate, 120, counts)
        inter_series = pipeline_variability_fixed_total_depth(inter_gate, 120, counts)
        assert intra_series[-1] > intra_series[0]
        assert inter_series[-1] < inter_series[0]

    def test_monte_carlo_confirms_intra_only_trend(self):
        """Deeper pipelines (more, shallower stages) are more variable under
        purely random intra-die variation."""
        variation = VariationModel.intra_random_only()
        shallow = inverter_chain_pipeline(2, 24)
        deep = inverter_chain_pipeline(8, 6)
        shallow_result = MonteCarloEngine(variation, n_samples=3000, seed=5).run_pipeline(shallow)
        deep_result = MonteCarloEngine(variation, n_samples=3000, seed=5).run_pipeline(deep)
        assert (
            deep_result.pipeline_result().variability
            > shallow_result.pipeline_result().variability
        )


class TestImbalanceAndGlobalOptimization:
    """Sections 3.2 and 4 on a small ALU-Decoder pipeline."""

    @pytest.fixture(scope="class")
    def designed(self, technology, variation_combined):
        pipeline = alu_decoder_pipeline(width=4, n_address=3)
        sizer = LagrangianSizer(technology, variation_combined)
        stage_yield = 0.80 ** (1.0 / 3.0)
        # As in the paper's Fig. 7 setup every stage sits at the delay target
        # and needs substantial sizing to get there (the operating point is on
        # the steep part of every stage's area-vs-delay curve, which is where
        # trading area between stages is meaningful).
        fastest = min(
            sizer.stage_distribution(stage).delay_at_yield(stage_yield)
            for stage in pipeline.stages
        )
        target = 0.85 * fastest
        balanced = design_balanced_pipeline(pipeline, sizer, target, 0.80)
        return sizer, balanced, target

    def test_heuristic_imbalance_beats_worst_imbalance(self, designed):
        sizer, balanced, target = designed
        curves = {
            stage.name: characterize_stage(stage, sizer, balanced.stage_yield_target, n_points=5)
            for stage in balanced.pipeline.stages
        }
        best = redistribute_area(
            balanced.pipeline, curves, sizer, target,
            balanced.stage_yield_target, fraction=0.08, mode="best",
        )
        worst = redistribute_area(
            balanced.pipeline, curves, sizer, target,
            balanced.stage_yield_target, fraction=0.08, mode="worst",
        )
        assert best.predicted_pipeline_yield(target) >= worst.predicted_pipeline_yield(
            target
        ) - 0.02

    def test_global_optimization_respects_yield_and_tracks_area(self, designed):
        sizer, balanced, target = designed
        optimizer = GlobalPipelineOptimizer(sizer, curve_points=3)
        result = optimizer.optimize(balanced.pipeline, target, 0.80)
        before = snapshot_pipeline(sizer, balanced.pipeline, target)
        after = snapshot_pipeline(sizer, result.pipeline, target)
        assert after.pipeline_yield >= 0.76
        # The optimizer must not blow the area up relative to the balanced
        # design by more than a small factor (the paper reports ~2 % growth
        # when ensuring yield).
        assert after.total_area <= 1.2 * before.total_area

    def test_optimized_design_verified_by_monte_carlo(self, designed, variation_combined):
        sizer, balanced, target = designed
        optimizer = GlobalPipelineOptimizer(sizer, curve_points=3)
        result = optimizer.optimize(balanced.pipeline, target, 0.80)
        after = snapshot_pipeline(sizer, result.pipeline, target)
        engine = MonteCarloEngine(variation_combined, n_samples=3000, seed=11)
        mc = engine.run_pipeline(result.pipeline)
        assert mc.yield_at(target) == pytest.approx(after.pipeline_yield, abs=0.08)
