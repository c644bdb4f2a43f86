"""Tests for the statistical gate sizers (Lagrangian and greedy)."""

import numpy as np
import pytest

from repro.circuit.flipflop import FlipFlopTiming
from repro.circuit.generators import inverter_chain, random_logic_block
from repro.optimize.area_delay import characterize_stage
from repro.optimize.greedy import GreedySizer
from repro.optimize.lagrangian import LagrangianSizer
from repro.pipeline.stage import PipelineStage


@pytest.fixture
def stage():
    block = random_logic_block(
        "blk", n_gates=50, depth=9, n_inputs=7, n_outputs=4, seed=13
    )
    return PipelineStage("blk", block, flipflop=FlipFlopTiming())


@pytest.fixture
def greedy_sizer(technology, variation_combined):
    return GreedySizer(technology, variation_combined, max_moves=1500)


class TestLagrangianSizer:
    def test_meets_moderate_target(self, lagrangian_sizer, stage):
        base = lagrangian_sizer.stage_distribution(stage)
        target = 0.85 * base.delay_at_yield(0.93)
        result = lagrangian_sizer.size_stage(stage, target, 0.93, apply=False)
        assert result.met_target
        assert result.achieved_yield >= 0.93 - 1e-6
        assert result.stage_delay.delay_at_yield(0.93) <= target * 1.001

    def test_tighter_target_needs_more_area(self, lagrangian_sizer, stage):
        base = lagrangian_sizer.stage_distribution(stage)
        reference = base.delay_at_yield(0.93)
        relaxed = lagrangian_sizer.size_stage(stage, 0.95 * reference, 0.93, apply=False)
        tight = lagrangian_sizer.size_stage(stage, 0.75 * reference, 0.93, apply=False)
        assert tight.area > relaxed.area

    def test_loose_target_stays_near_minimum_area(self, lagrangian_sizer, stage):
        min_area = stage.netlist.total_area(np.ones(stage.n_gates))
        base = lagrangian_sizer.stage_distribution(stage)
        result = lagrangian_sizer.size_stage(
            stage, 1.3 * base.delay_at_yield(0.93), 0.93, apply=False
        )
        assert result.met_target
        assert result.area <= 1.15 * min_area

    def test_apply_writes_sizes(self, lagrangian_sizer, stage):
        base = lagrangian_sizer.stage_distribution(stage)
        target = 0.85 * base.delay_at_yield(0.93)
        result = lagrangian_sizer.size_stage(stage, target, 0.93, apply=True)
        assert np.allclose(stage.netlist.sizes(), result.sizes)

    def test_apply_false_leaves_netlist_unchanged(self, lagrangian_sizer, stage):
        before = stage.netlist.sizes()
        base = lagrangian_sizer.stage_distribution(stage)
        lagrangian_sizer.size_stage(stage, 0.85 * base.delay_at_yield(0.93), 0.93, apply=False)
        assert np.allclose(stage.netlist.sizes(), before)

    def test_sizes_respect_bounds(self, technology, variation_combined, stage):
        sizer = LagrangianSizer(technology, variation_combined, min_size=1.0, max_size=4.0)
        base = sizer.stage_distribution(stage)
        result = sizer.size_stage(stage, 0.7 * base.delay_at_yield(0.9), 0.9, apply=False)
        assert np.all(result.sizes >= 1.0 - 1e-12)
        assert np.all(result.sizes <= 4.0 + 1e-12)

    def test_impossible_target_reports_not_met(self, lagrangian_sizer, stage):
        result = lagrangian_sizer.size_stage(stage, 5e-12, 0.93, apply=False)
        assert not result.met_target
        assert result.achieved_yield < 0.93

    def test_higher_yield_requirement_needs_more_area(self, lagrangian_sizer, stage):
        base = lagrangian_sizer.stage_distribution(stage)
        target = 0.9 * base.delay_at_yield(0.93)
        modest = lagrangian_sizer.size_stage(stage, target, 0.80, apply=False)
        strict = lagrangian_sizer.size_stage(stage, target, 0.99, apply=False)
        assert strict.area >= modest.area

    def test_validation(self, lagrangian_sizer, stage, technology, variation_combined):
        with pytest.raises(ValueError):
            lagrangian_sizer.size_stage(stage, -1.0, 0.9)
        with pytest.raises(ValueError):
            lagrangian_sizer.size_stage(stage, 1e-9, 1.5)
        with pytest.raises(ValueError):
            LagrangianSizer(technology, variation_combined, min_size=2.0, max_size=1.0)

    def test_minimum_area_delay(self, lagrangian_sizer, stage):
        """The all-minimum-size endpoint of the stage's area-delay curve."""
        stage.netlist.set_sizes(np.ones(stage.n_gates))
        curve = characterize_stage(stage, lagrangian_sizer, 0.93, n_points=1)
        endpoint = min(curve.points, key=lambda point: point.area)
        assert np.all(endpoint.sizes == lagrangian_sizer.min_size)
        assert endpoint.delay > 0.0
        assert endpoint.delay == lagrangian_sizer.stage_distribution(
            stage
        ).delay_at_yield(0.93)
        assert endpoint.area == pytest.approx(
            stage.netlist.total_area(np.ones(stage.n_gates))
        )

    def test_inverter_chain_geometric_like_sizing(self, lagrangian_sizer):
        """Sizing a loaded chain should taper sizes towards the load."""
        chain = inverter_chain(5)
        chain.default_output_load = 40e-15
        stage = PipelineStage("chain", chain)
        base = lagrangian_sizer.stage_distribution(stage)
        result = lagrangian_sizer.size_stage(stage, 0.75 * base.delay_at_yield(0.9), 0.9, apply=False)
        assert result.met_target
        # The driver closest to the big load ends up biggest.
        assert int(np.argmax(result.sizes)) == len(result.sizes) - 1


class TestGreedySizer:
    def test_meets_moderate_target(self, greedy_sizer, stage):
        form = greedy_sizer.ssta.stage_delay(
            stage.netlist, stage.flipflop, stage.register_position,
            sizes=np.ones(stage.n_gates),
        )
        from repro.core.stage_delay import StageDelayDistribution

        base = StageDelayDistribution.from_canonical(form)
        target = 0.85 * base.delay_at_yield(0.93)
        result = greedy_sizer.size_stage(stage, target, 0.93, apply=False)
        assert result.met_target
        assert result.area > stage.netlist.total_area(np.ones(stage.n_gates))

    def test_moves_bounded(self, technology, variation_combined, stage):
        sizer = GreedySizer(technology, variation_combined, max_moves=5)
        result = sizer.size_stage(stage, 1e-12, 0.9, apply=False)
        assert result.iterations <= 5
        assert not result.met_target

    def test_validation(self, greedy_sizer, stage, technology, variation_combined):
        with pytest.raises(ValueError):
            greedy_sizer.size_stage(stage, 0.0, 0.9)
        with pytest.raises(ValueError):
            GreedySizer(technology, variation_combined, size_step=1.0)

    def test_greedy_and_lagrangian_agree_on_feasibility(
        self, greedy_sizer, lagrangian_sizer, stage
    ):
        base = lagrangian_sizer.stage_distribution(stage)
        target = 0.85 * base.delay_at_yield(0.93)
        greedy = greedy_sizer.size_stage(stage, target, 0.93, apply=False)
        lagrangian = lagrangian_sizer.size_stage(stage, target, 0.93, apply=False)
        assert greedy.met_target and lagrangian.met_target
