"""Tests for repro.optimize.global_opt (the Fig. 9 algorithm).

Areas and yields before and after a run are snapshots of the input and the
designed pipeline, taken the way the Design API takes them.
"""

import numpy as np
import pytest

from repro.api.design import snapshot_pipeline
from repro.optimize.balance import design_balanced_pipeline
from repro.optimize.global_opt import GlobalPipelineOptimizer
from repro.optimize.lagrangian import LagrangianSizer
from repro.pipeline.builder import alu_decoder_pipeline


@pytest.fixture(scope="module")
def setup(technology, variation_combined):
    """A small balanced pipeline that misses its pipeline yield target."""
    pipeline = alu_decoder_pipeline(width=4, n_address=3)
    sizer = LagrangianSizer(technology, variation_combined)
    stage_yield = 0.80 ** (1.0 / 3.0)
    worst = max(
        sizer.stage_distribution(stage).delay_at_yield(stage_yield)
        for stage in pipeline.stages
    )
    target_delay = 0.90 * worst
    balanced = design_balanced_pipeline(pipeline, sizer, target_delay, 0.80)
    return pipeline, sizer, balanced, target_delay


def before_after(sizer, balanced, result, target_delay):
    """Snapshots of the starting and the designed pipeline."""
    return (
        snapshot_pipeline(sizer, balanced.pipeline, target_delay),
        snapshot_pipeline(sizer, result.pipeline, target_delay),
    )


class TestGlobalOptimizer:
    def test_result_bookkeeping(self, setup):
        _, sizer, balanced, target_delay = setup
        optimizer = GlobalPipelineOptimizer(sizer, curve_points=3)
        result = optimizer.optimize(balanced.pipeline, target_delay, 0.80)
        names = set(balanced.pipeline.stage_names)
        assert set(result.stage_order) == names
        assert set(result.sensitivity_ratios) == names
        assert set(result.sizing_results) == names
        # The designed pipeline carries the sizes each sizing run reports.
        before, after = before_after(sizer, balanced, result, target_delay)
        assert before.total_area == pytest.approx(balanced.total_area, rel=1e-6)
        for name, logic_area in zip(after.stage_names, after.stage_logic_areas):
            assert result.sizing_results[name].area == pytest.approx(
                logic_area, rel=1e-6
            )

    def test_meets_or_approaches_yield_target(self, setup):
        _, sizer, balanced, target_delay = setup
        optimizer = GlobalPipelineOptimizer(sizer, curve_points=3)
        result = optimizer.optimize(balanced.pipeline, target_delay, 0.80)
        before, after = before_after(sizer, balanced, result, target_delay)
        assert after.pipeline_yield >= min(0.78, before.pipeline_yield)

    def test_input_pipeline_not_mutated(self, setup):
        _, sizer, balanced, target_delay = setup
        sizes_before = [stage.netlist.sizes() for stage in balanced.pipeline.stages]
        optimizer = GlobalPipelineOptimizer(sizer, curve_points=3)
        optimizer.optimize(balanced.pipeline, target_delay, 0.80)
        for stage, sizes in zip(balanced.pipeline.stages, sizes_before):
            assert np.allclose(stage.netlist.sizes(), sizes)

    def test_area_recovery_when_target_is_loose(self, setup):
        """With a generous yield target the optimizer should recover area."""
        _, sizer, balanced, target_delay = setup
        optimizer = GlobalPipelineOptimizer(sizer, curve_points=3)
        result = optimizer.optimize(balanced.pipeline, target_delay, 0.60)
        before, after = before_after(sizer, balanced, result, target_delay)
        assert after.total_area <= before.total_area * 1.02
        assert after.pipeline_yield >= 0.60 - 0.02

    def test_ordering_ablation_runs(self, setup):
        _, sizer, balanced, target_delay = setup
        for ordering in ("ri_ascending", "ri_descending", "pipeline"):
            optimizer = GlobalPipelineOptimizer(sizer, curve_points=3, ordering=ordering)
            result = optimizer.optimize(balanced.pipeline, target_delay, 0.80)
            _, after = before_after(sizer, balanced, result, target_delay)
            assert after.pipeline_yield > 0.0

    def test_snapshot_consistency(self, setup):
        _, sizer, balanced, target_delay = setup
        snapshot = snapshot_pipeline(sizer, balanced.pipeline, target_delay)
        stage_yields = np.asarray(snapshot.stage_yields)
        assert snapshot.stage_names == tuple(balanced.pipeline.stage_names)
        assert snapshot.total_area == pytest.approx(balanced.total_area, rel=1e-6)
        assert np.all((stage_yields >= 0.0) & (stage_yields <= 1.0))
        assert 0.0 <= snapshot.pipeline_yield <= 1.0
        # The pipeline can never yield better than its best stage.
        assert snapshot.pipeline_yield <= stage_yields.max() + 1e-9

    def test_validation(self, setup):
        _, sizer, balanced, target_delay = setup
        optimizer = GlobalPipelineOptimizer(sizer)
        with pytest.raises(ValueError):
            optimizer.optimize(balanced.pipeline, -1.0, 0.8)
        with pytest.raises(ValueError):
            optimizer.optimize(balanced.pipeline, target_delay, 1.2)
        with pytest.raises(ValueError):
            GlobalPipelineOptimizer(sizer, rounds=0)
        with pytest.raises(ValueError):
            GlobalPipelineOptimizer(sizer, ordering="sideways")
        with pytest.raises(ValueError):
            GlobalPipelineOptimizer(sizer, max_stage_yield=0.4)
