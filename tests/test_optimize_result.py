"""Unit tests for the sizing result containers (repro.optimize.result)."""

import numpy as np
import pytest

from repro.core.stage_delay import StageDelayDistribution
from repro.optimize.result import SizingResult


def make_result(
    mean=90e-12,
    std=5e-12,
    target_delay=110e-12,
    target_yield=0.95,
    met_target=True,
    iterations=7,
    **overrides,
):
    distribution = StageDelayDistribution(mean, std, name="stage")
    fields = dict(
        sizes=np.array([1.0, 2.0, 1.5]),
        area=12.5,
        stage_delay=distribution,
        target_delay=target_delay,
        target_yield=target_yield,
        achieved_yield=distribution.yield_at(target_delay),
        met_target=met_target,
        iterations=iterations,
    )
    fields.update(overrides)
    return SizingResult(**fields)


class TestSizingResultDelayMargin:
    def test_positive_when_target_beaten(self):
        result = make_result(mean=90e-12, std=5e-12, target_delay=110e-12)
        assert result.delay_margin > 0.0

    def test_exact_value(self):
        result = make_result()
        expected = result.target_delay - result.stage_delay.delay_at_yield(
            result.target_yield
        )
        assert result.delay_margin == pytest.approx(expected, rel=0, abs=0)

    def test_negative_for_infeasible_target(self):
        result = make_result(
            mean=200e-12, std=10e-12, target_delay=50e-12, met_target=False
        )
        assert result.delay_margin < 0.0
        assert not result.met_target

    def test_zero_iteration_result(self):
        # A sizer may return before its first outer iteration (e.g. a
        # hand-constructed or degenerate-target result); the margin query
        # must still work.
        result = make_result(iterations=0)
        assert result.iterations == 0
        assert np.isfinite(result.delay_margin)

    def test_zero_sigma_distribution(self):
        # Deterministic stage: the yield-constrained delay is the mean.
        result = make_result(mean=100e-12, std=0.0, target_delay=120e-12)
        assert result.delay_margin == pytest.approx(20e-12)

    def test_margin_scales_with_yield_requirement(self):
        relaxed = make_result(target_yield=0.80)
        strict = make_result(target_yield=0.999)
        assert strict.delay_margin < relaxed.delay_margin

    def test_seconds_defaults_to_zero(self):
        assert make_result().seconds == 0.0

