"""Tests for repro.core.stage_delay."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import norm

import repro
from repro.core.stage_delay import (
    StageDelayDistribution,
    gaussian_pdf,
    gaussian_quantile,
    gaussian_yield,
    standard_normal_pdf,
)


class TestConstruction:
    def test_from_samples(self, rng):
        samples = rng.normal(200e-12, 10e-12, size=20000)
        dist = StageDelayDistribution.from_samples(samples, name="s0")
        assert dist.mean == pytest.approx(200e-12, rel=0.01)
        assert dist.std == pytest.approx(10e-12, rel=0.05)
        assert dist.name == "s0"

    def test_from_samples_requires_enough_data(self):
        with pytest.raises(ValueError):
            StageDelayDistribution.from_samples(np.array([1.0]))

    def test_from_canonical(self):
        class FakeForm:
            mean = 150e-12
            sigma = 7e-12

        dist = StageDelayDistribution.from_canonical(FakeForm(), name="x")
        assert dist.mean == pytest.approx(150e-12)
        assert dist.std == pytest.approx(7e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            StageDelayDistribution(-1.0, 1.0)
        with pytest.raises(ValueError):
            StageDelayDistribution(1.0, -1.0)


class TestQueries:
    def test_variability(self):
        dist = StageDelayDistribution(200e-12, 10e-12)
        assert dist.variability == pytest.approx(0.05)
        assert StageDelayDistribution(0.0, 0.0).variability == 0.0

    def test_yield_at_mean_is_half(self):
        dist = StageDelayDistribution(200e-12, 10e-12)
        assert dist.yield_at(200e-12) == pytest.approx(0.5)

    def test_yield_monotonic_in_target(self):
        dist = StageDelayDistribution(200e-12, 10e-12)
        targets = np.linspace(150e-12, 250e-12, 11)
        yields = [dist.yield_at(t) for t in targets]
        assert yields == sorted(yields)

    def test_deterministic_stage_yield_is_step(self):
        dist = StageDelayDistribution(200e-12, 0.0)
        assert dist.yield_at(199e-12) == 0.0
        assert dist.yield_at(201e-12) == 1.0

    def test_delay_at_yield_inverts_yield_at(self):
        dist = StageDelayDistribution(200e-12, 10e-12)
        delay = dist.delay_at_yield(0.9)
        assert dist.yield_at(delay) == pytest.approx(0.9)

    def test_delay_at_yield_validation(self):
        dist = StageDelayDistribution(200e-12, 10e-12)
        with pytest.raises(ValueError):
            dist.delay_at_yield(0.0)
        with pytest.raises(ValueError):
            dist.delay_at_yield(1.0)

    def test_pdf_integrates_to_one(self):
        dist = StageDelayDistribution(200e-12, 10e-12)
        grid = np.linspace(100e-12, 300e-12, 4001)
        total = np.trapezoid(dist.pdf(grid), grid)
        assert total == pytest.approx(1.0, rel=1e-6)

    def test_pdf_requires_positive_sigma(self):
        with pytest.raises(ValueError):
            StageDelayDistribution(1.0, 0.0).pdf(1.0)

    def test_scaled_preserves_variability_by_default(self):
        dist = StageDelayDistribution(200e-12, 10e-12)
        scaled = dist.scaled(0.8)
        assert scaled.variability == pytest.approx(dist.variability)

    def test_scaled_with_explicit_std_factor(self):
        dist = StageDelayDistribution(200e-12, 10e-12)
        scaled = dist.scaled(1.0, std_factor=2.0)
        assert scaled.mean == pytest.approx(dist.mean)
        assert scaled.std == pytest.approx(2.0 * dist.std)


class TestGaussianContract:
    """The one N(mu, sigma) yield/quantile/density the package uses."""

    @pytest.fixture(scope="class")
    def draws(self):
        rng = np.random.default_rng(2005)
        means = rng.uniform(20e-12, 400e-12, 400)
        stds = rng.uniform(1e-14, 40e-12, 400)
        points = means + stds * rng.normal(0.0, 3.0, 400)
        probabilities = rng.uniform(1e-9, 1.0 - 1e-9, 400)
        return means, stds, points, probabilities

    def test_yield_is_norm_cdf_bit_for_bit(self, draws):
        means, stds, points, _ = draws
        for mean, std, point in zip(means, stds, points):
            expected = float(norm.cdf(point, loc=mean, scale=std))
            assert gaussian_yield(point, mean, std) == expected

    def test_quantile_is_norm_ppf_bit_for_bit(self, draws):
        means, stds, _, probabilities = draws
        for mean, std, probability in zip(means, stds, probabilities):
            expected = float(norm.ppf(probability, loc=mean, scale=std))
            assert gaussian_quantile(probability, mean, std) == expected

    def test_density_is_norm_pdf_bit_for_bit(self, draws):
        means, stds, points, _ = draws
        for mean, std, point in zip(means, stds, points):
            assert gaussian_pdf(point, mean, std) == norm.pdf(point, loc=mean, scale=std)
            assert gaussian_pdf(float(point), float(mean), float(std)) == norm.pdf(
                float(point), loc=float(mean), scale=float(std)
            )
        grid = np.linspace(points.min(), points.max(), 257)
        np.testing.assert_array_equal(
            gaussian_pdf(grid, means[0], stds[0]),
            norm.pdf(grid, loc=means[0], scale=stds[0]),
        )
        z = np.linspace(-40.0, 40.0, 1001)
        np.testing.assert_array_equal(standard_normal_pdf(z), norm.pdf(z))

    def test_zero_sigma_is_a_step_at_the_mean(self):
        mean = 200e-12
        assert gaussian_yield(mean, mean, 0.0) == 1.0
        assert gaussian_yield(mean - 1e-15, mean, 0.0) == 0.0
        assert gaussian_yield(mean + 1e-15, mean, 0.0) == 1.0
        assert StageDelayDistribution(mean, 0.0).yield_at(mean) == 1.0
        assert gaussian_quantile(0.9, mean, 0.0) == mean

    def test_importing_repro_does_not_load_scipy_stats(self):
        """``scipy.stats`` costs ~0.5 s and ~45 MB per process at import."""
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        code = (
            "import sys, repro, repro.serve\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('scipy.stats'))\n"
            "assert not loaded, loaded\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
