"""Tests for repro.process.sampling."""

import numpy as np
import pytest

from repro.process.sampling import ParameterSampler
from repro.process.spatial import SpatialCorrelationModel
from repro.process.technology import default_technology
from repro.process.variation import VariationModel


@pytest.fixture
def sampler_inputs():
    n_devices = 20
    sizes = np.ones(n_devices)
    x = np.linspace(0.05, 0.95, n_devices)
    y = np.full(n_devices, 0.5)
    return sizes, x, y


class TestSampling:
    def test_shapes(self, technology, rng, sampler_inputs):
        sizes, x, y = sampler_inputs
        sampler = ParameterSampler(technology, VariationModel.combined())
        samples = sampler.sample(sizes, x, y, 200, rng)
        assert samples.vth.shape == (200, 20)
        assert samples.length.shape == (200, 20)
        assert samples.inter_die_vth_shift.shape == (200,)
        assert samples.n_samples == 200
        assert samples.n_devices == 20

    def test_mean_vth_near_nominal(self, technology, rng, sampler_inputs):
        sizes, x, y = sampler_inputs
        sampler = ParameterSampler(technology, VariationModel.combined())
        samples = sampler.sample(sizes, x, y, 4000, rng)
        assert samples.vth.mean() == pytest.approx(technology.vth0, abs=0.003)

    def test_inter_only_gives_identical_devices(self, technology, rng, sampler_inputs):
        sizes, x, y = sampler_inputs
        sampler = ParameterSampler(technology, VariationModel.inter_only(0.03))
        samples = sampler.sample(sizes, x, y, 100, rng)
        # Every device on a die sees the same Vth in the inter-only model.
        spread_within_die = samples.vth.std(axis=1)
        assert np.all(spread_within_die < 1e-12)

    def test_intra_random_only_gives_independent_devices(
        self, technology, rng, sampler_inputs
    ):
        sizes, x, y = sampler_inputs
        sampler = ParameterSampler(technology, VariationModel.intra_random_only(0.03))
        samples = sampler.sample(sizes, x, y, 20000, rng)
        corr = np.corrcoef(samples.vth[:, 0], samples.vth[:, 1])[0, 1]
        assert abs(corr) < 0.03

    def test_random_sigma_scales_with_size(self, technology, rng):
        variation = VariationModel.intra_random_only(0.04)
        sampler = ParameterSampler(technology, variation)
        sizes = np.array([1.0, 4.0])
        x = np.array([0.3, 0.7])
        y = np.array([0.5, 0.5])
        samples = sampler.sample(sizes, x, y, 30000, rng)
        sigma_small = samples.vth[:, 0].std()
        sigma_large = samples.vth[:, 1].std()
        assert sigma_small / sigma_large == pytest.approx(2.0, rel=0.1)

    def test_systematic_component_is_spatially_correlated(self, technology, rng):
        variation = VariationModel(
            sigma_vth_inter=0.0,
            sigma_vth_random=0.0,
            sigma_vth_systematic=0.03,
            sigma_l_inter=0.0,
            sigma_l_systematic=0.0,
            correlation_length=0.4,
        )
        sampler = ParameterSampler(technology, variation)
        sizes = np.ones(3)
        x = np.array([0.05, 0.1, 0.95])
        y = np.array([0.05, 0.05, 0.95])
        samples = sampler.sample(sizes, x, y, 20000, rng)
        corr = np.corrcoef(samples.vth.T)
        assert corr[0, 1] > corr[0, 2]

    def test_vth_stays_physical(self, technology, rng, sampler_inputs):
        sizes, x, y = sampler_inputs
        variation = VariationModel(sigma_vth_inter=0.2, sigma_vth_random=0.2)
        sampler = ParameterSampler(technology, variation)
        samples = sampler.sample(sizes, x, y, 2000, rng)
        assert np.all(samples.vth < technology.vdd)
        assert np.all(samples.vth >= 0.0)
        assert np.all(samples.length > 0.0)

    def test_rejects_bad_inputs(self, technology, rng, sampler_inputs):
        sizes, x, y = sampler_inputs
        sampler = ParameterSampler(technology, VariationModel.combined())
        with pytest.raises(ValueError):
            sampler.sample(-sizes, x, y, 10, rng)
        with pytest.raises(ValueError):
            sampler.sample(sizes, x[:-1], y, 10, rng)
        with pytest.raises(ValueError):
            sampler.sample(sizes, x, y, 0, rng)

    @pytest.mark.parametrize("column", ["sizes", "x", "y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_devices(self, technology, rng, sampler_inputs, column, bad):
        inputs = dict(zip(["sizes", "x", "y"], (a.copy() for a in sampler_inputs)))
        inputs[column][3] = bad
        sampler = ParameterSampler(technology, VariationModel.combined())
        with pytest.raises(ValueError):
            sampler.sample(inputs["sizes"], inputs["x"], inputs["y"], 10, rng)

    def test_coordinates_off_the_die_are_legal(self, technology, rng, sampler_inputs):
        sizes, _, _ = sampler_inputs
        sampler = ParameterSampler(technology, VariationModel.combined())
        x = np.linspace(-0.5, 1.5, sizes.shape[0])
        samples = sampler.sample(sizes, x, -x, 10, rng)
        assert np.isfinite(samples.vth).all() and np.isfinite(samples.length).all()


VARIATIONS = {
    "combined": VariationModel.combined(),
    "inter_only": VariationModel.inter_only(),
    "intra_random_only": VariationModel.intra_random_only(),
    "systematic_only": VariationModel(
        sigma_vth_inter=0.0, sigma_vth_random=0.0, sigma_vth_systematic=0.03,
        sigma_l_inter=0.0, sigma_l_systematic=0.02,
    ),
}


class TestOutBuffers:
    @pytest.mark.parametrize("variation", sorted(VARIATIONS))
    def test_out_gives_the_same_samples(self, technology, sampler_inputs, variation):
        sizes, x, y = sampler_inputs
        sampler = ParameterSampler(technology, VARIATIONS[variation])
        fresh = sampler.sample(sizes, x, y, 9, np.random.default_rng(5))
        buffers = np.full((2, 12, sizes.shape[0]), np.nan)
        into = sampler.sample(sizes, x, y, 9, np.random.default_rng(5), out=buffers[:, :9])
        for name in ("vth", "length", "inter_die_vth_shift"):
            assert getattr(into, name).tobytes() == getattr(fresh, name).tobytes(), name
        # The samples alias the buffers; rows past the chunk stay untouched.
        assert np.shares_memory(into.vth, buffers[0]) and np.shares_memory(into.length, buffers[1])
        assert np.isnan(buffers[:, 9:]).all()

    def test_out_shape_checked(self, technology, rng, sampler_inputs):
        sizes, x, y = sampler_inputs
        sampler = ParameterSampler(technology, VariationModel.combined())
        with pytest.raises(ValueError):
            sampler.sample(sizes, x, y, 9, rng, out=np.empty((2, 8, sizes.shape[0])))

    def test_samples_are_c_ordered(self, technology, rng, sampler_inputs):
        sizes, x, y = sampler_inputs
        samples = ParameterSampler(technology, VariationModel.combined()).sample(
            sizes, x, y, 9, rng
        )
        assert samples.vth.flags.c_contiguous and samples.length.flags.c_contiguous

    def test_sample_at_is_c_ordered(self, rng):
        model = SpatialCorrelationModel(grid_size=8)
        x = np.linspace(0.0, 1.0, 50)
        field = model.sample_at(x, x[::-1], 16, rng)
        assert field.shape == (16, 50)
        assert field.flags.c_contiguous

    def test_sample_at_rejects_non_finite_points(self, rng):
        # The C-order read does not bounds-check cell indices, so a NaN
        # coordinate must not reach it.
        model = SpatialCorrelationModel(grid_size=8)
        with pytest.raises(ValueError):
            model.sample_at(np.array([0.5, np.nan]), np.array([0.5, 0.5]), 4, rng)
