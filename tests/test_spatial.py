"""Tests for repro.process.spatial."""

import numpy as np
import pytest

from repro.process.spatial import SpatialCorrelationModel


class TestConstruction:
    def test_n_cells(self):
        model = SpatialCorrelationModel(grid_size=4)
        assert model.n_cells == 16

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            SpatialCorrelationModel(grid_size=0)

    def test_rejects_bad_correlation_length(self):
        with pytest.raises(ValueError):
            SpatialCorrelationModel(correlation_length=0.0)


class TestCorrelationMatrix:
    def test_unit_diagonal(self):
        model = SpatialCorrelationModel(grid_size=5, correlation_length=0.3)
        corr = model.correlation_matrix()
        assert np.allclose(np.diag(corr), 1.0)

    def test_symmetric_and_bounded(self):
        model = SpatialCorrelationModel(grid_size=5, correlation_length=0.3)
        corr = model.correlation_matrix()
        assert np.allclose(corr, corr.T)
        assert np.all(corr > 0.0) and np.all(corr <= 1.0 + 1e-12)

    def test_correlation_decays_with_distance(self):
        model = SpatialCorrelationModel(grid_size=8, correlation_length=0.3)
        near = model.correlation_between((0.1, 0.1), (0.2, 0.1))
        far = model.correlation_between((0.1, 0.1), (0.9, 0.9))
        assert near > far

    def test_same_cell_is_perfectly_correlated(self):
        model = SpatialCorrelationModel(grid_size=4)
        assert model.correlation_between((0.1, 0.1), (0.12, 0.13)) == pytest.approx(1.0)


class TestSampling:
    def test_sample_shapes(self, rng):
        model = SpatialCorrelationModel(grid_size=4)
        cells = model.sample_cells(100, rng)
        assert cells.shape == (100, 16)
        x = np.linspace(0, 1, 10)
        field = model.sample_at(x, x, 50, rng)
        assert field.shape == (50, 10)

    def test_marginals_are_standard_normal(self, rng):
        model = SpatialCorrelationModel(grid_size=4, correlation_length=0.4)
        cells = model.sample_cells(20000, rng)
        assert abs(cells.mean()) < 0.03
        assert abs(cells.std() - 1.0) < 0.03

    def test_empirical_correlation_matches_model(self, rng):
        model = SpatialCorrelationModel(grid_size=4, correlation_length=0.5)
        points_x = np.array([0.1, 0.9])
        points_y = np.array([0.1, 0.9])
        field = model.sample_at(points_x, points_y, 40000, rng)
        empirical = np.corrcoef(field.T)[0, 1]
        expected = model.correlation_between((0.1, 0.1), (0.9, 0.9))
        assert empirical == pytest.approx(expected, abs=0.03)

    def test_nearby_points_more_correlated_than_distant(self, rng):
        model = SpatialCorrelationModel(grid_size=8, correlation_length=0.3)
        x = np.array([0.05, 0.15, 0.95])
        y = np.array([0.05, 0.05, 0.95])
        field = model.sample_at(x, y, 20000, rng)
        corr = np.corrcoef(field.T)
        assert corr[0, 1] > corr[0, 2]

    def test_rejects_mismatched_coordinates(self, rng):
        model = SpatialCorrelationModel(grid_size=4)
        with pytest.raises(ValueError):
            model.sample_at(np.zeros(3), np.zeros(4), 10, rng)

    def test_rejects_zero_samples(self, rng):
        model = SpatialCorrelationModel(grid_size=4)
        with pytest.raises(ValueError):
            model.sample_cells(0, rng)

    def test_coordinates_outside_die_are_clipped(self, rng):
        model = SpatialCorrelationModel(grid_size=4)
        index = model.cell_index(1.5, -0.2)
        assert 0 <= int(index) < model.n_cells


class TestSharedFactor:
    def test_models_share_one_read_only_factor(self):
        first = SpatialCorrelationModel(grid_size=8, correlation_length=0.5)
        second = SpatialCorrelationModel(grid_size=8, correlation_length=0.5)
        other = SpatialCorrelationModel(grid_size=8, correlation_length=0.3)
        assert first._cholesky is second._cholesky
        assert other._cholesky is not first._cholesky
        assert not first._cholesky.flags.writeable

    def test_sample_cells_bit_identical_to_fresh_factor(self):
        model = SpatialCorrelationModel(grid_size=6, correlation_length=0.4)
        corr = model.correlation_matrix()
        factor = np.linalg.cholesky(corr + 1e-10 * np.eye(corr.shape[0]))
        white = np.random.default_rng(11).standard_normal((64, model.n_cells))
        cells = model.sample_cells(64, np.random.default_rng(11))
        assert np.array_equal(cells, white @ factor.T)
