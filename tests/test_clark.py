"""Tests for repro.core.clark (Clark's max approximation, paper eqs. 4-6)."""

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import norm

from repro.core.clark import (
    _DEGENERATE_RATIO,
    clark_max,
    correlation_with_max,
    max_of_gaussians,
    max_of_two_gaussians,
)
from repro.core.stage_delay import standard_normal_pdf


class TestMaxOfTwo:
    def test_iid_standard_normals_known_moments(self):
        """E[max(X,Y)] = 1/sqrt(pi), Var = 1 - 1/pi for iid N(0,1)."""
        result = max_of_two_gaussians(0.0, 1.0, 0.0, 1.0, 0.0)
        assert result.mean == pytest.approx(1.0 / np.sqrt(np.pi), rel=1e-9)
        assert result.variance == pytest.approx(1.0 - 1.0 / np.pi, rel=1e-9)

    def test_perfectly_correlated_equal_sigmas(self):
        result = max_of_two_gaussians(1.0, 0.5, 2.0, 0.5, 1.0)
        assert result.mean == pytest.approx(2.0)
        assert result.std == pytest.approx(0.5)

    def test_dominant_variable_wins(self):
        result = max_of_two_gaussians(0.0, 1.0, 100.0, 1.0, 0.0)
        assert result.mean == pytest.approx(100.0, rel=1e-9)
        assert result.std == pytest.approx(1.0, rel=1e-6)

    def test_symmetry(self):
        a = max_of_two_gaussians(1.0, 0.3, 2.0, 0.8, 0.4)
        b = max_of_two_gaussians(2.0, 0.8, 1.0, 0.3, 0.4)
        assert a.mean == pytest.approx(b.mean)
        assert a.std == pytest.approx(b.std)

    def test_mean_of_max_exceeds_both_means(self):
        result = max_of_two_gaussians(1.0, 0.5, 1.2, 0.7, 0.2)
        assert result.mean >= 1.2

    def test_correlation_reduces_mean_of_max(self):
        independent = max_of_two_gaussians(1.0, 0.5, 1.0, 0.5, 0.0)
        correlated = max_of_two_gaussians(1.0, 0.5, 1.0, 0.5, 0.8)
        assert correlated.mean < independent.mean

    def test_deterministic_inputs(self):
        result = max_of_two_gaussians(3.0, 0.0, 5.0, 0.0, 0.0)
        assert result.mean == pytest.approx(5.0)
        assert result.std == pytest.approx(0.0)

    def test_scale_invariance_in_time_units(self):
        """Moments scale linearly with the unit (seconds vs picoseconds)."""
        in_seconds = max_of_two_gaussians(200e-12, 10e-12, 210e-12, 12e-12, 0.3)
        in_picoseconds = max_of_two_gaussians(200.0, 10.0, 210.0, 12.0, 0.3)
        assert in_seconds.mean * 1e12 == pytest.approx(in_picoseconds.mean, rel=1e-9)
        assert in_seconds.std * 1e12 == pytest.approx(in_picoseconds.std, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            max_of_two_gaussians(0.0, -1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            max_of_two_gaussians(0.0, 1.0, 0.0, 1.0, correlation=1.5)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(1)
        cov = np.array([[1.0, 0.3 * 1.0 * 2.0], [0.3 * 1.0 * 2.0, 4.0]])
        samples = rng.multivariate_normal([1.0, 0.5], cov, size=400000).max(axis=1)
        result = max_of_two_gaussians(1.0, 1.0, 0.5, 2.0, 0.3)
        assert result.mean == pytest.approx(samples.mean(), rel=0.01)
        assert result.std == pytest.approx(samples.std(), rel=0.02)


class TestCorrelationWithMax:
    def test_symmetric_case(self):
        """Y correlated identically with X1, X2 keeps that correlation with the max."""
        rho = correlation_with_max(
            0.0, 1.0, 0.0, 1.0, 0.0, std_other=1.0,
            correlation_other_1=0.5, correlation_other_2=0.5,
        )
        # Cov(Y, max) = 0.5*Phi(0) + 0.5*Phi(0) = 0.5; sigma_max = sqrt(1-1/pi)
        expected = 0.5 / np.sqrt(1.0 - 1.0 / np.pi)
        assert rho == pytest.approx(expected, rel=1e-9)

    def test_uncorrelated_third_variable(self):
        rho = correlation_with_max(
            0.0, 1.0, 0.0, 1.0, 0.0, std_other=1.0,
            correlation_other_1=0.0, correlation_other_2=0.0,
        )
        assert rho == pytest.approx(0.0)

    def test_dominant_branch_determines_correlation(self):
        rho = correlation_with_max(
            100.0, 1.0, 0.0, 1.0, 0.0, std_other=1.0,
            correlation_other_1=0.9, correlation_other_2=0.0,
        )
        assert rho == pytest.approx(0.9, rel=1e-6)

    def test_result_clipped_to_valid_range(self):
        rho = correlation_with_max(
            0.0, 1.0, 0.0, 1.0, 0.99, std_other=1.0,
            correlation_other_1=1.0, correlation_other_2=1.0,
        )
        assert -1.0 <= rho <= 1.0

    def test_zero_sigma_other_gives_zero(self):
        rho = correlation_with_max(
            0.0, 1.0, 0.0, 1.0, 0.0, std_other=0.0,
            correlation_other_1=0.5, correlation_other_2=0.5,
        )
        assert rho == 0.0


class TestMaxOfGaussians:
    def test_single_variable_identity(self):
        result = max_of_gaussians(np.array([2.0]), np.array([0.3]))
        assert result.mean == pytest.approx(2.0)
        assert result.std == pytest.approx(0.3)

    def test_iid_max_against_monte_carlo(self):
        rng = np.random.default_rng(2)
        n = 8
        samples = rng.standard_normal((400000, n)).max(axis=1)
        result = max_of_gaussians(np.zeros(n), np.ones(n))
        assert result.mean == pytest.approx(samples.mean(), rel=0.01)
        # Clark's repeated pairwise reduction is known to underestimate the
        # sigma of an iid max slightly; allow that bias.
        assert result.std == pytest.approx(samples.std(), rel=0.08)

    def test_correlated_max_against_monte_carlo(self):
        rng = np.random.default_rng(3)
        n = 6
        rho = 0.5
        cov = np.full((n, n), rho)
        np.fill_diagonal(cov, 1.0)
        samples = rng.multivariate_normal(np.zeros(n), cov, size=300000).max(axis=1)
        result = max_of_gaussians(np.zeros(n), np.ones(n), cov)
        assert result.mean == pytest.approx(samples.mean(), rel=0.01)
        assert result.std == pytest.approx(samples.std(), rel=0.05)

    def test_perfectly_correlated_stages(self):
        n = 5
        corr = np.ones((n, n))
        means = np.array([1.0, 2.0, 3.0, 2.5, 1.5])
        stds = np.full(n, 0.4)
        result = max_of_gaussians(means, stds, corr)
        assert result.mean == pytest.approx(3.0)
        assert result.std == pytest.approx(0.4)

    def test_mean_respects_jensen_lower_bound(self):
        rng = np.random.default_rng(4)
        means = rng.uniform(1.0, 2.0, size=7)
        stds = rng.uniform(0.1, 0.4, size=7)
        result = max_of_gaussians(means, stds)
        assert result.mean >= means.max() - 1e-12

    def test_more_variables_larger_mean(self):
        base = max_of_gaussians(np.zeros(3), np.ones(3))
        more = max_of_gaussians(np.zeros(6), np.ones(6))
        assert more.mean > base.mean

    def test_orderings_give_similar_results(self):
        rng = np.random.default_rng(5)
        means = rng.uniform(0.9, 1.1, size=6)
        stds = rng.uniform(0.05, 0.15, size=6)
        increasing = max_of_gaussians(means, stds, ordering="increasing")
        decreasing = max_of_gaussians(means, stds, ordering="decreasing")
        given = max_of_gaussians(means, stds, ordering="given")
        assert increasing.mean == pytest.approx(decreasing.mean, rel=0.02)
        assert increasing.mean == pytest.approx(given.mean, rel=0.02)

    def test_all_orderings_stay_close_to_truth(self):
        """All orderings approximate the true moments; the ordering ablation
        benchmark quantifies which one is best for which statistics."""
        rng = np.random.default_rng(6)
        means = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        stds = np.array([1.5, 1.2, 1.0, 0.8, 0.5])
        samples = (
            rng.standard_normal((500000, 5)) * stds[None, :] + means[None, :]
        ).max(axis=1)
        for ordering in ("increasing", "decreasing", "given"):
            result = max_of_gaussians(means, stds, ordering=ordering)
            assert result.mean == pytest.approx(samples.mean(), rel=0.02)
            assert result.std == pytest.approx(samples.std(), rel=0.10)

    def test_validation(self):
        with pytest.raises(ValueError):
            max_of_gaussians(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            max_of_gaussians(np.zeros(2), np.ones(3))
        with pytest.raises(ValueError):
            max_of_gaussians(np.zeros(2), np.ones(2), np.ones((3, 3)))
        with pytest.raises(ValueError):
            max_of_gaussians(np.zeros(2), np.ones(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError):
            max_of_gaussians(np.zeros(2), np.ones(2), ordering="random")

    def test_asymmetric_correlation_matrix_rejected(self):
        corr = np.array([[1.0, 0.2], [0.5, 1.0]])
        with pytest.raises(ValueError):
            max_of_gaussians(np.zeros(2), np.ones(2), corr)


def clark_max_where(mean_a, var_a, mean_b, var_b, cov_ab):
    """``clark_max`` before its one-pair branch: every pair through ``np.where``."""
    total = var_a + var_b
    theta_sq = total - 2.0 * cov_ab
    degenerate = theta_sq <= _DEGENERATE_RATIO * total
    theta = np.sqrt(np.where(degenerate, 1.0, theta_sq))
    alpha = (mean_a - mean_b) / theta
    prob_a = ndtr(alpha)
    prob_b = 1.0 - prob_a
    phi = standard_normal_pdf(alpha)
    mean = mean_a * prob_a + mean_b * prob_b + theta * phi
    second_moment = (
        (mean_a**2 + var_a) * prob_a
        + (mean_b**2 + var_b) * prob_b
        + (mean_a + mean_b) * theta * phi
    )
    var = np.maximum(second_moment - mean**2, 0.0)
    a_wins = mean_a >= mean_b
    mean = np.where(degenerate, np.where(a_wins, mean_a, mean_b), mean)
    var = np.where(degenerate, np.where(a_wins, var_a, var_b), var)
    prob_a = np.where(degenerate, a_wins, prob_a)
    return mean, var, prob_a


def pow_differs_means(count: int) -> list[float]:
    """Delay-sized means whose scalar ``x**2`` (libm ``pow``) is not ``x*x``."""
    draws = np.random.default_rng(0).uniform(50e-12, 500e-12, 100_000).tolist()
    found = [x for x in draws if x**2 != x * x][:count]
    assert len(found) == count, "this libm squares every draw exactly"
    return found


def one_pair_cases() -> list[tuple[float, ...]]:
    """``(mean_a, var_a, mean_b, var_b, cov_ab)`` pairs, degenerate ones included."""
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(200):
        mean_a, mean_b = rng.uniform(100e-12, 300e-12, 2)
        std_a, std_b = rng.uniform(1e-12, 30e-12, 2)
        rho = rng.uniform(-1.0, 1.0)
        cases.append((mean_a, std_a**2, mean_b, std_b**2, rho * std_a * std_b))
    mean, var = 150e-12, 9e-24
    cases += [
        (mean, var, mean, var, var),  # identical forms
        (mean, var, mean + 7e-12, var, var),  # a constant shift, both ways
        (mean + 7e-12, var, mean, var, var),
        (90e-12, 0.0, 120e-12, 0.0, 0.0),  # zero variances, both ways
        (120e-12, 0.0, 90e-12, 0.0, 0.0),
        (mean, 0.0, mean, 0.0, 0.0),  # a degenerate mean tie
        (mean, var, mean, 4.0 * var, 0.5 * var),  # a mean tie that is not
    ]
    pow_means = pow_differs_means(6)
    for mean_a, mean_b in zip(pow_means[::2], pow_means[1::2]):
        cases += [
            (mean_a, var, mean_b, 2.0 * var, 0.3 * var),
            (mean_a, var, mean_a, var, var),
            (mean_a, 0.0, mean_b, 0.0, 0.0),
        ]
    return cases


ONE_PAIR_INPUTS = {
    "python-float": float,
    "numpy-scalar": np.float64,
    "0-d-array": np.array,
}


def assert_same_results(actual, expected) -> None:
    """Equal types, dtypes, shapes and bytes, result by result."""
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert type(got) is type(want)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


class TestClarkMaxOnePair:
    """The one-pair branch of ``clark_max`` against the ``np.where`` kernel."""

    @pytest.mark.parametrize("kind", ONE_PAIR_INPUTS)
    def test_matches_where_kernel_bit_for_bit(self, kind):
        convert = ONE_PAIR_INPUTS[kind]
        for case in one_pair_cases():
            args = [convert(value) for value in case]
            assert_same_results(clark_max(*args), clark_max_where(*args))

    def test_mixed_scalar_inputs_match(self):
        """``max_of_gaussians`` passes floats with a NumPy-scalar covariance."""
        for mean_a, var_a, mean_b, var_b, cov in one_pair_cases():
            args = (mean_a, var_a, mean_b, np.float64(var_b), np.float64(cov))
            assert_same_results(clark_max(*args), clark_max_where(*args))

    @pytest.mark.parametrize("kind", ONE_PAIR_INPUTS)
    def test_results_feed_a_sequential_fold_unchanged(self, kind):
        """A degenerate step returns ``mean_a`` itself, which the next squares.

        As a 0-d array it takes NumPy's square; a scalar would take libm
        ``pow``, which rounds these means differently.
        """
        convert = ONE_PAIR_INPUTS[kind]
        var = 9e-24
        for mean in pow_differs_means(8):
            first = [convert(value) for value in (mean, var, mean, var, var)]
            nxt = (convert(mean - 3e-12), convert(2.0 * var), convert(0.2 * var))
            ours = clark_max(*first)
            theirs = clark_max_where(*first)
            assert_same_results(ours, theirs)
            assert_same_results(
                clark_max(ours[0], ours[1], *nxt),
                clark_max_where(theirs[0], theirs[1], *nxt),
            )
