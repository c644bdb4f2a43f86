"""Clark's approximation for the maximum of Gaussian random variables.

This is the mathematical core of the paper's pipeline delay model
(section 2.2, eqs. 4-6), following C. E. Clark, "The Greatest of a Finite
Set of Random Variables", Operations Research 9(2), 1961.

Given two jointly Gaussian variables ``X1 ~ N(mu1, s1)`` and
``X2 ~ N(mu2, s2)`` with correlation ``rho``, define

    a^2   = s1^2 + s2^2 - 2 s1 s2 rho
    alpha = (mu1 - mu2) / a

Then the first two moments of ``max(X1, X2)`` are

    m1 = mu1 Phi(alpha) + mu2 Phi(-alpha) + a phi(alpha)
    m2 = (mu1^2 + s1^2) Phi(alpha) + (mu2^2 + s2^2) Phi(-alpha)
         + (mu1 + mu2) a phi(alpha)

and the max is *approximated* as a Gaussian with mean ``m1`` and variance
``m2 - m1^2``.  The correlation of the approximated max with any third
jointly Gaussian variable ``Y`` follows from

    Cov(Y, max(X1, X2)) = Cov(Y, X1) Phi(alpha) + Cov(Y, X2) Phi(-alpha)

(eq. 6 in the paper).  The N-variable max is computed by repeated pairwise
application; the paper (citing Ross 2003) orders the variables by
increasing mean to minimise the approximation error, and so does
:func:`max_of_gaussians` by default.

:func:`clark_max` is the one implementation of this moment match, an array
kernel with one degeneracy test.  :func:`max_of_two_gaussians`,
:func:`correlation_with_max`, :func:`max_of_gaussians` and the
canonical-form max of :mod:`repro.timing.ssta` all call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from repro.core.stage_delay import standard_normal_pdf

# Two variables are treated as perfectly dependent (their difference is
# deterministic) when the variance of that difference is this small relative
# to the variables' own variances.  The threshold is relative so the test is
# unit-independent (delays here are of order 1e-10 s, variances 1e-21 s^2).
_DEGENERATE_RATIO = 1e-12


def _zero_d(*values):
    """``values`` as 0-d float64 arrays, the type ``np.where`` returns."""
    return tuple(np.array(value, dtype=float) for value in values)


def clark_max(mean_a, var_a, mean_b, var_b, cov_ab):
    """Clark's moments of ``max(A, B)`` for jointly Gaussian ``A`` and ``B``.

    Works elementwise on scalars or broadcastable arrays.  Returns
    ``(mean, var, prob_a)``: the moments of the approximated max and the
    tightness probability ``Pr{A > B} = Phi(alpha)`` that eq. 6 weights
    covariances with.  When ``A - B`` is (numerically) deterministic the max
    is whichever variable has the larger mean, and ``prob_a`` is 1 or 0.

    The results are always arrays, 0-d for one pair.  That keeps the next
    ``mean**2`` of a sequential fold on NumPy's square: on a NumPy scalar
    ``**`` calls libm ``pow``, which rounds differently on some inputs.
    """
    total = var_a + var_b
    theta_sq = total - 2.0 * cov_ab
    degenerate = theta_sq <= _DEGENERATE_RATIO * total
    one_pair = np.ndim(degenerate) == 0
    if one_pair:
        # One pair: choose with ``if`` instead of five ``np.where`` calls.
        if degenerate:
            if mean_a >= mean_b:
                return _zero_d(mean_a, var_a, 1.0)
            return _zero_d(mean_b, var_b, 0.0)
        theta = np.sqrt(theta_sq)
    else:
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
    if one_pair:
        return _zero_d(mean, var, prob_a)
    a_wins = mean_a >= mean_b
    mean = np.where(degenerate, np.where(a_wins, mean_a, mean_b), mean)
    var = np.where(degenerate, np.where(a_wins, var_a, var_b), var)
    prob_a = np.where(degenerate, a_wins, prob_a)
    return mean, var, prob_a


def _eq6_correlation(std1, rho1, std2, rho2, prob1, max_std):
    """Eq. 6: correlation of ``Y`` with ``max(X1, X2)`` from ``rho(Y, Xi)``.

    ``Cov(Y, max) = sigma_Y (s1 rho1 Phi + s2 rho2 Phi-)``; the ``sigma_Y``
    factor cancels against the denominator, so it is divided out
    analytically (products of very small sigmas would underflow).
    """
    rho = (std1 * rho1 * prob1 + std2 * rho2 * (1.0 - prob1)) / max_std
    return np.clip(rho, -1.0, 1.0)


@dataclass(frozen=True)
class MaxResult:
    """Moments of the (approximately Gaussian) maximum of Gaussian variables."""

    mean: float
    std: float

    @property
    def variance(self) -> float:
        """Variance of the approximated maximum."""
        return self.std**2


def max_of_two_gaussians(
    mean1: float,
    std1: float,
    mean2: float,
    std2: float,
    correlation: float = 0.0,
) -> MaxResult:
    """Clark's approximation to ``max(X1, X2)`` for two Gaussian variables.

    Parameters
    ----------
    mean1, std1:
        Mean and standard deviation of the first variable.
    mean2, std2:
        Mean and standard deviation of the second variable.
    correlation:
        Correlation coefficient between the two variables, in [-1, 1].

    Returns
    -------
    MaxResult
        Mean and standard deviation of the approximated maximum.
    """
    if std1 < 0.0 or std2 < 0.0:
        raise ValueError("standard deviations must be non-negative")
    if not -1.0 <= correlation <= 1.0:
        raise ValueError(f"correlation must be in [-1, 1], got {correlation}")
    mean, var, _ = clark_max(mean1, std1**2, mean2, std2**2, std1 * std2 * correlation)
    return MaxResult(float(mean), float(np.sqrt(var)))


def correlation_with_max(
    mean1: float,
    std1: float,
    mean2: float,
    std2: float,
    correlation12: float,
    std_other: float,
    correlation_other_1: float,
    correlation_other_2: float,
    max_std: float | None = None,
) -> float:
    """Correlation between a third Gaussian ``Y`` and ``max(X1, X2)``.

    Implements eq. 6 of the paper (Clark's covariance identity).

    Parameters
    ----------
    mean1, std1, mean2, std2, correlation12:
        Moments of the two variables inside the max.
    std_other:
        Standard deviation of ``Y``.
    correlation_other_1, correlation_other_2:
        Correlations of ``Y`` with ``X1`` and ``X2``.
    max_std:
        Standard deviation of the approximated max; recomputed if omitted.

    Returns
    -------
    float
        Correlation coefficient between ``Y`` and the approximated max,
        clipped to [-1, 1].
    """
    if max_std is None:
        max_std = max_of_two_gaussians(mean1, std1, mean2, std2, correlation12).std
    if max_std <= 0.0 or std_other <= 0.0:
        return 0.0
    _, _, prob1 = clark_max(mean1, std1**2, mean2, std2**2, std1 * std2 * correlation12)
    return float(
        _eq6_correlation(std1, correlation_other_1, std2, correlation_other_2, prob1, max_std)
    )


def _validated_inputs(
    means: np.ndarray, stds: np.ndarray, correlations: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    means = np.asarray(means, dtype=float)
    stds = np.asarray(stds, dtype=float)
    if means.ndim != 1 or stds.ndim != 1:
        raise ValueError("means and stds must be 1-D arrays")
    if means.shape != stds.shape:
        raise ValueError(
            f"means and stds must have the same length, got {means.shape} and {stds.shape}"
        )
    if means.size == 0:
        raise ValueError("need at least one variable to take a maximum")
    if np.any(stds < 0.0):
        raise ValueError("standard deviations must be non-negative")
    n = means.size
    if correlations is None:
        correlations = np.eye(n)
    else:
        correlations = np.asarray(correlations, dtype=float)
        if correlations.shape != (n, n):
            raise ValueError(
                f"correlation matrix must be {n}x{n}, got {correlations.shape}"
            )
        if not np.allclose(correlations, correlations.T, atol=1e-9):
            raise ValueError("correlation matrix must be symmetric")
        if np.any(np.abs(correlations) > 1.0 + 1e-9):
            raise ValueError("correlation entries must lie in [-1, 1]")
        if not np.allclose(np.diag(correlations), 1.0, atol=1e-9):
            raise ValueError("correlation matrix must have unit diagonal")
    return means, stds, correlations


def max_of_gaussians(
    means: np.ndarray,
    stds: np.ndarray,
    correlations: np.ndarray | None = None,
    ordering: str = "increasing",
) -> MaxResult:
    """Clark's approximation to the maximum of N jointly Gaussian variables.

    The variables are combined two at a time: each pairwise max is replaced
    by a Gaussian with Clark's moments, and its correlation with every
    remaining variable is propagated with eq. 6 so the next pairwise max
    sees the right joint statistics (paper eqs. 4-6).

    Parameters
    ----------
    means, stds:
        Per-variable means and standard deviations, shape ``(n,)``.
    correlations:
        Optional ``(n, n)`` correlation matrix; identity (independent
        variables) if omitted.
    ordering:
        Order in which variables enter the pairwise reduction:

        * ``"increasing"`` (default): increasing mean -- the ordering the
          paper uses because it minimises the approximation error,
        * ``"decreasing"``: decreasing mean,
        * ``"given"``: the order the caller supplied (used by the ordering
          ablation benchmark).

    Returns
    -------
    MaxResult
        Mean and standard deviation of the approximated maximum.
    """
    means, stds, correlations = _validated_inputs(means, stds, correlations)
    if ordering == "increasing":
        order = np.argsort(means, kind="stable")
    elif ordering == "decreasing":
        order = np.argsort(-means, kind="stable")
    elif ordering == "given":
        order = np.arange(means.size)
    else:
        raise ValueError(
            f"ordering must be 'increasing', 'decreasing' or 'given', got {ordering!r}"
        )

    means = means[order]
    stds = stds[order]
    correlations = correlations[np.ix_(order, order)]

    # Running accumulator: the Gaussian approximation of the max so far and
    # its correlation with each not-yet-processed variable (eq. 6, updated
    # for all of them at once after every pairwise max).
    acc_mean = float(means[0])
    acc_std = float(stds[0])
    acc_corr = correlations[0]
    for index in range(1, means.size):
        std = float(stds[index])
        mean, var, prob = clark_max(
            acc_mean, acc_std**2, float(means[index]), std**2, acc_std * std * acc_corr[index]
        )
        new_std = float(np.sqrt(var))
        rest = slice(index + 1, None)
        new_corr = np.zeros_like(acc_corr)
        if new_std > 0.0:
            rho = _eq6_correlation(
                acc_std, acc_corr[rest], std, correlations[index, rest], prob, new_std
            )
            new_corr[rest] = np.where(stds[rest] <= 0.0, 0.0, rho)
        acc_mean, acc_std, acc_corr = float(mean), new_std, new_corr

    return MaxResult(acc_mean, acc_std)
