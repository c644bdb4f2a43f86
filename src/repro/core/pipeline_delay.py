"""Pipeline delay distribution estimation (paper section 2.2).

The pipeline delay is the maximum of the stage delays,

    T_P = max_i SD_i ,

so its distribution follows from the per-stage means, standard deviations
and correlations through Clark's pairwise max approximation.  The module
also exposes the Jensen lower bound on the mean (eq. 3),

    E[T_P] >= max_i E[SD_i],

which the paper uses to bound the per-stage mean in its design-space
analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.clark import max_of_gaussians
from repro.core.stage_delay import GaussianDelay, StageDelayDistribution


@dataclass(frozen=True)
class PipelineDelayEstimate(GaussianDelay):
    """Gaussian estimate of the overall pipeline delay distribution."""

    mean: float
    std: float
    jensen_lower_bound: float
    n_stages: int


class PipelineDelayModel:
    """Analytical model of ``T_P = max_i SD_i`` from stage statistics.

    Parameters
    ----------
    stages:
        Per-stage Gaussian delay distributions.
    correlations:
        Optional ``(n, n)`` correlation matrix between stage delays.  Omit it
        (or pass the identity) for independent stages -- the
        random-intra-die-variation-only case.  A matrix of all ones models
        perfectly correlated stages -- the inter-die-variation-only case.
    ordering:
        Variable ordering used inside Clark's pairwise reduction; the default
        ``"increasing"`` (by mean) is what the paper uses to minimise the
        approximation error.
    """

    def __init__(
        self,
        stages: list[StageDelayDistribution],
        correlations: np.ndarray | None = None,
        ordering: str = "increasing",
    ) -> None:
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        self.stages = list(stages)
        n = len(stages)
        if correlations is None:
            correlations = np.eye(n)
        else:
            correlations = np.asarray(correlations, dtype=float)
            if correlations.shape != (n, n):
                raise ValueError(
                    f"correlation matrix must be {n}x{n}, got {correlations.shape}"
                )
        self.correlations = correlations
        self.ordering = ordering

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def with_uniform_correlation(
        cls,
        stages: list[StageDelayDistribution],
        correlation: float,
        ordering: str = "increasing",
    ) -> "PipelineDelayModel":
        """All stage pairs share the same correlation coefficient."""
        if not -1.0 <= correlation <= 1.0:
            raise ValueError(f"correlation must be in [-1, 1], got {correlation}")
        n = len(stages)
        matrix = np.full((n, n), correlation)
        np.fill_diagonal(matrix, 1.0)
        return cls(stages, matrix, ordering=ordering)

    # ------------------------------------------------------------------
    # Stage statistics
    # ------------------------------------------------------------------
    @property
    def means(self) -> np.ndarray:
        """Per-stage mean delays."""
        return np.array([stage.mean for stage in self.stages])

    @property
    def stds(self) -> np.ndarray:
        """Per-stage delay standard deviations."""
        return np.array([stage.std for stage in self.stages])

    @property
    def n_stages(self) -> int:
        """Number of pipeline stages."""
        return len(self.stages)

    def jensen_lower_bound(self) -> float:
        """Lower bound on E[T_P]: the largest stage mean (paper eq. 3)."""
        return float(self.means.max())

    # ------------------------------------------------------------------
    # Pipeline delay distribution
    # ------------------------------------------------------------------
    def estimate(self) -> PipelineDelayEstimate:
        """Estimate the pipeline delay distribution via Clark's method."""
        result = max_of_gaussians(
            self.means, self.stds, self.correlations, ordering=self.ordering
        )
        return PipelineDelayEstimate(
            mean=result.mean,
            std=result.std,
            jensen_lower_bound=self.jensen_lower_bound(),
            n_stages=self.n_stages,
        )

    def sample(self, n_samples: int, rng: np.random.Generator) -> np.ndarray:
        """Draw pipeline delay samples directly from the stage-level Gaussian model.

        This is the "golden" sampler for validating the Clark approximation in
        isolation (it samples the exact multivariate Gaussian stage delays and
        takes the true maximum, with no circuit model in the loop).
        """
        if n_samples < 1:
            raise ValueError(f"n_samples must be at least 1, got {n_samples}")
        means = self.means
        stds = self.stds
        covariance = self.correlations * np.outer(stds, stds)
        stage_samples = rng.multivariate_normal(means, covariance, size=n_samples)
        return stage_samples.max(axis=1)
