"""Per-stage delay distributions.

The paper abstracts each pipeline stage into a Gaussian delay
``SD_i ~ N(mu_i, sigma_i)`` where ``SD_i = T_C-Q + T_comb + T_setup``
(section 2.1).  :class:`StageDelayDistribution` is that abstraction; it is
the interface between the substrates that *characterise* stages (SPICE-style
Monte-Carlo in :mod:`repro.montecarlo` or analytical SSTA in
:mod:`repro.timing.ssta`) and the pipeline-level models that *consume*
stage statistics (:mod:`repro.core.pipeline_delay`,
:mod:`repro.core.yield_model`, the optimizers).

The ``N(mu, sigma)`` yield, quantile and density every Gaussian in the
package uses are written here once.  Phi is ``scipy.special.ndtr`` and phi
is ``scipy.stats.norm``'s own expression, so they match ``norm.cdf``,
``norm.ppf`` and ``norm.pdf`` bit for bit without importing ``scipy.stats``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

# scipy.stats' ``_norm_pdf_C``.
_SQRT_2PI = np.sqrt(2 * np.pi)


def standard_normal_pdf(z):
    """Standard normal density phi(z), written as ``scipy.stats.norm`` does."""
    return np.exp(-np.square(z) / 2.0) / _SQRT_2PI


def gaussian_yield(target: float, mean: float, std: float) -> float:
    """``Pr{N(mean, std) <= target}``; a step at the mean when ``std`` is 0."""
    if std == 0.0:
        return 1.0 if mean <= target else 0.0
    return float(ndtr((target - mean) / std))


def gaussian_quantile(probability: float, mean: float, std: float) -> float:
    """Value ``N(mean, std)`` stays at or below with ``probability``."""
    if not 0.0 < probability < 1.0:
        raise ValueError(f"target_yield must be in (0, 1), got {probability}")
    return mean + std * float(ndtri(probability))


def gaussian_pdf(x, mean: float, std: float):
    """Density of ``N(mean, std)`` at ``x``; undefined when ``std`` is 0."""
    if std == 0.0:
        raise ValueError("pdf undefined for a zero-variance delay")
    return standard_normal_pdf((np.asarray(x, dtype=float) - mean) / std) / std


class GaussianDelay:
    """Yield, quantile and density queries of a ``N(mean, std)`` delay."""

    mean: float
    std: float

    @property
    def variability(self) -> float:
        """The paper's variability metric sigma/mu (0 when the mean is 0)."""
        if self.mean == 0.0:
            return 0.0
        return self.std / self.mean

    def yield_at(self, target_delay: float) -> float:
        """Probability that the delay meets ``target_delay``."""
        return gaussian_yield(target_delay, self.mean, self.std)

    def delay_at_yield(self, target_yield: float) -> float:
        """Delay met with probability ``target_yield``."""
        return gaussian_quantile(target_yield, self.mean, self.std)

    def pdf(self, delay: np.ndarray | float) -> np.ndarray | float:
        """Gaussian probability density at the given delay value(s)."""
        return gaussian_pdf(delay, self.mean, self.std)


@dataclass(frozen=True)
class StageDelayDistribution(GaussianDelay):
    """Gaussian model of one pipeline stage's delay.

    Attributes
    ----------
    mean:
        Mean stage delay in seconds.
    std:
        Standard deviation of the stage delay in seconds.
    name:
        Optional stage name used in reports.
    """

    mean: float
    std: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.mean < 0.0:
            raise ValueError(f"stage delay mean must be non-negative, got {self.mean}")
        if self.std < 0.0:
            raise ValueError(f"stage delay std must be non-negative, got {self.std}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_samples(cls, samples: np.ndarray, name: str = "") -> "StageDelayDistribution":
        """Fit a Gaussian stage delay to Monte-Carlo delay samples."""
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 1 or samples.size < 2:
            raise ValueError("need a 1-D array of at least two samples")
        return cls(mean=float(samples.mean()), std=float(samples.std(ddof=1)), name=name)

    @classmethod
    def from_canonical(cls, form, name: str = "") -> "StageDelayDistribution":
        """Build from an SSTA canonical form (anything with .mean and .sigma)."""
        return cls(mean=float(form.mean), std=float(form.sigma), name=name)

    def scaled(self, mean_factor: float = 1.0, std_factor: float | None = None) -> "StageDelayDistribution":
        """Return a copy with mean (and optionally sigma) scaled.

        If ``std_factor`` is omitted the sigma scales with the mean, which is
        the first-order behaviour of resizing a stage uniformly.
        """
        if std_factor is None:
            std_factor = mean_factor
        return StageDelayDistribution(
            mean=self.mean * mean_factor, std=self.std * std_factor, name=self.name
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return (
            f"StageDelayDistribution({label} mean={self.mean * 1e12:.2f}ps, "
            f"std={self.std * 1e12:.2f}ps)"
        )
