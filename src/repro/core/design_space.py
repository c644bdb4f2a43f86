"""Design-space estimation for per-stage (mu, sigma) (paper section 2.5, Fig. 4).

For a pipeline that must reach a target delay ``T_TARGET`` with yield
``P_D``, the paper derives a hierarchy of bounds on the mean and standard
deviation any individual stage may have:

* **Mean upper bound** (eq. 10): via Jensen's inequality the stage mean can
  never exceed the pipeline mean, which itself must satisfy
  ``mu_T <= T_TARGET - sigma_T * Phi^-1(P_D)``.
* **Relaxed upper bound** (eq. 11): assuming every other stage meets the
  target with probability one, a stage with
  ``mu_i + sigma_i * Phi^-1(P_D) > T_TARGET`` can never be part of any
  compliant pipeline.
* **Equality bound** (eq. 12): for ``N_S`` uncorrelated, equally budgeted
  stages each stage must satisfy
  ``mu_i + sigma_i * Phi^-1(P_D ** (1/N_S)) <= T_TARGET``; the bound tightens
  as the stage count grows.
* **Realizable bounds** (eq. 13): modelling a stage as a chain of ``N_L``
  identical gates ties sigma to mu (``mu = N_L mu_g``, ``sigma^2 = N_L
  sigma_g^2``), so only a curve ``sigma = sigma_g * sqrt(mu / mu_g)`` is
  physically realizable for a given gate size; minimum- and maximum-size
  gates give the two edges of the realizable band, and the minimum logic
  depth gives a lower-left corner.

:class:`DesignSpace` evaluates all of these and can rasterise the feasible
region of Fig. 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri


@dataclass(frozen=True)
class GateDelayCharacteristics:
    """Mean/sigma of a single gate delay used for the realizable bounds.

    ``mu_min``/``sigma_min`` describe a minimum-size gate; ``mu_max``/
    ``sigma_max`` a maximum-size gate (faster but, per RDF, relatively less
    variable).  All values in seconds.
    """

    mu_min: float
    sigma_min: float
    mu_max: float
    sigma_max: float

    def __post_init__(self) -> None:
        if min(self.mu_min, self.mu_max) <= 0.0:
            raise ValueError("gate delay means must be positive")
        if min(self.sigma_min, self.sigma_max) < 0.0:
            raise ValueError("gate delay sigmas must be non-negative")
        if self.mu_max > self.mu_min:
            raise ValueError(
                "a maximum-size gate must not be slower than a minimum-size gate"
            )


@dataclass(frozen=True)
class DesignSpaceRegion:
    """Rasterised feasibility map over a (mu, sigma) grid."""

    mu_grid: np.ndarray
    sigma_grid: np.ndarray
    feasible: np.ndarray
    realizable: np.ndarray

    @property
    def feasible_fraction(self) -> float:
        """Fraction of grid points that satisfy the equality bound."""
        return float(self.feasible.mean())

    @property
    def realizable_and_feasible(self) -> np.ndarray:
        """Mask of points that are both feasible and physically realizable."""
        return self.feasible & self.realizable


class DesignSpace:
    """Permissible per-stage (mu_i, sigma_i) space for a yield target.

    Parameters
    ----------
    target_delay:
        Pipeline delay target ``T_TARGET`` in seconds.
    target_yield:
        Pipeline yield target ``P_D`` in (0, 1).
    """

    def __init__(self, target_delay: float, target_yield: float) -> None:
        if target_delay <= 0.0:
            raise ValueError(f"target_delay must be positive, got {target_delay}")
        if not 0.0 < target_yield < 1.0:
            raise ValueError(f"target_yield must be in (0, 1), got {target_yield}")
        self.target_delay = target_delay
        self.target_yield = target_yield

    # ------------------------------------------------------------------
    # Bounds (eqs. 10-12)
    # ------------------------------------------------------------------
    def mean_upper_bound(self, pipeline_sigma: float) -> float:
        """Upper bound on any stage mean given the pipeline sigma (eq. 10)."""
        if pipeline_sigma < 0.0:
            raise ValueError("pipeline_sigma must be non-negative")
        return self.target_delay - pipeline_sigma * float(ndtri(self.target_yield))

    def relaxed_upper_bound(self, sigma: np.ndarray | float) -> np.ndarray | float:
        """Largest stage mean allowed at the given sigma (eq. 11).

        A stage outside this bound cannot appear in *any* pipeline that meets
        the target, no matter how good the other stages are.
        """
        sigma = np.asarray(sigma, dtype=float)
        bound = self.target_delay - sigma * float(ndtri(self.target_yield))
        return bound if bound.ndim else float(bound)

    def equality_bound(
        self, sigma: np.ndarray | float, n_stages: int
    ) -> np.ndarray | float:
        """Largest stage mean for ``n_stages`` equal uncorrelated stages (eq. 12)."""
        if n_stages < 1:
            raise ValueError(f"n_stages must be at least 1, got {n_stages}")
        sigma = np.asarray(sigma, dtype=float)
        stage_yield = self.target_yield ** (1.0 / n_stages)
        bound = self.target_delay - sigma * float(ndtri(stage_yield))
        return bound if bound.ndim else float(bound)

    def satisfies_relaxed_bound(self, mu: float, sigma: float) -> bool:
        """Whether (mu, sigma) lies inside the relaxed bound (eq. 11)."""
        return mu <= self.relaxed_upper_bound(sigma) + 1e-15

    def satisfies_equality_bound(self, mu: float, sigma: float, n_stages: int) -> bool:
        """Whether (mu, sigma) lies inside the equality bound (eq. 12)."""
        return mu <= self.equality_bound(sigma, n_stages) + 1e-15

    # ------------------------------------------------------------------
    # Realizable curves (eq. 13)
    # ------------------------------------------------------------------
    @staticmethod
    def realizable_sigma(
        mu: np.ndarray | float, gate_mu: float, gate_sigma: float
    ) -> np.ndarray | float:
        """Sigma of an inverter-chain stage with mean ``mu`` (eq. 13).

        A chain of ``N_L = mu / gate_mu`` gates has
        ``sigma = gate_sigma * sqrt(N_L) = gate_sigma * sqrt(mu / gate_mu)``.
        """
        if gate_mu <= 0.0:
            raise ValueError("gate_mu must be positive")
        if gate_sigma < 0.0:
            raise ValueError("gate_sigma must be non-negative")
        mu = np.asarray(mu, dtype=float)
        sigma = gate_sigma * np.sqrt(np.clip(mu, 0.0, None) / gate_mu)
        return sigma if sigma.ndim else float(sigma)

    def realizable_bounds(
        self,
        mu: np.ndarray | float,
        gates: GateDelayCharacteristics,
    ) -> tuple[np.ndarray | float, np.ndarray | float]:
        """Lower and upper realizable sigma at a given stage mean.

        The *upper* realizable curve comes from minimum-size gates (slow and
        relatively noisy, so fewer of them are needed for a given mean and
        each contributes more sigma); the *lower* curve comes from
        maximum-size gates.
        """
        upper = self.realizable_sigma(mu, gates.mu_min, gates.sigma_min)
        lower = self.realizable_sigma(mu, gates.mu_max, gates.sigma_max)
        return lower, upper

    @staticmethod
    def minimum_realizable_point(
        gates: GateDelayCharacteristics, min_logic_depth: int
    ) -> tuple[float, float]:
        """The minimum-mu / minimum-sigma corner set by the minimum logic depth."""
        if min_logic_depth < 1:
            raise ValueError(f"min_logic_depth must be at least 1, got {min_logic_depth}")
        mu = min_logic_depth * gates.mu_max
        sigma = gates.sigma_max * min_logic_depth**0.5
        return mu, sigma

    # ------------------------------------------------------------------
    # Region rasterisation (Fig. 4)
    # ------------------------------------------------------------------
    def region(
        self,
        n_stages: int,
        gates: GateDelayCharacteristics,
        min_logic_depth: int = 1,
        n_mu: int = 80,
        n_sigma: int = 60,
        mu_max: float | None = None,
        sigma_max: float | None = None,
    ) -> DesignSpaceRegion:
        """Rasterise the feasible / realizable region of Fig. 4.

        Parameters
        ----------
        n_stages:
            Stage count used for the equality bound.
        gates:
            Gate-level delay characteristics for the realizable band.
        min_logic_depth:
            Minimum allowed logic depth per stage.
        n_mu, n_sigma:
            Grid resolution.
        mu_max, sigma_max:
            Grid extents; default to the target delay and to the sigma that
            would alone consume the whole yield margin.
        """
        if mu_max is None:
            mu_max = 1.1 * self.target_delay
        if sigma_max is None:
            sigma_max = 0.5 * self.target_delay
        mu_values = np.linspace(0.0, mu_max, n_mu)
        sigma_values = np.linspace(0.0, sigma_max, n_sigma)
        mu_grid, sigma_grid = np.meshgrid(mu_values, sigma_values, indexing="ij")

        equality_mu = self.equality_bound(sigma_grid, n_stages)
        feasible = mu_grid <= equality_mu

        lower, upper = self.realizable_bounds(mu_grid, gates)
        min_mu, _ = self.minimum_realizable_point(gates, min_logic_depth)
        realizable = (sigma_grid >= lower) & (sigma_grid <= upper) & (mu_grid >= min_mu)

        return DesignSpaceRegion(
            mu_grid=mu_grid,
            sigma_grid=sigma_grid,
            feasible=feasible,
            realizable=realizable,
        )
