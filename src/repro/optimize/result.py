"""The result container both stage sizers return."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.stage_delay import StageDelayDistribution


@dataclass(frozen=True)
class SizingResult:
    """Outcome of sizing one stage for a statistical delay target.

    Attributes
    ----------
    sizes:
        Final gate sizes in the stage netlist's topological order.
    area:
        Final combinational area of the stage in square micrometres.
    stage_delay:
        Gaussian stage delay distribution (including sequential overhead) at
        the final sizes.
    target_delay:
        Delay target the sizer was asked to meet, in seconds.
    target_yield:
        Per-stage yield the sizer was asked to meet at ``target_delay``.
    achieved_yield:
        Stage yield at ``target_delay`` predicted by ``stage_delay``.
    met_target:
        Whether the statistical constraint was satisfied at convergence.
    iterations:
        Number of outer iterations the sizer used.
    seconds:
        Wall-clock time the sizing run took (0.0 when untimed, e.g. for
        hand-constructed results in tests).
    """

    sizes: np.ndarray
    area: float
    stage_delay: StageDelayDistribution
    target_delay: float
    target_yield: float
    achieved_yield: float
    met_target: bool
    iterations: int
    seconds: float = 0.0

    @property
    def delay_margin(self) -> float:
        """Positive when the yield-constrained delay beats the target (seconds)."""
        return self.target_delay - self.stage_delay.delay_at_yield(self.target_yield)

