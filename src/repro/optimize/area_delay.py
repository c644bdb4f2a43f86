"""Per-stage area-vs-delay characterisation (Fig. 8) and the R_i sensitivity.

The paper's heuristic (eq. 14) and its global optimization flow (step 1.a of
Fig. 9: "compute area vs. delay plot for each stage") both consume the
stage-level trade-off curve between achievable delay and the area the sizer
needs to reach it.  :func:`characterize_stage` sweeps the sizer over a range
of delay targets and :class:`AreaDelayCurve` stores the resulting points,
interpolates between them and evaluates the eq. 14 sensitivity ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.imbalance import sensitivity_ratio
from repro.core.stage_delay import StageDelayDistribution
from repro.pipeline.stage import PipelineStage


@dataclass(frozen=True)
class AreaDelayPoint:
    """One point of a stage's area-vs-delay trade-off curve.

    ``delay`` is the delay the stage meets at the characterisation yield
    (i.e. ``mu + k * sigma``), not the mean delay, so that the curve speaks
    the same statistical language as the optimization constraints.
    """

    target_delay: float
    delay: float
    mean: float
    std: float
    area: float
    sizes: np.ndarray
    met_target: bool


@dataclass(frozen=True)
class AreaDelayCurve:
    """A stage's sampled area-vs-delay curve at a fixed yield."""

    stage_name: str
    target_yield: float
    points: tuple[AreaDelayPoint, ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError("an area-delay curve needs at least two points")
        # Keep only the Pareto frontier: walking from the fastest point to the
        # slowest, a point that does not reduce area relative to every faster
        # point is dominated (some sizing run got stuck in a worse local
        # solution) and would make the trade-off curve non-monotonic.
        ordered = sorted(self.points, key=lambda point: point.delay)
        frontier: list[AreaDelayPoint] = []
        smallest_area = np.inf
        for point in ordered:
            if point.area < smallest_area:
                frontier.append(point)
                smallest_area = point.area
        if len(frontier) < 2:
            # Degenerate sweep (e.g. a block whose area barely moves); fall
            # back to the raw ordered points so interpolation still works.
            frontier = ordered
        object.__setattr__(self, "points", tuple(frontier))

    # ------------------------------------------------------------------
    # Raw series
    # ------------------------------------------------------------------
    def delays(self) -> np.ndarray:
        """Achieved (yield-constrained) delays, ascending."""
        return np.array([point.delay for point in self.points])

    def areas(self) -> np.ndarray:
        """Areas corresponding to :meth:`delays`."""
        return np.array([point.area for point in self.points])

    @property
    def min_delay(self) -> float:
        """Fastest characterised delay."""
        return float(self.delays()[0])

    @property
    def max_delay(self) -> float:
        """Slowest characterised delay (the all-minimum-size stage)."""
        return float(self.delays()[-1])

    # ------------------------------------------------------------------
    # Interpolation
    # ------------------------------------------------------------------
    def area_for_delay(self, delay: float) -> float:
        """Area needed to reach a delay (linear interpolation, clamped)."""
        delays = self.delays()
        areas = self.areas()
        delay = float(np.clip(delay, delays[0], delays[-1]))
        return float(np.interp(delay, delays, areas))

    def delay_for_area(self, area: float) -> float:
        """Delay achievable with a given area budget (clamped)."""
        delays = self.delays()
        areas = self.areas()
        # Area decreases as delay increases; interpolate on the reversed axes.
        order = np.argsort(areas)
        area = float(np.clip(area, areas[order][0], areas[order][-1]))
        return float(np.interp(area, areas[order], delays[order]))

    def point_for_delay(self, delay: float) -> AreaDelayPoint:
        """The characterised point whose delay is closest to the request."""
        delays = self.delays()
        index = int(np.argmin(np.abs(delays - delay)))
        return self.points[index]

    # ------------------------------------------------------------------
    # Eq. 14 sensitivity
    # ------------------------------------------------------------------
    def sensitivity_ratio(self, at_delay: float | None = None) -> float:
        """The eq. 14 area-delay sensitivity R_i (elasticity form)."""
        return sensitivity_ratio(self.areas(), self.delays(), at_delay)


def characterize_stage(
    stage: PipelineStage,
    sizer,
    target_yield: float,
    n_points: int = 5,
    speedup_range: tuple[float, float] = (0.55, 1.0),
) -> AreaDelayCurve:
    """Sweep the sizer over delay targets to build the stage's trade-off curve.

    Parameters
    ----------
    stage:
        Stage to characterise (its netlist is only read).
    sizer:
        Any :class:`~repro.optimize.sizers.StageSizer`: one ``size_targets``
        call sizes every target, and its ``ssta`` engine and ``min_size``
        give the all-minimum-size endpoint.
    target_yield:
        Stage yield at which every point's delay is evaluated.
    n_points:
        Number of delay targets to characterise (in addition to the
        all-minimum-size endpoint).
    speedup_range:
        Delay targets as fractions of the minimum-size stage delay; the lower
        end should be aggressive enough to exercise heavy upsizing.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    low, high = speedup_range
    if not 0.0 < low < high <= 1.0:
        raise ValueError(f"speedup_range must satisfy 0 < low < high <= 1, got {speedup_range}")

    # Endpoint: the all-minimum-size design, whose delay scales the targets
    # of every other point.
    sizes_min = np.full(stage.netlist.n_gates, sizer.min_size)
    form = sizer.ssta.stage_delay(
        stage.netlist, stage.flipflop, stage.register_position, sizes=sizes_min
    )
    max_delay = StageDelayDistribution.from_canonical(
        form, name=stage.name
    ).delay_at_yield(target_yield)
    points = [
        AreaDelayPoint(
            target_delay=max_delay,
            delay=max_delay,
            mean=form.mean,
            std=form.sigma,
            area=stage.netlist.total_area(sizes_min),
            sizes=sizes_min,
            met_target=True,
        )
    ]

    targets = [
        float(fraction * max_delay)
        for fraction in np.linspace(low, high, n_points, endpoint=False)
    ]
    for target, result in zip(
        targets, sizer.size_targets(stage, targets, target_yield)
    ):
        points.append(
            AreaDelayPoint(
                target_delay=target,
                delay=result.stage_delay.delay_at_yield(target_yield),
                mean=result.stage_delay.mean,
                std=result.stage_delay.std,
                area=result.area,
                sizes=result.sizes,
                met_target=result.met_target,
            )
        )
    return AreaDelayCurve(
        stage_name=stage.name, target_yield=target_yield, points=tuple(points)
    )
