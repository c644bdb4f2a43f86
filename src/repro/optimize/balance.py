"""Conventional balanced pipeline design.

The baseline every experiment in the paper compares against: each stage is
optimised *independently* for the same delay target, with the pipeline yield
budget split equally across stages (eq. 12), i.e. a pipeline yield target of
``Y`` over ``N`` stages gives every stage an individual yield target of
``Y ** (1/N)``.  This is the "individually optimized" column of Tables II
and III and the "balanced" curve of Fig. 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.core.stage_delay import StageDelayDistribution
from repro.core.yield_model import stage_yield_budget
from repro.optimize.result import SizingResult
from repro.pipeline.pipeline import Pipeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optimize.global_opt import StageStatistics


@dataclass(frozen=True)
class BalancedDesignResult:
    """Outcome of the balanced (stage-independent) design flow.

    ``target_delay`` is the common stage target; when the flow was run with
    per-stage targets it is the loosest (largest) of them and
    ``stage_targets`` holds the individual values.

    ``input_statistics`` and ``statistics`` are the SSTA stage statistics
    (distributions and correlation matrix, as
    :func:`~repro.optimize.global_opt.pipeline_stage_statistics` returns
    them) of the pipeline the flow started from and of the designed one,
    when the caller computed them.  The Design API session keeps them with
    its cached baseline, so every optimizer reads them instead of running
    SSTA on the same sizes again.
    """

    pipeline: Pipeline
    stage_results: dict[str, SizingResult]
    target_delay: float
    pipeline_yield_target: float
    stage_yield_target: float
    stage_targets: dict[str, float] | None = None
    input_statistics: StageStatistics | None = field(
        default=None, compare=False, repr=False
    )
    statistics: StageStatistics | None = field(default=None, compare=False, repr=False)

    @property
    def total_area(self) -> float:
        """Total pipeline area after sizing."""
        return self.pipeline.total_area()

    def stage_distributions(self) -> list[StageDelayDistribution]:
        """Per-stage delay distributions after sizing, in pipeline order."""
        return [
            self.stage_results[name].stage_delay for name in self.pipeline.stage_names
        ]

    def stage_areas(self) -> np.ndarray:
        """Per-stage total areas after sizing, in pipeline order."""
        return self.pipeline.stage_areas()

    def stage_yields(self) -> np.ndarray:
        """Per-stage achieved yields at the target delay, in pipeline order."""
        return np.array(
            [
                self.stage_results[name].achieved_yield
                for name in self.pipeline.stage_names
            ]
        )

    def predicted_pipeline_yield(self) -> float:
        """Pipeline yield assuming independent stages (product of stage yields)."""
        return float(np.prod(self.stage_yields()))


def design_balanced_pipeline(
    pipeline: Pipeline,
    sizer,
    target_delay: float | Mapping[str, float],
    pipeline_yield_target: float,
    stage_yield_target: float | None = None,
) -> BalancedDesignResult:
    """Size every stage independently for the same delay target.

    Parameters
    ----------
    pipeline:
        Pipeline to size; a copy is made, the input is left untouched.
    sizer:
        Any registered stage sizer (see :mod:`repro.optimize.sizers`).
    target_delay:
        Common stage delay target in seconds (the intended clock period), or
        a per-stage mapping ``{stage_name: target}`` for flows that speed up
        every stage relative to its own baseline.
    pipeline_yield_target:
        Desired pipeline yield; split equally over stages unless
        ``stage_yield_target`` is given explicitly.
    stage_yield_target:
        Optional explicit per-stage yield target (overrides the equal split).

    Returns
    -------
    BalancedDesignResult
        The sized pipeline copy plus per-stage sizing results.
    """
    if isinstance(target_delay, Mapping):
        stage_targets = {name: float(value) for name, value in target_delay.items()}
        missing = set(pipeline.stage_names) - set(stage_targets)
        if missing:
            raise KeyError(f"missing stage delay targets for: {sorted(missing)}")
    else:
        stage_targets = {name: float(target_delay) for name in pipeline.stage_names}
    if any(value <= 0.0 for value in stage_targets.values()):
        raise ValueError(f"target_delay must be positive, got {target_delay}")
    designed = pipeline.copy(f"{pipeline.name}_balanced")
    if stage_yield_target is None:
        stage_yield_target = stage_yield_budget(
            pipeline_yield_target, designed.n_stages
        )
    stage_results: dict[str, SizingResult] = {}
    for stage in designed.stages:
        stage_results[stage.name] = sizer.size_stage(
            stage, stage_targets[stage.name], stage_yield_target, apply=True
        )
    return BalancedDesignResult(
        pipeline=designed,
        stage_results=stage_results,
        target_delay=max(stage_targets.values()),
        pipeline_yield_target=pipeline_yield_target,
        stage_yield_target=stage_yield_target,
        stage_targets=stage_targets if isinstance(target_delay, Mapping) else None,
    )
