"""Global pipeline optimization under a yield constraint (paper Fig. 9).

The algorithm sizes one stage at a time while always evaluating the yield of
the *complete* pipeline:

1. Characterise each stage's area-vs-delay curve and its eq. 14 sensitivity
   ratio ``R_i`` (steps 1.a / 1.b of Fig. 9).
2. Order the stages by ``R_i`` -- stages whose delay is cheap to improve
   (low ``R_i``) are processed first when the goal is to ensure yield; this
   is the greedy-heuristic ordering of Fig. 9 (step 2).
3. For each stage in that order (steps 3-8): with every other stage held at
   its current sizing, find the *loosest* delay budget this stage can have
   such that the full-pipeline yield (computed with the statistical pipeline
   model of section 2, including SSTA-derived cross-stage correlations)
   still meets the target; translate the budget into a per-stage yield
   requirement and re-size the stage for minimum area with the statistical
   sizer.  Because the budget search uses the whole pipeline's statistics,
   slack stages automatically donate area and critical stages automatically
   receive speed -- the imbalance of section 3.2 emerges rather than being
   imposed.
4. Optionally repeat the pass (the paper's iterate-until-optimal loop); one
   to two passes are enough in practice.

The result carries the designed pipeline, the stage order, the ratios and
the per-stage sizing results.  The areas and yields before and after, which
Tables II and III report, are snapshots of the input and designed pipelines
(:func:`repro.api.design.snapshot_pipeline`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pipeline_delay import PipelineDelayModel
from repro.core.stage_delay import StageDelayDistribution, gaussian_yield
from repro.optimize.area_delay import AreaDelayCurve, characterize_stage
from repro.optimize.result import SizingResult
from repro.pipeline.pipeline import Pipeline


#: Stage delay distributions and their correlation matrix, in stage order.
StageStatistics = tuple[list[StageDelayDistribution], np.ndarray]


def pipeline_stage_statistics(sizer, pipeline: Pipeline) -> StageStatistics:
    """Stage delay distributions and their correlation matrix (SSTA).

    The canonical "full-pipeline statistics at current sizes" computation,
    shared by the Fig. 9 optimizer below and the Design API's report
    assembly/snapshots (:mod:`repro.api.design`); ``sizer`` is any
    :class:`~repro.optimize.sizers.StageSizer` (its embedded SSTA engine is
    used).
    """
    forms = sizer.ssta.pipeline_stage_forms(pipeline)
    distributions = [
        StageDelayDistribution.from_canonical(form, name=stage.name)
        for form, stage in zip(forms, pipeline.stages)
    ]
    correlations = sizer.ssta.correlation_matrix(forms)
    return distributions, correlations


@dataclass(frozen=True)
class GlobalOptimizationResult:
    """Outcome of the Fig. 9 global optimization."""

    pipeline: Pipeline
    stage_order: tuple[str, ...]
    sensitivity_ratios: dict[str, float]
    sizing_results: dict[str, SizingResult]


class GlobalPipelineOptimizer:
    """One-stage-at-a-time statistical pipeline optimizer (Fig. 9).

    Parameters
    ----------
    sizer:
        Stage sizer (Lagrangian or greedy); its embedded SSTA engine is also
        used for the full-pipeline statistical timing.
    curve_points:
        Number of points per stage in the area-vs-delay characterisation.
    rounds:
        Number of passes over the stages.
    ordering:
        ``"ri_ascending"`` (the paper's choice), ``"ri_descending"`` or
        ``"pipeline"`` (document order); exposed for the ordering ablation.
    max_stage_yield:
        Cap on the per-stage yield requirement passed to the sizer, so an
        unreachable pipeline target degrades gracefully into best effort.
    """

    def __init__(
        self,
        sizer,
        curve_points: int = 4,
        rounds: int = 1,
        ordering: str = "ri_ascending",
        max_stage_yield: float = 0.9995,
    ) -> None:
        if rounds < 1:
            raise ValueError(f"rounds must be at least 1, got {rounds}")
        if ordering not in {"ri_ascending", "ri_descending", "pipeline"}:
            raise ValueError(
                "ordering must be 'ri_ascending', 'ri_descending' or 'pipeline', "
                f"got {ordering!r}"
            )
        if not 0.5 < max_stage_yield < 1.0:
            raise ValueError(
                f"max_stage_yield must be in (0.5, 1), got {max_stage_yield}"
            )
        self.sizer = sizer
        self.curve_points = int(curve_points)
        self.rounds = int(rounds)
        self.ordering = ordering
        self.max_stage_yield = float(max_stage_yield)

    # ------------------------------------------------------------------
    # Stage budget search
    # ------------------------------------------------------------------
    def _required_stage_yield(
        self,
        distributions: list[StageDelayDistribution],
        correlations: np.ndarray,
        stage_index: int,
        target_delay: float,
        target_yield: float,
    ) -> float:
        """Loosest per-stage yield that still meets the pipeline yield target.

        The stage's distribution is modelled as scaling with its mean at a
        constant sigma/mu ratio (the first-order effect of resizing); a
        bisection over the mean finds the largest mean -- i.e. the loosest,
        smallest-area sizing -- for which the full-pipeline model still
        predicts the target yield.  The answer is returned as the stage yield
        ``Phi((T - mu) / sigma)`` the sizer must be asked for.
        """
        current = distributions[stage_index]
        ratio = current.variability if current.variability > 0.0 else 0.02

        def pipeline_yield_with_mean(mean: float) -> float:
            candidate = StageDelayDistribution(
                mean=mean, std=ratio * mean, name=current.name
            )
            trial = list(distributions)
            trial[stage_index] = candidate
            model = PipelineDelayModel(trial, correlations)
            return model.estimate().yield_at(target_delay)

        mean_low = 0.30 * target_delay
        mean_high = 1.20 * target_delay
        if pipeline_yield_with_mean(mean_low) < target_yield:
            # Even an extremely fast stage cannot rescue the pipeline (other
            # stages dominate the failures): ask for the best this stage can
            # reasonably deliver.
            return self.max_stage_yield
        if pipeline_yield_with_mean(mean_high) >= target_yield:
            mean_best = mean_high
        else:
            low, high = mean_low, mean_high
            for _ in range(40):
                middle = 0.5 * (low + high)
                if pipeline_yield_with_mean(middle) >= target_yield:
                    low = middle
                else:
                    high = middle
            mean_best = low
        sigma_best = ratio * mean_best
        if sigma_best <= 0.0:
            return self.max_stage_yield
        stage_yield = gaussian_yield(target_delay, mean_best, sigma_best)
        return float(np.clip(stage_yield, 1e-4, self.max_stage_yield))

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def optimize(
        self,
        pipeline: Pipeline,
        target_delay: float,
        target_yield: float,
        curves: dict[str, AreaDelayCurve] | None = None,
        statistics: StageStatistics | None = None,
    ) -> GlobalOptimizationResult:
        """Run the Fig. 9 flow on a copy of ``pipeline``.

        Parameters
        ----------
        pipeline:
            Starting design (typically the balanced design); left untouched.
        target_delay:
            Pipeline delay target ``T_TARGET`` in seconds.
        target_yield:
            Pipeline yield target ``Y``.
        curves:
            Pre-computed area-vs-delay curves keyed by stage name; computed
            here (step 1.a) at the equal-split stage yield ``Y ** (1/N)``
            if omitted.
        statistics:
            Pre-computed :func:`pipeline_stage_statistics` of ``pipeline``
            for the first stage's budget search; computed here if omitted.
        """
        if target_delay <= 0.0:
            raise ValueError(f"target_delay must be positive, got {target_delay}")
        if not 0.0 < target_yield < 1.0:
            raise ValueError(f"target_yield must be in (0, 1), got {target_yield}")

        designed = pipeline.copy(f"{pipeline.name}_globalopt")
        if curves is None:
            curve_yield = target_yield ** (1.0 / designed.n_stages)
            curves = {
                stage.name: characterize_stage(
                    stage, self.sizer, curve_yield, n_points=self.curve_points
                )
                for stage in designed.stages
            }

        ratios = {
            name: curves[name].sensitivity_ratio() for name in designed.stage_names
        }
        if self.ordering == "pipeline":
            order = list(designed.stage_names)
        else:
            reverse = self.ordering == "ri_descending"
            order = sorted(ratios, key=lambda name: ratios[name], reverse=reverse)

        sizing_results: dict[str, SizingResult] = {}
        for _ in range(self.rounds):
            for stage_name in order:
                stage_index = designed.stage_names.index(stage_name)
                # Until the first re-size, ``designed`` has the input's sizes.
                distributions, correlations = statistics or pipeline_stage_statistics(
                    self.sizer, designed
                )
                statistics = None
                required = self._required_stage_yield(
                    distributions,
                    correlations,
                    stage_index,
                    target_delay,
                    target_yield,
                )
                stage = designed.stages[stage_index]
                sizing_results[stage_name] = self.sizer.size_stage(
                    stage, target_delay, required, apply=True
                )

        return GlobalOptimizationResult(
            pipeline=designed,
            stage_order=tuple(order),
            sensitivity_ratios=ratios,
            sizing_results=sizing_results,
        )
