"""The scaffold both statistical stage sizers share.

:class:`~repro.optimize.lagrangian.LagrangianSizer` and
:class:`~repro.optimize.greedy.GreedySizer` differ only in how they move
gate sizes.  Everything around that inner loop is one statistical
evaluation of the stage, written here once:

* the size bounds ``min_size <= x <= max_size`` and ``sigma_refresh``;
* the gate delay model and the embedded canonical-form SSTA engine, a
  :class:`~repro.timing.ssta.MemoizedTimingAnalyzer`: every design-flow
  form goes through it (both sizers' budgets, the closing evaluation,
  ``characterize_stage``'s endpoint and ``pipeline_stage_statistics``), so
  each distinct form is computed once while it stays in the memo;
* :meth:`StageSizerBase.statistical_budget`, which turns the yield
  constraint ``mu + Phi^-1(Y) * sigma <= T_TARGET`` into the deterministic
  arrival budget the inner loop sizes against;
* the closing evaluation that turns each target's final sizes into a
  :class:`~repro.optimize.result.SizingResult`, and
  :meth:`StageSizerBase.stage_distribution`.

Each subclass keeps its own explicit constructor, because the Design API
binds a spec's ``sizer_options`` against that signature, and defines its own
``size_targets`` (the one sizing loop, over every target of a call) and
``size_stage`` (its one-target call).
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np
from scipy.special import ndtri

from repro.core.stage_delay import StageDelayDistribution
from repro.optimize.result import SizingResult
from repro.pipeline.stage import PipelineStage
from repro.process.technology import Technology
from repro.process.variation import VariationModel
from repro.timing.delay_model import GateDelayModel
from repro.timing.ssta import MemoizedTimingAnalyzer


class StageSizerBase:
    """Size bounds, delay models and the statistical evaluation of a stage.

    Parameters
    ----------
    technology, variation:
        Process description used for delays and statistics.
    min_size, max_size:
        Allowed range of gate sizes (the paper's ``L_i <= x_i <= U_i``).
    sigma_refresh:
        Inner-loop steps between SSTA refreshes of the statistical budget.
    grid_size:
        Spatial-correlation grid resolution for the embedded SSTA.
    """

    def __init__(
        self,
        technology: Technology,
        variation: VariationModel,
        min_size: float,
        max_size: float,
        sigma_refresh: int,
        grid_size: int,
    ) -> None:
        if min_size <= 0.0 or max_size < min_size:
            raise ValueError(
                f"need 0 < min_size <= max_size, got {min_size}, {max_size}"
            )
        self.technology = technology
        self.variation = variation
        self.min_size = float(min_size)
        self.max_size = float(max_size)
        self.sigma_refresh = int(max(1, sigma_refresh))
        self.delay_model = GateDelayModel(technology)
        self.ssta = MemoizedTimingAnalyzer(technology, variation, grid_size=grid_size)

    def _stage_form(self, stage: PipelineStage, sizes: np.ndarray):
        """The stage's form at ``sizes``; a list of forms for ``(k, n)`` rows."""
        return self.ssta.stage_delay(
            stage.netlist, stage.flipflop, stage.register_position, sizes=sizes
        )

    def stage_distribution(self, stage: PipelineStage) -> StageDelayDistribution:
        """Stage delay distribution at the stage's current sizes."""
        form = self._stage_form(stage, stage.netlist.sizes())
        return StageDelayDistribution.from_canonical(form, name=stage.name)

    @staticmethod
    def _check_targets(
        stage: PipelineStage, target_delay: float, target_yield: float
    ) -> None:
        if target_delay <= 0.0:
            raise ValueError(f"target_delay must be positive, got {target_delay}")
        if not 0.0 < target_yield < 1.0:
            raise ValueError(f"target_yield must be in (0, 1), got {target_yield}")
        if stage.netlist.n_gates == 0:
            raise ValueError(f"stage {stage.name!r} has no gates to size")

    @staticmethod
    def _output_mask(stage: PipelineStage) -> np.ndarray:
        """Primary outputs, or every gate when the stage marks none."""
        mask = stage.netlist.output_mask()
        if not mask.any():
            mask = np.ones(stage.netlist.n_gates, dtype=bool)
        return mask

    @staticmethod
    def statistical_budget(
        form, worst: float, target_delay: float, target_yield: float
    ) -> float:
        """Deterministic arrival budget implied by the statistical target.

        ``form`` is the stage's SSTA form and ``worst`` its nominal worst
        output arrival, both at the sizes being refined.  The budget is
        ``worst`` shifted by however much the full statistical stage delay
        (SSTA mean + k * sigma, including sequential overhead and the mean
        shift of the max over near-critical paths) misses or beats the
        target.  Re-evaluating it as sizes change keeps the deterministic
        inner loop honest about the statistical constraint it is standing
        in for.  A small guard band keeps the final design from missing the
        statistical target by round-off between the two views.  When the
        statistical margin alone exceeds the target, no sizing can satisfy
        the constraint; the budget is then a small positive
        ``0.05 * target_delay``, so the sizer drives towards the fastest
        design.
        """
        statistical_delay = form.mean + float(ndtri(target_yield)) * form.sigma
        guard = 0.004 * target_delay
        budget = worst + (target_delay - statistical_delay) - guard
        return budget if budget > 0.0 else 0.05 * target_delay

    def _checked_targets(
        self, stage: PipelineStage, targets: Sequence[float], target_yield: float
    ) -> list[float]:
        """Validated targets of a ``size_targets`` call, as Python floats."""
        targets = [float(target) for target in targets]
        for target_delay in targets:
            self._check_targets(stage, target_delay, target_yield)
        return targets

    def _results(
        self,
        stage: PipelineStage,
        finals: list[np.ndarray],
        targets: list[float],
        target_yield: float,
        iterations: list[int],
        start_time: float,
    ) -> list[SizingResult]:
        """Evaluate each target's final sizes into its result.

        Every target's form comes from one SSTA call over the final size
        rows.
        """
        if not finals:
            return []
        forms = self._stage_form(stage, np.stack(finals))
        results = []
        for sizes, form, target_delay, used in zip(finals, forms, targets, iterations):
            distribution = StageDelayDistribution.from_canonical(form, name=stage.name)
            achieved_yield = distribution.yield_at(target_delay)
            results.append(
                SizingResult(
                    sizes=sizes,
                    area=stage.netlist.total_area(sizes),
                    stage_delay=distribution,
                    target_delay=target_delay,
                    target_yield=target_yield,
                    achieved_yield=achieved_yield,
                    met_target=achieved_yield + 1e-9 >= target_yield,
                    iterations=used,
                    seconds=time.perf_counter() - start_time,
                )
            )
        return results
