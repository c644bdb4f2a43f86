"""TILOS-like greedy statistical sizer (baseline / ablation).

The greedy sizer is the classical alternative to Lagrangian relaxation:
starting from the all-minimum-size design, repeatedly upsize the single gate
on the statistically critical path that buys the most delay per unit of
added area, until the statistical delay target is met (or no further
improvement is possible).  It is used as a baseline for the sizer ablation
benchmark and as a fast sizer for small blocks in the tests.

The statistical target handling is the shared
:meth:`~repro.optimize.base.StageSizerBase.statistical_budget`: the yield
constraint is converted to a deterministic combinational budget
``T_TARGET - mean(overhead) - k * sigma_stage`` and the sigma estimate is
refreshed with SSTA every ``sigma_refresh`` accepted moves.

A move depends on neither the target nor the yield; those only decide
where a run stops.  Every run from all-minimum sizes is therefore a prefix
of one move trajectory, and :meth:`GreedySizer.size_targets` walks it once
for all of a call's targets, stopping each where its own run would.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.circuit.schedule import expand_csr_rows
from repro.optimize.base import StageSizerBase
from repro.optimize.result import SizingResult
from repro.pipeline.stage import PipelineStage
from repro.process.technology import Technology
from repro.process.variation import VariationModel
from repro.timing.sta import arrival_times, critical_path_positions


class GreedySizer(StageSizerBase):
    """Greedy (TILOS-style) statistical gate sizer for one stage.

    Every move re-evaluates nominal delays, arrivals, the critical path and
    loads from scratch over the netlist's cached compiled schedule.
    """

    def __init__(
        self,
        technology: Technology,
        variation: VariationModel,
        min_size: float = 1.0,
        max_size: float = 16.0,
        size_step: float = 1.3,
        max_moves: int = 4000,
        sigma_refresh: int = 50,
        grid_size: int = 8,
    ) -> None:
        super().__init__(
            technology, variation, min_size, max_size, sigma_refresh, grid_size
        )
        if size_step <= 1.0:
            raise ValueError(f"size_step must exceed 1, got {size_step}")
        self.size_step = float(size_step)
        self.max_moves = int(max_moves)

    def size_stage(
        self,
        stage: PipelineStage,
        target_delay: float,
        target_yield: float,
        apply: bool = True,
    ) -> SizingResult:
        """Size one stage greedily for the statistical delay target.

        The one-target call of :meth:`size_targets`; ``apply`` writes the
        final sizes back into the stage netlist.
        """
        (result,) = self.size_targets(stage, [target_delay], target_yield)
        if apply:
            stage.netlist.set_sizes(result.sizes)
        return result

    def size_targets(
        self, stage: PipelineStage, targets: Sequence[float], target_yield: float
    ) -> list[SizingResult]:
        """Size one stage greedily for each delay target, from minimum sizes.

        One move trajectory serves every target.  At move count ``m`` each
        pending target stops, in this order, when ``m`` reaches
        ``max_moves``, when the worst nominal arrival is within its budget,
        or when no move improves the critical path.  Every
        ``sigma_refresh`` moves (and at move 0) one SSTA form of the current
        sizes refreshes every pending target's budget.  Result ``i`` is the
        run a lone ``targets[i]`` would make; the netlist is not written.
        """
        targets = self._checked_targets(stage, targets, target_yield)
        start_time = time.perf_counter()
        netlist = stage.netlist
        n_gates = netlist.n_gates
        tech = self.technology
        coeffs = netlist.cell_coefficients()
        area_coeff = coeffs["area_factor"] * tech.area_unit
        input_cap_unit = coeffs["logical_effort"] * tech.c_unit
        # The compiled schedule is cached across the whole sizing run: size
        # moves do not touch netlist structure, so every arrival/critical-path
        # evaluation below reuses the same CSR arrays.
        schedule = netlist.timing_schedule()
        output_mask = self._output_mask(stage)

        sizes = np.full(n_gates, self.min_size)
        budgets = [0.0] * len(targets)
        finals: list[np.ndarray | None] = [None] * len(targets)
        stopped_at = [0] * len(targets)
        pending = list(range(len(targets)))

        def stop(indices, moves):
            for index in indices:
                finals[index] = sizes.copy()
                stopped_at[index] = moves

        moves = 0
        while pending and moves < self.max_moves:
            nominal = self.delay_model.nominal_delays(netlist, sizes)
            arrivals = arrival_times(netlist, nominal)
            worst = float(arrivals[output_mask].max())
            if moves % self.sigma_refresh == 0:
                form = self._stage_form(stage, sizes)
                for index in pending:
                    budgets[index] = self.statistical_budget(
                        form, worst, targets[index], target_yield
                    )
            stop([index for index in pending if worst <= budgets[index]], moves)
            pending = [index for index in pending if worst > budgets[index]]
            if not pending:
                break

            path_positions = np.array(
                critical_path_positions(netlist, arrivals), dtype=np.int64
            )
            loads = netlist.load_capacitances(sizes)
            on_path = np.zeros(n_gates, dtype=bool)
            on_path[path_positions] = True

            # Evaluate every candidate move on the critical path at once.
            current = sizes[path_positions]
            proposed = np.minimum(current * self.size_step, self.max_size)
            growable = proposed > current * (1.0 + 1e-9)
            # Own delay improves because the drive resistance drops.
            own_change = (
                tech.r_unit * loads[path_positions] * (1.0 / proposed - 1.0 / current)
            )
            # Fanins on the critical path slow down because this gate's
            # input capacitance grows.
            extra_cap = input_cap_unit[path_positions] * (proposed - current)
            flat, owner = expand_csr_rows(
                schedule.fanin_ptr, schedule.fanin_idx, path_positions
            )
            penalty_per_cap = np.bincount(
                owner,
                weights=np.where(on_path[flat], tech.r_unit / sizes[flat], 0.0),
                minlength=path_positions.shape[0],
            )
            benefit = -(own_change + penalty_per_cap * extra_cap)
            cost = area_coeff[path_positions] * (proposed - current)
            ratio = np.where(
                growable & (benefit > 0.0),
                benefit / np.where(cost > 0.0, cost, 1.0),
                0.0,
            )
            best = int(np.argmax(ratio))
            if ratio[best] <= 0.0:
                # No move improves the critical path; the pending targets are
                # infeasible within the size bounds.
                break
            sizes[path_positions[best]] = proposed[best]
            moves += 1

        stop(pending, moves)
        return self._results(
            stage, finals, targets, target_yield, stopped_at, start_time
        )
