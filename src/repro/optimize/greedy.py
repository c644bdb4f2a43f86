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
"""

from __future__ import annotations

import time

import numpy as np

from repro.circuit.schedule import expand_csr_rows
from repro.optimize.base import StageSizerBase
from repro.optimize.result import SizingResult
from repro.pipeline.stage import PipelineStage
from repro.process.technology import Technology
from repro.process.variation import VariationModel
from repro.timing.sta import arrival_times, critical_path


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
        """Size one stage greedily for the statistical delay target."""
        self._check_targets(stage, target_delay, target_yield)
        start_time = time.perf_counter()
        netlist = stage.netlist
        n_gates = netlist.n_gates
        tech = self.technology
        coeffs = netlist.cell_coefficients()
        area_coeff = coeffs["area_factor"] * tech.area_unit
        input_cap_unit = coeffs["logical_effort"] * tech.c_unit
        index_of = netlist.gate_index()
        # The compiled schedule is cached across the whole sizing run: size
        # moves do not touch netlist structure, so every arrival/critical-path
        # evaluation below reuses the same CSR arrays.
        schedule = netlist.timing_schedule()
        output_mask = self._output_mask(stage)

        sizes = np.full(n_gates, self.min_size)
        budget = self.statistical_budget(stage, sizes, target_delay, target_yield)

        moves = 0
        while moves < self.max_moves:
            nominal = self.delay_model.nominal_delays(netlist, sizes)
            arrivals = arrival_times(netlist, nominal)
            if float(arrivals[output_mask].max()) <= budget:
                break

            path_names = critical_path(netlist, nominal, arrivals=arrivals)
            path_positions = np.array(
                [index_of[name] for name in path_names], dtype=np.int64
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
                # No move improves the critical path; the target is infeasible
                # within the size bounds.
                break
            sizes[path_positions[best]] = proposed[best]
            moves += 1
            if moves % self.sigma_refresh == 0:
                budget = self.statistical_budget(
                    stage, sizes, target_delay, target_yield
                )

        return self._result(
            stage, sizes, target_delay, target_yield, moves, apply, start_time
        )
