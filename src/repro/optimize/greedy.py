"""TILOS-like greedy statistical sizer (baseline / ablation).

The greedy sizer is the classical alternative to Lagrangian relaxation:
starting from the all-minimum-size design, repeatedly upsize the single gate
on the statistically critical path that buys the most delay per unit of
added area, until the statistical delay target is met (or no further
improvement is possible).  It is used as a baseline for the sizer ablation
benchmark and as a fast sizer for small blocks in the tests.

The statistical target handling mirrors :class:`~repro.optimize.lagrangian.LagrangianSizer`:
the yield constraint is converted to a deterministic combinational budget
``T_TARGET - mean(overhead) - k * sigma_stage`` and the sigma estimate is
refreshed with SSTA every ``sigma_refresh`` accepted moves.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import ndtri

from repro.circuit.schedule import expand_csr_rows
from repro.core.stage_delay import StageDelayDistribution
from repro.optimize.result import SizingResult
from repro.pipeline.stage import PipelineStage
from repro.process.technology import Technology
from repro.process.variation import VariationModel
from repro.timing.delay_model import GateDelayModel
from repro.timing.sta import arrival_times, critical_path
from repro.timing.ssta import StatisticalTimingAnalyzer


class GreedySizer:
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
        if min_size <= 0.0 or max_size < min_size:
            raise ValueError(
                f"need 0 < min_size <= max_size, got {min_size}, {max_size}"
            )
        if size_step <= 1.0:
            raise ValueError(f"size_step must exceed 1, got {size_step}")
        self.technology = technology
        self.variation = variation
        self.min_size = float(min_size)
        self.max_size = float(max_size)
        self.size_step = float(size_step)
        self.max_moves = int(max_moves)
        self.sigma_refresh = int(max(1, sigma_refresh))
        self.delay_model = GateDelayModel(technology)
        self.ssta = StatisticalTimingAnalyzer(technology, variation, grid_size=grid_size)

    def _stage_form(self, stage: PipelineStage, sizes: np.ndarray):
        return self.ssta.stage_delay(
            stage.netlist, stage.flipflop, stage.register_position, sizes=sizes
        )

    def size_stage(
        self,
        stage: PipelineStage,
        target_delay: float,
        target_yield: float,
        apply: bool = True,
    ) -> SizingResult:
        """Size one stage greedily for the statistical delay target."""
        if target_delay <= 0.0:
            raise ValueError(f"target_delay must be positive, got {target_delay}")
        if not 0.0 < target_yield < 1.0:
            raise ValueError(f"target_yield must be in (0, 1), got {target_yield}")

        start_time = time.perf_counter()
        netlist = stage.netlist
        n_gates = netlist.n_gates
        if n_gates == 0:
            raise ValueError(f"stage {stage.name!r} has no gates to size")
        tech = self.technology
        coeffs = netlist.cell_coefficients()
        area_coeff = coeffs["area_factor"] * tech.area_unit
        input_cap_unit = coeffs["logical_effort"] * tech.c_unit
        index_of = netlist.gate_index()
        # The compiled schedule is cached across the whole sizing run: size
        # moves do not touch netlist structure, so every arrival/critical-path
        # evaluation below reuses the same CSR arrays.
        schedule = netlist.timing_schedule()
        output_mask = netlist.output_mask()
        if not output_mask.any():
            output_mask = np.ones(n_gates, dtype=bool)
        k_yield = float(ndtri(target_yield))

        sizes = np.full(n_gates, self.min_size)

        def statistical_budget(current_sizes: np.ndarray) -> float:
            """Deterministic arrival budget implied by the statistical target
            (see :class:`~repro.optimize.lagrangian.LagrangianSizer`)."""
            form = self._stage_form(stage, current_sizes)
            nominal = self.delay_model.nominal_delays(netlist, current_sizes)
            worst = float(arrival_times(netlist, nominal)[output_mask].max())
            statistical_delay = form.mean + k_yield * form.sigma
            guard = 0.004 * target_delay
            value = worst + (target_delay - statistical_delay) - guard
            return value if value > 0.0 else 0.05 * target_delay

        budget = statistical_budget(sizes)

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
                budget = statistical_budget(sizes)

        form = self._stage_form(stage, sizes)
        distribution = StageDelayDistribution.from_canonical(form, name=stage.name)
        achieved_yield = distribution.yield_at(target_delay)
        met = achieved_yield + 1e-9 >= target_yield
        if apply:
            netlist.set_sizes(sizes)
        return SizingResult(
            sizes=sizes,
            area=netlist.total_area(sizes),
            stage_delay=distribution,
            target_delay=target_delay,
            target_yield=target_yield,
            achieved_yield=achieved_yield,
            met_target=met,
            iterations=moves,
            seconds=time.perf_counter() - start_time,
        )

    # ------------------------------------------------------------------
    # Convenience queries (shared sizer-strategy surface)
    # ------------------------------------------------------------------
    def stage_distribution(self, stage: PipelineStage) -> StageDelayDistribution:
        """Stage delay distribution at the stage's current sizes."""
        form = self._stage_form(stage, stage.netlist.sizes())
        return StageDelayDistribution.from_canonical(form, name=stage.name)

    def minimum_area_delay(
        self, stage: PipelineStage, target_yield: float
    ) -> tuple[float, float]:
        """Delay (at the target yield) and area of the all-minimum-size stage."""
        sizes = np.full(stage.netlist.n_gates, self.min_size)
        form = self._stage_form(stage, sizes)
        distribution = StageDelayDistribution.from_canonical(form, name=stage.name)
        return distribution.delay_at_yield(target_yield), stage.netlist.total_area(sizes)
