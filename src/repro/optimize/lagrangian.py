"""Lagrangian-relaxation-style statistical gate sizing.

This is the repo's stand-in for the sizing primitive of Choi et al. (DAC
2004) that the paper uses as a black box: *minimise the combinational area
of one stage subject to a statistical delay constraint*

    mu_stage + Phi^-1(Y_stage) * sigma_stage  <=  T_TARGET .

The algorithm follows the classic Lagrangian-relaxation sizing recipe
(Chen/Chu/Wong-style) with the statistical part layered on top the way the
paper describes (statistical timing is re-run between sizing iterations and
the deterministic target is tightened by the current ``k * sigma`` margin):

1. The yield constraint is converted into a deterministic combinational
   delay budget ``D = T_TARGET - mean(sequential overhead) - k * sigma_stage``
   where ``sigma_stage`` is re-estimated with the canonical-form SSTA every
   few iterations.
2. Arc criticalities act as Lagrange multipliers: per-gate multipliers are
   updated multiplicatively from the gate slacks (more critical gates get
   larger multipliers) and a global multiplier is adapted up when the budget
   is violated and down when there is slack to recover area.
3. For fixed multipliers the per-gate subproblem has the closed-form
   solution

       x_g = sqrt( lam_g * r * C_load(g)
                   / (dA/dx_g + sum_{h in fanin(g)} lam_h * (r / x_h) * c_in(g)) )

   which balances the area cost and the load the gate presents to its
   drivers against the speed it gains; the update is applied Jacobi-style in
   a couple of sweeps per iteration.
4. The best statistically feasible solution seen (smallest area whose
   deterministic worst arrival meets the current budget) is retained and
   returned.

The complexity per iteration is O(n) in the number of gates, matching the
"iterative low-complexity algorithm" the paper relies on.
"""

from __future__ import annotations

import time

import numpy as np

from repro.optimize.base import StageSizerBase
from repro.optimize.result import SizingResult
from repro.pipeline.stage import PipelineStage
from repro.process.technology import Technology
from repro.process.variation import VariationModel
from repro.timing.sta import arrival_times, required_times


class LagrangianSizer(StageSizerBase):
    """Statistical gate sizer for a single pipeline stage.

    Parameters
    ----------
    technology, variation:
        Process description used for delays and statistics.
    min_size, max_size:
        Allowed range of gate sizes (the paper's ``L_i <= x_i <= U_i``).
    max_outer:
        Maximum number of outer (multiplier update) iterations.
    sweeps_per_outer:
        Closed-form resize sweeps per outer iteration.
    sigma_refresh:
        Outer iterations between SSTA sigma refreshes.
    temperature_fraction:
        Slack-to-multiplier temperature as a fraction of the delay budget;
        smaller values concentrate the multipliers on the most critical gates.
    grid_size:
        Spatial-correlation grid resolution for the embedded SSTA.
    """

    def __init__(
        self,
        technology: Technology,
        variation: VariationModel,
        min_size: float = 1.0,
        max_size: float = 16.0,
        max_outer: int = 40,
        sweeps_per_outer: int = 2,
        sigma_refresh: int = 5,
        temperature_fraction: float = 0.04,
        grid_size: int = 8,
    ) -> None:
        super().__init__(
            technology, variation, min_size, max_size, sigma_refresh, grid_size
        )
        if max_outer < 1:
            raise ValueError(f"max_outer must be at least 1, got {max_outer}")
        self.max_outer = int(max_outer)
        self.sweeps_per_outer = int(sweeps_per_outer)
        self.temperature_fraction = float(temperature_fraction)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _resize_sweep(
        self,
        netlist,
        sizes: np.ndarray,
        weights: np.ndarray,
        area_coeff: np.ndarray,
        input_cap_unit: np.ndarray,
        damping: float = 0.5,
    ) -> np.ndarray:
        """One Gauss-Seidel resize sweep in reverse level order.

        Each gate is resized with the closed-form optimum of its local
        Lagrangian subproblem, using already-updated fanout sizes for its
        load and current fanin sizes for the loading pressure it exerts on
        its drivers.  ``damping`` blends the update geometrically with the
        previous size to suppress oscillation on reconvergent structures.

        Gates within one logic level never drive each other, so the sweep
        processes a whole level at once over the compiled schedule: the
        fanouts (strictly higher levels) are already updated and the fanins
        (strictly lower levels) are untouched, which is exactly the update
        order of the original reverse-topological per-gate loop.
        """
        sizes = sizes.copy()
        schedule = netlist.timing_schedule()
        output_mask = netlist.output_mask()
        pin_cap = input_cap_unit  # per-unit-size input capacitance of each gate
        base_load = np.where(
            output_mask | (schedule.fanout_counts == 0),
            netlist.default_output_load,
            0.0,
        )
        for level in range(schedule.n_levels - 1, -1, -1):
            gates = schedule.level_gates[level]
            loads = base_load[gates].copy()
            driven = schedule.rev_level_gates[level]
            if driven.shape[0]:
                fanout_edges = schedule.rev_level_edges[level]
                contributions = pin_cap[fanout_edges] * sizes[fanout_edges]
                summed = np.add.reduceat(contributions, schedule.rev_level_seg[level])
                loads[np.searchsorted(gates, driven)] += summed
            if level == 0:
                pressure = np.zeros(gates.shape[0])
            else:
                fanin_edges = schedule.level_edges[level]
                pressure = np.add.reduceat(
                    weights[fanin_edges] / sizes[fanin_edges],
                    schedule.level_seg[level],
                )
            denominator = area_coeff[gates] + pin_cap[gates] * pressure
            numerator = weights[gates] * loads
            valid = (numerator > 0.0) & (denominator > 0.0)
            safe_den = np.where(valid, denominator, 1.0)
            optimum = (numerator / safe_den) ** 0.5
            blended = sizes[gates] ** (1.0 - damping) * optimum**damping
            updated = np.clip(blended, self.min_size, self.max_size)
            sizes[gates] = np.where(valid, updated, sizes[gates])
        return sizes

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def size_stage(
        self,
        stage: PipelineStage,
        target_delay: float,
        target_yield: float,
        apply: bool = True,
    ) -> SizingResult:
        """Size one stage for minimum area under a statistical delay target.

        Parameters
        ----------
        stage:
            The pipeline stage to size (its netlist is modified in place when
            ``apply`` is true).
        target_delay:
            Stage delay target ``T_TARGET`` in seconds (including sequential
            overhead).
        target_yield:
            Probability with which the stage must meet ``target_delay``.
        apply:
            Whether to write the final sizes back into the stage netlist.

        Sizing starts from all-minimum sizes, which lets the sizer find the
        smallest-area solution regardless of the stage's current sizing.
        """
        self._check_targets(stage, target_delay, target_yield)
        start_time = time.perf_counter()
        netlist = stage.netlist
        n_gates = netlist.n_gates
        tech = self.technology
        coeffs = netlist.cell_coefficients()
        area_coeff = coeffs["area_factor"] * tech.area_unit
        input_cap_unit = coeffs["logical_effort"] * tech.c_unit
        output_mask = self._output_mask(stage)

        sizes = np.full(n_gates, self.min_size)
        # Initial statistical delay budget.
        budget = self.statistical_budget(stage, sizes, target_delay, target_yield)

        lam = np.ones(n_gates)
        loads = netlist.load_capacitances(sizes)
        scale = float(np.median(area_coeff)) / max(
            float(tech.r_unit * np.median(loads)), 1e-30
        )
        global_multiplier = scale

        best_area = np.inf
        best_sizes: np.ndarray | None = None
        fastest_arrival = np.inf
        fastest_sizes = sizes.copy()
        stable_iterations = 0
        previous_area = netlist.total_area(sizes)
        iterations_used = 0

        for outer in range(self.max_outer):
            iterations_used = outer + 1
            nominal = self.delay_model.nominal_delays(netlist, sizes)
            arrivals = arrival_times(netlist, nominal)
            worst_arrival = float(arrivals[output_mask].max())

            if outer > 0 and outer % self.sigma_refresh == 0:
                budget = self.statistical_budget(
                    stage, sizes, target_delay, target_yield
                )

            slack = required_times(netlist, nominal, budget) - arrivals
            worst_slack = float(slack[output_mask].min())

            # Multiplier updates: per-gate criticality plus global scale.
            temperature = max(self.temperature_fraction * budget, 1e-15)
            update = np.exp(np.clip(-slack / temperature, -1.0, 1.0))
            lam = np.clip(lam * update, 1e-9, 1e9)
            lam *= n_gates / lam.sum()
            if worst_arrival > budget:
                global_multiplier *= 1.25
            else:
                global_multiplier *= 0.90

            # Closed-form resize sweeps (Gauss-Seidel, reverse topological).
            weights = global_multiplier * lam * tech.r_unit
            for _ in range(self.sweeps_per_outer):
                sizes = self._resize_sweep(
                    netlist, sizes, weights, area_coeff, input_cap_unit
                )

            # Track the best (smallest-area) solution that meets the budget
            # and the fastest solution seen, both evaluated at the freshly
            # resized design.
            resized_delays = self.delay_model.nominal_delays(netlist, sizes)
            resized_arrivals = arrival_times(netlist, resized_delays)
            resized_worst = float(resized_arrivals[output_mask].max())
            area_after = netlist.total_area(sizes)
            if resized_worst <= budget and area_after < best_area:
                best_area = area_after
                best_sizes = sizes.copy()
            if resized_worst < fastest_arrival:
                fastest_arrival = resized_worst
                fastest_sizes = sizes.copy()

            # Convergence: feasible and area no longer moving.
            relative_change = abs(area_after - previous_area) / max(previous_area, 1e-30)
            previous_area = area_after
            if worst_slack >= 0.0 and relative_change < 0.002:
                stable_iterations += 1
                if stable_iterations >= 3:
                    break
            else:
                stable_iterations = 0

        # Prefer the smallest feasible design; if the target was never met,
        # return the fastest design found (best effort) rather than whatever
        # the last multiplier state produced.
        final_sizes = best_sizes if best_sizes is not None else fastest_sizes
        return self._result(
            stage,
            final_sizes,
            target_delay,
            target_yield,
            iterations_used,
            apply,
            start_time,
        )
