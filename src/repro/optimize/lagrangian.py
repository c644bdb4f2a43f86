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

The targets of one :meth:`LagrangianSizer.size_targets` call never interact,
so they run as the rows of one ``(k, n_gates)`` state: every step above is
one NumPy call over all the rows still iterating, and each row is the same
bits as that target's own run (DESIGN.md, "One sizing call per curve").
"""

from __future__ import annotations

import time
from typing import NamedTuple, Sequence

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
        plan: list[_LevelRows],
        sizes: np.ndarray,
        weights: np.ndarray,
        damping: float = 0.5,
    ) -> None:
        """One Gauss-Seidel resize sweep in reverse level order, in place.

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

        ``sizes`` (updated in place) and ``weights`` are C-ordered
        ``(k, n_gates)`` rows, read as one flat vector through the offset
        indices of ``plan`` (:meth:`_LevelRows.first`); a row's segment sums
        cover exactly its own entries.
        """
        flat_sizes = sizes.reshape(-1)
        flat_weights = weights.reshape(-1)
        for level in plan:
            gates = level.gates
            loads = level.base_load.copy()
            if level.fanout_edges is not None:
                contributions = level.fanout_cap * flat_sizes[level.fanout_edges]
                summed = np.add.reduceat(contributions, level.fanout_seg)
                loads[level.driven] += summed
            if level.fanin_edges is None:
                pressure = np.zeros(gates.shape[0])
            else:
                pressure = np.add.reduceat(
                    flat_weights[level.fanin_edges] / flat_sizes[level.fanin_edges],
                    level.fanin_seg,
                )
            denominator = level.area + level.pin_cap * pressure
            numerator = flat_weights[gates] * loads
            valid = (numerator > 0.0) & (denominator > 0.0)
            safe_den = np.where(valid, denominator, 1.0)
            optimum = (numerator / safe_den) ** 0.5
            current = flat_sizes[gates]
            blended = current ** (1.0 - damping) * optimum**damping
            updated = np.clip(blended, self.min_size, self.max_size)
            flat_sizes[gates] = np.where(valid, updated, current)

    # ------------------------------------------------------------------
    # Main entry points
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

        This is the one-target call of :meth:`size_targets`.  Sizing starts
        from all-minimum sizes, which lets the sizer find the smallest-area
        solution regardless of the stage's current sizing.
        """
        (result,) = self.size_targets(stage, [target_delay], target_yield)
        if apply:
            stage.netlist.set_sizes(result.sizes)
        return result

    def size_targets(
        self, stage: PipelineStage, targets: Sequence[float], target_yield: float
    ) -> list[SizingResult]:
        """Size one stage for each delay target, from all-minimum sizes.

        The targets run as the rows of one ``(k, n_gates)`` state.  Each row
        keeps its own multipliers, global multiplier, budget, best and
        fastest sizes, stability count and iteration count; a row that
        converges leaves the active rows and the others carry on.  Each
        budget refresh is one SSTA call over the active rows (at outer
        iteration 0 they all sit at minimum sizes and share one form).
        Result ``i`` is the run a lone ``targets[i]`` would make; the netlist
        is not written.
        """
        targets = self._checked_targets(stage, targets, target_yield)
        if not targets:
            return []
        start_time = time.perf_counter()
        netlist = stage.netlist
        n_gates = netlist.n_gates
        n_targets = len(targets)
        tech = self.technology
        coeffs = netlist.cell_coefficients()
        area_coeff = coeffs["area_factor"] * tech.area_unit
        input_cap_unit = coeffs["logical_effort"] * tech.c_unit
        output_mask = self._output_mask(stage)
        row_plan = _row_plan(netlist, area_coeff, input_cap_unit, n_targets)
        plan = [level.first(n_targets) for level in row_plan]

        minimum = np.full(n_gates, self.min_size)
        loads = netlist.load_capacitances(minimum)
        scale = float(np.median(area_coeff)) / max(
            float(tech.r_unit * np.median(loads)), 1e-30
        )

        # Row state, one C-ordered row per target still iterating; ``rows``
        # maps each active row to its target.
        rows = np.arange(n_targets)
        sizes = np.tile(minimum, (n_targets, 1))
        lam = np.ones((n_targets, n_gates))
        global_multiplier = np.full(n_targets, scale)
        budget = np.empty(n_targets)
        best_area = np.full(n_targets, np.inf)
        best_sizes = np.empty((n_targets, n_gates))
        has_best = np.zeros(n_targets, dtype=bool)
        fastest_arrival = np.full(n_targets, np.inf)
        fastest_sizes = sizes.copy()
        stable_iterations = np.zeros(n_targets, dtype=np.int64)
        previous_area = np.full(n_targets, netlist.total_area(minimum))
        finals: list[np.ndarray | None] = [None] * n_targets
        iterations = [self.max_outer] * n_targets

        def finish(done: np.ndarray) -> None:
            for row in np.flatnonzero(done).tolist():
                # Prefer the smallest feasible design; if the target was never
                # met, return the fastest design found (best effort) rather
                # than whatever the last multiplier state produced.
                final = best_sizes[row] if has_best[row] else fastest_sizes[row]
                finals[rows[row]] = final.copy()

        # Each iteration's resized delays and arrivals are the next one's.
        nominal = self.delay_model.nominal_delays(netlist, sizes)
        arrivals = arrival_times(netlist, nominal)
        for outer in range(self.max_outer):
            worst_arrival = arrivals[:, output_mask].max(axis=1)

            if outer % self.sigma_refresh == 0:
                # One SSTA call for every active row (at outer iteration 0
                # all rows sit at minimum sizes, and the memo computes that
                # form once).
                forms = self._stage_form(stage, sizes)
                for row, form in enumerate(forms):
                    budget[row] = self.statistical_budget(
                        form, float(worst_arrival[row]), targets[rows[row]], target_yield
                    )

            slack = required_times(netlist, nominal, budget) - arrivals
            worst_slack = slack[:, output_mask].min(axis=1)

            # Multiplier updates: per-gate criticality plus global scale.
            temperature = np.maximum(self.temperature_fraction * budget, 1e-15)
            update = np.exp(np.clip(-slack / temperature[:, None], -1.0, 1.0))
            lam = np.clip(lam * update, 1e-9, 1e9)
            lam *= (n_gates / lam.sum(axis=1))[:, None]
            global_multiplier *= np.where(worst_arrival > budget, 1.25, 0.90)

            # Closed-form resize sweeps (Gauss-Seidel, reverse topological).
            weights = global_multiplier[:, None] * lam * tech.r_unit
            for _ in range(self.sweeps_per_outer):
                self._resize_sweep(plan, sizes, weights)

            # Track the best (smallest-area) solution that meets the budget
            # and the fastest solution seen, both evaluated at the freshly
            # resized design.
            nominal = self.delay_model.nominal_delays(netlist, sizes)
            arrivals = arrival_times(netlist, nominal)
            resized_worst = arrivals[:, output_mask].max(axis=1)
            area_after = netlist.total_area(sizes)
            better = (resized_worst <= budget) & (area_after < best_area)
            best_area[better] = area_after[better]
            best_sizes[better] = sizes[better]
            has_best |= better
            faster = resized_worst < fastest_arrival
            fastest_arrival[faster] = resized_worst[faster]
            fastest_sizes[faster] = sizes[faster]

            # Convergence: feasible and area no longer moving.
            relative_change = np.abs(area_after - previous_area) / np.maximum(
                previous_area, 1e-30
            )
            previous_area = area_after
            steady = (worst_slack >= 0.0) & (relative_change < 0.002)
            stable_iterations = np.where(steady, stable_iterations + 1, 0)
            done = stable_iterations >= 3
            if done.any():
                finish(done)
                for row in rows[done].tolist():
                    iterations[row] = outer + 1
                keep = ~done
                (rows, sizes, lam, global_multiplier, budget, best_area,
                 best_sizes, has_best, fastest_arrival, fastest_sizes,
                 stable_iterations, previous_area, nominal, arrivals) = (
                    state[keep] for state in (
                        rows, sizes, lam, global_multiplier, budget, best_area,
                        best_sizes, has_best, fastest_arrival, fastest_sizes,
                        stable_iterations, previous_area, nominal, arrivals,
                    )
                )
                if not rows.shape[0]:
                    break
                plan = [level.first(rows.shape[0]) for level in row_plan]

        finish(np.ones(rows.shape[0], dtype=bool))
        return self._results(
            stage, finals, targets, target_yield, iterations, start_time
        )


class _LevelRows(NamedTuple):
    """One level's resize-sweep indices and constants, one row per target.

    Row ``r`` of an index array is the level's 1-D array offset by the
    row's start in the flat vector (``r * n_gates`` for gate indices, the
    row's first entry for ``reduceat`` segment starts); the per-gate
    constants repeat unchanged.  ``fanout_edges`` is ``None`` when no gate
    of the level drives another, ``fanin_edges`` at level 0.
    """

    gates: np.ndarray
    base_load: np.ndarray
    area: np.ndarray
    pin_cap: np.ndarray
    fanout_edges: np.ndarray | None
    fanout_cap: np.ndarray
    fanout_seg: np.ndarray
    driven: np.ndarray
    fanin_edges: np.ndarray | None
    fanin_seg: np.ndarray | None

    def first(self, n_rows: int) -> "_LevelRows":
        """The first ``n_rows`` rows, each array flattened (a view)."""
        return _LevelRows(
            *(None if array is None else array[:n_rows].reshape(-1) for array in self)
        )


def _row_plan(
    netlist, area_coeff: np.ndarray, pin_cap: np.ndarray, n_rows: int
) -> tuple[_LevelRows, ...]:
    """The resize sweep's per-level arrays for ``n_rows`` rows, deepest first."""
    schedule = netlist.timing_schedule()
    base_load = np.where(
        netlist.output_mask() | (schedule.fanout_counts == 0),
        netlist.default_output_load,
        0.0,
    )
    starts = np.arange(n_rows)[:, None]

    def offset(indices: np.ndarray, stride: int) -> np.ndarray:
        return indices + stride * starts

    def repeat(values: np.ndarray) -> np.ndarray:
        return np.tile(values, (n_rows, 1))

    plan = []
    for level in range(schedule.n_levels - 1, -1, -1):
        gates = schedule.level_gates[level]
        driven = schedule.rev_level_gates[level]
        fanout_edges = schedule.rev_level_edges[level]
        fanin_edges = schedule.level_edges[level]
        plan.append(
            _LevelRows(
                gates=offset(gates, schedule.n_gates),
                base_load=repeat(base_load[gates]),
                area=repeat(area_coeff[gates]),
                pin_cap=repeat(pin_cap[gates]),
                fanout_edges=(
                    offset(fanout_edges, schedule.n_gates) if driven.shape[0] else None
                ),
                fanout_cap=repeat(pin_cap[fanout_edges]),
                fanout_seg=offset(schedule.rev_level_seg[level], fanout_edges.shape[0]),
                driven=offset(np.searchsorted(gates, driven), gates.shape[0]),
                fanin_edges=offset(fanin_edges, schedule.n_gates) if level else None,
                fanin_seg=(
                    offset(schedule.level_seg[level], fanin_edges.shape[0])
                    if level
                    else None
                ),
            )
        )
    return tuple(plan)
