"""Tests for the statistical gate sizers (Lagrangian and greedy)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ndtri

from repro.api import PipelineSpec
from repro.circuit.flipflop import FlipFlopTiming
from repro.circuit.generators import inverter_chain, random_logic_block
from repro.circuit.schedule import expand_csr_rows
from repro.core.stage_delay import StageDelayDistribution
from repro.optimize.area_delay import characterize_stage
from repro.optimize.greedy import GreedySizer
from repro.optimize.lagrangian import LagrangianSizer
from repro.optimize.result import SizingResult
from repro.pipeline.stage import PipelineStage
from repro.process.variation import VariationModel
from repro.timing.delay_model import GateDelayModel
from repro.timing.sta import arrival_times, critical_path, required_times


@pytest.fixture
def stage():
    block = random_logic_block(
        "blk", n_gates=50, depth=9, n_inputs=7, n_outputs=4, seed=13
    )
    return PipelineStage("blk", block, flipflop=FlipFlopTiming())


@pytest.fixture
def greedy_sizer(technology, variation_combined):
    return GreedySizer(technology, variation_combined, max_moves=1500)


class TestLagrangianSizer:
    def test_meets_moderate_target(self, lagrangian_sizer, stage):
        base = lagrangian_sizer.stage_distribution(stage)
        target = 0.85 * base.delay_at_yield(0.93)
        result = lagrangian_sizer.size_stage(stage, target, 0.93, apply=False)
        assert result.met_target
        assert result.achieved_yield >= 0.93 - 1e-6
        assert result.stage_delay.delay_at_yield(0.93) <= target * 1.001

    def test_tighter_target_needs_more_area(self, lagrangian_sizer, stage):
        base = lagrangian_sizer.stage_distribution(stage)
        reference = base.delay_at_yield(0.93)
        relaxed = lagrangian_sizer.size_stage(stage, 0.95 * reference, 0.93, apply=False)
        tight = lagrangian_sizer.size_stage(stage, 0.75 * reference, 0.93, apply=False)
        assert tight.area > relaxed.area

    def test_loose_target_stays_near_minimum_area(self, lagrangian_sizer, stage):
        min_area = stage.netlist.total_area(np.ones(stage.n_gates))
        base = lagrangian_sizer.stage_distribution(stage)
        result = lagrangian_sizer.size_stage(
            stage, 1.3 * base.delay_at_yield(0.93), 0.93, apply=False
        )
        assert result.met_target
        assert result.area <= 1.15 * min_area

    def test_apply_writes_sizes(self, lagrangian_sizer, stage):
        base = lagrangian_sizer.stage_distribution(stage)
        target = 0.85 * base.delay_at_yield(0.93)
        result = lagrangian_sizer.size_stage(stage, target, 0.93, apply=True)
        assert np.allclose(stage.netlist.sizes(), result.sizes)

    def test_apply_false_leaves_netlist_unchanged(self, lagrangian_sizer, stage):
        before = stage.netlist.sizes()
        base = lagrangian_sizer.stage_distribution(stage)
        lagrangian_sizer.size_stage(stage, 0.85 * base.delay_at_yield(0.93), 0.93, apply=False)
        assert np.allclose(stage.netlist.sizes(), before)

    def test_sizes_respect_bounds(self, technology, variation_combined, stage):
        sizer = LagrangianSizer(technology, variation_combined, min_size=1.0, max_size=4.0)
        base = sizer.stage_distribution(stage)
        result = sizer.size_stage(stage, 0.7 * base.delay_at_yield(0.9), 0.9, apply=False)
        assert np.all(result.sizes >= 1.0 - 1e-12)
        assert np.all(result.sizes <= 4.0 + 1e-12)

    def test_impossible_target_reports_not_met(self, lagrangian_sizer, stage):
        result = lagrangian_sizer.size_stage(stage, 5e-12, 0.93, apply=False)
        assert not result.met_target
        assert result.achieved_yield < 0.93

    def test_higher_yield_requirement_needs_more_area(self, lagrangian_sizer, stage):
        base = lagrangian_sizer.stage_distribution(stage)
        target = 0.9 * base.delay_at_yield(0.93)
        modest = lagrangian_sizer.size_stage(stage, target, 0.80, apply=False)
        strict = lagrangian_sizer.size_stage(stage, target, 0.99, apply=False)
        assert strict.area >= modest.area

    def test_validation(self, lagrangian_sizer, stage, technology, variation_combined):
        with pytest.raises(ValueError):
            lagrangian_sizer.size_stage(stage, -1.0, 0.9)
        with pytest.raises(ValueError):
            lagrangian_sizer.size_stage(stage, 1e-9, 1.5)
        with pytest.raises(ValueError):
            LagrangianSizer(technology, variation_combined, min_size=2.0, max_size=1.0)

    def test_minimum_area_delay(self, lagrangian_sizer, stage):
        """The all-minimum-size endpoint of the stage's area-delay curve."""
        stage.netlist.set_sizes(np.ones(stage.n_gates))
        curve = characterize_stage(stage, lagrangian_sizer, 0.93, n_points=1)
        endpoint = min(curve.points, key=lambda point: point.area)
        assert np.all(endpoint.sizes == lagrangian_sizer.min_size)
        assert endpoint.delay > 0.0
        assert endpoint.delay == lagrangian_sizer.stage_distribution(
            stage
        ).delay_at_yield(0.93)
        assert endpoint.area == pytest.approx(
            stage.netlist.total_area(np.ones(stage.n_gates))
        )

    def test_inverter_chain_geometric_like_sizing(self, lagrangian_sizer):
        """Sizing a loaded chain should taper sizes towards the load."""
        chain = inverter_chain(5)
        chain.default_output_load = 40e-15
        stage = PipelineStage("chain", chain)
        base = lagrangian_sizer.stage_distribution(stage)
        result = lagrangian_sizer.size_stage(stage, 0.75 * base.delay_at_yield(0.9), 0.9, apply=False)
        assert result.met_target
        # The driver closest to the big load ends up biggest.
        assert int(np.argmax(result.sizes)) == len(result.sizes) - 1


class TestGreedySizer:
    def test_meets_moderate_target(self, greedy_sizer, stage):
        form = greedy_sizer.ssta.stage_delay(
            stage.netlist, stage.flipflop, stage.register_position,
            sizes=np.ones(stage.n_gates),
        )
        from repro.core.stage_delay import StageDelayDistribution

        base = StageDelayDistribution.from_canonical(form)
        target = 0.85 * base.delay_at_yield(0.93)
        result = greedy_sizer.size_stage(stage, target, 0.93, apply=False)
        assert result.met_target
        assert result.area > stage.netlist.total_area(np.ones(stage.n_gates))

    def test_moves_bounded(self, technology, variation_combined, stage):
        sizer = GreedySizer(technology, variation_combined, max_moves=5)
        result = sizer.size_stage(stage, 1e-12, 0.9, apply=False)
        assert result.iterations <= 5
        assert not result.met_target

    def test_validation(self, greedy_sizer, stage, technology, variation_combined):
        with pytest.raises(ValueError):
            greedy_sizer.size_stage(stage, 0.0, 0.9)
        with pytest.raises(ValueError):
            GreedySizer(technology, variation_combined, size_step=1.0)

    def test_greedy_and_lagrangian_agree_on_feasibility(
        self, greedy_sizer, lagrangian_sizer, stage
    ):
        base = lagrangian_sizer.stage_distribution(stage)
        target = 0.85 * base.delay_at_yield(0.93)
        greedy = greedy_sizer.size_stage(stage, target, 0.93, apply=False)
        lagrangian = lagrangian_sizer.size_stage(stage, target, 0.93, apply=False)
        assert greedy.met_target and lagrangian.met_target


# ----------------------------------------------------------------------
# Batched sizing pinned to the per-target runs
# ----------------------------------------------------------------------
# Verbatim copies of the per-target sizing loops that ``size_targets``
# replaced (greedy ``size_stage``, Lagrangian ``size_stage`` and
# ``_resize_sweep``, and the budget and result epilogue they shared), kept
# here as the reference every batched result must equal bit for bit.


def _reference_output_mask(stage):
    mask = stage.netlist.output_mask()
    if not mask.any():
        mask = np.ones(stage.netlist.n_gates, dtype=bool)
    return mask


def _reference_distribution(sizer, stage, sizes):
    form = sizer.ssta.stage_delay(
        stage.netlist, stage.flipflop, stage.register_position, sizes=sizes
    )
    return StageDelayDistribution.from_canonical(form, name=stage.name)


def _reference_budget(sizer, stage, sizes, target_delay, target_yield):
    netlist = stage.netlist
    form = sizer.ssta.stage_delay(
        netlist, stage.flipflop, stage.register_position, sizes=sizes
    )
    nominal = sizer.delay_model.nominal_delays(netlist, sizes)
    worst = float(arrival_times(netlist, nominal)[_reference_output_mask(stage)].max())
    statistical_delay = form.mean + float(ndtri(target_yield)) * form.sigma
    guard = 0.004 * target_delay
    budget = worst + (target_delay - statistical_delay) - guard
    return budget if budget > 0.0 else 0.05 * target_delay


def _reference_result(sizer, stage, sizes, target_delay, target_yield, iterations):
    distribution = _reference_distribution(sizer, stage, sizes)
    achieved_yield = distribution.yield_at(target_delay)
    return SizingResult(
        sizes=sizes,
        area=stage.netlist.total_area(sizes),
        stage_delay=distribution,
        target_delay=target_delay,
        target_yield=target_yield,
        achieved_yield=achieved_yield,
        met_target=achieved_yield + 1e-9 >= target_yield,
        iterations=iterations,
    )


def reference_greedy(sizer, stage, target_delay, target_yield):
    netlist = stage.netlist
    n_gates = netlist.n_gates
    tech = sizer.technology
    coeffs = netlist.cell_coefficients()
    area_coeff = coeffs["area_factor"] * tech.area_unit
    input_cap_unit = coeffs["logical_effort"] * tech.c_unit
    index_of = netlist.gate_index()
    schedule = netlist.timing_schedule()
    output_mask = _reference_output_mask(stage)

    sizes = np.full(n_gates, sizer.min_size)
    budget = _reference_budget(sizer, stage, sizes, target_delay, target_yield)

    moves = 0
    while moves < sizer.max_moves:
        nominal = sizer.delay_model.nominal_delays(netlist, sizes)
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

        current = sizes[path_positions]
        proposed = np.minimum(current * sizer.size_step, sizer.max_size)
        growable = proposed > current * (1.0 + 1e-9)
        own_change = (
            tech.r_unit * loads[path_positions] * (1.0 / proposed - 1.0 / current)
        )
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
            break
        sizes[path_positions[best]] = proposed[best]
        moves += 1
        if moves % sizer.sigma_refresh == 0:
            budget = _reference_budget(sizer, stage, sizes, target_delay, target_yield)

    return _reference_result(sizer, stage, sizes, target_delay, target_yield, moves)


def _reference_resize_sweep(
    sizer, netlist, sizes, weights, area_coeff, input_cap_unit, damping=0.5
):
    sizes = sizes.copy()
    schedule = netlist.timing_schedule()
    output_mask = netlist.output_mask()
    pin_cap = input_cap_unit
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
        updated = np.clip(blended, sizer.min_size, sizer.max_size)
        sizes[gates] = np.where(valid, updated, sizes[gates])
    return sizes


def reference_lagrangian(sizer, stage, target_delay, target_yield):
    netlist = stage.netlist
    n_gates = netlist.n_gates
    tech = sizer.technology
    coeffs = netlist.cell_coefficients()
    area_coeff = coeffs["area_factor"] * tech.area_unit
    input_cap_unit = coeffs["logical_effort"] * tech.c_unit
    output_mask = _reference_output_mask(stage)

    sizes = np.full(n_gates, sizer.min_size)
    budget = _reference_budget(sizer, stage, sizes, target_delay, target_yield)

    lam = np.ones(n_gates)
    loads = netlist.load_capacitances(sizes)
    scale = float(np.median(area_coeff)) / max(
        float(tech.r_unit * np.median(loads)), 1e-30
    )
    global_multiplier = scale

    best_area = np.inf
    best_sizes = None
    fastest_arrival = np.inf
    fastest_sizes = sizes.copy()
    stable_iterations = 0
    previous_area = netlist.total_area(sizes)
    iterations_used = 0

    for outer in range(sizer.max_outer):
        iterations_used = outer + 1
        nominal = sizer.delay_model.nominal_delays(netlist, sizes)
        arrivals = arrival_times(netlist, nominal)
        worst_arrival = float(arrivals[output_mask].max())

        if outer > 0 and outer % sizer.sigma_refresh == 0:
            budget = _reference_budget(sizer, stage, sizes, target_delay, target_yield)

        slack = required_times(netlist, nominal, budget) - arrivals
        worst_slack = float(slack[output_mask].min())

        temperature = max(sizer.temperature_fraction * budget, 1e-15)
        update = np.exp(np.clip(-slack / temperature, -1.0, 1.0))
        lam = np.clip(lam * update, 1e-9, 1e9)
        lam *= n_gates / lam.sum()
        if worst_arrival > budget:
            global_multiplier *= 1.25
        else:
            global_multiplier *= 0.90

        weights = global_multiplier * lam * tech.r_unit
        for _ in range(sizer.sweeps_per_outer):
            sizes = _reference_resize_sweep(
                sizer, netlist, sizes, weights, area_coeff, input_cap_unit
            )

        resized_delays = sizer.delay_model.nominal_delays(netlist, sizes)
        resized_arrivals = arrival_times(netlist, resized_delays)
        resized_worst = float(resized_arrivals[output_mask].max())
        area_after = netlist.total_area(sizes)
        if resized_worst <= budget and area_after < best_area:
            best_area = area_after
            best_sizes = sizes.copy()
        if resized_worst < fastest_arrival:
            fastest_arrival = resized_worst
            fastest_sizes = sizes.copy()

        relative_change = abs(area_after - previous_area) / max(previous_area, 1e-30)
        previous_area = area_after
        if worst_slack >= 0.0 and relative_change < 0.002:
            stable_iterations += 1
            if stable_iterations >= 3:
                break
        else:
            stable_iterations = 0

    final_sizes = best_sizes if best_sizes is not None else fastest_sizes
    return _reference_result(
        sizer, stage, final_sizes, target_delay, target_yield, iterations_used
    )


def assert_same_result(result, reference):
    """Every field of the contract, ``seconds`` excluded."""
    assert result.sizes.tobytes() == reference.sizes.tobytes()
    assert result.iterations == reference.iterations
    assert result.area == reference.area
    assert result.stage_delay.mean == reference.stage_delay.mean
    assert result.stage_delay.std == reference.stage_delay.std
    assert result.achieved_yield == reference.achieved_yield
    assert result.met_target == reference.met_target
    assert result.target_delay == reference.target_delay
    assert result.target_yield == reference.target_yield


def minimum_size_delay(sizer, stage, target_yield):
    sizes = np.full(stage.n_gates, sizer.min_size)
    return _reference_distribution(sizer, stage, sizes).delay_at_yield(target_yield)


def check_against_reference(sizer, reference, stage, targets, target_yield):
    before = stage.netlist.sizes()
    results = sizer.size_targets(stage, targets, target_yield)
    assert np.array_equal(stage.netlist.sizes(), before)
    assert len(results) == len(targets)
    for target, result in zip(targets, results):
        assert_same_result(result, reference(sizer, stage, target, target_yield))


VARIATIONS = {
    "combined": VariationModel.combined(),
    "zero_intra": VariationModel.inter_only(),
}


@st.composite
def sizing_cases(draw):
    n_gates = draw(st.integers(20, 150))
    block = random_logic_block(
        "blk",
        n_gates=n_gates,
        depth=draw(st.integers(3, min(12, n_gates))),
        # Three inputs at least: a level-1 three-input gate needs three
        # distinct drivers.
        n_inputs=draw(st.integers(3, 8)),
        n_outputs=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 10_000)),
    )
    stage = PipelineStage("blk", block, flipflop=FlipFlopTiming())
    variation = VARIATIONS[draw(st.sampled_from(sorted(VARIATIONS)))]
    target_yield = draw(st.sampled_from([0.5, 0.9, 0.99]))
    fractions = draw(st.lists(st.floats(0.3, 1.2), min_size=1, max_size=7))
    if len(fractions) > 1:
        # One target repeated at another position; the rest stay unsorted.
        source, copy = draw(
            st.lists(
                st.integers(0, len(fractions) - 1), min_size=2, max_size=2, unique=True
            )
        )
        fractions[copy] = fractions[source]
    return stage, variation, target_yield, fractions


def fixed_case(fractions):
    """A drawn-case stand-in that refreshes budgets before targets stop."""
    block = random_logic_block(
        "blk", n_gates=60, depth=8, n_inputs=5, n_outputs=3, seed=0
    )
    stage = PipelineStage("blk", block, flipflop=FlipFlopTiming())
    return stage, VARIATIONS["combined"], 0.9, fractions


class TestSizeTargets:
    """``size_targets`` equals the per-target runs it replaced, bit for bit."""

    @example(
        case=fixed_case([0.7, 0.85, 0.7, 1.0]),
        max_moves=4000,
        sigma_refresh=7,
        max_size=16.0,
    )
    @settings(max_examples=25, deadline=None)
    @given(
        case=sizing_cases(),
        max_moves=st.sampled_from([5, 30, 4000]),
        sigma_refresh=st.sampled_from([1, 7, 50]),
        max_size=st.sampled_from([4.0, 16.0]),
    )
    def test_greedy_matches_per_target_runs(
        self, technology, case, max_moves, sigma_refresh, max_size
    ):
        stage, variation, target_yield, fractions = case
        sizer = GreedySizer(
            technology, variation, max_size=max_size, max_moves=max_moves,
            sigma_refresh=sigma_refresh,
        )
        delay = minimum_size_delay(sizer, stage, target_yield)
        targets = [fraction * delay for fraction in fractions]
        check_against_reference(sizer, reference_greedy, stage, targets, target_yield)

    @example(case=fixed_case([0.5, 0.8, 0.5, 1.1]), max_outer=40, sigma_refresh=5)
    @settings(max_examples=20, deadline=None)
    @given(
        case=sizing_cases(),
        max_outer=st.sampled_from([1, 6, 40]),
        sigma_refresh=st.sampled_from([1, 5]),
    )
    def test_lagrangian_matches_per_target_runs(
        self, technology, case, max_outer, sigma_refresh
    ):
        stage, variation, target_yield, fractions = case
        sizer = LagrangianSizer(
            technology, variation, max_outer=max_outer, sigma_refresh=sigma_refresh
        )
        delay = minimum_size_delay(sizer, stage, target_yield)
        targets = [fraction * delay for fraction in fractions]
        check_against_reference(
            sizer, reference_lagrangian, stage, targets, target_yield
        )

    @pytest.mark.parametrize("stage_index", [0, 1], ids=["c432", "c499"])
    @pytest.mark.parametrize(
        "sizer_cls, reference",
        [(GreedySizer, reference_greedy), (LagrangianSizer, reference_lagrangian)],
        ids=["greedy", "lagrangian"],
    )
    def test_design_sweep_curve_targets(
        self, technology, variation_combined, stage_index, sizer_cls, reference
    ):
        """The stages and curve targets of the ``design_sweep`` workload."""
        pipeline = PipelineSpec(kind="iscas", benchmarks=("c432", "c499")).build(
            technology
        )
        stage = pipeline.stages[stage_index]
        sizer = sizer_cls(technology, variation_combined)
        curve_yield = 0.80 ** 0.5
        delay = minimum_size_delay(sizer, stage, curve_yield)
        targets = [
            float(fraction * delay)
            for fraction in np.linspace(0.55, 1.0, 4, endpoint=False)
        ]
        check_against_reference(sizer, reference, stage, targets, curve_yield)

    def test_size_stage_is_the_one_target_call(
        self, technology, variation_combined, stage
    ):
        for sizer in (
            GreedySizer(technology, variation_combined),
            LagrangianSizer(technology, variation_combined),
        ):
            target = 0.8 * minimum_size_delay(sizer, stage, 0.9)
            (batched,) = sizer.size_targets(stage, [target], 0.9)
            result = sizer.size_stage(stage, target, 0.9)
            assert_same_result(result, batched)
            assert np.array_equal(stage.netlist.sizes(), result.sizes)
            stage.netlist.set_sizes(np.ones(stage.n_gates))

    def test_no_targets_and_validation(self, technology, variation_combined, stage):
        for sizer in (
            GreedySizer(technology, variation_combined),
            LagrangianSizer(technology, variation_combined),
        ):
            assert sizer.size_targets(stage, [], 0.9) == []
            with pytest.raises(ValueError):
                sizer.size_targets(stage, [1e-9, -1.0], 0.9)
            with pytest.raises(ValueError):
                sizer.size_targets(stage, [1e-9], 1.0)


class TestRowHelpers:
    """``(k, n)`` rows through the shared helpers equal each row's 1-D call."""

    @staticmethod
    def _rows(stage, n_rows, seed):
        rng = np.random.default_rng(seed)
        return rng.uniform(1.0, 16.0, size=(n_rows, stage.n_gates))

    @example(case=fixed_case([1.0]), n_rows=4, seed=0)
    @settings(max_examples=25, deadline=None)
    @given(case=sizing_cases(), n_rows=st.integers(1, 7), seed=st.integers(0, 99))
    def test_load_capacitances_rows(self, case, n_rows, seed):
        stage = case[0]
        sizes = self._rows(stage, n_rows, seed)
        loads = stage.netlist.load_capacitances(sizes)
        assert loads.shape == sizes.shape
        for row, row_sizes in zip(loads, sizes):
            assert row.tobytes() == stage.netlist.load_capacitances(row_sizes).tobytes()

    @example(case=fixed_case([1.0]), n_rows=4, seed=0)
    @settings(max_examples=25, deadline=None)
    @given(case=sizing_cases(), n_rows=st.integers(1, 7), seed=st.integers(0, 99))
    def test_nominal_delays_rows(self, technology, case, n_rows, seed):
        stage = case[0]
        model = GateDelayModel(technology)
        sizes = self._rows(stage, n_rows, seed)
        delays = model.nominal_delays(stage.netlist, sizes)
        assert delays.shape == sizes.shape
        for row, row_sizes in zip(delays, sizes):
            expected = model.nominal_delays(stage.netlist, row_sizes)
            assert row.tobytes() == expected.tobytes()

    @example(case=fixed_case([1.0]), n_rows=4, seed=0)
    @settings(max_examples=25, deadline=None)
    @given(case=sizing_cases(), n_rows=st.integers(1, 7), seed=st.integers(0, 99))
    def test_required_times_rows(self, technology, case, n_rows, seed):
        stage = case[0]
        model = GateDelayModel(technology)
        delays = model.nominal_delays(stage.netlist, self._rows(stage, n_rows, seed))
        worst = arrival_times(stage.netlist, delays).max(axis=1)
        targets = worst * np.random.default_rng(seed).uniform(0.5, 1.5, n_rows)
        required = required_times(stage.netlist, delays, targets)
        assert required.shape == delays.shape
        for row, row_delays, target in zip(required, delays, targets):
            expected = required_times(stage.netlist, row_delays, float(target))
            assert row.tobytes() == expected.tobytes()

    @example(case=fixed_case([1.0]), n_rows=4, seed=0)
    @settings(max_examples=25, deadline=None)
    @given(case=sizing_cases(), n_rows=st.integers(1, 7), seed=st.integers(0, 99))
    def test_total_area_rows(self, case, n_rows, seed):
        stage = case[0]
        sizes = self._rows(stage, n_rows, seed)
        expected = [stage.netlist.total_area(row_sizes) for row_sizes in sizes]
        # A Fortran-ordered block sums its rows in another order unless the
        # helper makes them contiguous first.
        for block in (sizes, np.asfortranarray(sizes)):
            areas = stage.netlist.total_area(block)
            assert areas.shape == (n_rows,)
            assert areas.tobytes() == np.array(expected).tobytes()
