"""Property-based tests for the vectorized (compiled-schedule) timing kernels.

The seed's gate-at-a-time implementations survive in
:mod:`repro.timing.reference`; these tests assert the level-parallel kernels
in :mod:`repro.timing.sta` / :mod:`repro.timing.ssta` match them to 1e-12
relative (of the result's own scale) on random DAGs, and exercise the
structural edge cases the kernels must survive: gates with no gate fanins,
single-gate netlists, and netlists with no marked primary outputs.  The
reference carries its own seed copy of Clark's canonical-form max and must
import nothing from the fast path.
"""

import ast
import importlib.util
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.circuit.flipflop import FlipFlopTiming
from repro.circuit.generators import inverter_chain, random_logic_block
from repro.circuit.iscas import iscas_benchmark
from repro.circuit.netlist import Netlist
from repro.timing.delay_model import GateDelayModel
from repro.timing import reference
from repro.timing.reference import (
    arrival_components_reference,
    arrival_times_reference,
    canonical_max_reference,
    correlation_matrix_reference,
    required_times_reference,
)
from repro.timing import ssta, sta
from repro.timing.ssta import CanonicalForm, StatisticalTimingAnalyzer
from repro.timing.sta import arrival_times, critical_path, max_delay, required_times
from repro.process.technology import default_technology
from repro.process.variation import VariationModel
from repro.verify.tolerances import Tolerance
from test_clark import clark_max_where


REL = 1e-12


def assert_matches(actual: np.ndarray, expected: np.ndarray) -> None:
    """Assert two kernel results agree to 1e-12 of the result's scale."""
    scale = float(np.abs(expected).max()) if expected.size else 1.0
    np.testing.assert_allclose(actual, expected, rtol=REL, atol=REL * max(scale, 1.0e-300))


def random_block(n_gates: int, seed: int, n_outputs: int = 3) -> Netlist:
    depth = max(2, n_gates // 5)
    return random_logic_block(
        "block",
        n_gates=n_gates,
        depth=depth,
        n_inputs=5,
        n_outputs=n_outputs,
        seed=seed,
    )


class TestDeterministicKernels:
    @given(
        st.integers(min_value=5, max_value=80),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_arrival_times_1d_matches_reference(self, n_gates, seed):
        block = random_block(n_gates, seed)
        delays = GateDelayModel(default_technology()).nominal_delays(block)
        assert_matches(arrival_times(block, delays), arrival_times_reference(block, delays))

    @given(
        st.integers(min_value=5, max_value=60),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=30, deadline=None)
    def test_arrival_times_2d_matches_reference(self, n_gates, seed, n_samples):
        block = random_block(n_gates, seed)
        rng = np.random.default_rng(seed)
        delays = rng.uniform(1e-12, 1e-10, size=(n_samples, block.n_gates))
        assert_matches(arrival_times(block, delays), arrival_times_reference(block, delays))

    def test_multi_block_2d_matches_reference_bit_for_bit(self):
        """Sample rows spanning three row blocks, the last one ragged."""
        block = random_logic_block(
            "wide", n_gates=2000, depth=40, n_inputs=32, n_outputs=16, seed=2005
        )
        n_rows = 150
        rows_per_block = max(16, sta._BLOCK_BYTES // (8 * block.n_gates))
        assert n_rows > 2 * rows_per_block and n_rows % rows_per_block
        nominal = GateDelayModel(default_technology()).nominal_delays(block)
        rng = np.random.default_rng(3)
        delays = nominal[None, :] * rng.lognormal(0.0, 0.1, size=(n_rows, 2000))
        expected = arrival_times_reference(block, delays)
        np.testing.assert_array_equal(arrival_times(block, delays), expected)
        np.testing.assert_array_equal(
            max_delay(block, delays), expected[:, block.output_mask()].max(axis=1)
        )

    @given(
        st.integers(min_value=5, max_value=60),
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.5, max_value=2.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_required_times_matches_reference(self, n_gates, seed, target_scale):
        block = random_block(n_gates, seed)
        delays = GateDelayModel(default_technology()).nominal_delays(block)
        target = target_scale * float(max_delay(block, delays))
        assert_matches(
            required_times(block, delays, target),
            required_times_reference(block, delays, target),
        )

    @given(
        st.integers(min_value=5, max_value=60),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=20, deadline=None)
    def test_critical_path_accepts_precomputed_arrivals(self, n_gates, seed):
        block = random_block(n_gates, seed)
        delays = GateDelayModel(default_technology()).nominal_delays(block)
        arrivals = arrival_times(block, delays)
        assert critical_path(block, delays, arrivals=arrivals) == critical_path(
            block, delays
        )


class TestStatisticalKernels:
    @given(
        st.integers(min_value=5, max_value=50),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=15, deadline=None)
    def test_arrival_components_match_reference(self, n_gates, seed):
        block = random_block(n_gates, seed)
        analyzer = StatisticalTimingAnalyzer(
            default_technology(), VariationModel.combined()
        )
        vec_mean, vec_sens, vec_rand = analyzer.arrival_components(block)
        ref_mean, ref_sens, ref_rand = arrival_components_reference(analyzer, block)
        assert_matches(vec_mean, ref_mean)
        assert_matches(vec_sens, ref_sens)
        assert_matches(vec_rand, ref_rand)

    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=10, deadline=None)
    def test_correlation_matrix_matches_reference(self, n_stages, seed):
        analyzer = StatisticalTimingAnalyzer(
            default_technology(), VariationModel.combined()
        )
        forms = [
            analyzer.stage_delay(random_block(20, seed + index))
            for index in range(n_stages)
        ]
        matrix = analyzer.correlation_matrix(forms)
        assert_matches(matrix, correlation_matrix_reference(forms))
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 1.0)


def assert_max_matches_seed(a: CanonicalForm, b: CanonicalForm) -> CanonicalForm:
    """SSTA's canonical-form max against the reference's seed Clark copy."""
    fast = CanonicalForm.maximum(a, b)
    mean, sens, rand = canonical_max_reference(
        a.mean, a.sensitivities, a.sigma_random, b.mean, b.sensitivities, b.sigma_random
    )
    tolerance = Tolerance.kernel()
    assert tolerance.check(fast.mean, mean)
    assert tolerance.check(
        np.append(fast.sensitivities, fast.sigma_random), np.append(sens, rand)
    )
    return fast


class TestCanonicalMax:
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.0, max_value=4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_seed_clark_on_generated_pairs(self, seed, n_factors, spread):
        rng = np.random.default_rng(seed)

        def form() -> CanonicalForm:
            return CanonicalForm(
                float(rng.uniform(100e-12, 100e-12 + spread * 10e-12)),
                rng.normal(0.0, 4e-12, n_factors),
                float(abs(rng.normal(0.0, 3e-12))),
            )

        assert_max_matches_seed(form(), form())

    def test_identical_forms_degenerate_to_the_form(self):
        form = CanonicalForm(150e-12, np.array([3e-12, -1e-12, 2e-12]), 0.0)
        fast = assert_max_matches_seed(form, form)
        assert fast.mean == form.mean
        np.testing.assert_array_equal(fast.sensitivities, form.sensitivities)
        assert fast.sigma_random == 0.0

    def test_constant_shift_degenerates_to_the_later_form(self):
        form = CanonicalForm(150e-12, np.array([3e-12, -1e-12, 2e-12]), 0.0)
        later = form.shifted(7e-12)
        for a, b in ((form, later), (later, form)):
            fast = assert_max_matches_seed(a, b)
            assert fast.mean == later.mean
            np.testing.assert_array_equal(fast.sensitivities, later.sensitivities)

    def test_zero_variance_forms_take_the_larger_mean(self):
        small = CanonicalForm.constant(90e-12, 4)
        large = CanonicalForm.constant(120e-12, 4)
        fast = assert_max_matches_seed(small, large)
        assert fast.mean == large.mean
        assert fast.sigma == 0.0


# ----------------------------------------------------------------------
# The allocating SSTA pass the in-place one replaced, kept verbatim as the
# bit-for-bit reference: a full gate-sensitivity matrix, fresh row blocks
# per rank step, a scatter per level, and the all-``np.where`` Clark kernel
# (``test_clark.clark_max_where``).
# ----------------------------------------------------------------------
def allocating_dot(x, y):
    if x.ndim == 1:
        return np.dot(x, y)
    return np.einsum("ij,ij->i", x, y)


def allocating_canonical_max(mean_a, sens_a, rand_a, mean_b, sens_b, rand_b):
    var_a = allocating_dot(sens_a, sens_a) + rand_a * rand_a
    var_b = allocating_dot(sens_b, sens_b) + rand_b * rand_b
    mean, var, prob_a = clark_max_where(
        mean_a, var_a, mean_b, var_b, allocating_dot(sens_a, sens_b)
    )
    sens = prob_a[..., None] * sens_a + (1.0 - prob_a)[..., None] * sens_b
    rand = np.sqrt(np.maximum(var - allocating_dot(sens, sens), 0.0))
    return mean, sens, rand


def allocating_gate_components(analyzer, netlist, sizes=None):
    coefficients = analyzer.delay_model.sensitivity_coefficients(
        netlist, analyzer.variation, sizes
    )
    n_gates = coefficients["mean"].shape[0]
    sensitivities = np.zeros((n_gates, analyzer.n_factors))
    sensitivities[:, 0] = coefficients["sigma_vth_inter"]
    sensitivities[:, 1] = coefficients["sigma_l_inter"]
    if analyzer.n_factors > 2:
        # The loadings as eigh hands them back (F-ordered), as many as the basis keeps.
        eigenvalues, eigenvectors = np.linalg.eigh(analyzer.spatial.correlation_matrix())
        order = np.argsort(eigenvalues)[::-1]
        eigenvalues = np.clip(eigenvalues[order], 0.0, None)
        n_keep = analyzer.n_factors - 2
        loadings = eigenvectors[:, order][:, :n_keep] * np.sqrt(eigenvalues[:n_keep])[None, :]
        xs, ys = netlist.positions()
        cells = analyzer.spatial.cell_index(xs, ys)
        sensitivities[:, 2:] = coefficients["sigma_systematic"][:, None] * loadings[cells, :]
    return coefficients["mean"], sensitivities, coefficients["sigma_random"]


def allocating_arrival_components(analyzer, netlist, sizes=None):
    means, sens, rands = allocating_gate_components(analyzer, netlist, sizes)
    n_gates = means.shape[0]
    arr_mean = np.zeros(n_gates)
    arr_sens = np.zeros((n_gates, analyzer.n_factors))
    arr_rand = np.zeros(n_gates)
    for plan in netlist.timing_schedule().level_plans:
        gates = plan.gates
        if plan.edge_cols is None:
            arr_mean[gates] = means[gates]
            arr_sens[gates] = sens[gates]
            arr_rand[gates] = rands[gates]
            continue
        cols = plan.edge_cols
        first = cols[: plan.width]
        acc_mean = arr_mean[first]
        acc_sens = arr_sens[first]
        acc_rand = arr_rand[first]
        offset = plan.width
        for count in plan.rank_counts:
            nxt = cols[offset : offset + count]
            folded = allocating_canonical_max(
                acc_mean[:count], acc_sens[:count], acc_rand[:count],
                arr_mean[nxt], arr_sens[nxt], arr_rand[nxt],
            )
            acc_mean[:count], acc_sens[:count], acc_rand[:count] = folded
            offset += count
        arr_mean[gates] = acc_mean + means[gates]
        arr_sens[gates] = acc_sens + sens[gates]
        arr_rand[gates] = np.hypot(acc_rand, rands[gates])
    return arr_mean, arr_sens, arr_rand


def allocating_combinational_delay(analyzer, netlist, sizes=None):
    arr_mean, arr_sens, arr_rand = allocating_arrival_components(analyzer, netlist, sizes)
    mask = netlist.output_mask()
    if not mask.any():
        mask = np.ones(arr_mean.shape[0], dtype=bool)
    positions = np.where(mask)[0]
    positions = positions[np.argsort(arr_mean[positions])]
    chain_mean = arr_mean[positions]
    chain_sens = arr_sens[positions]
    chain_rand = arr_rand[positions]
    mean, sens, rand = chain_mean[0], chain_sens[0], chain_rand[0]
    for pos in range(1, positions.shape[0]):
        mean, sens, rand = allocating_canonical_max(
            mean, sens, rand, chain_mean[pos], chain_sens[pos], chain_rand[pos]
        )
    return float(mean), sens, float(rand)


VARIATION_REGIMES = {
    "combined": VariationModel.combined(),
    "inter-only": VariationModel.inter_only(),
    "intra-random-only": VariationModel.intra_random_only(),
    "systematic-only": VariationModel(
        sigma_vth_inter=0.0, sigma_vth_random=0.0, sigma_vth_systematic=0.012,
        sigma_l_inter=0.0, sigma_l_systematic=0.01,
    ),
    "zero": VariationModel(
        sigma_vth_inter=0.0, sigma_vth_random=0.0, sigma_vth_systematic=0.0,
        sigma_l_inter=0.0, sigma_l_systematic=0.0,
    ),
}


def wide_fanin_block(n_gates: int, seed: int, n_outputs: int = 3) -> Netlist:
    """A random block plus NAND4 gates on gate drivers, pins repeating."""
    block = random_block(n_gates, seed, n_outputs)
    rng = np.random.default_rng(seed)
    drivers = [f"g{index}" for index in range(n_gates)]
    for index in range(max(1, n_gates // 4)):
        name = f"w{index}"
        pins = [drivers[i] for i in rng.integers(len(drivers), size=4)]
        if index == 0:
            pins[3] = pins[0]
        block.add_gate(name, "NAND4", pins)
        drivers.append(name)
        if index % 3 == 0:
            block.mark_primary_output(name)
    block.auto_place()
    return block


def assert_bytes_equal(actual, expected) -> None:
    for got, want in zip(actual, expected):
        got, want = np.asarray(got), np.asarray(want)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def assert_pass_matches_allocating(analyzer, netlist, sizes=None) -> None:
    assert_bytes_equal(
        analyzer.gate_delay_components(netlist, sizes),
        allocating_gate_components(analyzer, netlist, sizes),
    )
    assert_bytes_equal(
        analyzer.arrival_components(netlist, sizes),
        allocating_arrival_components(analyzer, netlist, sizes),
    )
    form = analyzer.combinational_delay(netlist, sizes)
    assert_bytes_equal(
        (form.mean, form.sensitivities, form.sigma_random),
        allocating_combinational_delay(analyzer, netlist, sizes),
    )


class TestInPlacePass:
    """The in-place SSTA pass against the allocating one, bit for bit."""

    @given(
        st.integers(min_value=5, max_value=60),
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(sorted(VARIATION_REGIMES)),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_allocating_pass(self, n_gates, seed, regime, sized):
        block = wide_fanin_block(n_gates, seed)
        fanins = block.timing_schedule().fanin_ptr
        assert int(np.diff(fanins).max()) >= 4
        analyzer = StatisticalTimingAnalyzer(default_technology(), VARIATION_REGIMES[regime])
        sizes = None
        if sized:
            sizes = np.random.default_rng(seed).uniform(1.0, 4.0, block.n_gates)
        assert_pass_matches_allocating(analyzer, block, sizes)

    @pytest.mark.parametrize("regime", sorted(VARIATION_REGIMES))
    def test_long_output_fold_matches(self, regime):
        """Every gate an output: thousands of one-pair steps in the fold.

        Enough scalar squarings that a libm ``pow`` in place of a square, or
        the other way round, shows in the bits.
        """
        block = random_logic_block(
            "wide", n_gates=3000, depth=12, n_inputs=16, n_outputs=3000, seed=3
        )
        analyzer = StatisticalTimingAnalyzer(default_technology(), VARIATION_REGIMES[regime])
        assert_pass_matches_allocating(analyzer, block)


def unmarked_copy(block: Netlist) -> Netlist:
    """``block``'s gates and placement with no primary output marked."""
    netlist = Netlist(f"{block.name}-unmarked")
    for name in block.primary_inputs:
        netlist.add_primary_input(name)
    for name in block.topological_order():
        gate = block.gate(name)
        netlist.add_gate(name, gate.cell, list(gate.fanins), x=gate.x, y=gate.y)
    return netlist


def size_rows_netlist(source: str, n_gates: int, seed: int) -> Netlist:
    """A netlist for the k-row tests: random, ISCAS stand-in or edge case."""
    if source in ("c432", "c499"):
        return iscas_benchmark(source)
    if source == "register-only":
        netlist = Netlist("register-only")
        netlist.add_primary_input("a")
        return netlist
    block = random_logic_block(
        "rows", n_gates=n_gates, depth=max(2, n_gates // 5), n_inputs=5,
        n_outputs=max(1, n_gates // 2), seed=seed,
    )
    return unmarked_copy(block) if source == "unmarked" else block


def assert_same_form(actual: CanonicalForm, expected: CanonicalForm) -> None:
    assert type(actual.mean) is type(expected.mean) is float
    assert type(actual.sigma_random) is type(expected.sigma_random) is float
    assert_bytes_equal(
        (np.float64(actual.mean), actual.sensitivities, np.float64(actual.sigma_random)),
        (np.float64(expected.mean), expected.sensitivities, np.float64(expected.sigma_random)),
    )


class TestSizeRows:
    """``(k, n_gates)`` sizes: shared level loops, each row its own call's bits."""

    @given(
        st.sampled_from(["random", "c432", "c499", "unmarked", "register-only"]),
        st.integers(min_value=5, max_value=60),
        st.integers(min_value=0, max_value=10**6),
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=6),
        st.sampled_from(sorted(VARIATION_REGIMES)),
        st.sampled_from(["none", "default position", "given position"]),
    )
    @settings(max_examples=60, deadline=None)
    # One row's output chain holds a mean whose scalar square (libm pow)
    # differs from its array square (x * x): a fold over all rows at once
    # changes that row's bits.
    @example("random", 40, 131, [0, 1, 1], "combined", "given position")
    def test_rows_match_their_own_calls(self, source, n_gates, seed, picks, regime, flipflop):
        netlist = size_rows_netlist(source, n_gates, seed)
        analyzer = StatisticalTimingAnalyzer(default_technology(), VARIATION_REGIMES[regime])
        distinct = np.random.default_rng(seed).uniform(1.0, 4.0, (6, netlist.n_gates))
        sizes = distinct[picks]
        register = None if flipflop == "none" else FlipFlopTiming()
        position = (0.3, 0.7) if flipflop == "given position" else None
        forms = analyzer.stage_delay(netlist, register, position, sizes=sizes)
        combinational = analyzer.combinational_delay(netlist, sizes)
        assert len(forms) == len(combinational) == len(picks)
        for row, form, comb in zip(sizes, forms, combinational):
            assert_same_form(form, analyzer.stage_delay(netlist, register, position, sizes=row))
            assert_same_form(comb, analyzer.combinational_delay(netlist, row))

    def test_example_chain_squares_differ(self):
        """The fixed example above does hold a mean where ``x**2 != x*x``."""
        netlist = size_rows_netlist("random", 40, 131)
        analyzer = StatisticalTimingAnalyzer(
            default_technology(), VARIATION_REGIMES["combined"]
        )
        sizes = np.random.default_rng(131).uniform(1.0, 4.0, (6, netlist.n_gates))[1]
        means, _, _ = analyzer.arrival_components(netlist, sizes)
        chain = np.sort(means[netlist.output_mask()])
        assert any(mean**2 != mean * mean for mean in chain[1:])

    @pytest.mark.parametrize(
        "room, loops",
        # Room in rows of the stage: 2.99 rows fit two, half a row still one.
        [(2.99, [2, 2, 1]), (0.5, [1] * 5), (5, [5])],
    )
    def test_rows_split_into_bounded_loops(self, room, loops, monkeypatch):
        """A loop takes at most ``_LOOP_ROWS`` (gate, row) pairs, one row at least."""
        netlist = iscas_benchmark("c432")
        analyzer = StatisticalTimingAnalyzer(default_technology(), VariationModel.combined())
        sizes = np.random.default_rng(5).uniform(1.0, 4.0, (5, netlist.n_gates))
        expected = [analyzer.stage_delay(netlist, FlipFlopTiming(), sizes=row) for row in sizes]
        passes = []
        plan_arrivals = StatisticalTimingAnalyzer._plan_arrivals

        def counted(self, netlist, sizes, lanes=None):
            passes.append(lanes)
            return plan_arrivals(self, netlist, sizes, lanes)

        monkeypatch.setattr(StatisticalTimingAnalyzer, "_plan_arrivals", counted)
        monkeypatch.setattr(ssta, "_LOOP_ROWS", int(room * netlist.n_gates))
        forms = analyzer.stage_delay(netlist, FlipFlopTiming(), sizes=sizes)
        assert passes == loops
        assert len(forms) == len(expected)
        for form, own in zip(forms, expected):
            assert_same_form(form, own)

    def test_shapes(self):
        netlist = random_block(20, 3)
        analyzer = StatisticalTimingAnalyzer(default_technology(), VariationModel.combined())
        assert analyzer.stage_delay(netlist, FlipFlopTiming(), sizes=np.ones((0, 20))) == []
        one = analyzer.combinational_delay(netlist, np.ones((1, 20)))
        assert isinstance(one, list) and len(one) == 1
        assert_same_form(one[0], analyzer.combinational_delay(netlist, np.ones(20)))
        for bad in (np.ones((2, 19)), np.ones((2, 2, 20))):
            with pytest.raises(ValueError, match="sizes must have shape"):
                analyzer.combinational_delay(netlist, bad)
        with pytest.raises(ValueError, match="one size vector"):
            analyzer.arrival_components(netlist, np.ones((2, 20)))
        with pytest.raises(ValueError, match="one size vector"):
            analyzer.gate_delay_components(netlist, np.ones((2, 20)))


class TestReferenceIndependence:
    def test_reference_imports_nothing_from_the_fast_path(self):
        """The oracle's reference must not share code with what it checks."""
        tree = ast.parse(pathlib.Path(reference.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                module = importlib.util.resolve_name(
                    "." * node.level + (node.module or ""), "repro.timing"
                )
                imported.add(module)
                imported.update(f"{module}.{alias.name}" for alias in node.names)
        fast_path = (
            "repro.timing.ssta",
            "repro.timing.sta",
            "repro.core.clark",
            "repro.process.sampling",
            "repro.timing.delay_model",
            "repro.montecarlo",
        )
        shared = {
            name
            for name in imported
            for module in fast_path
            if name == module or name.startswith(module + ".")
        }
        assert not shared


class TestEdgeCases:
    def test_single_gate_netlist(self):
        netlist = Netlist("single")
        netlist.add_primary_input("a")
        netlist.add_gate("g", "INV", ["a"])
        netlist.mark_primary_output("g")
        delays = np.array([3.0])
        assert_matches(arrival_times(netlist, delays), np.array([3.0]))
        assert critical_path(netlist, delays) == ["g"]
        schedule = netlist.timing_schedule()
        assert schedule.n_levels == 1
        assert schedule.n_edges == 0

    def test_all_gates_empty_fanin(self):
        """Every gate driven only by primary inputs: one level, no edges."""
        netlist = Netlist("flat")
        netlist.add_primary_input("a")
        for index in range(4):
            netlist.add_gate(f"g{index}", "INV", ["a"])
        netlist.mark_primary_output("g0")
        delays = np.arange(1.0, 5.0)
        assert_matches(arrival_times(netlist, delays), delays)
        assert_matches(
            arrival_times(netlist, np.tile(delays, (3, 1))),
            np.tile(delays, (3, 1)),
        )
        required = required_times(netlist, delays, target=10.0)
        assert_matches(required, required_times_reference(netlist, delays, 10.0))

    def test_unmarked_outputs_fall_back_to_all_gates(self):
        netlist = Netlist("unmarked")
        netlist.add_primary_input("a")
        netlist.add_gate("g0", "INV", ["a"])
        netlist.add_gate("g1", "INV", ["g0"])
        delays = np.array([1.0, 2.0])
        assert max_delay(netlist, delays) == pytest.approx(3.0)
        assert critical_path(netlist, delays) == ["g0", "g1"]
        assert_matches(
            required_times(netlist, delays, target=3.0),
            required_times_reference(netlist, delays, 3.0),
        )

    def test_unmarked_outputs_ssta(self):
        netlist = Netlist("unmarked_ssta")
        netlist.add_primary_input("a")
        netlist.add_gate("g0", "INV", ["a"])
        netlist.add_gate("g1", "INV", ["g0"])
        analyzer = StatisticalTimingAnalyzer(
            default_technology(), VariationModel.combined()
        )
        form = analyzer.combinational_delay(netlist)
        ref_mean, _, _ = arrival_components_reference(analyzer, netlist)
        assert form.mean == pytest.approx(float(ref_mean.max()), rel=1e-12)

    def test_edge_free_netlist_loads_are_float(self):
        """bincount returns int64 for empty weighted input; loads must not."""
        chain = inverter_chain(1)
        loads = chain.load_capacitances()
        assert loads.dtype == np.float64
        assert loads[0] == pytest.approx(chain.default_output_load)

    def test_empty_netlist(self):
        netlist = Netlist("empty")
        netlist.add_primary_input("a")
        assert arrival_times(netlist, np.zeros(0)).shape == (0,)
        assert netlist.logic_depth() == 0
        assert netlist.timing_schedule().n_levels == 0
        analyzer = StatisticalTimingAnalyzer(
            default_technology(), VariationModel.combined()
        )
        form = analyzer.combinational_delay(netlist)
        assert form.mean == 0.0 and form.sigma == 0.0
        assert form.sensitivities.shape == (analyzer.n_factors,)

    def test_schedule_cache_reused_and_invalidated(self):
        netlist = inverter_chain(5)
        first = netlist.timing_schedule()
        assert netlist.timing_schedule() is first
        # Size mutations must not invalidate the compiled structure.
        netlist.set_sizes(2.0 * netlist.sizes())
        assert netlist.timing_schedule() is first
        # Structural edits must.
        netlist.add_gate("extra", "INV", ["inv4"])
        second = netlist.timing_schedule()
        assert second is not first
        assert second.version != first.version
        assert second.n_gates == 6

    def test_schedule_csr_matches_lists(self):
        block = random_block(40, seed=7)
        schedule = block.timing_schedule()
        # The adjacency from the gates' fanin names, as the seed built it.
        index = block.gate_index()
        fanins = [
            [index[f] for f in block.gate(name).fanins if f in index]
            for name in block.topological_order()
        ]
        fanouts: list[list[int]] = [[] for _ in fanins]
        for gate_pos, gate_fanins in enumerate(fanins):
            for fanin_pos in gate_fanins:
                fanouts[fanin_pos].append(gate_pos)
        assert block.fanin_indices() == fanins
        assert block.fanout_indices() == fanouts
        for gate_pos in range(block.n_gates):
            assert list(schedule.fanins_of(gate_pos)) == fanins[gate_pos]
            assert list(schedule.fanouts_of(gate_pos)) == fanouts[gate_pos]
        levels = block.levels()
        assert np.array_equal(levels, schedule.levels + 1)
        assert block.logic_depth() == schedule.n_levels

    def test_compile_schedule_needs_levels_in_position_order(self):
        from repro.circuit.schedule import compile_schedule

        no_fanins = (np.zeros(3, dtype=np.int32), np.zeros(0, dtype=np.int32))
        with pytest.raises(ValueError):
            compile_schedule(*no_fanins, np.array([1, 0], dtype=np.int32), 0)
        schedule = compile_schedule(*no_fanins, np.array([0, 0], dtype=np.int32), 0)
        assert schedule.n_levels == 1 and schedule.level_gates[0].tolist() == [0, 1]
