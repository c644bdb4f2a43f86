"""Tests for repro.timing.ssta (canonical-form statistical timing)."""

import sys
import threading

import numpy as np
import pytest

from repro.api import AnalysisSpec, PipelineSpec, Session, StudySpec
from repro.circuit.flipflop import FlipFlopTiming
from repro.circuit.generators import inverter_chain, random_logic_block
from repro.circuit.netlist import Netlist
from repro.montecarlo.engine import MonteCarloEngine
from repro.optimize.greedy import GreedySizer
from repro.optimize.lagrangian import LagrangianSizer
from repro.pipeline.builder import iscas_pipeline
from repro.pipeline.stage import PipelineStage
from repro.process.variation import VariationModel
from repro.timing.delay_model import GateDelayModel
from repro.timing.ssta import (
    _MEMO_FORMS,
    CanonicalForm,
    MemoizedTimingAnalyzer,
    StatisticalTimingAnalyzer,
)


class TestCanonicalForm:
    def test_variance_combines_global_and_private(self):
        form = CanonicalForm(1.0, np.array([3.0, 4.0]), 0.0)
        assert form.sigma == pytest.approx(5.0)
        form2 = CanonicalForm(1.0, np.zeros(2), 2.0)
        assert form2.variance == pytest.approx(4.0)

    def test_addition(self):
        a = CanonicalForm(1.0, np.array([1.0, 0.0]), 3.0)
        b = CanonicalForm(2.0, np.array([0.0, 2.0]), 4.0)
        total = a + b
        assert total.mean == pytest.approx(3.0)
        assert np.allclose(total.sensitivities, [1.0, 2.0])
        assert total.sigma_random == pytest.approx(5.0)

    def test_correlation_through_shared_factors(self):
        a = CanonicalForm(0.0, np.array([1.0, 0.0]), 0.0)
        b = CanonicalForm(0.0, np.array([1.0, 0.0]), 0.0)
        c = CanonicalForm(0.0, np.array([0.0, 1.0]), 0.0)
        assert a.correlation(b) == pytest.approx(1.0)
        assert a.correlation(c) == pytest.approx(0.0)

    def test_correlation_of_constant_is_zero(self):
        a = CanonicalForm.constant(5.0, 3)
        b = CanonicalForm(0.0, np.array([1.0, 0.0, 0.0]), 0.0)
        assert a.correlation(b) == 0.0

    def test_incompatible_bases_rejected(self):
        a = CanonicalForm(0.0, np.zeros(2), 0.0)
        b = CanonicalForm(0.0, np.zeros(3), 0.0)
        with pytest.raises(ValueError):
            a.covariance(b)

    def test_maximum_of_identical_forms_is_identity(self):
        # Identical in the global factors (private parts are, by definition of
        # the canonical form, independent between two distinct quantities, so
        # the exact identity only holds when the private part is zero).
        a = CanonicalForm(2.0, np.array([1.0, 2.0]), 0.0)
        result = CanonicalForm.maximum(a, a)
        assert result.mean == pytest.approx(a.mean)
        assert result.sigma == pytest.approx(a.sigma)

    def test_maximum_of_dominated_form(self):
        small = CanonicalForm(1.0, np.array([0.001]), 0.0)
        large = CanonicalForm(100.0, np.array([0.001]), 0.0)
        result = CanonicalForm.maximum(small, large)
        assert result.mean == pytest.approx(100.0, rel=1e-6)

    def test_maximum_of_independent_standard_normals(self):
        a = CanonicalForm(0.0, np.array([1.0, 0.0]), 0.0)
        b = CanonicalForm(0.0, np.array([0.0, 1.0]), 0.0)
        result = CanonicalForm.maximum(a, b)
        # E[max of two iid N(0,1)] = 1/sqrt(pi)
        assert result.mean == pytest.approx(1.0 / np.sqrt(np.pi), rel=1e-6)

    def test_shifted(self):
        a = CanonicalForm(1.0, np.array([1.0]), 0.5)
        assert a.shifted(2.0).mean == pytest.approx(3.0)
        assert a.shifted(2.0).sigma == pytest.approx(a.sigma)


class TestAnalyzerChain:
    def test_chain_mean_matches_sum_of_nominal_delays(self, technology):
        chain = inverter_chain(8)
        variation = VariationModel.intra_random_only(0.03)
        analyzer = StatisticalTimingAnalyzer(technology, variation)
        form = analyzer.combinational_delay(chain)
        nominal = GateDelayModel(technology).nominal_delays(chain).sum()
        assert form.mean == pytest.approx(nominal, rel=1e-9)

    def test_chain_sigma_under_independent_variation(self, technology):
        chain = inverter_chain(16)
        variation = VariationModel.intra_random_only(0.03)
        analyzer = StatisticalTimingAnalyzer(technology, variation)
        coeffs = GateDelayModel(technology).sensitivity_coefficients(chain, variation)
        expected_sigma = np.sqrt((coeffs["sigma_random"] ** 2).sum())
        form = analyzer.combinational_delay(chain)
        assert form.sigma == pytest.approx(expected_sigma, rel=1e-9)

    def test_chain_sigma_under_inter_only_variation(self, technology):
        chain = inverter_chain(16)
        variation = VariationModel.inter_only(0.03)
        analyzer = StatisticalTimingAnalyzer(technology, variation)
        coeffs = GateDelayModel(technology).sensitivity_coefficients(chain, variation)
        # Perfectly correlated contributions add linearly per factor and the
        # two factors (Vth, L) add in quadrature.
        expected = np.hypot(
            coeffs["sigma_vth_inter"].sum(), coeffs["sigma_l_inter"].sum()
        )
        form = analyzer.combinational_delay(chain)
        assert form.sigma == pytest.approx(expected, rel=1e-9)

    def test_n_factors_without_systematic(self, technology):
        analyzer = StatisticalTimingAnalyzer(
            technology, VariationModel.intra_random_only()
        )
        assert analyzer.n_factors == 2

    def test_variance_coverage_validation(self, technology, variation_combined):
        with pytest.raises(ValueError):
            StatisticalTimingAnalyzer(technology, variation_combined, variance_coverage=0.0)


def fresh_spatial_loadings(analyzer, variance_coverage):
    """The spatial loadings computed afresh, as each analyzer once did."""
    corr = analyzer.spatial.correlation_matrix()
    eigenvalues, eigenvectors = np.linalg.eigh(corr)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.clip(eigenvalues[order], 0.0, None)
    eigenvectors = eigenvectors[:, order]
    cumulative = np.cumsum(eigenvalues) / eigenvalues.sum()
    n_keep = min(int(np.searchsorted(cumulative, variance_coverage) + 1), len(eigenvalues))
    return eigenvectors[:, :n_keep] * np.sqrt(eigenvalues[:n_keep])[None, :]


class TestFactorBasisCache:
    @pytest.mark.parametrize("grid_size, coverage", [(8, 0.995), (5, 1.0), (8, 0.9)])
    def test_analyzers_share_one_read_only_basis(
        self, technology, variation_combined, grid_size, coverage
    ):
        first = StatisticalTimingAnalyzer(
            technology, variation_combined, grid_size=grid_size, variance_coverage=coverage
        )
        second = StatisticalTimingAnalyzer(
            technology, variation_combined, grid_size=grid_size, variance_coverage=coverage
        )
        table = first._cell_rows
        assert second._cell_rows is table
        assert table.flags.c_contiguous and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 2] = 1.0
        loadings = fresh_spatial_loadings(first, coverage)
        assert table.shape == (grid_size * grid_size, 2 + loadings.shape[1])
        assert first.n_factors == table.shape[1]
        assert not table[:, :2].any()
        assert np.ascontiguousarray(table[:, 2:]).tobytes() == loadings.tobytes()

    def test_bases_differ_by_key(self, technology, variation_combined):
        default = StatisticalTimingAnalyzer(technology, variation_combined)
        coarser = StatisticalTimingAnalyzer(technology, variation_combined, grid_size=4)
        looser = StatisticalTimingAnalyzer(
            technology, variation_combined, variance_coverage=0.9
        )
        longer = StatisticalTimingAnalyzer(
            technology, VariationModel.combined(correlation_length=2.0)
        )
        tables = [a._cell_rows for a in (default, coarser, looser, longer)]
        assert len({id(table) for table in tables}) == 4
        assert longer._cell_rows.shape != default._cell_rows.shape or not np.array_equal(
            longer._cell_rows, default._cell_rows
        )


class TestAgainstMonteCarlo:
    @pytest.mark.parametrize(
        "variation",
        [
            VariationModel.intra_random_only(0.03),
            VariationModel.inter_only(0.03),
            VariationModel.combined(),
        ],
        ids=["intra", "inter", "combined"],
    )
    def test_stage_moments_match_monte_carlo(self, technology, variation):
        block = random_logic_block(
            "blk", n_gates=60, depth=10, n_inputs=8, n_outputs=5, seed=11
        )
        stage = PipelineStage(name="blk", netlist=block, flipflop=FlipFlopTiming())
        analyzer = StatisticalTimingAnalyzer(technology, variation)
        form = analyzer.stage_delay(stage.netlist, stage.flipflop, stage.register_position)
        engine = MonteCarloEngine(variation, technology=technology, n_samples=4000, seed=3)
        result = engine.run_stage(stage)
        assert form.mean == pytest.approx(result.mean, rel=0.02)
        # Sigma accuracy is regime dependent: excellent when correlation
        # dominates, but the Clark reduction over many independent
        # near-critical paths underestimates sigma (a known bias of
        # first-order canonical SSTA), so allow a wider band.
        assert form.sigma == pytest.approx(result.std, rel=0.40)

    def test_stage_correlation_regimes(self, technology):
        """Stage delay correlations: ~0 intra-only, ~1 inter-only."""
        chain_a = inverter_chain(6, name="a")
        chain_b = inverter_chain(6, name="b")
        for variation, expected in [
            (VariationModel.intra_random_only(0.03), 0.0),
            (VariationModel.inter_only(0.03), 1.0),
        ]:
            analyzer = StatisticalTimingAnalyzer(technology, variation)
            form_a = analyzer.combinational_delay(chain_a)
            form_b = analyzer.combinational_delay(chain_b)
            assert form_a.correlation(form_b) == pytest.approx(expected, abs=1e-6)

    def test_combined_variation_gives_partial_correlation(self, technology):
        chain_a = inverter_chain(6, name="a")
        chain_a.auto_place((0.0, 0.0, 0.3, 1.0))
        chain_b = inverter_chain(6, name="b")
        chain_b.auto_place((0.7, 0.0, 1.0, 1.0))
        analyzer = StatisticalTimingAnalyzer(technology, VariationModel.combined())
        rho = analyzer.combinational_delay(chain_a).correlation(
            analyzer.combinational_delay(chain_b)
        )
        assert 0.0 < rho < 1.0

    def test_correlation_matrix_properties(self, technology, variation_combined):
        analyzer = StatisticalTimingAnalyzer(technology, variation_combined)
        forms = [
            analyzer.combinational_delay(inverter_chain(5, name=f"c{i}"))
            for i in range(3)
        ]
        matrix = analyzer.correlation_matrix(forms)
        assert np.allclose(np.diag(matrix), 1.0)
        assert np.allclose(matrix, matrix.T)
        assert np.all(np.abs(matrix) <= 1.0 + 1e-12)


def form_bytes(form: CanonicalForm) -> tuple[bytes, bytes, bytes]:
    return (
        np.float64(form.mean).tobytes(),
        form.sensitivities.tobytes(),
        np.float64(form.sigma_random).tobytes(),
    )


@pytest.fixture
def count_passes(monkeypatch):
    """Rows of every SSTA pass, one list entry per pass."""
    passes = []
    original = StatisticalTimingAnalyzer._plan_arrivals

    def counted(self, netlist, sizes, lanes=None):
        passes.append(1 if lanes is None else lanes)
        return original(self, netlist, sizes, lanes)

    monkeypatch.setattr(StatisticalTimingAnalyzer, "_plan_arrivals", counted)
    return passes


def memo_block():
    return random_logic_block("memo", n_gates=40, depth=8, n_inputs=6, n_outputs=4, seed=7)


def edit_block() -> Netlist:
    """Four placed gates; moving g2's second pin to g0 keeps their order."""
    netlist = Netlist("edits")
    for name in ("a", "b", "c"):
        netlist.add_primary_input(name)
    netlist.add_gate("g0", "INV", ["a"], x=0.2, y=0.3)
    netlist.add_gate("g1", "NAND2", ["b", "c"], x=0.4, y=0.6)
    netlist.add_gate("g2", "NAND2", ["g0", "g1"], x=0.6, y=0.3)
    netlist.add_gate("g3", "INV", ["g1"], x=0.8, y=0.6)
    netlist.mark_primary_output("g2")
    netlist.mark_primary_output("g3")
    return netlist


class TestFormMemo:
    """The sizers' engine computes each distinct stage form once."""

    def test_sizers_embed_the_memo_and_the_backend_does_not(self, technology, variation_combined):
        for sizer in (
            LagrangianSizer(technology, variation_combined),
            GreedySizer(technology, variation_combined),
        ):
            assert isinstance(sizer.ssta, MemoizedTimingAnalyzer)
        analysis = AnalysisSpec(backend="ssta")
        engine = Session().analyzer(StudySpec().variation, analysis)
        assert type(engine) is StatisticalTimingAnalyzer

    def test_pipeline_copies_hit_the_same_entry(self, technology, variation_combined, count_passes):
        engine = MemoizedTimingAnalyzer(technology, variation_combined)
        pipeline = iscas_pipeline(["c432", "c499"])
        first = engine.pipeline_stage_forms(pipeline)
        again = engine.pipeline_stage_forms(pipeline.copy())
        assert all(a is b for a, b in zip(first, again))
        assert count_passes == [1, 1]
        plain = StatisticalTimingAnalyzer(technology, variation_combined)
        for form, expected in zip(first, plain.pipeline_stage_forms(pipeline)):
            assert form_bytes(form) == form_bytes(expected)

    @pytest.mark.parametrize(
        "edit",
        [
            "sizes", "position", "mark_primary_output", "fanins",
            "default_output_load", "flipflop", "register_position",
        ],
    )
    def test_each_edit_misses(self, technology, variation_combined, edit):
        """Every part of the key matters: one edit, the rest of it unchanged."""
        engine = MemoizedTimingAnalyzer(technology, variation_combined)
        plain = StatisticalTimingAnalyzer(technology, variation_combined)
        netlist = edit_block()
        flipflop, position = FlipFlopTiming(), (0.5, 0.5)
        sizes = None
        before = engine.stage_delay(netlist, flipflop, position)
        assert engine.stage_delay(netlist.copy(), flipflop, position) is before
        order = netlist.topological_order()
        if edit == "sizes":
            sizes = np.full(netlist.n_gates, 2.0)
        elif edit == "position":
            netlist.gate("g3").x = 0.05
        elif edit == "mark_primary_output":
            netlist.mark_primary_output("g1")
        elif edit == "fanins":
            netlist.gate("g2").fanins = ("g0", "g0")
            assert netlist.topological_order() == order
            assert netlist.timing_schedule().n_edges == 3
        elif edit == "default_output_load":
            netlist.default_output_load *= 3.0
        elif edit == "flipflop":
            flipflop = FlipFlopTiming(size=3.0)
        else:
            position = (0.9, 0.1)
        after = engine.stage_delay(netlist, flipflop, position, sizes=sizes)
        expected = plain.stage_delay(netlist, flipflop, position, sizes=sizes)
        assert after is not before
        assert form_bytes(after) == form_bytes(expected)
        assert form_bytes(after) != form_bytes(before)

    def test_stored_sensitivities_are_read_only(self, technology, variation_combined):
        engine = MemoizedTimingAnalyzer(technology, variation_combined)
        netlist = memo_block()
        rows = np.random.default_rng(1).uniform(1.0, 3.0, (3, netlist.n_gates))
        forms = [engine.stage_delay(netlist), *engine.stage_delay(netlist, sizes=rows)]
        forms.append(engine.stage_delay(netlist, FlipFlopTiming(), (0.2, 0.2)))
        for form in forms:
            assert not form.sensitivities.flags.writeable
            with pytest.raises(ValueError):
                form.sensitivities[0] = 1.0

    def test_entry_count_is_bounded(self, technology, variation_combined, count_passes):
        engine = MemoizedTimingAnalyzer(technology, variation_combined)
        chain = inverter_chain(3)
        sizes = 1.0 + 1e-3 * np.arange(_MEMO_FORMS + 10)[:, None] * np.ones(3)
        forms = engine.stage_delay(chain, sizes=sizes)
        assert count_passes == [_MEMO_FORMS + 10]
        assert len(engine._forms) == _MEMO_FORMS
        assert engine.stage_delay(chain, sizes=sizes[-1]) is forms[-1]
        assert engine.stage_delay(chain, sizes=sizes[0]) is not forms[0]
        assert len(engine._forms) == _MEMO_FORMS

    def test_repeated_rows_are_computed_once(self, technology, variation_combined, count_passes):
        engine = MemoizedTimingAnalyzer(technology, variation_combined)
        netlist = memo_block()
        rows = np.random.default_rng(2).uniform(1.0, 3.0, (2, netlist.n_gates))
        forms = engine.stage_delay(netlist, sizes=rows[[0, 1, 0, 1, 1]])
        assert count_passes == [2]
        assert forms[0] is forms[2] and forms[1] is forms[3] is forms[4]
        again = engine.stage_delay(netlist, sizes=rows[[1, 0]])
        assert again == [forms[1], forms[0]] and count_passes == [2]

    def test_ssta_backend_studies_still_compute(self, count_passes):
        session = Session()
        spec = StudySpec(
            pipeline=PipelineSpec(n_stages=2, logic_depth=3),
            analysis=AnalysisSpec(backend="ssta", seed=1),
        )
        session.run(spec)
        session.run(StudySpec(pipeline=spec.pipeline, analysis=spec.analysis.with_seed(2)))
        assert count_passes == [1, 1, 1, 1]

    @staticmethod
    def run_threads(worker, n_threads: int = 8) -> None:
        """``worker(index)`` on ``n_threads`` threads with a short switch interval."""
        errors = []
        barrier = threading.Barrier(n_threads)

        def run(index):
            try:
                barrier.wait(timeout=60)
                worker(index)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(index,)) for index in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors

    def test_threads_sharing_a_sizer_get_single_thread_bits(self, technology, variation_combined):
        stage = PipelineStage(name="memo", netlist=memo_block(), flipflop=FlipFlopTiming())
        minimum = LagrangianSizer(technology, variation_combined).stage_distribution(stage)
        targets = [fraction * minimum.delay_at_yield(0.9) for fraction in (0.7, 0.8, 0.9)]

        def sizers():
            return (
                LagrangianSizer(technology, variation_combined, max_outer=12, sigma_refresh=2),
                GreedySizer(technology, variation_combined, sigma_refresh=5),
            )

        def summary(sizers, stage):
            return [
                (
                    result.sizes.tobytes(), result.iterations, result.area,
                    result.stage_delay.mean, result.stage_delay.std,
                )
                for sizer in sizers
                for result in sizer.size_targets(stage, targets, 0.9)
            ]

        expected = summary(sizers(), stage)
        shared = sizers()
        got = [None] * 8

        def worker(index):
            got[index] = summary(shared, stage.copy() if index % 2 else stage)

        self.run_threads(worker)
        assert all(result == expected for result in got)

    def test_threads_sharing_an_engine_past_its_bound(self, technology, variation_combined):
        """Hits, misses and evictions racing: every form right, the bound kept."""
        engine = MemoizedTimingAnalyzer(technology, variation_combined)
        plain = StatisticalTimingAnalyzer(technology, variation_combined)
        chain = inverter_chain(4)
        sizes = 1.0 + 1e-3 * np.arange(2 * _MEMO_FORMS)[:, None] * np.ones(4)
        expected = [form_bytes(form) for form in plain.stage_delay(chain, sizes=sizes)]
        wrong = []

        def worker(index):
            rng = np.random.default_rng(index)
            for _ in range(200):
                picks = rng.integers(0, sizes.shape[0], size=int(rng.integers(1, 8)))
                forms = engine.stage_delay(chain, sizes=sizes[picks])
                wrong.extend(
                    int(pick) for pick, form in zip(picks, forms)
                    if form_bytes(form) != expected[pick]
                )

        self.run_threads(worker)
        assert not wrong
        assert len(engine._forms) <= _MEMO_FORMS
