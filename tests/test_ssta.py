"""Tests for repro.timing.ssta (canonical-form statistical timing)."""

import numpy as np
import pytest

from repro.circuit.flipflop import FlipFlopTiming
from repro.circuit.generators import inverter_chain, random_logic_block
from repro.montecarlo.engine import MonteCarloEngine
from repro.pipeline.stage import PipelineStage
from repro.process.variation import VariationModel
from repro.timing.delay_model import GateDelayModel
from repro.timing.ssta import CanonicalForm, StatisticalTimingAnalyzer


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
