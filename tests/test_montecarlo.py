"""Tests for repro.montecarlo (engine and results)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.flipflop import FlipFlopTiming
from repro.circuit.generators import inverter_chain
from repro.circuit.netlist import Netlist
from repro.montecarlo.engine import MonteCarloEngine
from repro.montecarlo.results import MonteCarloResult, PipelineMonteCarloResult
from repro.pipeline.builder import inverter_chain_pipeline
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.stage import PipelineStage
from repro.process.variation import VariationModel
from repro.timing.reference import monte_carlo_reference


class TestMonteCarloResult:
    def test_statistics(self, rng):
        samples = rng.normal(100.0, 5.0, size=50000)
        result = MonteCarloResult(samples)
        assert result.mean == pytest.approx(100.0, rel=0.01)
        assert result.std == pytest.approx(5.0, rel=0.05)
        assert result.variability == pytest.approx(0.05, rel=0.05)
        assert result.yield_at(100.0) == pytest.approx(0.5, abs=0.02)
        assert result.n_samples == 50000

    def test_delay_at_yield_matches_quantile(self, rng):
        samples = rng.normal(100.0, 5.0, size=50000)
        result = MonteCarloResult(samples)
        assert result.yield_at(result.delay_at_yield(0.9)) == pytest.approx(0.9, abs=0.01)

    def test_histogram_and_summary(self, rng):
        result = MonteCarloResult(rng.normal(1e-10, 5e-12, size=1000))
        counts, edges = result.histogram(bins=20)
        assert counts.sum() == 1000
        assert len(edges) == 21
        summary = result.summary()
        assert set(summary) == {"mean_ps", "std_ps", "variability", "p99_ps"}

    def test_to_distribution(self, rng):
        result = MonteCarloResult(rng.normal(1e-10, 5e-12, size=5000), name="s")
        dist = result.to_distribution()
        assert dist.mean == pytest.approx(result.mean)
        assert dist.name == "s"

    def test_validation(self):
        with pytest.raises(ValueError):
            MonteCarloResult(np.array([1.0]))
        result = MonteCarloResult(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            result.delay_at_yield(1.5)


class TestPipelineMonteCarloResult:
    def test_pipeline_samples_are_stage_max(self):
        stage_samples = np.array([[1.0, 3.0], [2.0, 1.0], [5.0, 4.0]])
        result = PipelineMonteCarloResult(stage_samples, ("a", "b"))
        assert np.allclose(result.pipeline_samples, [3.0, 2.0, 5.0])

    def test_stage_lookup_by_name_and_index(self):
        stage_samples = np.array([[1.0, 3.0], [2.0, 1.0], [5.0, 4.0]])
        result = PipelineMonteCarloResult(stage_samples, ("a", "b"))
        assert result.stage_result("b").mean == result.stage_result(1).mean
        with pytest.raises(KeyError):
            result.stage_result("zzz")
        with pytest.raises(IndexError):
            result.stage_result(5)

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineMonteCarloResult(np.zeros((3,)), ("a",))
        with pytest.raises(ValueError):
            PipelineMonteCarloResult(np.zeros((3, 2)), ("a",))


class TestEngineOnStages:
    def test_reproducible_for_fixed_seed(self, variation_combined):
        chain = inverter_chain(5)
        stage = PipelineStage("s", chain)
        a = MonteCarloEngine(variation_combined, n_samples=200, seed=9).run_stage(stage)
        b = MonteCarloEngine(variation_combined, n_samples=200, seed=9).run_stage(stage)
        assert np.allclose(a.samples, b.samples)

    def test_different_seeds_differ(self, variation_combined):
        chain = inverter_chain(5)
        stage = PipelineStage("s", chain)
        a = MonteCarloEngine(variation_combined, n_samples=200, seed=9).run_stage(stage)
        b = MonteCarloEngine(variation_combined, n_samples=200, seed=10).run_stage(stage)
        assert not np.allclose(a.samples, b.samples, rtol=1e-6, atol=0.0)

    def test_stage_delay_includes_register_overhead(self, variation_intra_only, technology):
        chain = inverter_chain(5)
        with_ff = PipelineStage("s", chain, flipflop=FlipFlopTiming())
        without_ff = PipelineStage(
            "s2", chain.copy(), flipflop=FlipFlopTiming(clk_to_q_stages=0.0, setup_stages=0.0)
        )
        engine = MonteCarloEngine(variation_intra_only, n_samples=500, seed=1)
        assert engine.run_stage(with_ff).mean > engine.run_netlist(chain).mean
        assert engine.run_netlist(chain).mean == pytest.approx(
            engine.run_stage(without_ff).mean, rel=1e-9
        )

    def test_no_variation_gives_zero_spread(self, technology):
        silent = VariationModel(
            sigma_vth_inter=0.0,
            sigma_vth_random=0.0,
            sigma_vth_systematic=0.0,
            sigma_l_inter=0.0,
            sigma_l_systematic=0.0,
        )
        chain = inverter_chain(5)
        result = MonteCarloEngine(silent, n_samples=100, seed=1).run_netlist(chain)
        assert result.std == pytest.approx(0.0, abs=1e-18)

    def test_engine_validation(self, variation_combined):
        with pytest.raises(ValueError):
            MonteCarloEngine(variation_combined, n_samples=1)
        with pytest.raises(ValueError):
            MonteCarloEngine(variation_combined, chunk_size=0)

    def test_chunked_run_matches_statistics(self, variation_combined):
        """Chunked streaming changes the sample stream but not the physics."""
        chain = inverter_chain(6)
        stage = PipelineStage("s", chain)
        whole = MonteCarloEngine(
            variation_combined, n_samples=4000, seed=11
        ).run_stage(stage)
        chunked = MonteCarloEngine(
            variation_combined, n_samples=4000, seed=11, chunk_size=300
        ).run_stage(stage)
        assert chunked.n_samples == whole.n_samples
        assert chunked.mean == pytest.approx(whole.mean, rel=0.02)
        assert chunked.std == pytest.approx(whole.std, rel=0.15)

    def test_chunked_run_reproducible(self, variation_combined):
        chain = inverter_chain(5)
        stage = PipelineStage("s", chain)
        a = MonteCarloEngine(
            variation_combined, n_samples=250, seed=9, chunk_size=64
        ).run_stage(stage)
        b = MonteCarloEngine(
            variation_combined, n_samples=250, seed=9, chunk_size=64
        ).run_stage(stage)
        assert np.allclose(a.samples, b.samples)

    def test_chunk_larger_than_run_matches_unchunked(self, variation_combined):
        chain = inverter_chain(5)
        stage = PipelineStage("s", chain)
        unchunked = MonteCarloEngine(
            variation_combined, n_samples=200, seed=9
        ).run_stage(stage)
        oversized = MonteCarloEngine(
            variation_combined, n_samples=200, seed=9, chunk_size=10_000
        ).run_stage(stage)
        assert np.allclose(unchunked.samples, oversized.samples)


class TestEngineOnPipelines:
    def test_shapes_and_names(self, variation_combined):
        pipeline = inverter_chain_pipeline(4, 6)
        engine = MonteCarloEngine(variation_combined, n_samples=300, seed=2)
        result = engine.run_pipeline(pipeline)
        assert result.stage_samples.shape == (300, 4)
        assert result.stage_names == tuple(pipeline.stage_names)

    def test_chunked_pipeline_run(self, variation_combined):
        pipeline = inverter_chain_pipeline(3, 6)
        whole = MonteCarloEngine(
            variation_combined, n_samples=2000, seed=2
        ).run_pipeline(pipeline)
        chunked = MonteCarloEngine(
            variation_combined, n_samples=2000, seed=2, chunk_size=170
        ).run_pipeline(pipeline)
        assert chunked.stage_samples.shape == whole.stage_samples.shape
        assert np.allclose(
            chunked.stage_samples.mean(axis=0),
            whole.stage_samples.mean(axis=0),
            rtol=0.02,
        )

    def test_correlation_regimes(self):
        """Intra-only -> independent stages, inter-only -> perfectly correlated."""
        pipeline = inverter_chain_pipeline(3, 6)
        intra = MonteCarloEngine(
            VariationModel.intra_random_only(), n_samples=3000, seed=3
        ).run_pipeline(pipeline)
        inter = MonteCarloEngine(
            VariationModel.inter_only(), n_samples=3000, seed=3
        ).run_pipeline(pipeline)
        assert abs(intra.correlation_matrix()[0, 1]) < 0.08
        assert inter.correlation_matrix()[0, 1] > 0.999

    def test_combined_variation_gives_partial_correlation(self, mc_engine_combined):
        pipeline = inverter_chain_pipeline(3, 6)
        result = mc_engine_combined.run_pipeline(pipeline)
        rho = result.correlation_matrix()[0, 2]
        assert 0.1 < rho < 0.99

    def test_pipeline_delay_exceeds_stage_delays(self, mc_engine_combined):
        pipeline = inverter_chain_pipeline(4, 5)
        result = mc_engine_combined.run_pipeline(pipeline)
        assert result.pipeline_result().mean >= result.stage_means().max()

    def test_stage_yields_bracket_pipeline_yield(self, mc_engine_combined):
        pipeline = inverter_chain_pipeline(4, 5)
        result = mc_engine_combined.run_pipeline(pipeline)
        target = float(np.quantile(result.pipeline_samples, 0.8))
        pipeline_yield = result.yield_at(target)
        stage_yields = result.stage_yields(target)
        assert np.all(stage_yields >= pipeline_yield - 1e-12)

    def test_stage_distributions_match_samples(self, mc_engine_combined):
        pipeline = inverter_chain_pipeline(3, 5)
        result = mc_engine_combined.run_pipeline(pipeline)
        dists = result.stage_distributions()
        assert len(dists) == 3
        assert dists[0].mean == pytest.approx(result.stage_means()[0])


class TestNominalDelaysPerRun:
    """The engine computes each stage's nominal delays once per run."""

    @staticmethod
    def _count_nominal_calls(monkeypatch) -> list:
        from repro.timing.delay_model import GateDelayModel

        calls = []
        original = GateDelayModel.nominal_delays

        def counting(self, netlist, sizes=None):
            calls.append(netlist.name)
            return original(self, netlist, sizes)

        monkeypatch.setattr(GateDelayModel, "nominal_delays", counting)
        return calls

    @staticmethod
    def _recompute_per_chunk(monkeypatch) -> None:
        """Make every chunk recompute nominal delays, as before hoisting."""
        from repro.timing.delay_model import GateDelayModel

        original = GateDelayModel.delay_samples

        def per_chunk(self, netlist, vth, length=None, sizes=None, nominal=None, out=None):
            return original(self, netlist, vth, length, sizes, out=out)

        monkeypatch.setattr(GateDelayModel, "delay_samples", per_chunk)

    def test_chunked_pipeline_computes_nominal_once_per_stage(
        self, monkeypatch, variation_combined
    ):
        pipeline = inverter_chain_pipeline(3, 6)
        calls = self._count_nominal_calls(monkeypatch)
        MonteCarloEngine(
            variation_combined, n_samples=100, seed=4, chunk_size=16
        ).run_pipeline(pipeline)
        assert sorted(calls) == sorted(s.netlist.name for s in pipeline.stages)

    def test_chunked_stage_computes_nominal_once(self, monkeypatch, variation_combined):
        stage = PipelineStage("s", inverter_chain(5))
        calls = self._count_nominal_calls(monkeypatch)
        MonteCarloEngine(
            variation_combined, n_samples=100, seed=4, chunk_size=16
        ).run_stage(stage)
        assert len(calls) == 1

    def test_samples_match_per_chunk_recompute(self, monkeypatch, variation_combined):
        pipeline = inverter_chain_pipeline(3, 6)
        stage = PipelineStage("s", inverter_chain(5))

        def engine():
            return MonteCarloEngine(
                variation_combined, n_samples=100, seed=4, chunk_size=16
            )

        hoisted = engine().run_pipeline(pipeline).stage_samples
        hoisted_stage = engine().run_stage(stage).samples
        self._recompute_per_chunk(monkeypatch)
        per_chunk = engine().run_pipeline(pipeline).stage_samples
        per_chunk_stage = engine().run_stage(stage).samples
        assert np.array_equal(hoisted, per_chunk)
        assert np.array_equal(hoisted_stage, per_chunk_stage)


# ----------------------------------------------------------------------
# Byte identity with the seed sampler -> delay path
# ----------------------------------------------------------------------
#: Every branch of the sampler: both intra-die parts, one at a time, none.
SEED_VARIATIONS = {
    "combined": VariationModel.combined(),
    "inter_only": VariationModel.inter_only(),
    "intra_random_only": VariationModel.intra_random_only(),
    "systematic_only": VariationModel(
        sigma_vth_inter=0.0,
        sigma_vth_random=0.0,
        sigma_vth_systematic=0.03,
        sigma_l_inter=0.0,
        sigma_l_systematic=0.02,
        correlation_length=0.3,
    ),
    "zero_sigma": VariationModel(
        sigma_vth_inter=0.0,
        sigma_vth_random=0.0,
        sigma_vth_systematic=0.0,
        sigma_l_inter=0.0,
        sigma_l_systematic=0.0,
    ),
}

#: Exact edges of the default 8 x 8 grid's cells, points just off the die
#: and anywhere in a band around it.
COORDINATES = st.one_of(
    st.sampled_from([k / 8 for k in range(9)] + [-0.5, -1e-9, 1.0 + 1e-9, 1.75]),
    st.floats(-0.5, 1.5, allow_nan=False, allow_infinity=False),
)


@st.composite
def seeded_pipelines(draw) -> Pipeline:
    """1-3 stages of 0-99 random INV/NAND2/NOR2 gates, drawn sizes and positions."""
    structure = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stages = []
    for index in range(draw(st.integers(1, 3))):
        netlist = Netlist(f"s{index}")
        nets = [f"in{k}" for k in range(1 + index)]
        for name in nets:
            netlist.add_primary_input(name)
        for gate in range(draw(st.integers(0, 99))):
            cell = ("INV", "NAND2", "NOR2")[structure.integers(3)]
            picks = structure.integers(len(nets), size=1 if cell == "INV" else 2)
            netlist.add_gate(
                f"g{gate}", cell, [nets[k] for k in picks], size=draw(st.floats(0.25, 16.0))
            )
            nets.append(f"g{gate}")
        if netlist.n_gates and structure.random() < 0.7:
            netlist.mark_primary_output(nets[-1])
        stages.append(PipelineStage(f"s{index}", netlist))
    pipeline = Pipeline("p", stages)
    # Placement after the pipeline's floorplan, which re-places every gate.
    for stage in stages:
        for gate in stage.netlist.gates.values():
            gate.x, gate.y = draw(COORDINATES), draw(COORDINATES)
    return pipeline


class TestSeedReference:
    """The in-place chunk pass gives the seed path's samples, byte for byte."""

    @given(
        pipeline=seeded_pipelines(),
        variation=st.sampled_from(sorted(SEED_VARIATIONS)),
        chunk_size=st.sampled_from([None, 1, 7, 16]),
        n_samples=st.integers(2, 24),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_engine_matches_seed_loop(self, pipeline, variation, chunk_size, n_samples, seed):
        model = SEED_VARIATIONS[variation]
        engine = MonteCarloEngine(model, n_samples=n_samples, seed=seed, chunk_size=chunk_size)

        def reference(stages):
            return monte_carlo_reference(
                stages, model, engine.technology, n_samples, seed, chunk_size=chunk_size
            )

        samples = engine.run_pipeline(pipeline).stage_samples
        assert samples.tobytes() == reference(pipeline.stages).tobytes()
        for stage in pipeline.stages:
            expected = reference([stage])[:, 0]
            assert engine.run_stage(stage).samples.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("variation", sorted(SEED_VARIATIONS))
    def test_gate_free_stage_and_scale_block(self, variation):
        from repro.circuit.ingest import scale_logic_block

        model = SEED_VARIATIONS[variation]
        stages = [
            PipelineStage("empty", Netlist("empty")),
            PipelineStage("block", scale_logic_block("block", 3000, seed=3)),
        ]
        pipeline = Pipeline("p", stages)
        engine = MonteCarloEngine(model, n_samples=20, seed=9, chunk_size=7)
        expected = monte_carlo_reference(
            pipeline.stages, model, engine.technology, 20, 9, chunk_size=7
        )
        assert engine.run_pipeline(pipeline).stage_samples.tobytes() == expected.tobytes()
