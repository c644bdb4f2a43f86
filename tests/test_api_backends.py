"""Backend registry, DelayReport semantics and cross-backend agreement."""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.stats import norm

from repro.api.backends import (
    DelayAnalysisBackend,
    DelayReport,
    available_backends,
    get_backend,
    register_backend,
)
from repro.api.session import Session, Study, run_study
from repro.api.spec import AnalysisSpec, PipelineSpec, StudySpec, VariationSpec


@pytest.fixture(scope="module")
def small_study_spec() -> StudySpec:
    return StudySpec(
        pipeline=PipelineSpec(n_stages=3, logic_depth=6),
        variation=VariationSpec.combined(),
        analysis=AnalysisSpec(backend="montecarlo", n_samples=4000, seed=3),
    )


@pytest.fixture(scope="module")
def session() -> Session:
    return Session()


@pytest.fixture(scope="module")
def reports(session, small_study_spec) -> dict[str, DelayReport]:
    return {
        name: session.analyze(small_study_spec, backend=name)
        for name in ("montecarlo", "analytic", "ssta")
    }


class TestDelayReport:
    def make(self, with_samples: bool) -> DelayReport:
        rng = np.random.default_rng(5)
        samples = tuple(float(s) for s in rng.normal(1e-10, 5e-12, 500))
        return DelayReport(
            backend="montecarlo" if with_samples else "analytic",
            stage_names=("s0", "s1"),
            stage_means=(9e-11, 9.5e-11),
            stage_stds=(4e-12, 5e-12),
            correlation=((1.0, 0.3), (0.3, 1.0)),
            pipeline_mean=1e-10,
            pipeline_std=5e-12,
            samples=samples if with_samples else None,
        )

    @pytest.mark.parametrize("with_samples", [True, False])
    def test_json_round_trip(self, with_samples):
        report = self.make(with_samples)
        assert DelayReport.from_json(report.to_json()) == report

    def test_json_can_drop_samples(self):
        report = self.make(True)
        slim = DelayReport.from_json(report.to_json(include_samples=False))
        assert slim.samples is None
        assert slim.pipeline_mean == report.pipeline_mean

    def test_empirical_vs_gaussian_queries(self):
        sampled = self.make(True)
        gaussian = self.make(False)
        target = 1.02e-10
        expected_empirical = float(
            (np.asarray(sampled.samples) <= target).mean()
        )
        assert sampled.yield_at(target) == expected_empirical
        assert gaussian.yield_at(target) == pytest.approx(
            float(norm.cdf((target - 1e-10) / 5e-12))
        )
        assert sampled.delay_at_yield(0.5) == pytest.approx(
            float(np.quantile(np.asarray(sampled.samples), 0.5))
        )
        assert gaussian.delay_at_yield(0.5) == pytest.approx(1e-10)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="stage names"):
            DelayReport(
                backend="x",
                stage_names=("a",),
                stage_means=(1.0, 2.0),
                stage_stds=(0.1,),
                correlation=((1.0,),),
                pipeline_mean=1.0,
                pipeline_std=0.1,
            )
        with pytest.raises(ValueError, match="correlation"):
            DelayReport(
                backend="x",
                stage_names=("a", "b"),
                stage_means=(1.0, 2.0),
                stage_stds=(0.1, 0.1),
                correlation=((1.0, 0.0),),
                pipeline_mean=1.0,
                pipeline_std=0.1,
            )

    def test_stage_helpers(self):
        report = self.make(False)
        dists = report.stage_distributions()
        assert [d.name for d in dists] == ["s0", "s1"]
        assert report.stage_variabilities() == pytest.approx(
            [4e-12 / 9e-11, 5e-12 / 9.5e-11]
        )
        assert report.mean_stage_correlation() == pytest.approx(0.3)


class TestRegistry:
    def test_builtins_registered(self):
        assert {"montecarlo", "analytic", "ssta"} <= set(available_backends())

    def test_unknown_backend_error_names_alternatives(self):
        with pytest.raises(KeyError, match="montecarlo"):
            get_backend("spice")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(get_backend("ssta"))

    def test_custom_backend_addressable_from_spec(self, small_study_spec):
        class ConstantBackend:
            name = "test_constant"

            def analyze(self, session, study):
                return DelayReport(
                    backend=self.name,
                    stage_names=("s",),
                    stage_means=(1e-10,),
                    stage_stds=(1e-12,),
                    correlation=((1.0,),),
                    pipeline_mean=1e-10,
                    pipeline_std=1e-12,
                )

        backend = ConstantBackend()
        assert isinstance(backend, DelayAnalysisBackend)
        register_backend(backend, replace=True)
        report = run_study(small_study_spec, backend="test_constant")
        assert report.backend == "test_constant"


class TestCrossBackendAgreement:
    """MC, SSTA and analytic must tell one consistent story (satellite)."""

    def test_pipeline_mean_agrees(self, reports):
        mc = reports["montecarlo"].pipeline_mean
        assert reports["analytic"].pipeline_mean == pytest.approx(mc, rel=0.02)
        assert reports["ssta"].pipeline_mean == pytest.approx(mc, rel=0.03)

    def test_pipeline_sigma_agrees(self, reports):
        mc = reports["montecarlo"].pipeline_std
        # First-order canonical SSTA is known to underestimate sigma over
        # many near-critical paths; keep the same band the SSTA tests use.
        assert reports["analytic"].pipeline_std == pytest.approx(mc, rel=0.25)
        assert reports["ssta"].pipeline_std == pytest.approx(mc, rel=0.40)

    def test_stage_means_agree(self, reports):
        mc = np.asarray(reports["montecarlo"].stage_means)
        ssta = np.asarray(reports["ssta"].stage_means)
        assert np.allclose(ssta, mc, rtol=0.03)
        # analytic fits per-column slices, MC reduces over axis 0 -- the
        # summation orders differ, so agreement is to float precision.
        assert np.allclose(
            reports["analytic"].stage_means, mc, rtol=1e-12, atol=0.0
        )

    def test_same_yield_query_through_one_session(self, session, small_study_spec):
        """Acceptance: one Session, three backends, no backend imports."""
        target = session.analyze(small_study_spec).delay_at_yield(0.9)
        yields = {
            name: session.yield_at(small_study_spec, target, backend=name)
            for name in ("montecarlo", "analytic", "ssta")
        }
        assert yields["montecarlo"] == pytest.approx(0.9, abs=0.01)
        for name, value in yields.items():
            assert 0.75 < value < 0.99, (name, value)

    def test_correlation_regimes_through_backends(self, session):
        base = StudySpec(
            pipeline=PipelineSpec(n_stages=3, logic_depth=5),
            analysis=AnalysisSpec(n_samples=1500, seed=9),
        )
        inter = base.replace(variation=VariationSpec.inter_only(0.03))
        intra = base.replace(variation=VariationSpec.intra_random_only(0.03))
        for backend in ("montecarlo", "ssta"):
            rho_inter = session.analyze(inter, backend=backend).mean_stage_correlation()
            rho_intra = session.analyze(intra, backend=backend).mean_stage_correlation()
            assert rho_inter > 0.9, backend
            assert abs(rho_intra) < 0.25, backend


class TestSessionCaching:
    def test_analytic_reuses_mc_characterisation(self, small_study_spec):
        session = Session()
        session.analyze(small_study_spec, backend="montecarlo")
        assert (session.cache_hits, session.cache_misses) == (0, 1)
        session.analyze(small_study_spec, backend="analytic")
        assert (session.cache_hits, session.cache_misses) == (1, 1)

    def test_pipeline_objects_cached(self, small_study_spec):
        session = Session()
        first = session.pipeline(small_study_spec.pipeline)
        assert session.pipeline(small_study_spec.pipeline) is first

    def test_report_cache_returns_same_object(self, small_study_spec):
        session = Session()
        assert session.analyze(small_study_spec) is session.analyze(small_study_spec)

    def test_seed_none_uses_session_root_seed(self):
        spec = StudySpec(
            pipeline=PipelineSpec(n_stages=2, logic_depth=3),
            analysis=AnalysisSpec(n_samples=200, seed=None),
        )
        a = Session(root_seed=77).analyze(spec)
        b = Session(root_seed=77).analyze(spec)
        c = Session(root_seed=78).analyze(spec)
        assert a == b
        assert a.pipeline_mean != c.pipeline_mean

    def test_threads_sharing_a_session_characterise_once(self):
        """``Session.run`` serialises threads: no characterisation races.

        Two seeds through the Monte-Carlo and analytic backends need two
        characterisations, each reused once; racing threads that missed
        the same cache entry would count more.
        """
        specs = [
            StudySpec(
                pipeline=PipelineSpec(n_stages=2, logic_depth=3),
                analysis=AnalysisSpec(backend=backend, n_samples=100, seed=seed),
            )
            for seed in (1, 2)
            for backend in ("montecarlo", "analytic")
        ]
        session = Session()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(session.run, specs[i % len(specs)]) for i in range(32)
                ]
                reports = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert (session.cache_hits, session.cache_misses) == (2, 2)
        for i, report in enumerate(reports):
            assert report is reports[i % len(specs)]


class TestStudyFacade:
    def test_study_parts_and_spec_are_exclusive(self, small_study_spec):
        with pytest.raises(ValueError, match="not both"):
            Study(small_study_spec, pipeline=PipelineSpec())
        with pytest.raises(ValueError, match="not both"):
            Study(small_study_spec, name="mislabel")

    def test_study_json_round_trip_runs(self, small_study_spec, session):
        study = Study(small_study_spec, session=session)
        clone = Study.from_json(study.to_json(), session=session)
        assert clone.spec == study.spec
        assert clone.run() is study.run()

    def test_reports_cover_requested_backends(self, session, small_study_spec):
        study = Study(small_study_spec, session=session)
        reports = study.reports(("montecarlo", "ssta"))
        assert set(reports) == {"montecarlo", "ssta"}
        assert reports["ssta"].backend == "ssta"

    def test_run_study_accepts_spec_and_study(self, small_study_spec, session):
        via_spec = run_study(small_study_spec, session=session)
        via_study = run_study(Study(small_study_spec, session=session))
        assert via_spec == via_study
