"""Sessions and studies: the cached entrypoint of the Study API.

A :class:`Session` owns every expensive intermediate the backends need --
built pipelines (whose netlists carry their compiled
:class:`~repro.circuit.schedule.TimingSchedule`), Monte-Carlo
characterisations and SSTA engines -- keyed by the frozen specs that
describe them, so repeated queries (or many sweep points differing only in
one axis) reuse structure instead of rebuilding it.

A :class:`Study` binds one :class:`~repro.api.spec.StudySpec` to a session
and is the object most callers touch::

    from repro import Study, PipelineSpec, VariationSpec, AnalysisSpec

    study = Study(
        pipeline=PipelineSpec(n_stages=5, logic_depth=8),
        variation=VariationSpec.combined(),
        analysis=AnalysisSpec(backend="montecarlo", n_samples=5000, seed=1),
    )
    report = study.run()                       # DelayReport
    ssta = study.with_backend("ssta").run()    # same question, no sampling
    clock = report.delay_at_yield(0.90)

RNG hygiene: every sampled run derives its generator from a
:class:`numpy.random.SeedSequence`, and :func:`derive_seed` spawns
independent child streams per sweep point, so results are reproducible and
statistically independent regardless of execution order or process-level
parallelism.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import TYPE_CHECKING

import numpy as np

from repro.api.backends import (
    DelayReport,
    available_backends,
    delay_report_from_pipeline_run,
    get_backend,
)
from repro.api.spec import (
    AnalysisSpec,
    DesignSpec,
    DesignStudySpec,
    PipelineSpec,
    StudySpec,
    VariationSpec,
)
from repro.montecarlo.engine import MonteCarloEngine
from repro.montecarlo.results import PipelineMonteCarloResult
from repro.optimize.sizers import StageSizer, make_sizer
from repro.pipeline.pipeline import Pipeline
from repro.process.technology import Technology, default_technology
from repro.process.variation import VariationModel
from repro.timing.ssta import StatisticalTimingAnalyzer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.design import DesignReport
    from repro.optimize.area_delay import AreaDelayCurve
    from repro.optimize.balance import BalancedDesignResult
    from repro.robust.checkpoint import CheckpointStore

DEFAULT_ROOT_SEED = 2005


def derive_seed(root_seed: int, *branch: int) -> int:
    """Derive an independent child seed from a root seed and a branch path.

    Uses ``numpy.random.SeedSequence`` spawning, so two distinct branch
    paths yield statistically independent streams and the mapping depends
    only on ``(root_seed, branch)`` -- never on execution order, thread or
    process id.
    """
    sequence = np.random.SeedSequence(int(root_seed), spawn_key=tuple(int(b) for b in branch))
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


class Session:
    """Caches built pipelines, characterisations and engines across queries.

    Parameters
    ----------
    technology:
        Technology node shared by every query (defaults to the synthetic
        70 nm node).
    root_seed:
        Seed used when an :class:`AnalysisSpec` leaves ``seed=None``.
    store:
        Optional :class:`~repro.robust.checkpoint.CheckpointStore` used as
        a persistent read-through layer under the in-memory report caches:
        :meth:`analyze` and :meth:`design` consult it before computing and
        write every freshly computed report back, so reports survive across
        sessions and processes.  ``store_hits`` / ``store_writes`` count the
        traffic.

    Notes
    -----
    Cached pipelines are shared between queries and are read-only.  Design
    runs (:meth:`design`) never touch them: every flow reached through the
    session operates on an automatic :meth:`~repro.pipeline.pipeline.Pipeline.copy`
    (see :meth:`pipeline_copy`), so sizing one spec can never perturb a
    later analysis query of the same spec.

    :meth:`run` and :meth:`clear` hold the session's re-entrant lock, so
    threads sharing one session (the study server's worker bridge) compute
    one spec at a time.  The lock is taken per spec, not per sweep: a sweep
    executed on a shared session waits for it once per point, and its
    retry backoff, checkpoint I/O and process-pool waits run outside it.
    A point's ``point_timeout`` clock therefore includes any time the
    point spends waiting for another thread's computation.
    """

    def __init__(
        self,
        technology: Technology | None = None,
        root_seed: int = DEFAULT_ROOT_SEED,
        store: "CheckpointStore | None" = None,
    ) -> None:
        self.technology = technology if technology is not None else default_technology()
        self.root_seed = int(root_seed)
        self.store = store
        self.store_hits = 0
        self.store_writes = 0
        self.store_io_seconds = 0.0
        # Counters are read-modify-write; the serve thread bridge (and any
        # embedder sharing a session across threads) would otherwise
        # undercount under load.  Plain reads of the ints stay lock-free.
        self._counter_lock = threading.Lock()
        self._lock = threading.RLock()
        self._pipelines: dict[PipelineSpec, Pipeline] = {}
        self._variations: dict[VariationSpec, VariationModel] = {}
        self._mc_runs: dict[tuple, PipelineMonteCarloResult] = {}
        self._analyzers: dict[tuple, StatisticalTimingAnalyzer] = {}
        self._reports: dict[tuple, DelayReport] = {}
        self._sizers: dict[tuple, StageSizer] = {}
        self._balanced: dict[tuple, "BalancedDesignResult"] = {}
        self._curves: dict[tuple, dict[str, "AreaDelayCurve"]] = {}
        self._design_reports: dict[tuple, "DesignReport"] = {}
        self._design_validations: dict[tuple, DelayReport] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def _count(self, name: str, amount: float = 1) -> None:
        """Thread-safe counter bump (``stats()`` counters are shared state)."""
        with self._counter_lock:
            setattr(self, name, getattr(self, name) + amount)

    # ------------------------------------------------------------------
    # Cached intermediates
    # ------------------------------------------------------------------
    def pipeline(self, spec: PipelineSpec) -> Pipeline:
        """Build (or fetch) the pipeline described by ``spec``.

        Building compiles every stage netlist's levelized timing schedule
        once, so later STA/SSTA/Monte-Carlo queries over the same spec skip
        straight to propagation.
        """
        pipeline = self._pipelines.get(spec)
        if pipeline is None:
            pipeline = spec.build(self.technology)
            for stage in pipeline.stages:
                stage.netlist.timing_schedule()
            self._pipelines[spec] = pipeline
        return pipeline

    def variation(self, spec: VariationSpec) -> VariationModel:
        """Build (or fetch) the variation model described by ``spec``."""
        model = self._variations.get(spec)
        if model is None:
            model = spec.build()
            self._variations[spec] = model
        return model

    def resolve_seed(self, analysis: AnalysisSpec) -> int:
        """The concrete seed a sampled run uses for this analysis spec."""
        return self.root_seed if analysis.seed is None else int(analysis.seed)

    def montecarlo_run(
        self,
        pipeline_spec: PipelineSpec,
        variation_spec: VariationSpec,
        analysis: AnalysisSpec,
    ) -> PipelineMonteCarloResult:
        """Monte-Carlo characterisation, cached by everything that affects it.

        The cache key deliberately excludes ``analysis.backend`` (and the
        Clark ordering), so the ``montecarlo`` and ``analytic`` backends
        share one characterisation -- the paper's model-vs-simulation
        comparison out of a single sampling run.
        """
        seed = self.resolve_seed(analysis)
        key = (
            pipeline_spec,
            variation_spec,
            analysis.n_samples,
            seed,
            analysis.grid_size,
            analysis.chunk_size,
        )
        run = self._mc_runs.get(key)
        if run is None:
            self._count("cache_misses")
            engine = MonteCarloEngine(
                self.variation(variation_spec),
                technology=self.technology,
                n_samples=analysis.n_samples,
                seed=seed,
                grid_size=analysis.grid_size,
                chunk_size=analysis.chunk_size,
            )
            run = engine.run_pipeline(self.pipeline(pipeline_spec))
            self._mc_runs[key] = run
        else:
            self._count("cache_hits")
        return run

    def analyzer(
        self, variation_spec: VariationSpec, analysis: AnalysisSpec
    ) -> StatisticalTimingAnalyzer:
        """SSTA engine for a variation model, cached by its factor basis."""
        key = (variation_spec, analysis.grid_size, analysis.variance_coverage)
        analyzer = self._analyzers.get(key)
        if analyzer is None:
            analyzer = StatisticalTimingAnalyzer(
                self.technology,
                self.variation(variation_spec),
                grid_size=analysis.grid_size,
                variance_coverage=analysis.variance_coverage,
            )
            self._analyzers[key] = analyzer
        return analyzer

    # ------------------------------------------------------------------
    # Cached design intermediates
    # ------------------------------------------------------------------
    def pipeline_copy(self, spec: PipelineSpec) -> Pipeline:
        """A fresh, mutation-safe copy of the cached pipeline for ``spec``.

        This is the only way design flows obtain pipelines: optimizers
        resize gates in place, so handing out the cached (shared) pipeline
        would corrupt every later analysis query.  The copy is cheap next to
        a single sizing run.
        """
        return self.pipeline(spec).copy()

    def sizer(self, variation_spec: VariationSpec, design: DesignSpec) -> StageSizer:
        """Named stage sizer for a variation model, cached per strategy.

        Caching shares the sizer's embedded SSTA engine (and its spatial
        factor basis) across every design run of the same process setup.
        """
        key = (variation_spec, design.sizer_key())
        sizer = self._sizers.get(key)
        if sizer is None:
            sizer = make_sizer(
                design.sizer,
                self.technology,
                self.variation(variation_spec),
                **dict(design.sizer_options),
            )
            self._sizers[key] = sizer
        return sizer

    def balanced_design(self, spec: DesignStudySpec) -> "BalancedDesignResult":
        """Balanced baseline, cached by the balance key.

        Returns the :class:`~repro.optimize.balance.BalancedDesignResult`
        every optimizer starts from; it carries the resolved targets
        (``target_delay``, ``stage_yield_target``, and ``stage_targets``
        under the ``"stage_relative"`` policy) next to each stage's sizing
        result, and the SSTA stage statistics of the balanced pipeline (and
        of the unsized one, when a derived delay target needed them), so no
        optimizer computes them again.  Two design specs differing only in
        optimizer/redistribution/ordering knobs share one cached baseline,
        which is what lets optimizer-axis sweep points reuse the expensive
        sizing work.
        """
        from repro.api.design import derive_design_targets
        from repro.optimize.balance import design_balanced_pipeline
        from repro.optimize.global_opt import pipeline_stage_statistics

        design = spec.design
        key = (spec.pipeline, spec.variation, design.balance_key())
        balanced = self._balanced.get(key)
        if balanced is None:
            self._count("cache_misses")
            base = self.pipeline_copy(spec.pipeline)
            sizer = self.sizer(spec.variation, design)
            # Only a derived delay target reads the unsized pipeline's
            # statistics; without them the balanced report computes its own.
            input_statistics = (
                pipeline_stage_statistics(sizer, base)
                if design.delay_target is None
                else None
            )
            target_delay, stage_yield = derive_design_targets(
                base, sizer, design, input_statistics
            )
            balanced = design_balanced_pipeline(
                base,
                sizer,
                target_delay,
                design.yield_target,
                stage_yield_target=stage_yield,
            )
            balanced = dataclasses.replace(
                balanced,
                input_statistics=input_statistics,
                statistics=pipeline_stage_statistics(sizer, balanced.pipeline),
            )
            self._balanced[key] = balanced
        else:
            self._count("cache_hits")
        return balanced

    def area_delay_curves(
        self, spec: DesignStudySpec, curve_yield: float
    ) -> dict[str, "AreaDelayCurve"]:
        """Per-stage area-vs-delay curves (Fig. 8), cached per (stage, sizer).

        Characterisation sweeps always start from the all-minimum-size
        design, so the curves are independent of any current sizing; they
        are characterised on a private pipeline copy and shared by every
        optimizer, mode and sweep point with the same sizer strategy.
        """
        from repro.optimize.area_delay import characterize_stage

        design = spec.design
        key = (
            spec.pipeline,
            spec.variation,
            design.sizer_key(),
            float(curve_yield),
            design.curve_points,
        )
        curves = self._curves.get(key)
        if curves is None:
            self._count("cache_misses")
            base = self.pipeline_copy(spec.pipeline)
            sizer = self.sizer(spec.variation, design)
            curves = {
                stage.name: characterize_stage(
                    stage, sizer, curve_yield, n_points=design.curve_points
                )
                for stage in base.stages
            }
            self._curves[key] = curves
        else:
            self._count("cache_hits")
        return curves

    def validate_design(
        self,
        spec: DesignStudySpec,
        pipeline: Pipeline,
        cache_key: tuple | None = None,
    ) -> DelayReport:
        """Monte-Carlo validation of a designed pipeline.

        ``cache_key`` identifies pipelines that several reports validate
        (the balanced baseline); per-design pipelines are unique, so their
        validations are cached with the report itself.
        """
        analysis = spec.validation
        if analysis is None:
            raise ValueError("spec has no validation AnalysisSpec")
        seed = self.resolve_seed(analysis)
        key = None
        if cache_key is not None:
            key = cache_key + (
                analysis.n_samples, seed, analysis.grid_size, analysis.chunk_size,
            )
            cached = self._design_validations.get(key)
            if cached is not None:
                self._count("cache_hits")
                return cached
        engine = MonteCarloEngine(
            self.variation(spec.variation),
            technology=self.technology,
            n_samples=analysis.n_samples,
            seed=seed,
            grid_size=analysis.grid_size,
            chunk_size=analysis.chunk_size,
        )
        report = delay_report_from_pipeline_run(engine.run_pipeline(pipeline))
        if key is not None:
            self._count("cache_misses")
            self._design_validations[key] = report
        return report

    # ------------------------------------------------------------------
    # Persistent read-through (optional checkpoint store)
    # ------------------------------------------------------------------
    def _store_get(self, spec):
        """Fetch a report from the persistent store, if one is attached.

        Wall-clock spent inside the store is accumulated in
        ``store_io_seconds`` so execution layers can charge per-point
        timeouts to the evaluation alone, never to persistence I/O.
        """
        if self.store is None:
            return None
        from repro.robust.checkpoint import resolved_store_spec

        started = time.monotonic()
        try:
            report = self.store.get(resolved_store_spec(spec, self))
        finally:
            self._count("store_io_seconds", time.monotonic() - started)
        if report is not None:
            self._count("store_hits")
        return report

    def _store_put(self, spec, report) -> None:
        """Persist a freshly computed report, if a store is attached."""
        if self.store is None:
            return
        from repro.robust.checkpoint import resolved_store_spec

        started = time.monotonic()
        try:
            self.store.put(resolved_store_spec(spec, self), report)
        finally:
            self._count("store_io_seconds", time.monotonic() - started)
        self._count("store_writes")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def analyze(self, study: StudySpec, backend: str | None = None) -> DelayReport:
        """Answer a study spec with its (or an overridden) backend."""
        if backend is not None:
            study = study.with_backend(backend)
        key = (study.pipeline, study.variation, study.analysis)
        report = self._reports.get(key)
        if report is None:
            report = self._store_get(study)
            if report is None:
                report = get_backend(study.analysis.backend).analyze(self, study)
                self._store_put(study, report)
            self._reports[key] = report
        return report

    def yield_at(
        self, study: StudySpec, target_delay: float, backend: str | None = None
    ) -> float:
        """Yield at a target clock period through any registered backend."""
        return self.analyze(study, backend=backend).yield_at(target_delay)

    def delay_at_yield(
        self, study: StudySpec, target_yield: float, backend: str | None = None
    ) -> float:
        """Clock period achieving a target yield through any backend."""
        return self.analyze(study, backend=backend).delay_at_yield(target_yield)

    def design(
        self, spec: DesignStudySpec, optimizer: str | None = None
    ) -> "DesignReport":
        """Run a design study through its (or an overridden) optimizer.

        The optimizer operates on an automatic copy of the cached pipeline,
        so the session's analysis caches stay valid; the balanced baseline,
        area--delay curves, sizers and baseline validations are all reused
        from the session across optimizers and sweep points.
        """
        from repro.api.design import get_optimizer

        if optimizer is not None:
            spec = spec.with_optimizer(optimizer)
        key = (spec.pipeline, spec.variation, spec.design, spec.validation)
        report = self._design_reports.get(key)
        if report is None:
            report = self._store_get(spec)
            if report is None:
                report = get_optimizer(spec.design.optimizer).design(self, spec)
                self._store_put(spec, report)
            self._design_reports[key] = report
        return report

    def run(self, spec: StudySpec | DesignStudySpec):
        """Answer either kind of study: analysis or design.

        Dispatches on the spec type, so sweeps and one-shot facades treat
        :class:`~repro.api.spec.StudySpec` and
        :class:`~repro.api.spec.DesignStudySpec` uniformly.  Threads
        sharing the session run one spec at a time (see the class notes).
        """
        with self._lock:
            if isinstance(spec, DesignStudySpec):
                return self.design(spec)
            return self.analyze(spec)

    def stats(self) -> dict:
        """Counters and cache sizes, as one JSON-safe dictionary.

        ``cache_hits`` / ``cache_misses`` count the expensive intermediates
        (Monte-Carlo characterisations, balanced baselines, area--delay
        curves, cached validations); ``store_hits`` / ``store_writes``
        count persistent read-through traffic; ``cached`` maps every
        internal cache to its current entry count.  This is what the study
        server's ``/v1/stats`` endpoint reports.
        """
        return {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "store_hits": self.store_hits,
            "store_writes": self.store_writes,
            "store_io_seconds": self.store_io_seconds,
            "root_seed": self.root_seed,
            "has_store": self.store is not None,
            "cached": {
                "pipelines": len(self._pipelines),
                "variations": len(self._variations),
                "mc_runs": len(self._mc_runs),
                "analyzers": len(self._analyzers),
                "reports": len(self._reports),
                "sizers": len(self._sizers),
                "balanced": len(self._balanced),
                "curves": len(self._curves),
                "design_reports": len(self._design_reports),
                "design_validations": len(self._design_validations),
            },
        }

    def clear(self) -> None:
        """Drop every cached intermediate and report."""
        with self._lock:
            self._pipelines.clear()
            self._variations.clear()
            self._mc_runs.clear()
            self._analyzers.clear()
            self._reports.clear()
            self._sizers.clear()
            self._balanced.clear()
            self._curves.clear()
            self._design_reports.clear()
            self._design_validations.clear()
            with self._counter_lock:
                self.cache_hits = 0
                self.cache_misses = 0
                self.store_hits = 0
                self.store_writes = 0
                self.store_io_seconds = 0.0


class Study:
    """One declarative experiment bound to a (possibly shared) session.

    Construct from a full :class:`StudySpec` or from its parts::

        Study(pipeline=PipelineSpec(n_stages=12, logic_depth=10),
              variation=VariationSpec.combined(),
              analysis=AnalysisSpec(n_samples=4000, seed=2005))
    """

    def __init__(
        self,
        spec: StudySpec | None = None,
        *,
        pipeline: PipelineSpec | None = None,
        variation: VariationSpec | None = None,
        analysis: AnalysisSpec | None = None,
        target_yield: float | None = None,
        target_quantile: float | None = None,
        name: str | None = None,
        session: Session | None = None,
    ) -> None:
        if spec is None:
            spec = StudySpec(
                pipeline=pipeline if pipeline is not None else PipelineSpec(),
                variation=variation if variation is not None else VariationSpec(),
                analysis=analysis if analysis is not None else AnalysisSpec(),
                target_yield=target_yield,
                target_quantile=target_quantile,
                name=name if name is not None else "",
            )
        elif any(
            part is not None
            for part in (
                pipeline, variation, analysis, target_yield, target_quantile, name,
            )
        ):
            raise ValueError("pass either a full spec or its parts, not both")
        self.spec = spec
        self.session = session if session is not None else Session()

    # -- construction helpers -------------------------------------------
    @classmethod
    def from_json(cls, text: str, session: Session | None = None) -> "Study":
        """Rehydrate a study from a :meth:`StudySpec.to_json` payload."""
        return cls(StudySpec.from_json(text), session=session)

    def to_json(self, indent: int | None = None) -> str:
        """Serialise the underlying spec."""
        return self.spec.to_json(indent=indent)

    def with_backend(self, backend: str) -> "Study":
        """Same experiment through a different backend, sharing the session."""
        return Study(self.spec.with_backend(backend), session=self.session)

    def replace(self, **changes) -> "Study":
        """New study with top-level spec fields replaced, sharing the session."""
        return Study(self.spec.replace(**changes), session=self.session)

    # -- queries ---------------------------------------------------------
    def run(self, backend: str | None = None) -> DelayReport:
        """Run (or fetch from the session cache) this study's report."""
        return self.session.analyze(self.spec, backend=backend)

    def reports(
        self, backends: tuple[str, ...] | None = None
    ) -> dict[str, DelayReport]:
        """Reports from several backends answering the same question."""
        names = backends if backends is not None else available_backends()
        return {name: self.run(backend=name) for name in names}

    def yield_at(self, target_delay: float, backend: str | None = None) -> float:
        """Yield at a target clock period."""
        return self.run(backend=backend).yield_at(target_delay)

    def delay_at_yield(self, target_yield: float, backend: str | None = None) -> float:
        """Clock period achieving a target yield."""
        return self.run(backend=backend).delay_at_yield(target_yield)

    def sweep(self, axes, mode: str = "grid", seed_policy: str = "spawn"):
        """A :class:`~repro.api.sweep.ScenarioSweep` over this study's spec.

        The sweep is bound to this study's session, so points that coincide
        with already-answered queries reuse the cached structure.
        """
        from repro.api.sweep import ScenarioSweep

        return ScenarioSweep(
            self.spec, axes, mode=mode, seed_policy=seed_policy, session=self.session
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        spec = self.spec
        return (
            f"Study({spec.pipeline.kind!r}, backend={spec.analysis.backend!r}, "
            f"name={spec.name!r})"
        )


def run_study(
    study: StudySpec | DesignStudySpec | Study,
    session: Session | None = None,
    backend: str | None = None,
):
    """One-shot facade: run a study spec (or Study) and return its report.

    Accepts analysis studies (returning a :class:`DelayReport`) and design
    studies (returning a :class:`~repro.api.design.DesignReport`); for a
    design study ``backend`` overrides the spec's optimizer name.
    """
    if isinstance(study, Study):
        if session is not None and session is not study.session:
            return session.analyze(study.spec, backend=backend)
        return study.run(backend=backend)
    if session is None:
        session = Session()
    if isinstance(study, DesignStudySpec):
        return session.design(study, optimizer=backend)
    return session.analyze(study, backend=backend)
