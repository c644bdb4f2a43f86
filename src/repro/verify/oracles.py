"""Differential oracles: each pairs a fast path with its trusted reference.

An oracle answers one question about one scenario: *does the optimised
implementation still agree with the implementation we trust, under an
explicit tolerance policy?*  The registry pairs every vectorized kernel and
model shortcut in the codebase with its oracle:

========================  ====================================================
oracle                    fast path vs. reference
========================  ====================================================
``sta-forward``           :func:`repro.timing.sta.arrival_times` (levelized,
                          1-D and batched 2-D) vs. the retained gate-at-a-time
                          loop in :mod:`repro.timing.reference`
``sta-backward``          :func:`repro.timing.sta.required_times` vs. its
                          reverse-walk reference
``ssta-propagation``      batched canonical-form propagation
                          (:meth:`StatisticalTimingAnalyzer.arrival_components`)
                          vs. the scalar Clark-fold reference
``ssta-correlation``      the one-shot ``S @ S.T`` correlation matrix vs. the
                          pairwise-covariance reference
``clark-max``             Clark's analytical pipeline max vs. the empirical
                          max of correlated Gaussian samples
``analytic-yield``        the paper's model yield (Clark + Gaussian, eq. 9)
                          vs. Monte-Carlo empirical yield from the *same*
                          characterisation
``backend-agreement``     SSTA (no sampling) vs. Monte-Carlo ground truth
``report-invariants``     the scenario's own report vs.
                          :mod:`repro.verify.invariants`
``design-invariants``     the design report vs. its invariants
``design-isolation``      session-cached pipelines must be bit-identical
                          before and after a design run (mutation isolation)
``optimizer-conformance`` the optimizer's model-predicted yield vs. its
                          Monte-Carlo validation
``sweep-fault-recovery``  fault-injected robust sweep execution vs. the
                          session's direct answer: injected flaky/persistent
                          failures must cost zero successful points and
                          surface as structured failures
``parser-round-trip``     the :mod:`repro.circuit.ingest` emitters vs. their
                          parsers: emit -> parse must reproduce bit-identical
                          topological order, sizes, loads, schedule levels
                          and nominal arrival times
========================  ====================================================

Every oracle is cheap relative to the scenario's own characterisation
because it reuses the :class:`~repro.api.session.Session` caches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.api.session import derive_seed
from repro.api.spec import StudySpec
from repro.core.pipeline_delay import PipelineDelayModel
from repro.core.stage_delay import StageDelayDistribution
from repro.timing.reference import (
    arrival_components_reference,
    arrival_times_reference,
    correlation_matrix_reference,
    required_times_reference,
)
from repro.timing.sta import arrival_times, max_delay, required_times
from repro.verify.invariants import check_delay_report, check_design_report
from repro.verify.scenarios import Scenario
from repro.verify.tolerances import Tolerance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import Session

#: Sample-block shape used by the 2-D STA differential check.
_STA_SAMPLE_ROWS = 8
#: Sample count for the empirical side of the Clark-max oracle.
_CLARK_SAMPLES = 20000


@dataclass(frozen=True)
class OracleCheck:
    """Outcome of one oracle on one scenario."""

    oracle: str
    scenario: str
    passed: bool
    excess: float
    tolerance: str = ""
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        status = "ok" if self.passed else "FAIL"
        tail = f" ({self.detail})" if self.detail else ""
        return f"[{status}] {self.oracle} on {self.scenario}: excess={self.excess:.3g}{tail}"


@runtime_checkable
class DifferentialOracle(Protocol):
    """Anything that can differentially check one scenario.

    ``kinds`` names the scenario kinds the oracle applies to (``"study"``,
    ``"design"``), and ``tolerance`` is the oracle's primary typed policy,
    replaceable per run through :func:`repro.verify.runner.run_conformance`.
    """

    name: str
    kinds: tuple[str, ...]
    tolerance: Tolerance

    def check(self, session: "Session", scenario: Scenario) -> OracleCheck:
        """Run the differential comparison for ``scenario``."""
        ...  # pragma: no cover - protocol signature


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_ORACLES: dict[str, DifferentialOracle] = {}


def register_oracle(oracle: DifferentialOracle, *, replace: bool = False) -> None:
    """Register an oracle instance under its ``name``."""
    name = getattr(oracle, "name", None)
    if not name or not isinstance(name, str):
        raise ValueError(f"oracle must expose a non-empty string name, got {name!r}")
    if name in _ORACLES and not replace:
        raise ValueError(f"oracle {name!r} is already registered")
    _ORACLES[name] = oracle


def get_oracle(name: str) -> DifferentialOracle:
    """Look up a registered oracle by name."""
    try:
        return _ORACLES[name]
    except KeyError:
        raise KeyError(
            f"no differential oracle named {name!r}; available: {available_oracles()}"
        ) from None


def available_oracles() -> tuple[str, ...]:
    """Names of all registered oracles, in registration order."""
    return tuple(_ORACLES)


def oracles_for(kind: str) -> tuple[DifferentialOracle, ...]:
    """Registered oracles applicable to a scenario kind."""
    return tuple(oracle for oracle in _ORACLES.values() if kind in oracle.kinds)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _worst(*excesses: float) -> float:
    return max(excesses) if excesses else 0.0


def _check(
    oracle: "DifferentialOracle",
    scenario: Scenario,
    excess: float,
    detail: str = "",
) -> OracleCheck:
    return OracleCheck(
        oracle=oracle.name,
        scenario=scenario.name,
        passed=excess <= 1.0,
        excess=excess,
        tolerance=oracle.tolerance.describe(),
        detail=detail,
    )


def _invariant_check(
    oracle: "DifferentialOracle", scenario: Scenario, violations: list[str]
) -> OracleCheck:
    return OracleCheck(
        oracle=oracle.name,
        scenario=scenario.name,
        passed=not violations,
        excess=float("inf") if violations else 0.0,
        tolerance="invariants",
        detail="; ".join(violations),
    )


def _perturbed_delays(nominal: np.ndarray, seed: int) -> np.ndarray:
    """A small batch of lognormally perturbed per-sample delay rows."""
    rng = np.random.default_rng(seed)
    factors = np.exp(
        rng.normal(0.0, 0.15, size=(_STA_SAMPLE_ROWS, nominal.shape[0]))
    )
    return nominal[None, :] * factors


def _stage_forms(session: "Session", scenario: Scenario):
    """(pipeline, analyzer, per-stage canonical forms) for a scenario."""
    pipeline = session.pipeline(scenario.pipeline)
    analyzer = session.analyzer(scenario.variation, scenario.analysis)
    return pipeline, analyzer, analyzer.pipeline_stage_forms(pipeline)


# ----------------------------------------------------------------------
# Kernel-level oracles (STA / SSTA vs. the retained naive references)
# ----------------------------------------------------------------------
@dataclass
class StaForwardOracle:
    """Vectorized levelized STA vs. the gate-at-a-time reference loop."""

    name: str = "sta-forward"
    kinds: tuple[str, ...] = ("study", "design")
    tolerance: Tolerance = field(default_factory=Tolerance.exact)

    def check(self, session: "Session", scenario: Scenario) -> OracleCheck:
        from repro.timing.delay_model import GateDelayModel

        pipeline = session.pipeline(scenario.pipeline)
        model = GateDelayModel(session.technology)
        seed = session.resolve_seed(scenario.analysis)
        worst, worst_stage = 0.0, ""
        for index, stage in enumerate(pipeline.stages):
            netlist = stage.netlist
            nominal = model.nominal_delays(netlist)
            batch = _perturbed_delays(nominal, derive_seed(seed, 1, index))
            for delays in (nominal, batch):
                excess = self.tolerance.excess(
                    arrival_times(netlist, delays),
                    arrival_times_reference(netlist, delays),
                )
                if excess > worst:
                    worst, worst_stage = excess, stage.name
        return _check(self, scenario, worst, worst_stage and f"stage {worst_stage}")


@dataclass
class StaBackwardOracle:
    """Vectorized backward required-time walk vs. its reference."""

    name: str = "sta-backward"
    kinds: tuple[str, ...] = ("study", "design")
    tolerance: Tolerance = field(default_factory=Tolerance.exact)

    def check(self, session: "Session", scenario: Scenario) -> OracleCheck:
        from repro.timing.delay_model import GateDelayModel

        pipeline = session.pipeline(scenario.pipeline)
        model = GateDelayModel(session.technology)
        worst, worst_stage = 0.0, ""
        for stage in pipeline.stages:
            netlist = stage.netlist
            nominal = model.nominal_delays(netlist)
            target = 1.05 * float(max_delay(netlist, nominal))
            excess = self.tolerance.excess(
                required_times(netlist, nominal, target),
                required_times_reference(netlist, nominal, target),
            )
            if excess > worst:
                worst, worst_stage = excess, stage.name
        return _check(self, scenario, worst, worst_stage and f"stage {worst_stage}")


@dataclass
class SstaPropagationOracle:
    """Batched canonical-form propagation vs. the scalar Clark-fold loop.

    Compares per-gate arrival means, factor sensitivities and *total*
    arrival sigmas.  The private (random) component is deliberately not
    compared in isolation: it is the square root of a variance residual
    obtained by cancellation, so when the true value is 0 (e.g. inter-only
    variation) both kernels produce pure ``sqrt(eps)``-level noise there --
    only ``sens^2 + rand^2`` is numerically well defined.
    """

    name: str = "ssta-propagation"
    kinds: tuple[str, ...] = ("study", "design")
    tolerance: Tolerance = field(default_factory=Tolerance.kernel)

    def check(self, session: "Session", scenario: Scenario) -> OracleCheck:
        pipeline = session.pipeline(scenario.pipeline)
        analyzer = session.analyzer(scenario.variation, scenario.analysis)
        worst, detail = 0.0, ""
        for stage in pipeline.stages:
            fast_mean, fast_sens, fast_rand = analyzer.arrival_components(stage.netlist)
            slow_mean, slow_sens, slow_rand = arrival_components_reference(
                analyzer, stage.netlist
            )
            comparisons = (
                ("mean", fast_mean, slow_mean),
                ("sens", fast_sens, slow_sens),
                (
                    "sigma",
                    np.hypot(np.linalg.norm(fast_sens, axis=1), fast_rand),
                    np.hypot(np.linalg.norm(slow_sens, axis=1), slow_rand),
                ),
            )
            for label, actual, expected in comparisons:
                excess = self.tolerance.excess(actual, expected)
                if excess > worst:
                    worst, detail = excess, f"stage {stage.name} ({label})"
        return _check(self, scenario, worst, detail)


@dataclass
class SstaCorrelationOracle:
    """One-shot stacked correlation matrix vs. the pairwise reference."""

    name: str = "ssta-correlation"
    kinds: tuple[str, ...] = ("study", "design")
    tolerance: Tolerance = field(default_factory=Tolerance.kernel)

    def check(self, session: "Session", scenario: Scenario) -> OracleCheck:
        _, analyzer, forms = _stage_forms(session, scenario)
        excess = self.tolerance.excess(
            analyzer.correlation_matrix(forms), correlation_matrix_reference(forms)
        )
        return _check(self, scenario, excess)


# ----------------------------------------------------------------------
# Model-vs-sampled oracles
# ----------------------------------------------------------------------
@dataclass
class ClarkMaxOracle:
    """Clark's pipeline-max moments vs. the empirical max of correlated draws.

    Builds the scenario's per-stage Gaussian statistics from SSTA canonical
    forms, samples the implied correlated multivariate normal directly, and
    compares Clark's analytical ``max_i SD_i`` moments against the sampled
    max.  ``tolerance`` bounds the mean; ``sigma_tolerance`` bounds the
    (noisier, approximation-limited) standard deviation.
    """

    name: str = "clark-max"
    kinds: tuple[str, ...] = ("study", "design")
    tolerance: Tolerance = field(
        default_factory=lambda: Tolerance.statistical(rel=0.02, abs=1e-15)
    )
    sigma_tolerance: Tolerance = field(
        default_factory=lambda: Tolerance.statistical(rel=0.25, abs=1e-13)
    )

    def check(self, session: "Session", scenario: Scenario) -> OracleCheck:
        _, analyzer, forms = _stage_forms(session, scenario)
        stages = [
            StageDelayDistribution.from_canonical(form, name=f"s{index}")
            for index, form in enumerate(forms)
        ]
        correlations = analyzer.correlation_matrix(forms)
        estimate = PipelineDelayModel(
            stages, correlations, ordering=scenario.analysis.ordering
        ).estimate()
        means = np.array([stage.mean for stage in stages])
        stds = np.array([stage.std for stage in stages])
        covariance = correlations * np.outer(stds, stds)
        rng = np.random.default_rng(
            derive_seed(session.resolve_seed(scenario.analysis), 2)
        )
        draws = rng.multivariate_normal(
            means, covariance, size=_CLARK_SAMPLES, check_valid="ignore"
        )
        empirical = draws.max(axis=1)
        mean_excess = self.tolerance.excess(estimate.mean, float(empirical.mean()))
        sigma_excess = self.sigma_tolerance.excess(
            estimate.std, float(empirical.std(ddof=1))
        )
        detail = "mean" if mean_excess >= sigma_excess else "sigma"
        return _check(self, scenario, _worst(mean_excess, sigma_excess), detail)


@dataclass
class AnalyticYieldOracle:
    """Paper-model yield (Clark + eq. 9) vs. empirical Monte-Carlo yield.

    Both reports come from one session-cached characterisation, so the
    comparison isolates the Clark/Gaussian approximation itself -- the
    paper's Table I error columns, run at every probed quantile.
    """

    name: str = "analytic-yield"
    kinds: tuple[str, ...] = ("study",)
    tolerance: Tolerance = field(default_factory=lambda: Tolerance.yield_points(8.0))
    probes: tuple[float, ...] = (0.5, 0.8, 0.95)

    def check(self, session: "Session", scenario: Scenario) -> OracleCheck:
        study = scenario.study
        mc = session.analyze(study, backend="montecarlo")
        analytic = session.analyze(study, backend="analytic")
        worst, detail = 0.0, ""
        for probe in self.probes:
            target = mc.delay_at_yield(probe)
            excess = self.tolerance.excess(analytic.yield_at(target), mc.yield_at(target))
            if excess > worst:
                worst, detail = excess, f"at the MC q{probe:g} delay"
        return _check(self, scenario, worst, detail)


@dataclass
class BackendAgreementOracle:
    """Sampling-free SSTA vs. Monte-Carlo ground truth on one question.

    Mean tolerances are tight (first-order SSTA tracks the mean well);
    ``sigma_tolerance`` is loose because canonical-form SSTA is known to
    underestimate sigma over many near-critical paths.
    """

    name: str = "backend-agreement"
    kinds: tuple[str, ...] = ("study",)
    tolerance: Tolerance = field(
        default_factory=lambda: Tolerance.statistical(rel=0.10, abs=1e-15)
    )
    sigma_tolerance: Tolerance = field(
        default_factory=lambda: Tolerance.statistical(rel=0.50, abs=1e-13)
    )

    def check(self, session: "Session", scenario: Scenario) -> OracleCheck:
        study = scenario.study
        mc = session.analyze(study, backend="montecarlo")
        ssta = session.analyze(study, backend="ssta")
        mean_excess = _worst(
            self.tolerance.excess(ssta.stage_means, mc.stage_means),
            self.tolerance.excess(ssta.pipeline_mean, mc.pipeline_mean),
        )
        sigma_excess = self.sigma_tolerance.excess(ssta.pipeline_std, mc.pipeline_std)
        detail = "means" if mean_excess >= sigma_excess else "pipeline sigma"
        return _check(self, scenario, _worst(mean_excess, sigma_excess), detail)


# ----------------------------------------------------------------------
# Invariant and design-flow oracles
# ----------------------------------------------------------------------
@dataclass
class ReportInvariantsOracle:
    """The scenario's own delay report must satisfy every report invariant."""

    name: str = "report-invariants"
    kinds: tuple[str, ...] = ("study",)
    tolerance: Tolerance = field(default_factory=Tolerance.exact)

    def check(self, session: "Session", scenario: Scenario) -> OracleCheck:
        report = session.analyze(scenario.study)
        return _invariant_check(self, scenario, check_delay_report(report))


@dataclass
class DesignInvariantsOracle:
    """The design report must satisfy every design-report invariant."""

    name: str = "design-invariants"
    kinds: tuple[str, ...] = ("design",)
    tolerance: Tolerance = field(default_factory=Tolerance.exact)

    def check(self, session: "Session", scenario: Scenario) -> OracleCheck:
        report = session.design(scenario.design)
        return _invariant_check(self, scenario, check_design_report(report))


@dataclass
class DesignIsolationOracle:
    """Design runs must never mutate the session's shared analysis pipelines.

    Optimizers resize gates aggressively, so after the scenario's design has
    run (here or in any earlier oracle -- ``Session.design`` memoizes), the
    session-cached pipeline must still carry its as-built gate sizes: the
    check compares it against a pristine rebuild from the spec, which
    catches a mutation no matter *when* it happened.  The design must also
    reproduce bit-identically on a fresh session, proving the report never
    absorbed shared-cache state.
    """

    name: str = "design-isolation"
    kinds: tuple[str, ...] = ("design",)
    tolerance: Tolerance = field(default_factory=Tolerance.exact)

    @staticmethod
    def _without_wall_clock(report):
        """The report with its (inherently nondeterministic) timings zeroed."""
        import dataclasses

        return dataclasses.replace(
            report,
            trace=tuple(
                dataclasses.replace(entry, seconds=0.0) for entry in report.trace
            ),
        )

    def check(self, session: "Session", scenario: Scenario) -> OracleCheck:
        from repro.api.session import Session

        report = session.design(scenario.design)
        violations = []
        cached = session.pipeline(scenario.pipeline)
        pristine = scenario.pipeline.build(session.technology)
        for cached_stage, pristine_stage in zip(cached.stages, pristine.stages):
            if not np.array_equal(
                cached_stage.netlist.sizes(), pristine_stage.netlist.sizes()
            ):
                violations.append(
                    f"cached stage {cached_stage.name!r} lost its as-built sizes"
                )
        fresh = Session(technology=session.technology, root_seed=session.root_seed)
        if self._without_wall_clock(
            fresh.design(scenario.design)
        ) != self._without_wall_clock(report):
            violations.append(
                "design is not reproducible on a fresh session "
                "(shared-cache state leaked into the report)"
            )
        return _invariant_check(self, scenario, violations)


@dataclass
class OptimizerConformanceOracle:
    """Model-predicted design yield vs. its own Monte-Carlo validation.

    The band covers the Clark/Gaussian model error *and* the validation's
    sampling noise, so it is wider than the analytic-yield band; scenarios
    without a validation block pass trivially (there is nothing to check).
    """

    name: str = "optimizer-conformance"
    kinds: tuple[str, ...] = ("design",)
    tolerance: Tolerance = field(default_factory=lambda: Tolerance.yield_points(12.0))

    def check(self, session: "Session", scenario: Scenario) -> OracleCheck:
        report = session.design(scenario.design)
        if report.validation is None:
            return _check(self, scenario, 0.0, "no validation block")
        excess = self.tolerance.excess(report.predicted_yield, report.mc_yield)
        return _check(
            self,
            scenario,
            excess,
            f"predicted {report.predicted_yield:.3f} vs MC {report.mc_yield:.3f}",
        )


@dataclass
class SweepFaultRecoveryOracle:
    """Fault-injected robust sweep execution vs. the session's direct answer.

    Drives the ``repro.robust`` execution layer on a two-point sweep over
    the scenario's own spec and asserts its recovery contract:

    * point 0 gets a *flaky* injected fault (first attempt raises, the
      retry must succeed) -- its report must equal ``session.run(spec)``
      exactly, proving retries lose nothing;
    * point 1 gets a *persistent* injected fault (every attempt raises) --
      it must come back as a structured
      :class:`~repro.robust.failures.PointFailure` with the injected error
      type and a full attempt count, never as an escaping exception.

    The sweep's axis is the spec ``name``, which no session cache key
    includes, so both points answer from the already-cached scenario report
    and the oracle costs nothing beyond the bookkeeping it is checking.
    """

    name: str = "sweep-fault-recovery"
    kinds: tuple[str, ...] = ("study", "design")
    tolerance: Tolerance = field(default_factory=Tolerance.exact)

    def check(self, session: "Session", scenario: Scenario) -> OracleCheck:
        from repro.api.sweep import ScenarioSweep
        from repro.robust import ExecutionPolicy, FaultPlan, FaultSpec

        spec = scenario.spec
        reference = session.run(spec)
        policy = ExecutionPolicy(max_retries=2, backoff_base=0.0)
        plan = FaultPlan(
            (
                FaultSpec(point=0, kind="raise", attempts=1),
                FaultSpec(point=1, kind="raise", attempts=-1),
            )
        )
        sweep = ScenarioSweep(
            spec,
            {"study.name": [f"{scenario.name}::recovered", f"{scenario.name}::doomed"]},
            seed_policy="fixed",
            session=session,
        )
        violations: list[str] = []
        try:
            result = sweep.run(policy=policy, fault_plan=plan)
        except Exception as exc:  # noqa: BLE001 - the contract under test
            return _invariant_check(
                self,
                scenario,
                [f"robust sweep raised instead of isolating: {type(exc).__name__}: {exc}"],
            )
        if [point.index for point in result.ok] != [0]:
            violations.append(
                f"expected exactly point 0 to survive, got "
                f"{[point.index for point in result.ok]}"
            )
        elif result[0].report != reference:
            violations.append(
                "retried point's report differs from the session's direct answer"
            )
        if [failure.index for failure in result.failures] != [1]:
            violations.append(
                f"expected exactly point 1 to fail, got "
                f"{[failure.index for failure in result.failures]}"
            )
        else:
            failure = result.failures[0]
            if failure.error_type != "InjectedFault":
                violations.append(
                    f"failure lost its error type: {failure.error_type!r}"
                )
            if failure.attempts != policy.max_attempts:
                violations.append(
                    f"persistent fault consumed {failure.attempts} attempts, "
                    f"expected {policy.max_attempts}"
                )
        if result.trace.n_retries < 1:
            violations.append("trace recorded no retries under a flaky fault")
        return _invariant_check(self, scenario, violations)


@dataclass
class ParserRoundTripOracle:
    """Emit -> parse must be a bit-exact structural round trip.

    Every stage netlist is written out through both ingestion emitters
    (:func:`repro.circuit.ingest.write_bench` and
    :func:`~repro.circuit.ingest.write_yosys_json`), parsed back, and the
    reconstruction must be *byte-identical* where it counts: same
    topological order and primary outputs, bit-equal sizes, loads, compiled
    schedule levels and nominal arrival times.  This is the contract that
    lets a design leave the system as a file and come back without
    perturbing a single sample of any downstream characterisation.
    """

    name: str = "parser-round-trip"
    kinds: tuple[str, ...] = ("study", "design")
    tolerance: Tolerance = field(default_factory=Tolerance.exact)

    def check(self, session: "Session", scenario: Scenario) -> OracleCheck:
        from repro.circuit.ingest import (
            parse_bench,
            parse_yosys_json,
            write_bench,
            write_yosys_json,
        )
        from repro.timing.delay_model import GateDelayModel

        pipeline = session.pipeline(scenario.pipeline)
        model = GateDelayModel(session.technology)
        worst, detail = 0.0, ""

        def note(excess: float, where: str) -> None:
            nonlocal worst, detail
            if excess > worst:
                worst, detail = excess, where

        for stage in pipeline.stages:
            netlist = stage.netlist
            if netlist.n_gates == 0:
                continue
            delays = model.nominal_delays(netlist)
            arrivals = arrival_times(netlist, delays)
            levels = netlist.levels()
            for fmt, reparsed in (
                ("bench", parse_bench(write_bench(netlist), netlist.name)),
                ("yosys", parse_yosys_json(write_yosys_json(netlist))),
            ):
                where = f"stage {stage.name} ({fmt})"
                if reparsed.topological_order() != netlist.topological_order():
                    note(float("inf"), f"{where}: topological order changed")
                    continue
                if reparsed.primary_outputs != netlist.primary_outputs:
                    note(float("inf"), f"{where}: primary outputs changed")
                    continue
                note(
                    self.tolerance.excess(reparsed.sizes(), netlist.sizes()),
                    f"{where}: sizes",
                )
                note(
                    self.tolerance.excess(reparsed.levels(), levels),
                    f"{where}: schedule levels",
                )
                note(
                    self.tolerance.excess(
                        reparsed.load_capacitances(), netlist.load_capacitances()
                    ),
                    f"{where}: loads",
                )
                note(
                    self.tolerance.excess(
                        arrival_times(reparsed, model.nominal_delays(reparsed)),
                        arrivals,
                    ),
                    f"{where}: arrival times",
                )
        return _check(self, scenario, worst, detail)


for _oracle in (
    StaForwardOracle(),
    StaBackwardOracle(),
    SstaPropagationOracle(),
    SstaCorrelationOracle(),
    ClarkMaxOracle(),
    AnalyticYieldOracle(),
    BackendAgreementOracle(),
    ReportInvariantsOracle(),
    DesignInvariantsOracle(),
    DesignIsolationOracle(),
    OptimizerConformanceOracle(),
    SweepFaultRecoveryOracle(),
    ParserRoundTripOracle(),
):
    register_oracle(_oracle)
