"""Pluggable pipeline optimizers and the common :class:`DesignReport`.

This is the design-flow mirror of :mod:`repro.api.backends`: every optimizer
answers the same question -- *size this pipeline so it meets a yield target
at a delay target, and tell me what that cost* -- and returns the same typed
report, so callers run and sweep design experiments without knowing (or
importing) the sizing machinery that produced the numbers:

``balanced``
    The paper's conventional baseline (section 4 / eq. 12): every stage is
    sized independently for the common delay target with the pipeline yield
    budget split equally (``Y ** (1/N)``), or an explicit per-stage budget.
``redistribute``
    The Fig. 7 experiment: start from the balanced design and move area
    between stages at (approximately) constant total area, following the
    eq. 14 sensitivity heuristic (``mode="best"``) or its inverse
    (``mode="worst"``).
``global``
    The Fig. 9 flow: one stage at a time in sensitivity-ratio order, each
    re-sized against the *pipeline* yield target using the statistical
    pipeline model with SSTA-derived correlations.

Optimizers receive the :class:`~repro.api.session.Session` so they share its
caches -- the balanced baseline, per-(stage, sizer) area--delay curves and
sizer instances are computed once per session and reused across optimizers,
modes and sweep points.  Crucially, every design run operates on an
automatic :meth:`~repro.pipeline.pipeline.Pipeline.copy` of the session's
cached pipeline, so a design can never perturb a later analysis query.

New optimizers register with :func:`register_optimizer` and become
addressable from any :class:`~repro.api.spec.DesignSpec` by name.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Mapping, Protocol, runtime_checkable

from repro.api.backends import DelayReport
from repro.api.spec import DesignSpec, DesignStudySpec
from repro.core.pipeline_delay import PipelineDelayModel
from repro.core.stage_delay import gaussian_yield
from repro.core.yield_model import stage_yield_budget
from repro.optimize.balance import BalancedDesignResult
from repro.optimize.global_opt import (
    GlobalPipelineOptimizer,
    StageStatistics,
    pipeline_stage_statistics,
)
from repro.optimize.redistribute import redistribute_area
from repro.optimize.result import SizingResult
from repro.optimize.sizers import StageSizer, get_sizer_factory
from repro.pipeline.pipeline import Pipeline

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.session import Session


# ----------------------------------------------------------------------
# Report building blocks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SizingTrace:
    """One sizing step of a design run (the iteration trace of a report)."""

    stage: str
    target_delay: float
    target_yield: float
    achieved_yield: float
    area: float
    iterations: int
    met_target: bool
    seconds: float = 0.0

    @classmethod
    def from_result(cls, stage: str, result: SizingResult) -> "SizingTrace":
        return cls(
            stage=stage,
            target_delay=float(result.target_delay),
            target_yield=float(result.target_yield),
            achieved_yield=float(result.achieved_yield),
            area=float(result.area),
            iterations=int(result.iterations),
            met_target=bool(result.met_target),
            seconds=float(result.seconds),
        )

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SizingTrace":
        return cls(**dict(data))


@dataclass(frozen=True)
class DesignSnapshot:
    """Areas and model yields of one pipeline design at a target delay."""

    stage_names: tuple[str, ...]
    stage_areas: tuple[float, ...]
    stage_logic_areas: tuple[float, ...]
    stage_yields: tuple[float, ...]
    total_area: float
    pipeline_yield: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "stage_names", tuple(str(n) for n in self.stage_names))
        for name in ("stage_areas", "stage_logic_areas", "stage_yields"):
            object.__setattr__(
                self, name, tuple(float(v) for v in getattr(self, name))
            )
        object.__setattr__(self, "total_area", float(self.total_area))
        object.__setattr__(self, "pipeline_yield", float(self.pipeline_yield))

    def to_dict(self) -> dict[str, Any]:
        return {
            "stage_names": list(self.stage_names),
            "stage_areas": list(self.stage_areas),
            "stage_logic_areas": list(self.stage_logic_areas),
            "stage_yields": list(self.stage_yields),
            "total_area": self.total_area,
            "pipeline_yield": self.pipeline_yield,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DesignSnapshot":
        return cls(**dict(data))


@dataclass(frozen=True, eq=False)
class DesignReport:
    """Optimizer-agnostic outcome of one yield-driven design run.

    All delays are in seconds and areas in square micrometres.  Every field
    is a plain tuple/float (nested reports are themselves JSON-serialisable
    dataclasses), so reports compare equal after a JSON round trip and are
    cheap to pickle across process boundaries in parallel sweeps.

    Attributes
    ----------
    optimizer / sizer:
        Registry names of the optimizer and stage-sizer strategy used.
    stage_names:
        Stage names in pipeline order; every per-stage tuple below follows
        this order.
    target_delay / target_yield / stage_yield_target:
        The design targets: pipeline delay, pipeline yield, and the
        per-stage yield budget of the balanced baseline.
    stage_targets:
        Per-stage delay targets (all equal except under the
        ``"stage_relative"`` policy).
    stage_sizes / stage_areas / stage_logic_areas:
        Final gate sizes (topological order within each stage) and stage
        areas with and without registers.
    stage_means / stage_stds / stage_yields:
        Post-design per-stage SSTA delay forms and model stage yields at
        ``target_delay``.
    total_area / total_logic_area:
        Area totals of the designed pipeline.
    pipeline_mean / pipeline_std / predicted_yield:
        The statistical pipeline model's estimate (Clark's method over the
        SSTA-correlated stages) and its yield at ``target_delay``.
    baseline:
        Snapshot of the design the optimizer started from (the balanced
        baseline for ``redistribute``/``global``, the unsized pipeline for
        ``balanced``).
    stage_order / sensitivity_ratios:
        Global-optimizer stage processing order and eq. 14 ratios (in
        ``stage_names`` order); ``None`` for other optimizers.
    donor_stages / receiver_stages:
        Redistribution roles; ``None`` for other optimizers.
    trace:
        Per-stage sizing steps in execution order.
    validation / validation_baseline:
        Monte-Carlo cross-checks of the designed (and baseline) pipeline,
        as full :class:`~repro.api.backends.DelayReport` objects so
        empirical yield/quantile queries stay available.
    """

    optimizer: str
    sizer: str
    stage_names: tuple[str, ...]
    target_delay: float
    target_yield: float
    stage_yield_target: float
    stage_targets: tuple[float, ...]
    stage_sizes: tuple[tuple[float, ...], ...]
    stage_areas: tuple[float, ...]
    stage_logic_areas: tuple[float, ...]
    stage_means: tuple[float, ...]
    stage_stds: tuple[float, ...]
    stage_yields: tuple[float, ...]
    total_area: float
    total_logic_area: float
    pipeline_mean: float
    pipeline_std: float
    predicted_yield: float
    baseline: DesignSnapshot | None = None
    stage_order: tuple[str, ...] | None = None
    sensitivity_ratios: tuple[float, ...] | None = None
    donor_stages: tuple[str, ...] | None = None
    receiver_stages: tuple[str, ...] | None = None
    trace: tuple[SizingTrace, ...] = ()
    validation: DelayReport | None = None
    validation_baseline: DelayReport | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "stage_names", tuple(str(n) for n in self.stage_names))
        for name in (
            "stage_targets",
            "stage_areas",
            "stage_logic_areas",
            "stage_means",
            "stage_stds",
            "stage_yields",
        ):
            object.__setattr__(
                self, name, tuple(float(v) for v in getattr(self, name))
            )
        object.__setattr__(
            self,
            "stage_sizes",
            tuple(tuple(float(s) for s in sizes) for sizes in self.stage_sizes),
        )
        for name in ("target_delay", "target_yield", "stage_yield_target",
                     "total_area", "total_logic_area", "pipeline_mean",
                     "pipeline_std", "predicted_yield"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("stage_order", "donor_stages", "receiver_stages"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, tuple(str(v) for v in value))
        if self.sensitivity_ratios is not None:
            object.__setattr__(
                self,
                "sensitivity_ratios",
                tuple(float(r) for r in self.sensitivity_ratios),
            )
        object.__setattr__(self, "trace", tuple(self.trace))
        n = len(self.stage_names)
        for name in ("stage_targets", "stage_sizes", "stage_areas",
                     "stage_logic_areas", "stage_means", "stage_stds",
                     "stage_yields"):
            if len(getattr(self, name)) != n:
                raise ValueError(
                    f"{name} has {len(getattr(self, name))} entries for {n} stages"
                )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DesignReport):
            return NotImplemented
        return all(
            getattr(self, f.name) == getattr(other, f.name) for f in fields(self)
        )

    # -- shapes and derived quantities -----------------------------------
    @property
    def n_stages(self) -> int:
        """Number of pipeline stages."""
        return len(self.stage_names)

    @property
    def after(self) -> DesignSnapshot:
        """The designed pipeline's snapshot (symmetric with ``baseline``)."""
        return DesignSnapshot(
            stage_names=self.stage_names,
            stage_areas=self.stage_areas,
            stage_logic_areas=self.stage_logic_areas,
            stage_yields=self.stage_yields,
            total_area=self.total_area,
            pipeline_yield=self.predicted_yield,
        )

    @property
    def yield_improvement(self) -> float:
        """Model pipeline-yield change vs. the baseline, in percentage points."""
        if self.baseline is None:
            return 0.0
        return (self.predicted_yield - self.baseline.pipeline_yield) * 100.0

    @property
    def area_change_percent(self) -> float:
        """Total-area change vs. the baseline, in percent of the baseline."""
        if self.baseline is None or self.baseline.total_area == 0.0:
            return 0.0
        return 100.0 * (self.total_area - self.baseline.total_area) / self.baseline.total_area

    @property
    def met_all_targets(self) -> bool:
        """Whether every sizing step met its statistical constraint."""
        return all(entry.met_target for entry in self.trace)

    # -- yield queries ----------------------------------------------------
    def predicted_yield_at(self, target_delay: float) -> float:
        """Model pipeline yield at an arbitrary delay (Gaussian, eq. 9)."""
        return gaussian_yield(target_delay, self.pipeline_mean, self.pipeline_std)

    @property
    def mc_yield(self) -> float | None:
        """Monte-Carlo validated yield at the target delay, when validated."""
        if self.validation is None:
            return None
        return self.validation.yield_at(self.target_delay)

    @property
    def mc_yield_baseline(self) -> float | None:
        """Monte-Carlo yield of the baseline design, when validated."""
        if self.validation_baseline is None:
            return None
        return self.validation_baseline.yield_at(self.target_delay)

    def summary(self) -> dict[str, Any]:
        """Scalar summary used by reports and sweep tables (times in ps)."""
        row: dict[str, Any] = {
            "optimizer": self.optimizer,
            "sizer": self.sizer,
            "target_delay_ps": self.target_delay * 1e12,
            "total_area_um2": self.total_area,
            "predicted_yield": self.predicted_yield,
            "met_all_targets": self.met_all_targets,
        }
        if self.baseline is not None:
            row["area_change_percent"] = self.area_change_percent
        if self.validation is not None:
            row["mc_yield"] = self.mc_yield
        return row

    # -- serialisation --------------------------------------------------
    def to_dict(self, include_samples: bool = True) -> dict[str, Any]:
        data: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, DesignSnapshot):
                value = value.to_dict()
            elif isinstance(value, DelayReport):
                value = value.to_dict(include_samples=include_samples)
            elif f.name == "trace":
                value = [entry.to_dict() for entry in value]
            elif f.name == "stage_sizes":
                value = [list(sizes) for sizes in value]
            elif isinstance(value, tuple):
                value = list(value)
            data[f.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DesignReport":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown DesignReport field(s): {sorted(unknown)}")
        data = dict(data)
        if isinstance(data.get("baseline"), Mapping):
            data["baseline"] = DesignSnapshot.from_dict(data["baseline"])
        for name in ("validation", "validation_baseline"):
            if isinstance(data.get(name), Mapping):
                data[name] = DelayReport.from_dict(data[name])
        if "trace" in data:
            data["trace"] = tuple(
                entry if isinstance(entry, SizingTrace) else SizingTrace.from_dict(entry)
                for entry in data["trace"]
            )
        return cls(**data)

    def to_json(self, indent: int | None = None, include_samples: bool = True) -> str:
        return json.dumps(self.to_dict(include_samples=include_samples), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "DesignReport":
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Optimizer protocol and registry
# ----------------------------------------------------------------------
@runtime_checkable
class PipelineOptimizer(Protocol):
    """Anything that can turn a design study spec into a :class:`DesignReport`.

    Optimizers receive the session so they can share its caches (pipelines,
    balanced baselines, area--delay curves, sizers, validations) with every
    other design run made through the same session.
    """

    name: str

    def design(self, session: "Session", spec: DesignStudySpec) -> DesignReport:
        """Produce the design report for ``spec`` using ``session`` caches."""
        ...  # pragma: no cover - protocol signature


_OPTIMIZERS: dict[str, PipelineOptimizer] = {}


def register_optimizer(optimizer: PipelineOptimizer, *, replace: bool = False) -> None:
    """Register an optimizer instance under its ``name``."""
    name = getattr(optimizer, "name", None)
    if not name or not isinstance(name, str):
        raise ValueError(
            f"optimizer must expose a non-empty string name, got {name!r}"
        )
    if name in _OPTIMIZERS and not replace:
        raise ValueError(f"optimizer {name!r} is already registered")
    _OPTIMIZERS[name] = optimizer


def get_optimizer(name: str) -> PipelineOptimizer:
    """Look up a registered optimizer by name."""
    try:
        return _OPTIMIZERS[name]
    except KeyError:
        raise KeyError(
            f"no pipeline optimizer named {name!r}; "
            f"available: {available_optimizers()}"
        ) from None


def available_optimizers() -> tuple[str, ...]:
    """Names of all registered optimizers, sorted."""
    return tuple(sorted(_OPTIMIZERS))


def check_design(design: DesignSpec) -> None:
    """Reject a design whose optimizer, sizer or sizer options cannot run.

    Looks up both registry names (``KeyError`` naming the alternatives) and
    binds ``sizer_options`` against the sizer factory's signature
    (``TypeError`` naming the option), so a bad spec fails before any
    compute starts.
    """
    get_optimizer(design.optimizer)
    factory = get_sizer_factory(design.sizer)
    try:
        inspect.signature(factory).bind(None, None, **dict(design.sizer_options))
    except TypeError as exc:
        raise TypeError(
            f"bad sizer_options for sizer {design.sizer!r}: {exc}"
        ) from None


# ----------------------------------------------------------------------
# Shared design-flow helpers
# ----------------------------------------------------------------------
def snapshot_pipeline(
    sizer: StageSizer,
    pipeline: Pipeline,
    target_delay: float,
    statistics: StageStatistics | None = None,
) -> DesignSnapshot:
    """Snapshot a pipeline's areas and model yields at a target delay.

    ``statistics`` is the pipeline's :func:`pipeline_stage_statistics` when
    the caller already has it.
    """
    distributions, correlations = statistics or pipeline_stage_statistics(
        sizer, pipeline
    )
    model = PipelineDelayModel(distributions, correlations)
    return DesignSnapshot(
        stage_names=tuple(pipeline.stage_names),
        stage_areas=tuple(pipeline.stage_areas()),
        stage_logic_areas=tuple(
            stage.logic_area() for stage in pipeline.stages
        ),
        stage_yields=tuple(
            distribution.yield_at(target_delay) for distribution in distributions
        ),
        total_area=pipeline.total_area(),
        pipeline_yield=model.estimate().yield_at(target_delay),
    )


def derive_design_targets(
    pipeline: Pipeline,
    sizer: StageSizer,
    design: DesignSpec,
    statistics: StageStatistics | None,
) -> tuple[float | dict[str, float], float]:
    """Resolve a design spec's delay policy into concrete targets.

    Returns ``(target_delay, stage_yield_target)`` where ``target_delay``
    is a per-stage mapping under the ``"stage_relative"`` policy and a
    single common target otherwise.  ``statistics`` is ``pipeline``'s
    :func:`pipeline_stage_statistics` at its current sizes; only a spec
    without an explicit ``delay_target`` reads it, so it may be ``None``
    otherwise.  ``pipeline`` is only read (the ``"sized"`` policy's probe
    runs use ``apply=False``).
    """
    stage_yield = (
        design.stage_yield
        if design.stage_yield is not None
        else stage_yield_budget(design.yield_target, pipeline.n_stages)
    )
    if design.delay_target is not None:
        return float(design.delay_target), stage_yield
    distributions, _ = statistics
    delays = [distribution.delay_at_yield(stage_yield) for distribution in distributions]
    if design.delay_policy == "stage_relative":
        targets = {
            stage.name: design.delay_scale * delay
            for stage, delay in zip(pipeline.stages, delays)
        }
        return targets, stage_yield
    if design.delay_policy == "sized":
        achievable = []
        for stage, delay in zip(pipeline.stages, delays):
            probe = design.delay_probe * delay
            result = sizer.size_stage(stage, probe, stage_yield, apply=False)
            achievable.append(result.stage_delay.delay_at_yield(stage_yield))
        reference = max(achievable)
    else:
        reference = max(delays) if design.delay_policy == "stage_max" else min(delays)
    return design.delay_scale * reference, stage_yield


def _require_uniform_target(
    optimizer_name: str, balanced: BalancedDesignResult
) -> float:
    if balanced.stage_targets is not None:
        raise ValueError(
            f"the {optimizer_name!r} optimizer needs a single pipeline delay "
            "target; the 'stage_relative' delay policy is only meaningful for "
            "the 'balanced' optimizer"
        )
    return balanced.target_delay


def _assemble_report(
    session: "Session",
    spec: DesignStudySpec,
    designed: Pipeline,
    *,
    target_delay: float,
    stage_yield: float,
    stage_targets: Mapping[str, float],
    trace: tuple[SizingTrace, ...],
    baseline: DesignSnapshot | None,
    stage_order: tuple[str, ...] | None = None,
    sensitivity_ratios: tuple[float, ...] | None = None,
    donor_stages: tuple[str, ...] | None = None,
    receiver_stages: tuple[str, ...] | None = None,
    validation_baseline: DelayReport | None = None,
    validation_cache_key: tuple | None = None,
    statistics: StageStatistics | None = None,
) -> DesignReport:
    """Build the common report from a designed pipeline + flow metadata.

    ``statistics`` is ``designed``'s :func:`pipeline_stage_statistics` when
    the flow already has it.
    """
    design = spec.design
    sizer = session.sizer(spec.variation, design)
    distributions, correlations = statistics or pipeline_stage_statistics(
        sizer, designed
    )
    estimate = PipelineDelayModel(distributions, correlations).estimate()
    validation = (
        session.validate_design(spec, designed, cache_key=validation_cache_key)
        if spec.validation is not None
        else None
    )
    return DesignReport(
        optimizer=design.optimizer,
        sizer=design.sizer,
        stage_names=tuple(designed.stage_names),
        target_delay=target_delay,
        target_yield=design.yield_target,
        stage_yield_target=stage_yield,
        stage_targets=tuple(stage_targets[name] for name in designed.stage_names),
        stage_sizes=tuple(
            tuple(stage.netlist.sizes()) for stage in designed.stages
        ),
        stage_areas=tuple(designed.stage_areas()),
        stage_logic_areas=tuple(stage.logic_area() for stage in designed.stages),
        stage_means=tuple(d.mean for d in distributions),
        stage_stds=tuple(d.std for d in distributions),
        stage_yields=tuple(d.yield_at(target_delay) for d in distributions),
        total_area=designed.total_area(),
        total_logic_area=designed.logic_area(),
        pipeline_mean=estimate.mean,
        pipeline_std=estimate.std,
        predicted_yield=estimate.yield_at(target_delay),
        baseline=baseline,
        stage_order=stage_order,
        sensitivity_ratios=sensitivity_ratios,
        donor_stages=donor_stages,
        receiver_stages=receiver_stages,
        trace=trace,
        validation=validation,
        validation_baseline=validation_baseline,
    )


# ----------------------------------------------------------------------
# Built-in optimizers
# ----------------------------------------------------------------------
class BalancedDesigner:
    """The conventional flow: every stage sized independently (eq. 12)."""

    name = "balanced"

    def design(self, session: "Session", spec: DesignStudySpec) -> DesignReport:
        balanced = session.balanced_design(spec)
        # Under the "stage_relative" policy the report's headline target is
        # the loosest per-stage target; otherwise it is the common target.
        target_delay = balanced.target_delay
        sizer = session.sizer(spec.variation, spec.design)
        baseline = snapshot_pipeline(
            sizer,
            session.pipeline(spec.pipeline),
            target_delay,
            statistics=balanced.input_statistics,
        )
        trace = tuple(
            SizingTrace.from_result(name, balanced.stage_results[name])
            for name in balanced.pipeline.stage_names
        )
        return _assemble_report(
            session,
            spec,
            balanced.pipeline,
            target_delay=target_delay,
            stage_yield=balanced.stage_yield_target,
            stage_targets={
                name: balanced.stage_results[name].target_delay
                for name in balanced.pipeline.stage_names
            },
            trace=trace,
            baseline=baseline,
            # The balanced pipeline is also the baseline other optimizers
            # validate; share one MC run through the keyed cache.
            validation_cache_key=(
                spec.pipeline, spec.variation, spec.design.balance_key(),
            ),
            statistics=balanced.statistics,
        )


class RedistributeDesigner:
    """Constant-area eq. 14 imbalance redistribution (the Fig. 7 flow)."""

    name = "redistribute"

    def design(self, session: "Session", spec: DesignStudySpec) -> DesignReport:
        design = spec.design
        balanced = session.balanced_design(spec)
        target_delay = _require_uniform_target(self.name, balanced)
        stage_yield = balanced.stage_yield_target
        sizer = session.sizer(spec.variation, design)
        curves = session.area_delay_curves(spec, stage_yield)
        result = redistribute_area(
            balanced.pipeline,
            curves,
            sizer,
            target_delay,
            stage_yield,
            fraction=design.fraction,
            mode=design.mode,
        )
        baseline = snapshot_pipeline(
            sizer, balanced.pipeline, target_delay, statistics=balanced.statistics
        )
        trace = tuple(
            SizingTrace.from_result(name, result.stage_results[name])
            for name in result.pipeline.stage_names
        )
        return _assemble_report(
            session,
            spec,
            result.pipeline,
            target_delay=target_delay,
            stage_yield=stage_yield,
            stage_targets={
                name: result.stage_results[name].target_delay
                for name in result.pipeline.stage_names
            },
            trace=trace,
            baseline=baseline,
            donor_stages=result.donor_stages,
            receiver_stages=result.receiver_stages,
        )


class GlobalDesigner:
    """The Fig. 9 R_i-ordered global statistical optimization."""

    name = "global"

    def design(self, session: "Session", spec: DesignStudySpec) -> DesignReport:
        design = spec.design
        balanced = session.balanced_design(spec)
        target_delay = _require_uniform_target(self.name, balanced)
        sizer = session.sizer(spec.variation, design)
        curve_yield = design.yield_target ** (1.0 / balanced.pipeline.n_stages)
        curves = session.area_delay_curves(spec, curve_yield)
        optimizer = GlobalPipelineOptimizer(
            sizer,
            curve_points=design.curve_points,
            rounds=design.rounds,
            ordering=design.ordering,
            max_stage_yield=design.max_stage_yield,
        )
        result = optimizer.optimize(
            balanced.pipeline,
            target_delay,
            design.yield_target,
            curves=curves,
            statistics=balanced.statistics,
        )
        baseline = snapshot_pipeline(
            sizer, balanced.pipeline, target_delay, statistics=balanced.statistics
        )
        validation_baseline = (
            session.validate_design(
                spec,
                balanced.pipeline,
                cache_key=(spec.pipeline, spec.variation, design.balance_key()),
            )
            if spec.validation is not None
            else None
        )
        trace = tuple(
            SizingTrace.from_result(name, result.sizing_results[name])
            for name in result.stage_order
            if name in result.sizing_results
        )
        return _assemble_report(
            session,
            spec,
            result.pipeline,
            target_delay=target_delay,
            stage_yield=balanced.stage_yield_target,
            stage_targets={name: target_delay for name in result.pipeline.stage_names},
            trace=trace,
            baseline=baseline,
            stage_order=result.stage_order,
            sensitivity_ratios=tuple(
                result.sensitivity_ratios[name]
                for name in result.pipeline.stage_names
            ),
            validation_baseline=validation_baseline,
        )


register_optimizer(BalancedDesigner())
register_optimizer(RedistributeDesigner())
register_optimizer(GlobalDesigner())
