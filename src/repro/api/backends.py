"""Pluggable delay-analysis backends and the common :class:`DelayReport`.

Every backend answers the same question -- *what is the delay distribution
and yield of this pipeline under this variation model?* -- and returns the
same typed report, so callers query delay and yield without knowing (or
importing) the machinery that produced the numbers:

``montecarlo``
    The SPICE stand-in: sampled ground truth.  Stage statistics, stage
    correlations and the pipeline delay are all empirical; the report keeps
    the pipeline delay samples so yield/quantile queries stay empirical too.
``analytic``
    The paper's model: stage distributions and correlations are measured
    with the (cached) Monte-Carlo characterisation, then the pipeline delay
    ``T_P = max_i SD_i`` is estimated with Clark's method (section 2.2) and
    yield queries use the Gaussian approximation (eq. 9).
``ssta``
    No sampling at all: per-stage canonical-form SSTA provides the stage
    means/sigmas and correlations analytically, and the pipeline level again
    uses Clark's method.

New backends register with :func:`register_backend` and become addressable
from any :class:`~repro.api.spec.AnalysisSpec` by name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Mapping, Protocol, runtime_checkable

import numpy as np

from repro.api.spec import StudySpec
from repro.core.pipeline_delay import PipelineDelayModel
from repro.core.stage_delay import (
    StageDelayDistribution,
    gaussian_quantile,
    gaussian_yield,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.session import Session


# ----------------------------------------------------------------------
# The common report type
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class DelayReport:
    """Backend-agnostic delay/yield answer for one pipeline study.

    All delays are in seconds.  Scalar fields are plain tuples/floats (and
    ``samples`` a read-only float array), so reports compare equal after a
    JSON round trip and are cheap to pickle across process boundaries in
    parallel sweeps.

    Attributes
    ----------
    backend:
        Name of the backend that produced the report.
    stage_names / stage_means / stage_stds:
        Per-stage Gaussian delay statistics, in pipeline order.
    correlation:
        Cross-stage delay correlation matrix as nested tuples.
    pipeline_mean / pipeline_std:
        This backend's estimate of the pipeline delay distribution
        (empirical max statistics for Monte-Carlo, Clark's estimate for the
        model backends).
    jensen_lower_bound:
        ``max_i mu_i`` lower bound on the mean (eq. 3); model backends only.
    samples:
        Pipeline delay samples (Monte-Carlo backend only), stored as a
        read-only float64 array; when present, yield and quantile queries
        are empirical instead of Gaussian.
    """

    backend: str
    stage_names: tuple[str, ...]
    stage_means: tuple[float, ...]
    stage_stds: tuple[float, ...]
    correlation: tuple[tuple[float, ...], ...]
    pipeline_mean: float
    pipeline_std: float
    jensen_lower_bound: float | None = None
    samples: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "stage_names", tuple(str(n) for n in self.stage_names))
        object.__setattr__(
            self, "stage_means", tuple(float(m) for m in self.stage_means)
        )
        object.__setattr__(self, "stage_stds", tuple(float(s) for s in self.stage_stds))
        object.__setattr__(
            self,
            "correlation",
            tuple(tuple(float(c) for c in row) for row in self.correlation),
        )
        object.__setattr__(self, "pipeline_mean", float(self.pipeline_mean))
        object.__setattr__(self, "pipeline_std", float(self.pipeline_std))
        if self.jensen_lower_bound is not None:
            object.__setattr__(
                self, "jensen_lower_bound", float(self.jensen_lower_bound)
            )
        if self.samples is not None:
            samples = np.array(self.samples, dtype=float)
            if samples.ndim != 1:
                raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
            samples.setflags(write=False)
            object.__setattr__(self, "samples", samples)
        n = len(self.stage_names)
        if len(self.stage_means) != n or len(self.stage_stds) != n:
            raise ValueError(
                f"{n} stage names but {len(self.stage_means)} means / "
                f"{len(self.stage_stds)} stds"
            )
        if len(self.correlation) != n or any(len(row) != n for row in self.correlation):
            raise ValueError(f"correlation matrix must be {n}x{n}")

    def __eq__(self, other: object) -> bool:
        """Field equality; sample arrays compare elementwise (exact)."""
        if not isinstance(other, DelayReport):
            return NotImplemented
        if (self.samples is None) != (other.samples is None):
            return False
        if self.samples is not None and not np.array_equal(
            self.samples, other.samples
        ):
            return False
        return (
            self.backend,
            self.stage_names,
            self.stage_means,
            self.stage_stds,
            self.correlation,
            self.pipeline_mean,
            self.pipeline_std,
            self.jensen_lower_bound,
        ) == (
            other.backend,
            other.stage_names,
            other.stage_means,
            other.stage_stds,
            other.correlation,
            other.pipeline_mean,
            other.pipeline_std,
            other.jensen_lower_bound,
        )

    # -- shapes and basic statistics ------------------------------------
    @property
    def n_stages(self) -> int:
        """Number of pipeline stages."""
        return len(self.stage_names)

    @property
    def variability(self) -> float:
        """sigma/mu of the pipeline delay."""
        if self.pipeline_mean == 0.0:
            return 0.0
        return self.pipeline_std / self.pipeline_mean

    def stage_variabilities(self) -> np.ndarray:
        """Per-stage sigma/mu, in pipeline order."""
        means = np.asarray(self.stage_means)
        stds = np.asarray(self.stage_stds)
        return np.divide(stds, means, out=np.zeros_like(stds), where=means > 0.0)

    def stage_distributions(self) -> list[StageDelayDistribution]:
        """Per-stage Gaussian delay distributions (the paper's SD_i)."""
        return [
            StageDelayDistribution(mean, std, name=name)
            for name, mean, std in zip(
                self.stage_names, self.stage_means, self.stage_stds
            )
        ]

    def correlation_matrix(self) -> np.ndarray:
        """Cross-stage correlation matrix as a NumPy array."""
        return np.asarray(self.correlation, dtype=float)

    def mean_stage_correlation(self) -> float:
        """Average off-diagonal stage correlation (1.0 for a single stage)."""
        if self.n_stages < 2:
            return 1.0
        matrix = self.correlation_matrix()
        return float(np.mean(matrix[np.triu_indices(self.n_stages, 1)]))

    @property
    def pipeline_samples(self) -> np.ndarray | None:
        """Pipeline delay samples (read-only), when the backend kept them."""
        return self.samples

    # -- yield / quantile queries ---------------------------------------
    def yield_at(self, target_delay: float) -> float:
        """Probability the pipeline meets ``target_delay`` (paper eq. 2).

        Empirical when the backend kept samples, otherwise the Gaussian
        approximation (eq. 9).
        """
        if self.samples is not None:
            return float((self.pipeline_samples <= target_delay).mean())
        return gaussian_yield(target_delay, self.pipeline_mean, self.pipeline_std)

    def delay_at_yield(self, target_yield: float) -> float:
        """Clock period the pipeline achieves ``target_yield`` at."""
        if not 0.0 < target_yield < 1.0:
            raise ValueError(f"target_yield must be in (0, 1), got {target_yield}")
        if self.samples is not None:
            return float(np.quantile(self.pipeline_samples, target_yield))
        return gaussian_quantile(target_yield, self.pipeline_mean, self.pipeline_std)

    def summary(self) -> dict[str, float]:
        """Scalar summary used by reports and sweep tables (times in ps)."""
        return {
            "pipeline_mean_ps": self.pipeline_mean * 1e12,
            "pipeline_std_ps": self.pipeline_std * 1e12,
            "variability": self.variability,
            "mean_stage_correlation": self.mean_stage_correlation(),
        }

    # -- serialisation --------------------------------------------------
    def to_dict(self, include_samples: bool = True) -> dict[str, Any]:
        """JSON-safe view; ``samples`` is the hex of their little-endian float64 bytes.

        Hex is exact (every bit of every sample, NaN payloads and ``-0.0``
        included) and far cheaper to encode and parse than a list of
        decimals; DESIGN.md "Samples on disk and on the wire" has the
        numbers.
        """
        data: dict[str, Any] = {
            "backend": self.backend,
            "stage_names": list(self.stage_names),
            "stage_means": list(self.stage_means),
            "stage_stds": list(self.stage_stds),
            "correlation": [list(row) for row in self.correlation],
            "pipeline_mean": self.pipeline_mean,
            "pipeline_std": self.pipeline_std,
            "jensen_lower_bound": self.jensen_lower_bound,
            "samples": np.ascontiguousarray(self.samples, dtype="<f8").tobytes().hex()
            if include_samples and self.samples is not None
            else None,
        }
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DelayReport":
        """Inverse of :meth:`to_dict`.

        ``samples`` may also be a list of numbers, the form stores and
        responses written before the hex encoding hold.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown DelayReport field(s): {sorted(unknown)}")
        data = dict(data)
        if isinstance(data.get("samples"), str):
            data["samples"] = np.frombuffer(bytes.fromhex(data["samples"]), dtype="<f8")
        return cls(**data)

    def to_json(self, indent: int | None = None, include_samples: bool = True) -> str:
        return json.dumps(self.to_dict(include_samples=include_samples), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "DelayReport":
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Backend protocol and registry
# ----------------------------------------------------------------------
@runtime_checkable
class DelayAnalysisBackend(Protocol):
    """Anything that can turn a study spec into a :class:`DelayReport`.

    Backends receive the session so they can share its caches (built
    pipelines, Monte-Carlo characterisations, SSTA engines) with every
    other query made through the same session.
    """

    name: str

    def analyze(self, session: "Session", study: StudySpec) -> DelayReport:
        """Produce the delay report for ``study`` using ``session`` caches."""
        ...  # pragma: no cover - protocol signature


_BACKENDS: dict[str, DelayAnalysisBackend] = {}


def register_backend(backend: DelayAnalysisBackend, *, replace: bool = False) -> None:
    """Register a backend instance under its ``name``."""
    name = getattr(backend, "name", None)
    if not name or not isinstance(name, str):
        raise ValueError(f"backend must expose a non-empty string name, got {name!r}")
    if name in _BACKENDS and not replace:
        raise ValueError(f"backend {name!r} is already registered")
    _BACKENDS[name] = backend


def get_backend(name: str) -> DelayAnalysisBackend:
    """Look up a registered backend by name."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"no delay-analysis backend named {name!r}; "
            f"available: {available_backends()}"
        ) from None


def available_backends() -> tuple[str, ...]:
    """Names of all registered backends, sorted."""
    return tuple(sorted(_BACKENDS))


# ----------------------------------------------------------------------
# Built-in backends
# ----------------------------------------------------------------------
def delay_report_from_pipeline_run(run, backend: str = "montecarlo") -> DelayReport:
    """Summarise a :class:`~repro.montecarlo.results.PipelineMonteCarloResult`.

    Shared by the Monte-Carlo analysis backend and the Design API's
    Monte-Carlo validation runs, so both speak the same empirical
    :class:`DelayReport`.
    """
    pipe = run.pipeline_result()
    return DelayReport(
        backend=backend,
        stage_names=run.stage_names,
        stage_means=run.stage_means(),
        stage_stds=run.stage_stds(),
        correlation=run.correlation_matrix(),
        pipeline_mean=pipe.mean,
        pipeline_std=pipe.std,
        samples=run.pipeline_samples,
    )


class MonteCarloBackend:
    """Sampled ground truth (the HSPICE Monte-Carlo stand-in)."""

    name = "montecarlo"

    def analyze(self, session: "Session", study: StudySpec) -> DelayReport:
        run = session.montecarlo_run(study.pipeline, study.variation, study.analysis)
        return delay_report_from_pipeline_run(run, backend=self.name)


class AnalyticBackend:
    """The paper's analytical model: Clark's max over MC-characterised stages.

    Shares the Monte-Carlo characterisation cache with
    :class:`MonteCarloBackend`, so asking both backends the same question
    through one session samples the circuit exactly once -- the report pair
    is the paper's "Monte-Carlo vs. model" comparison.
    """

    name = "analytic"

    def analyze(self, session: "Session", study: StudySpec) -> DelayReport:
        run = session.montecarlo_run(study.pipeline, study.variation, study.analysis)
        stages = run.stage_distributions()
        correlations = run.correlation_matrix()
        model = PipelineDelayModel(
            stages, correlations, ordering=study.analysis.ordering
        )
        estimate = model.estimate()
        return DelayReport(
            backend=self.name,
            stage_names=run.stage_names,
            stage_means=[stage.mean for stage in stages],
            stage_stds=[stage.std for stage in stages],
            correlation=correlations,
            pipeline_mean=estimate.mean,
            pipeline_std=estimate.std,
            jensen_lower_bound=estimate.jensen_lower_bound,
        )


class SSTABackend:
    """Fully analytical: canonical-form SSTA stages + Clark pipeline max."""

    name = "ssta"

    def analyze(self, session: "Session", study: StudySpec) -> DelayReport:
        pipeline = session.pipeline(study.pipeline)
        analyzer = session.analyzer(study.variation, study.analysis)
        forms = analyzer.pipeline_stage_forms(pipeline)
        correlations = analyzer.correlation_matrix(forms)
        stages = [
            StageDelayDistribution.from_canonical(form, name=stage.name)
            for form, stage in zip(forms, pipeline.stages)
        ]
        model = PipelineDelayModel(
            stages, correlations, ordering=study.analysis.ordering
        )
        estimate = model.estimate()
        return DelayReport(
            backend=self.name,
            stage_names=[stage.name for stage in pipeline.stages],
            stage_means=[stage.mean for stage in stages],
            stage_stds=[stage.std for stage in stages],
            correlation=correlations,
            pipeline_mean=estimate.mean,
            pipeline_std=estimate.std,
            jensen_lower_bound=estimate.jensen_lower_bound,
        )


register_backend(MonteCarloBackend())
register_backend(AnalyticBackend())
register_backend(SSTABackend())
