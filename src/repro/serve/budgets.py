"""Request budgets and backpressure limits for the study server.

A public-facing service cannot let one request pin a core for minutes, so
every submission is checked against a frozen :class:`ServeBudgets` *before*
any computation is admitted:

* per-kind sampling caps (``max_study_samples`` for analysis studies,
  ``max_validation_samples`` for design validations) bound the cost of a
  single characterisation;
* ``max_sweep_points`` and the per-point sampling caps bound a streamed
  sweep, and ``max_n_jobs`` bounds how many pool worker processes one
  request may ask the host for;
* ``max_in_flight`` is the backpressure valve: at most this many requests
  may be *computing* at once (coalesced duplicates waiting on someone
  else's in-flight computation are free), the rest get a structured
  429-style rejection immediately instead of queueing unboundedly;
* ``max_body_bytes`` caps the request payload before it is even parsed.

Violations raise :class:`BudgetExceeded`, which carries the machine-readable
limit/got pair the server turns into a JSON error envelope -- a rejected
client always learns *which* budget it tripped and by how much.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import DesignStudySpec, StudySpec

    AnySpec = Union[StudySpec, DesignStudySpec]


class BudgetExceeded(Exception):
    """A submission asked for more than its budget tier allows.

    Attributes mirror the JSON error detail: ``budget`` names the tripped
    limit field, ``limit`` its configured value and ``got`` what the
    request asked for.
    """

    def __init__(self, budget: str, limit: Any, got: Any, message: str) -> None:
        super().__init__(message)
        self.budget = budget
        self.limit = limit
        self.got = got

    def detail(self) -> dict[str, Any]:
        """JSON-safe error detail for the structured rejection."""
        return {"budget": self.budget, "limit": self.limit, "got": self.got}


@dataclass(frozen=True)
class ServeBudgets:
    """Per-tier request budgets enforced at admission time.

    The defaults are sized for the synthetic paper workloads: generous
    enough for every committed benchmark spec, small enough that a single
    request cannot monopolise the host.  Pass a custom instance to
    :class:`~repro.serve.server.StudyServer` (or ``--max-samples`` etc. on
    the ``python -m repro.serve`` command line) to retier a deployment.
    """

    max_study_samples: int = 50_000
    max_validation_samples: int = 50_000
    max_sweep_points: int = 1_024
    max_n_jobs: int = 8
    max_in_flight: int = 256
    max_body_bytes: int = 8 * 1024 * 1024

    def __post_init__(self) -> None:
        for name in (
            "max_study_samples",
            "max_validation_samples",
            "max_sweep_points",
            "max_n_jobs",
            "max_in_flight",
            "max_body_bytes",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive int, got {value!r}")

    # -- checks ----------------------------------------------------------
    def check_spec(self, spec: "AnySpec") -> None:
        """Validate one study/design submission against the sampling caps."""
        from repro.api.spec import DesignStudySpec

        if isinstance(spec, DesignStudySpec):
            if (
                spec.validation is not None
                and spec.validation.n_samples > self.max_validation_samples
            ):
                raise BudgetExceeded(
                    "max_validation_samples",
                    self.max_validation_samples,
                    spec.validation.n_samples,
                    f"validation.n_samples={spec.validation.n_samples} exceeds "
                    f"this tier's cap of {self.max_validation_samples}",
                )
            return
        if spec.analysis.n_samples > self.max_study_samples:
            raise BudgetExceeded(
                "max_study_samples",
                self.max_study_samples,
                spec.analysis.n_samples,
                f"analysis.n_samples={spec.analysis.n_samples} exceeds "
                f"this tier's cap of {self.max_study_samples}",
            )

    def check_sweep_size(self, n_points: int, n_jobs: int | None) -> None:
        """Validate a sweep's shape -- point count and fan-out -- alone.

        The point count can (and on the server, must) be computed from the
        axis lengths before any point spec is materialised: a request body
        of a few hundred bytes can describe a combinatorially huge grid, so
        enforcing this cap only after construction would let one small
        request pin the host.
        """
        if n_points > self.max_sweep_points:
            raise BudgetExceeded(
                "max_sweep_points",
                self.max_sweep_points,
                n_points,
                f"sweep has {n_points} points, this tier allows "
                f"{self.max_sweep_points}",
            )
        if n_jobs is not None and n_jobs > self.max_n_jobs:
            raise BudgetExceeded(
                "max_n_jobs",
                self.max_n_jobs,
                n_jobs,
                f"n_jobs={n_jobs} exceeds this tier's cap of {self.max_n_jobs}",
            )

    def check_sweep(self, specs: list, n_jobs: int | None) -> None:
        """Validate a sweep submission: point count, fan-out, per-point caps."""
        self.check_sweep_size(len(specs), n_jobs)
        for spec in specs:
            self.check_spec(spec)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe view, reported by the ``/v1/stats`` endpoint."""
        return {
            "max_study_samples": self.max_study_samples,
            "max_validation_samples": self.max_validation_samples,
            "max_sweep_points": self.max_sweep_points,
            "max_n_jobs": self.max_n_jobs,
            "max_in_flight": self.max_in_flight,
            "max_body_bytes": self.max_body_bytes,
        }
