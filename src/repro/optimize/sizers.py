"""Stage-sizer strategy protocol and registry.

The paper treats the statistical sizing primitive (Choi et al., DAC 2004) as
a black box: every design flow in :mod:`repro.optimize` only needs something
that can *size one stage for a statistical delay target* and report a
stage's delay distribution.  This module names that contract
(:class:`StageSizer`) and keeps a registry of implementations so design
specs can address a sizer by name (``"lagrangian"``, ``"greedy"``) the same
way analysis specs address delay backends.  Both built-in sizers derive
from :class:`~repro.optimize.base.StageSizerBase`, which owns everything
but the sizing loop.

A registered factory has the signature ``factory(technology, variation,
**options)`` and returns a ready sizer; ``options`` are the sizer's own
keyword knobs (``max_outer``, ``max_moves``, ``min_size``...), so a frozen
:class:`~repro.api.spec.DesignSpec` can carry them as data.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, Sequence, runtime_checkable

from repro.core.stage_delay import StageDelayDistribution
from repro.optimize.greedy import GreedySizer
from repro.optimize.lagrangian import LagrangianSizer
from repro.optimize.result import SizingResult
from repro.pipeline.stage import PipelineStage
from repro.process.technology import Technology
from repro.process.variation import VariationModel


@runtime_checkable
class StageSizer(Protocol):
    """Anything that can size one pipeline stage for a statistical target.

    :func:`~repro.optimize.balance.design_balanced_pipeline`,
    :class:`~repro.optimize.global_opt.GlobalPipelineOptimizer` and the
    ``"sized"`` delay policy of the Design API call ``size_stage``;
    :func:`~repro.optimize.area_delay.characterize_stage` calls
    ``size_targets`` once per curve.  ``stage_distribution`` gives a stage's
    delay distribution at its current sizes.  ``ssta`` exposes the sizer's
    embedded statistical timing engine, which the pipeline-level flows
    reuse for full-pipeline statistics and ``characterize_stage`` for the
    all-``min_size`` endpoint of a curve.
    """

    min_size: float
    ssta: Any

    def size_stage(
        self,
        stage: PipelineStage,
        target_delay: float,
        target_yield: float,
        apply: bool = True,
    ) -> SizingResult:
        """Size ``stage`` for minimum area under the statistical target."""
        ...  # pragma: no cover - protocol signature

    def size_targets(
        self, stage: PipelineStage, targets: Sequence[float], target_yield: float
    ) -> list[SizingResult]:
        """Size ``stage`` from all-minimum sizes for each delay target.

        Never writes the netlist.  Result ``i`` must equal
        ``size_stage(stage, targets[i], target_yield, apply=False)``;
        targets may be unsorted and may repeat.
        """
        ...  # pragma: no cover - protocol signature

    def stage_distribution(self, stage: PipelineStage) -> StageDelayDistribution:
        """Stage delay distribution at the stage's current sizes."""
        ...  # pragma: no cover - protocol signature


SizerFactory = Callable[..., StageSizer]

_SIZERS: dict[str, SizerFactory] = {}


def register_sizer(name: str, factory: SizerFactory, *, replace: bool = False) -> None:
    """Register a sizer factory under a name addressable from design specs.

    ``factory(technology, variation, **options)`` must return an object
    satisfying :class:`StageSizer`.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"sizer name must be a non-empty string, got {name!r}")
    if name in _SIZERS and not replace:
        raise ValueError(f"sizer {name!r} is already registered")
    _SIZERS[name] = factory


def get_sizer_factory(name: str) -> SizerFactory:
    """Look up a registered sizer factory by name."""
    try:
        return _SIZERS[name]
    except KeyError:
        raise KeyError(
            f"no stage sizer named {name!r}; available: {available_sizers()}"
        ) from None


def available_sizers() -> tuple[str, ...]:
    """Names of all registered sizer strategies, sorted."""
    return tuple(sorted(_SIZERS))


def make_sizer(
    name: str,
    technology: Technology,
    variation: VariationModel,
    **options: Any,
) -> StageSizer:
    """Build a named sizer for a process description with its own knobs."""
    sizer = get_sizer_factory(name)(technology, variation, **options)
    if not isinstance(sizer, StageSizer):
        raise TypeError(
            f"sizer factory {name!r} returned {type(sizer).__name__}, which does "
            "not satisfy the StageSizer protocol"
        )
    return sizer


register_sizer("lagrangian", LagrangianSizer)
register_sizer("greedy", GreedySizer)
