"""Sizing and pipeline-optimization substrate.

The paper's design flow (section 4) rests on a statistical gate-sizing
primitive -- "minimise the area of one stage subject to a statistical delay
(yield) constraint", attributed to Choi et al. (DAC 2004) -- and composes it
into a global pipeline optimization (Fig. 9).  This subpackage provides:

* :mod:`repro.optimize.result` -- the :class:`SizingResult` both sizers
  return.
* :mod:`repro.optimize.base` -- the scaffold both sizers share: size
  bounds, the embedded SSTA engine, the statistical delay budget and the
  final evaluation of a sizing run.
* :mod:`repro.optimize.sizers` -- the :class:`StageSizer` strategy protocol
  and the named sizer registry (``"lagrangian"``, ``"greedy"``) that the
  Design API (:mod:`repro.api.design`) resolves specs against.
* :mod:`repro.optimize.lagrangian` -- the primary sizer: an iterative
  Lagrangian-relaxation-style statistical gate sizer with a closed-form
  per-gate resize step and a criticality-driven multiplier update.
* :mod:`repro.optimize.greedy` -- a TILOS-like greedy statistical sizer used
  as a baseline / ablation.
* :mod:`repro.optimize.area_delay` -- per-stage area-vs-delay
  characterisation (Fig. 8) and the eq. 14 sensitivity ratio R_i.
* :mod:`repro.optimize.balance` -- the conventional balanced design flow:
  every stage sized independently for the same delay target and the
  per-stage yield budget Y**(1/N).
* :mod:`repro.optimize.redistribute` -- constant-area imbalance
  redistribution between stages (the Fig. 7 experiment).
* :mod:`repro.optimize.global_opt` -- the Fig. 9 global optimization
  algorithm: R_i-ordered, one-stage-at-a-time statistical sizing with
  full-pipeline statistical timing after every stage.
"""

from repro.optimize.result import SizingResult
from repro.optimize.lagrangian import LagrangianSizer
from repro.optimize.greedy import GreedySizer
from repro.optimize.sizers import (
    StageSizer,
    available_sizers,
    get_sizer_factory,
    make_sizer,
    register_sizer,
)
from repro.optimize.area_delay import AreaDelayCurve, AreaDelayPoint, characterize_stage
from repro.optimize.balance import design_balanced_pipeline, BalancedDesignResult
from repro.optimize.redistribute import redistribute_area, RedistributionResult
from repro.optimize.global_opt import GlobalPipelineOptimizer, GlobalOptimizationResult

__all__ = [
    "SizingResult",
    "LagrangianSizer",
    "GreedySizer",
    "StageSizer",
    "available_sizers",
    "get_sizer_factory",
    "make_sizer",
    "register_sizer",
    "AreaDelayCurve",
    "AreaDelayPoint",
    "characterize_stage",
    "design_balanced_pipeline",
    "BalancedDesignResult",
    "redistribute_area",
    "RedistributionResult",
    "GlobalPipelineOptimizer",
    "GlobalOptimizationResult",
]
