"""Timing-analysis substrate.

* :mod:`repro.timing.delay_model` -- alpha-power-law gate delay model:
  nominal delays from the logical-effort RC parameterisation, plus
  vectorised evaluation under sampled threshold-voltage / channel-length
  deviations and first-order sensitivity extraction for statistical timing.
* :mod:`repro.timing.sta` -- deterministic static timing analysis (arrival
  times, maximum delay, critical path) over a :class:`~repro.circuit.netlist.Netlist`;
  also accepts per-sample delay matrices, propagated in cache-sized blocks of
  sample rows, so the Monte-Carlo engine can reuse it.
* :mod:`repro.timing.ssta` -- block-based statistical static timing analysis
  using first-order canonical delay forms (global factors: inter-die Vth and
  length, principal components of the spatially correlated field; plus an
  independent random part) combined with Clark's max operator.
* :mod:`repro.timing.paths` -- critical-path extraction, slack and
  near-critical path counting.
* :mod:`repro.timing.reference` -- the retained gate-at-a-time seed
  implementations the level-parallel kernels are checked against.

Each analysis has one code path: the kernels are single-threaded NumPy over
the netlist's compiled schedule, and the sizers re-run full STA for every
evaluation (see DESIGN.md, "One timing path").
"""

from repro.timing.delay_model import GateDelayModel
from repro.timing.sta import (
    arrival_times,
    critical_path,
    max_delay,
    required_times,
    slacks,
)
from repro.timing.ssta import CanonicalForm, StatisticalTimingAnalyzer

__all__ = [
    "GateDelayModel",
    "arrival_times",
    "max_delay",
    "critical_path",
    "required_times",
    "slacks",
    "CanonicalForm",
    "StatisticalTimingAnalyzer",
]
