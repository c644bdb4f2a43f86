"""repro: statistical pipeline delay modeling and yield-driven pipeline design.

Reproduction of Datta, Bhunia, Mukhopadhyay, Banerjee and Roy,
"Statistical Modeling of Pipeline Delay and Design of Pipeline under Process
Variation to Enhance Yield in sub-100nm Technologies", DATE 2005.

Subpackages
-----------
core
    The paper's analytical contribution: Clark-based pipeline delay
    distribution estimation, yield models, design-space bounds, variability
    and imbalance analyses.
process
    Technology constants and the inter-die / intra-die random / intra-die
    systematic variation model with spatial correlation.
circuit
    Cell library, netlist DAG, sequential-element timing, circuit generators
    and synthetic ISCAS85 stand-ins.
timing
    Gate delay model, deterministic STA and canonical-form SSTA.
montecarlo
    The SPICE-Monte-Carlo stand-in: vectorised sampling of stage and pipeline
    delays.
pipeline
    Pipeline stages, floorplanning and builders for the paper's designs.
optimize
    Statistical gate sizing (Lagrangian-relaxation and greedy), balanced
    design, imbalance redistribution and the Fig. 9 global pipeline
    optimization flow.
analysis
    Histogram, error-metric and report-formatting helpers shared by the
    benchmark harness.
api
    The unified Study/Design API: declarative experiment specs, pluggable
    delay-analysis backends behind one :class:`DelayReport`, pluggable
    pipeline optimizers behind one :class:`DesignReport`, cached sessions
    and the scenario-sweep runner.  This facade is the preferred
    entrypoint; the subpackages above remain the building blocks.
serve
    The study API as a service: a stdlib-only asyncio HTTP server
    (:class:`StudyServer`) routing study/design/sweep submissions through
    one shared cached :class:`Session`, coalescing identical concurrent
    requests by content digest, streaming sweep points as NDJSON and
    enforcing per-tier request budgets; plus the typed :class:`Client`
    and the ``python -m repro.serve`` entrypoint.
verify
    The differential verification subsystem: a registry of oracles pairing
    every vectorized kernel with its retained naive reference (and every
    analytical model with its Monte-Carlo ground truth), a seeded scenario
    fuzzer, report invariants, a committed scenario corpus and the
    :func:`run_conformance` harness every perf/refactor PR leans on.
"""

from repro.api.backends import DelayReport, available_backends, register_backend
from repro.circuit.ingest import (  # registers the bench/yosys_json/scale_logic kinds
    CellMapping,
    ParseError,
    load_bench,
    load_yosys_json,
    parse_bench,
    parse_yosys_json,
    scale_logic_block,
    write_bench,
    write_yosys_json,
)
from repro.circuit.netlist import NetlistError, NetlistLookupError
from repro.api.canonical import spec_digest
from repro.api.design import (
    DesignReport,
    available_optimizers,
    register_optimizer,
)
from repro.api.session import Session, Study, run_study
from repro.api.spec import (
    AnalysisSpec,
    DesignSpec,
    DesignStudySpec,
    PipelineSpec,
    StudySpec,
    VariationSpec,
)
from repro.api.sweep import ScenarioSweep, SweepResult, run_sweep
from repro.optimize.sizers import available_sizers, register_sizer
from repro.robust import (
    CheckpointStore,
    ExecutionPolicy,
    ExecutionTrace,
    FaultPlan,
    FaultSpec,
    PointFailure,
    SweepExecutionError,
)
from repro.core.pipeline_delay import PipelineDelayEstimate, PipelineDelayModel
from repro.core.stage_delay import StageDelayDistribution
from repro.core.yield_model import (
    yield_correlated,
    yield_from_samples,
    yield_independent,
)
from repro.montecarlo.engine import MonteCarloEngine
from repro.pipeline.builder import (
    alu_decoder_pipeline,
    inverter_chain_pipeline,
    iscas_pipeline,
)
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.stage import PipelineStage
from repro.process.technology import Technology, default_technology
from repro.serve import (
    BackgroundServer,
    Client,
    ServeBudgets,
    ServeConfig,
    ServerError,
    StudyServer,
)
from repro.process.variation import VariationModel
from repro.timing.ssta import StatisticalTimingAnalyzer
from repro.verify import ConformanceReport, Scenario, ScenarioFuzzer, run_conformance

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "AnalysisSpec",
    "BackgroundServer",
    "CheckpointStore",
    "Client",
    "DelayReport",
    "DesignReport",
    "DesignSpec",
    "DesignStudySpec",
    "ExecutionPolicy",
    "ExecutionTrace",
    "FaultPlan",
    "FaultSpec",
    "PipelineSpec",
    "PointFailure",
    "ScenarioSweep",
    "ServeBudgets",
    "ServeConfig",
    "ServerError",
    "Session",
    "Study",
    "StudyServer",
    "StudySpec",
    "SweepExecutionError",
    "SweepResult",
    "VariationSpec",
    "available_backends",
    "available_optimizers",
    "available_sizers",
    "register_backend",
    "register_optimizer",
    "register_sizer",
    "run_study",
    "run_sweep",
    "spec_digest",
    "StageDelayDistribution",
    "PipelineDelayModel",
    "PipelineDelayEstimate",
    "yield_independent",
    "yield_correlated",
    "yield_from_samples",
    "MonteCarloEngine",
    "Pipeline",
    "PipelineStage",
    "inverter_chain_pipeline",
    "iscas_pipeline",
    "alu_decoder_pipeline",
    "Technology",
    "default_technology",
    "VariationModel",
    "StatisticalTimingAnalyzer",
    "ConformanceReport",
    "Scenario",
    "ScenarioFuzzer",
    "run_conformance",
    "CellMapping",
    "NetlistError",
    "NetlistLookupError",
    "ParseError",
    "load_bench",
    "load_yosys_json",
    "parse_bench",
    "parse_yosys_json",
    "scale_logic_block",
    "write_bench",
    "write_yosys_json",
]
