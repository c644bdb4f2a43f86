"""Micro-benchmark: optimizer hot paths through the Design API.

Times the statistical sizers on ISCAS stages (one target, and one
four-point area--delay curve through ``characterize_stage``, which sizes
every target in one ``size_targets`` call) and on a 20k-gate generated
block, and the Design API's cached design flow (balanced baseline reuse
across optimizers, per-(stage, sizer) area--delay curve reuse, memoized
design reports), and writes the timings to
``benchmarks/results/perf_sizing.json`` so optimizer hot-path numbers join
the performance trajectory started by ``bench_perf_timing.py``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_perf_sizing.py

or through pytest (the assertions enforce the caching floors)::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_sizing.py -q
"""

from __future__ import annotations

import json
import pathlib

from bench_utils import timed_seconds

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

STAGE_YIELD = 0.95
SPEEDUP = 0.85
#: Targets per characterised curve (the Design API's default).
CURVE_POINTS = 4

#: The large generated block for the sizer timings.
LARGE_GATES = 20_000
LARGE_DEPTH = 48
#: Sizer options sized so each run stays affordable in CI while still
#: iterating enough for the per-move cost to dominate.
LARGE_SIZER_RUNS = (
    ("lagrangian", {"max_outer": 40, "sweeps_per_outer": 1, "sigma_refresh": 1000}),
    ("greedy", {"max_moves": 150, "sigma_refresh": 1000}),
)


def run_benchmark() -> dict:
    from repro.api import (
        AnalysisSpec,
        DesignSpec,
        DesignStudySpec,
        PipelineSpec,
        Session,
        VariationSpec,
    )
    from repro.circuit.iscas import iscas_benchmark
    from repro.optimize.area_delay import characterize_stage
    from repro.optimize.sizers import make_sizer
    from repro.pipeline.stage import PipelineStage
    from repro.process.technology import default_technology
    from repro.process.variation import VariationModel

    technology = default_technology()
    variation = VariationModel.combined()

    report: dict = {
        "stage_yield": STAGE_YIELD,
        "sizers": {},
        "curves": {},
        "design_api": {},
    }

    # ------------------------------------------------------------------
    # Raw sizer hot path: one statistical sizing run per (stage, sizer),
    # then one area-delay curve (all targets in one size_targets call).
    # ------------------------------------------------------------------
    for sizer_name, options in (
        ("lagrangian", {"max_outer": 30}),
        ("greedy", {"max_moves": 2500}),
    ):
        sizer = make_sizer(sizer_name, technology, variation, **options)
        stages = {}
        curves = {}
        for benchmark_name in ("c432", "c1908"):
            stage = PipelineStage(benchmark_name, iscas_benchmark(benchmark_name))
            target = SPEEDUP * sizer.stage_distribution(stage).delay_at_yield(
                STAGE_YIELD
            )
            seconds, result = timed_seconds(
                sizer.size_stage, stage, target, STAGE_YIELD, apply=False
            )
            stages[benchmark_name] = {
                "seconds": seconds,
                "iterations": result.iterations,
                "met_target": result.met_target,
                "gates_per_second": stage.n_gates * result.iterations / max(seconds, 1e-9),
            }
            seconds, curve = timed_seconds(
                characterize_stage, stage, sizer, STAGE_YIELD, n_points=CURVE_POINTS
            )
            curves[benchmark_name] = {
                "seconds": seconds,
                "targets": CURVE_POINTS,
                "frontier_points": len(curve.points),
            }
        report["sizers"][sizer_name] = stages
        report["curves"][sizer_name] = curves

    # ------------------------------------------------------------------
    # Both sizers on a 20k-gate generated block.
    # ------------------------------------------------------------------
    from repro.circuit.generators import random_logic_block

    large = random_logic_block(
        "large",
        n_gates=LARGE_GATES,
        depth=LARGE_DEPTH,
        n_inputs=64,
        n_outputs=32,
        seed=7,
    )
    large.timing_schedule()  # compile once; shared by every run below
    large_stage = PipelineStage("large", large)
    report["large_block"] = {
        "n_gates": LARGE_GATES,
        "depth": LARGE_DEPTH,
        "sizers": {},
    }
    for sizer_name, options in LARGE_SIZER_RUNS:
        sizer = make_sizer(sizer_name, technology, variation, **options)
        target = SPEEDUP * sizer.stage_distribution(large_stage).delay_at_yield(
            STAGE_YIELD
        )
        seconds, result = timed_seconds(
            sizer.size_stage, large_stage, target, STAGE_YIELD, apply=False
        )
        report["large_block"]["sizers"][sizer_name] = {
            "seconds": seconds,
            "iterations": result.iterations,
            "gates_per_second": LARGE_GATES * result.iterations / max(seconds, 1e-9),
        }

    # ------------------------------------------------------------------
    # Design-API hot path: session caching across optimizers and repeats.
    # ------------------------------------------------------------------
    session = Session()
    base = DesignStudySpec(
        pipeline=PipelineSpec(kind="iscas", benchmarks=("c432", "c1908")),
        variation=VariationSpec.combined(),
        design=DesignSpec(
            optimizer="balanced",
            sizer="lagrangian",
            sizer_options={"max_outer": 30},
            yield_target=0.80,
            delay_policy="stage_max",
            delay_scale=0.9,
            curve_points=3,
        ),
        validation=AnalysisSpec(n_samples=500, seed=17),
    )

    t_balanced, _ = timed_seconds(session.design, base)
    # Reuses the cached balanced baseline; pays for curves + redistribution.
    t_redistribute, _ = timed_seconds(session.design, base, "redistribute")
    # Reuses the balanced baseline AND the area-delay curves (stage_yield is
    # the equal split, which is also the global optimizer's curve yield).
    t_global, _ = timed_seconds(session.design, base, "global")
    # Memoized report: a pure cache fetch.
    t_cached, _ = timed_seconds(session.design, base)

    report["design_api"] = {
        "balanced_first_s": t_balanced,
        "redistribute_with_cached_baseline_s": t_redistribute,
        "global_with_cached_baseline_and_curves_s": t_global,
        "balanced_cached_s": t_cached,
        "cached_report_speedup": t_balanced / max(t_cached, 1e-9),
        "session_cache_hits": session.cache_hits,
        "session_cache_misses": session.cache_misses,
    }

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / "perf_sizing.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_perf_sizing():
    """Caching floors.

    Memoized reports are effectively free and caches hit.  The 20k-gate
    block is a speed probe only, so no floor or met_target check applies.
    """
    report = run_benchmark()
    api = report["design_api"]
    assert api["cached_report_speedup"] >= 50.0, api
    # The redistribute/global runs must have found the balanced baseline in
    # the cache (hits > 0) instead of re-deriving targets and re-sizing.
    assert api["session_cache_hits"] >= 2, api
    for sizer_name, stages in report["sizers"].items():
        for stage_name, stats in stages.items():
            assert stats["met_target"], (sizer_name, stage_name, stats)


if __name__ == "__main__":
    result = run_benchmark()
    print(json.dumps(result, indent=2))
