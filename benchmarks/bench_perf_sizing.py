"""Micro-benchmark: optimizer hot paths through the Design API.

Times the statistical sizers on ISCAS stages (one target, and one
four-point area--delay curve through ``characterize_stage``, which sizes
every target in one ``size_targets`` call) and on a 20k-gate generated
block, one SSTA pass over four size rows against four one-row passes (the
sizers' budget refreshes and final forms), and the Design API's cached
design flow (balanced baseline reuse
across optimizers, per-(stage, sizer) area--delay curve reuse, memoized
design reports), and writes the timings to
``benchmarks/results/perf_sizing.json`` so optimizer hot-path numbers join
the performance trajectory started by ``bench_perf_timing.py``.  Each
timed sizer call runs on a sizer built for it, after the target is
computed, so its stage-form memo starts empty and reuses only forms of
that call.

Run directly::

    PYTHONPATH=src python benchmarks/bench_perf_sizing.py

or through pytest (the assertions enforce the caching floors)::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_sizing.py -q
"""

from __future__ import annotations

import json
import pathlib

from bench_utils import best_of_seconds, timed_seconds

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

STAGE_YIELD = 0.95
SPEEDUP = 0.85
#: Targets per characterised curve (the Design API's default).
CURVE_POINTS = 4

#: The large generated block for the sizer timings.
LARGE_GATES = 20_000
LARGE_DEPTH = 48
#: Size rows per batched SSTA pass, and timed repeats (best of).
SSTA_ROWS = 4
SSTA_REPEATS = 15
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

    def fresh_sizer(sizer_name: str, options: dict):
        # Each timed call gets its own sizer: a sizer's engine keeps the
        # stage forms it computed, so a reused one would time memo hits
        # from the untimed target computation or an earlier timed call.
        return make_sizer(sizer_name, technology, variation, **options)

    report: dict = {
        "stage_yield": STAGE_YIELD,
        "sizers": {},
        "curves": {},
        "ssta_rows": {},
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
        stages = {}
        curves = {}
        for benchmark_name in ("c432", "c1908"):
            stage = PipelineStage(benchmark_name, iscas_benchmark(benchmark_name))
            target = SPEEDUP * fresh_sizer(sizer_name, options).stage_distribution(
                stage
            ).delay_at_yield(STAGE_YIELD)
            seconds, result = timed_seconds(
                fresh_sizer(sizer_name, options).size_stage,
                stage,
                target,
                STAGE_YIELD,
                apply=False,
            )
            stages[benchmark_name] = {
                "seconds": seconds,
                "iterations": result.iterations,
                "met_target": result.met_target,
                "gates_per_second": stage.n_gates * result.iterations / max(seconds, 1e-9),
            }
            seconds, curve = timed_seconds(
                characterize_stage,
                stage,
                fresh_sizer(sizer_name, options),
                STAGE_YIELD,
                n_points=CURVE_POINTS,
            )
            curves[benchmark_name] = {
                "seconds": seconds,
                "targets": CURVE_POINTS,
                "frontier_points": len(curve.points),
            }
        report["sizers"][sizer_name] = stages
        report["curves"][sizer_name] = curves

    # ------------------------------------------------------------------
    # SSTA over size rows: one pass of SSTA_ROWS rows against one pass per
    # row, on the plain engine (no memo), both with the stage's register.
    # ------------------------------------------------------------------
    import numpy as np

    from repro.circuit.flipflop import FlipFlopTiming
    from repro.timing.ssta import StatisticalTimingAnalyzer

    analyzer = StatisticalTimingAnalyzer(technology, variation)
    for benchmark_name in ("c432", "c1908"):
        netlist = iscas_benchmark(benchmark_name)
        rows = np.random.default_rng(3).uniform(1.0, 4.0, (SSTA_ROWS, netlist.n_gates))
        args = (netlist, FlipFlopTiming(), (0.9, 0.5))
        one_pass, _ = best_of_seconds(
            SSTA_REPEATS, analyzer.stage_delay, *args, sizes=rows
        )
        per_row, _ = best_of_seconds(
            SSTA_REPEATS, lambda: [analyzer.stage_delay(*args, sizes=row) for row in rows]
        )
        report["ssta_rows"][benchmark_name] = {
            "rows": SSTA_ROWS,
            "one_pass_s": one_pass,
            "per_row_passes_s": per_row,
            "speedup": per_row / max(one_pass, 1e-12),
        }

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
        target = SPEEDUP * fresh_sizer(sizer_name, options).stage_distribution(
            large_stage
        ).delay_at_yield(STAGE_YIELD)
        seconds, result = timed_seconds(
            fresh_sizer(sizer_name, options).size_stage,
            large_stage,
            target,
            STAGE_YIELD,
            apply=False,
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
