"""The in-process workloads: scale_characterize, design_sweep, sweep_fanout.

Each drives the program only through its public API and returns an
:class:`~common.Outcome`.  Inputs are drawn from the run's seed; the
program receives only the generated specs.
"""

from __future__ import annotations

import itertools
import shutil
import tempfile
import time

import numpy as np

from common import Outcome, Run, Time, nproc, peak_rss_mb, reap_children, report_digest, timing

# Every time metric is the median over a run's operations, each measured
# both in wall-clock and in reference-host seconds (see ``common``).

#: Largest relative gap allowed between Monte-Carlo and SSTA stage means.
#: 32 samples give a ~0.7 % standard error on a stage mean; the SSTA model
#: itself sits within ~2 % of sampling on these netlists.
MC_SSTA_TOLERANCE = 0.05
MC_SAMPLES = 32


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31))


def _ms(seconds: Time) -> Time:
    return seconds.map(lambda s: s * 1e3)


def scale_characterize(run: Run) -> Outcome:
    """Monte-Carlo and SSTA studies on one warm 2 x 100k-gate pipeline."""
    from repro.api import AnalysisSpec, PipelineSpec, Session, StudySpec, VariationSpec
    from repro.verify.invariants import check_delay_report

    run.sample_host()
    rng = np.random.default_rng(run.seed)
    n_gates = 2_000 if run.tiny else 100_000
    pipeline = PipelineSpec(
        kind="scale_logic", n_stages=2,
        options={"n_gates": n_gates, "seed": _draw_seed(rng)},
    )
    variation = VariationSpec.combined()
    first_seed = _draw_seed(rng)

    def study(backend: str, n_samples: int, seed: int) -> StudySpec:
        return StudySpec(
            pipeline=pipeline, variation=variation,
            analysis=AnalysisSpec(backend=backend, n_samples=n_samples,
                                  chunk_size=16, seed=seed),
        )

    def set_up() -> Session:
        session = Session()
        session.pipeline(pipeline)
        return session

    # Each set-up's session answers the same seeded probe study; the
    # digests must agree.
    probe = study("montecarlo", 16, first_seed)
    setup_times, session, digests = run.setup(
        "scale.setup", set_up, repeats=2, after=lambda s: report_digest(s.analyze(probe))
    )
    run.check("same_seed_digest", len(set(digests)) == 1, str(digests))

    def one_round(k: int) -> dict:
        spec = study("montecarlo", MC_SAMPLES, first_seed + 1 + k)
        before = session.stats()
        mc, mc_time = run.timed("scale.mc_study", session.analyze, spec)
        ssta, ssta_time = run.timed("scale.ssta_study", session.analyze, spec.with_backend("ssta"))
        after = session.stats()
        run.op(2)
        gap = max(
            abs(m - s) / s for m, s in zip(mc.stage_means, ssta.stage_means)
        )
        run.check("mc_vs_ssta_stage_means", gap <= MC_SSTA_TOLERANCE,
                  f"relative gap {gap:.4f}")
        violations = check_delay_report(mc) + check_delay_report(ssta)
        run.check("delay_report_invariants", not violations, "; ".join(violations))
        return {
            "mc": mc_time,
            "ssta": ssta_time,
            "counts": {
                "api.cache_hits": after["cache_hits"] - before["cache_hits"],
                "api.cache_misses": after["cache_misses"] - before["cache_misses"],
            },
        }

    rounds = run.rounds(one_round)
    mc_samples_per_s = timing((r["mc"] for r in rounds), per=MC_SAMPLES)
    ssta_study_s = timing(r["ssta"] for r in rounds)
    return Outcome(
        setup_s=timing(setup_times),
        peak_rss_mb=peak_rss_mb(),
        throughput_per_s=mc_samples_per_s,
        latency_ms=_ms(ssta_study_s),
        named={
            "mc_samples_per_s": (mc_samples_per_s, "1/s"),
            "ssta_study_s": (ssta_study_s, "s"),
        },
        layers=run.layer_metrics(),
    )


def design_sweep(run: Run) -> Outcome:
    """Serial optimizer x sizer design sweeps on the ISCAS stand-in stages."""
    from repro.api import (
        AnalysisSpec, DesignSpec, DesignStudySpec, PipelineSpec, ScenarioSweep,
        Session, VariationSpec,
    )
    from repro.verify.invariants import check_design_report

    run.sample_host()
    rng = np.random.default_rng(run.seed)
    # The two smallest stand-ins keep one sweep near 4 s, so a run holds
    # several whole sweeps; the paper's four-stage default takes ~35 s.
    benchmarks = ("c432",) if run.tiny else ("c432", "c499")
    base = DesignStudySpec(
        pipeline=PipelineSpec(kind="iscas", benchmarks=benchmarks),
        variation=VariationSpec.combined(),
        design=DesignSpec(yield_target=0.80),
        validation=AnalysisSpec(n_samples=200, seed=_draw_seed(rng)),
    )
    axes = {
        "design.optimizer": ["balanced", "redistribute", "global"],
        "design.sizer": ["lagrangian", "greedy"],
    }
    setup_times, _, _ = run.setup(
        "design.setup", lambda: Session().pipeline(base.pipeline), repeats=20
    )
    reference: dict[int, str] = {}

    def one_round(k: int) -> dict:
        session = Session()
        points, latencies = [], []
        sweep_start = start = time.perf_counter()
        for point in ScenarioSweep(base, axes).iter_results(session):
            latencies.append(run.measure_span("design.point", start, time.perf_counter()))
            points.append(point)
            start = time.perf_counter()
        sweep_time = run.measure_span("design.sweep", sweep_start, start)
        for point in points:
            run.op()
            violations = check_design_report(point.report)
            run.check("design_report_invariants", not violations, "; ".join(violations))
            digest = report_digest(point.report)
            run.check("same_seed_digest", reference.setdefault(point.index, digest) == digest,
                      f"point {point.index} changed between identical sweeps")
        stats = session.stats()
        return {
            "sweep": sweep_time,
            "latencies": latencies,
            "counts": {
                "api.cache_hits": stats["cache_hits"],
                "api.cache_misses": stats["cache_misses"],
            },
        }

    rounds = run.rounds(one_round)
    # Throughput from whole sweeps: a sweep's factor rests on ~100 probes,
    # a light point's on ~6 (over 30 stretches of 16 s: spread 0.04 against
    # 0.05 for the sum of per-point medians).
    points_per_s = timing((r["sweep"] for r in rounds), per=len(rounds[0]["latencies"]))
    # Each point's median latency over the rounds.
    per_point = [timing(times) for times in zip(*(r["latencies"] for r in rounds))]
    # The points fall in two groups (global-optimizer points near 1 s, the
    # rest near 0.25 s), so their median falls between light points, which
    # follow the host's speed poorly.  The end-to-end latency is the
    # slowest point's, which follows it closely; the median is kept named.
    point_p50_s = timing(per_point)
    slowest_point_s = max(per_point, key=lambda p: p.wall)
    return Outcome(
        setup_s=timing(setup_times),
        peak_rss_mb=peak_rss_mb(),
        throughput_per_s=points_per_s,
        latency_ms=_ms(slowest_point_s),
        named={
            "design_points_per_s": (points_per_s, "1/s"),
            "design_point_p50_s": (point_p50_s, "s"),
            "design_point_max_s": (slowest_point_s, "s"),
        },
        layers=run.layer_metrics(),
    )


#: Resume passes per cold pass; each reads the whole filled store.
RESUME_PASSES = 10
#: Fan-out points re-run serially to compare with the pooled result.
SERIAL_SAMPLE = 3


def sweep_fanout(run: Run) -> Outcome:
    """Process-pool analysis sweep with a checkpoint store, then its resume."""
    from repro.api import (
        AnalysisSpec, ExecutionPolicy, PipelineSpec, Session, StudySpec,
        VariationSpec, run_sweep,
    )
    from repro.robust import create_pool

    run.sample_host()
    rng = np.random.default_rng(run.seed)
    n_jobs = nproc()
    grid = list(itertools.product(
        ["montecarlo", "analytic", "ssta"], [0.75, 1.0, 1.25], [4, 8]
    ))
    # The grid is enumerated as a zip with one seed per point, so no two
    # points share a characterisation and the work per pass does not depend
    # on which worker a point lands on.
    axes = {
        "analysis.backend": [backend for backend, _, _ in grid],
        "variation.sigma_scale": [scale for _, scale, _ in grid],
        "pipeline.n_stages": [stages for _, _, stages in grid],
        "analysis.seed": [_draw_seed(rng) for _ in grid],
    }
    base = StudySpec(
        pipeline=PipelineSpec(kind="inverter_chain", logic_depth=4 if run.tiny else 24),
        variation=VariationSpec.combined(),
        analysis=AnalysisSpec(n_samples=500 if run.tiny else 20_000),
    )

    def start_pool() -> None:
        pool, reason = create_pool(n_jobs)
        if pool is None:
            raise RuntimeError(f"no process pool: {reason}")
        pool.shutdown(wait=True)

    setup_times, _, _ = run.setup("fanout.pool_start", start_pool, repeats=10)
    reference: dict[int, str] = {}
    kept: list = []

    def sweep(store: str):
        return run_sweep(base, axes, mode="zip", session=Session(), n_jobs=n_jobs,
                         policy=ExecutionPolicy(checkpoint_dir=store))

    def one_round(k: int) -> dict:
        store = tempfile.mkdtemp(dir=run.workdir)
        try:
            cold, cold_time = run.timed("fanout.cold_pass", sweep, store)
            # Pool workers exit in the background; let them go before the
            # resume passes, which they would slow.
            reap_children()
            resumes, resume_times = [], []
            for _ in range(RESUME_PASSES):
                resumed, elapsed = run.timed("fanout.resume_pass", sweep, store)
                resumes.append(resumed)
                resume_times.append(elapsed)
        finally:
            shutil.rmtree(store, ignore_errors=True)
        n_points = len(grid)
        for result in [cold] + resumes:
            run.op(n_points, failed=len(result.failures))
            run.check("no_point_failures", not result.failures, str(result.failures))
        for point in cold.points:
            digest = report_digest(point.report)
            run.check("same_seed_digest", reference.setdefault(point.index, digest) == digest,
                      f"point {point.index} changed between identical sweeps")
        for resumed in resumes:
            run.check("resume_equals_cold",
                      [p.to_dict() for p in resumed.points] == [p.to_dict() for p in cold.points])
        if not kept:
            kept.extend(cold.points)
        traces = [cold.trace] + [r.trace for r in resumes]
        return {
            "cold": cold_time,
            "resume": resume_times,
            "counts": {
                "robust.checkpoint_hits": sum(t.checkpoint_hits for t in traces),
                "robust.checkpoint_writes": sum(t.checkpoint_writes for t in traces),
                "robust.worker_respawns": sum(t.n_worker_respawns for t in traces),
            },
        }

    rounds = run.rounds(one_round)
    # A sampled subset of the pooled points, recomputed serially.
    serial = Session()
    for index in rng.choice(len(kept), size=min(SERIAL_SAMPLE, len(kept)), replace=False):
        point = kept[int(index)]
        run.check("fanout_equals_serial", serial.run(point.spec) == point.report,
                  f"point {point.index}")
    reap_children()
    sweep_points_per_s = timing((r["cold"] for r in rounds), per=len(grid))
    resume_pass_s = timing(t for r in rounds for t in r["resume"])
    resume_points_per_s = resume_pass_s.map(lambda s: len(grid) / s)
    return Outcome(
        setup_s=timing(setup_times),
        peak_rss_mb=peak_rss_mb(include_children=True),
        throughput_per_s=sweep_points_per_s,
        latency_ms=_ms(resume_pass_s),
        named={
            "sweep_points_per_s": (sweep_points_per_s, "1/s"),
            "resume_points_per_s": (resume_points_per_s, "1/s"),
        },
        layers=run.layer_metrics(),
    )
