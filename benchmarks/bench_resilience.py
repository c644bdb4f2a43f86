"""Resilience benchmark: robust-executor overhead, kill recovery, checkpoint I/O.

Measures what the fault-tolerant sweep path (``repro.robust``) costs when
nothing goes wrong -- the retry/timeout/trace bookkeeping wrapped around a
clean 200-point sweep, serial and parallel -- and what it buys when
something does: the wall-clock penalty of losing a worker process mid-sweep
(kill fault -> ``BrokenProcessPool`` -> pool respawn -> retry) versus the
same sweep undisturbed.  The ``checkpoint`` section times the checkpoint
store on one 20,000-sample Monte-Carlo report and one design report with
200-sample validations: bytes per entry, ``put`` and ``get``, and a resume
pass over 12 stored points.  Results go to
``benchmarks/results/perf_resilience.json`` so future PRs can track the
overhead trajectory.

Run directly::

    PYTHONPATH=src python benchmarks/bench_resilience.py

or through pytest (the assertions enforce the PR's overhead ceiling)::

    PYTHONPATH=src python -m pytest benchmarks/bench_resilience.py -q
"""

from __future__ import annotations

import functools
import json
import pathlib
import tempfile

from bench_utils import best_of_seconds, timed_seconds

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# 4 x 5 x 10 grid = 200 clean points, each cheap enough that executor
# bookkeeping would show up in the total if it cost anything per point.
CLEAN_AXES = {
    "pipeline.n_stages": [2, 3, 4, 5],
    "pipeline.logic_depth": [2, 3, 4, 5, 6],
    "variation.sigma_scale": [round(0.5 + 0.1 * i, 1) for i in range(10)],
}
N_SAMPLES = 120
RECOVERY_POINTS = 8
N_JOBS = 2
CHECKPOINT_POINTS = 12


def _base_spec():
    from repro.api import AnalysisSpec, PipelineSpec, StudySpec, VariationSpec

    return StudySpec(
        pipeline=PipelineSpec(n_stages=2, logic_depth=3),
        variation=VariationSpec.combined(),
        analysis=AnalysisSpec(backend="montecarlo", n_samples=N_SAMPLES, seed=2005),
    )


def _tasks(axes):
    """Resolved sweep tasks on a throwaway session (seeds are concrete)."""
    from repro.api import Session
    from repro.api.sweep import ScenarioSweep

    return ScenarioSweep(_base_spec(), axes).tasks(Session())


def _bare_serial(tasks):
    """The minimal serial evaluation: a loop of ``session.run`` calls."""
    from repro.api import Session

    session = Session()
    return [session.run(task.spec) for task in tasks]


def _robust_serial(tasks, policy):
    from repro.api import Session
    from repro.robust import execute_tasks

    points, failures, trace = execute_tasks(tasks, Session(), policy=policy)
    assert not failures, failures
    return points


def _evaluate(payload):
    """Pool entrypoint of the bare baseline: one spec on the worker session."""
    from repro.api.sweep import _worker_session

    spec, technology, root_seed = payload
    return _worker_session(technology, root_seed).run(spec)


def _bare_pool_map(tasks):
    """The minimal parallel path: ``pool.map`` over the sweep's specs."""
    from repro.api import Session
    from repro.robust import create_pool

    session = Session()
    payloads = [
        (task.spec, session.technology, session.root_seed) for task in tasks
    ]
    pool, _ = create_pool(N_JOBS)
    if pool is None:  # no pool support on this platform -> serial map
        return [_evaluate(payload) for payload in payloads]
    with pool:
        return list(pool.map(_evaluate, payloads))


def _robust_parallel(tasks, policy, fault_plan=None):
    from repro.api import Session
    from repro.robust import execute_tasks

    return execute_tasks(
        tasks, Session(), policy=policy, n_jobs=N_JOBS, fault_plan=fault_plan
    )


def _checkpoint_specs():
    """(name, base spec, seed axis): the two report shapes the store holds."""
    from repro.api import (
        AnalysisSpec, DesignStudySpec, PipelineSpec, StudySpec, VariationSpec,
    )

    montecarlo = StudySpec(
        pipeline=PipelineSpec(n_stages=4, logic_depth=8),
        variation=VariationSpec.combined(),
        analysis=AnalysisSpec(backend="montecarlo", n_samples=20_000, seed=1),
    )
    design = DesignStudySpec(
        pipeline=PipelineSpec(n_stages=3),
        validation=AnalysisSpec(n_samples=200, seed=1),
    )
    return [
        ("montecarlo_20k", montecarlo, "analysis.seed"),
        ("design_200", design, "validation.seed"),
    ]


def _checkpoint_io(workdir: pathlib.Path) -> dict:
    """Entry size, ``put``/``get`` and one resume pass per report shape."""
    from repro.api import ExecutionPolicy, Session, run_sweep
    from repro.robust import CheckpointStore

    section: dict = {"n_points": CHECKPOINT_POINTS}
    for name, base, seed_axis in _checkpoint_specs():
        root = workdir / name
        axes = {seed_axis: list(range(1, CHECKPOINT_POINTS + 1))}
        policy = ExecutionPolicy(checkpoint_dir=str(root))
        cold = run_sweep(base, axes, session=Session(), policy=policy)
        assert cold.trace.checkpoint_writes == CHECKPOINT_POINTS, cold.trace
        point = cold.points[0]
        store = CheckpointStore(workdir / f"{name}-single")
        t_put, digest = best_of_seconds(5, store.put, point.spec, point.report)
        t_get, loaded = best_of_seconds(5, store.get, point.spec)
        assert loaded == point.report
        t_resume, resumed = best_of_seconds(
            3, run_sweep, base, axes, session=Session(), policy=policy
        )
        assert resumed.trace.checkpoint_hits == CHECKPOINT_POINTS, resumed.trace
        assert resumed.reports() == cold.reports()
        section[name] = {
            "entry_bytes": store.path_for(digest).stat().st_size,
            "put_s": t_put,
            "get_s": t_get,
            "resume_pass_s": t_resume,
        }
    return section


@functools.lru_cache(maxsize=1)
def run_benchmark() -> dict:
    from repro.robust import ExecutionPolicy, FaultPlan, FaultSpec

    policy = ExecutionPolicy(max_retries=2, backoff_base=0.0)
    clean_tasks = _tasks(CLEAN_AXES)
    report: dict = {
        "sweep": {
            "n_points": len(clean_tasks),
            "n_samples": N_SAMPLES,
            "n_jobs": N_JOBS,
        },
    }

    # -- clean-path overhead, serial ----------------------------------
    # Fresh sessions per run keep the characterisation cache from turning
    # the second contender's sweep into a no-op.
    t_bare, bare_reports = best_of_seconds(3, _bare_serial, clean_tasks)
    t_robust, robust_points = best_of_seconds(3, _robust_serial, clean_tasks, policy)
    assert [p.report for p in robust_points] == bare_reports
    report["clean_serial"] = {
        "bare_s": t_bare,
        "robust_s": t_robust,
        "overhead_fraction": t_robust / t_bare - 1.0,
    }

    # -- clean-path overhead, parallel (vs bare pool.map) -------------
    # Pool spin-up dominates and is paid by both sides, so this number is
    # informational; the enforced ceiling is the serial one above.
    t_map, mapped = best_of_seconds(2, _bare_pool_map, clean_tasks)
    t_rpar, (par_points, par_failures, _) = best_of_seconds(
        2, _robust_parallel, clean_tasks, policy
    )
    assert not par_failures, par_failures
    assert [p.report for p in par_points] == mapped
    report["clean_parallel"] = {
        "bare_map_s": t_map,
        "robust_s": t_rpar,
        "overhead_fraction": t_rpar / t_map - 1.0,
    }

    # -- recovery latency under an injected worker kill ---------------
    recovery_tasks = _tasks(
        {"pipeline.n_stages": [2], "variation.sigma_scale":
         [round(0.6 + 0.1 * i, 1) for i in range(RECOVERY_POINTS)]}
    )
    kill_plan = FaultPlan((FaultSpec(point=0, kind="kill", attempts=1),))
    t_clean, (clean_points, clean_failures, _) = timed_seconds(
        _robust_parallel, recovery_tasks, policy
    )
    assert not clean_failures, clean_failures
    t_faulted, (faulted_points, faulted_failures, trace) = timed_seconds(
        _robust_parallel, recovery_tasks, policy, kill_plan
    )
    assert not faulted_failures, faulted_failures
    assert [p.report for p in faulted_points] == [p.report for p in clean_points]
    report["recovery"] = {
        "n_points": len(recovery_tasks),
        "clean_s": t_clean,
        "faulted_s": t_faulted,
        "recovery_latency_s": t_faulted - t_clean,
        "n_worker_respawns": trace.n_worker_respawns,
        "n_retries": trace.n_retries,
        "n_failures": len(faulted_failures),
    }

    # -- checkpoint store I/O ------------------------------------------
    with tempfile.TemporaryDirectory() as workdir:
        report["checkpoint"] = _checkpoint_io(pathlib.Path(workdir))

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / "perf_resilience.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_clean_overhead_is_under_five_percent():
    """The PR's acceptance ceiling: robust serial path costs <5% on a
    clean 200-point sweep."""
    clean = run_benchmark()["clean_serial"]
    assert clean["overhead_fraction"] < 0.05, clean


def test_kill_recovery_loses_no_points():
    """A killed worker costs one pool respawn, never a result."""
    recovery = run_benchmark()["recovery"]
    assert recovery["n_failures"] == 0, recovery
    assert recovery["n_worker_respawns"] >= 1, recovery
    assert recovery["recovery_latency_s"] < 30.0, recovery


if __name__ == "__main__":
    result = run_benchmark()
    print(json.dumps(result, indent=2))
