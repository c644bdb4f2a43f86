"""The resilient sweep execution engine.

:func:`execute_tasks` evaluates a list of :class:`SweepTask` s on a session
under an :class:`~repro.robust.policy.ExecutionPolicy`, optionally fanning
out over a process pool, and returns ``(points, failures, trace)``:

* every successful point is a :class:`~repro.api.sweep.SweepPoint`;
* every point that exhausted its attempts is a structured
  :class:`~repro.robust.failures.PointFailure` -- one bad point never
  discards the rest of the sweep;
* the :class:`~repro.robust.failures.ExecutionTrace` records what the
  engine actually did (pool kind, serial fallback and its reason, retries,
  preemptive timeouts, worker respawns, checkpoint traffic, deadline).

Recovery behaviour, by failure mode:

* **exception in a point** -- consumes one attempt; retried up to
  ``policy.max_retries`` times with deterministic exponential backoff.
* **slow point** -- ``policy.point_timeout`` is enforced *preemptively* in
  parallel runs: the stuck worker's task is marked failed, the pool (which
  cannot cancel a running task) is torn down and respawned, and innocent
  in-flight points are re-enqueued *without* an attempt penalty.  Serial
  runs check the timeout after the attempt returns -- the interpreter
  cannot preempt its own frame -- so a slow point still consumes an attempt
  and retries deterministically.
* **dead worker** (``BrokenProcessPool``) -- the pool cannot say which task
  killed it, so every in-flight task is charged one attempt and re-enqueued
  (retries cover the innocents), and the pool is respawned.
* **pool unavailable / respawn failure** -- execution degrades to the
  serial engine and the trace records why (no more silent fallback).
* **sweep deadline** -- no new points are submitted once
  ``policy.sweep_deadline`` expires and every unsubmitted point becomes a
  structured deadline failure.  In parallel runs the points still running
  fail the same way and the pool is abandoned; the serial engine cannot
  preempt its own frame, so its current point finishes first.
* **abandoned pools** -- a pool given up while a task runs (point timeout,
  sweep deadline) has its worker processes killed, so a stuck point
  neither keeps its CPU nor blocks interpreter exit.  Workers never write
  the checkpoint store (the coordinator does), so a kill cannot tear an
  entry.
* **checkpointing** -- with ``policy.checkpoint_dir`` set, completed points
  are persisted through a :class:`~repro.robust.checkpoint.CheckpointStore`
  as they finish and already-stored points are served from disk before any
  submission, which is what makes killed-then-resumed sweeps bit-identical
  to uninterrupted ones (per-point seeds are baked into the task specs).

This module imports ``repro.api`` only lazily (inside functions), so the
spec layer can import the robust package without cycles.
"""

from __future__ import annotations

import time
import traceback as traceback_module
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.robust.checkpoint import CheckpointStore, resolved_store_spec
from repro.robust.failures import ExecutionTrace, PointFailure, PointTimeout
from repro.robust.faults import CORRUPTED_RESULT, FaultPlan, apply_fault
from repro.robust.policy import ExecutionPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import Session
    from repro.api.sweep import SweepPoint

#: Smallest wait used when polling in-flight futures with a pending wakeup.
_MIN_WAIT = 0.005


@dataclass(frozen=True)
class SweepTask:
    """One unit of sweep work: a fully resolved spec plus its position."""

    index: int
    coords: tuple[tuple[str, Any], ...]
    spec: Any  # StudySpec | DesignStudySpec, seeds already resolved


@dataclass
class _TaskState:
    """Coordinator-side bookkeeping for one task across its attempts."""

    task: SweepTask
    attempt: int = 1
    ready_at: float = 0.0  #: monotonic time before which it must not resubmit
    started: float = 0.0  #: monotonic submission time of the current attempt
    store_spec: Any = field(default=None, repr=False)


def _valid_report(report: Any) -> bool:
    """Whether a worker's payload is an actual report object."""
    from repro.api.backends import DelayReport
    from repro.api.design import DesignReport

    return isinstance(report, (DelayReport, DesignReport))


def _make_point(task: SweepTask, report: Any) -> "SweepPoint":
    from repro.api.sweep import SweepPoint

    return SweepPoint(task.index, task.coords, task.spec, report)


def _deadline_failure(
    task: SweepTask, attempts: int, elapsed: float | None = None
) -> PointFailure:
    """A point the deadline stopped: never started, or (``elapsed``) cut off."""
    return PointFailure(
        index=task.index,
        coords=task.coords,
        error_type="SweepDeadlineExceeded",
        message=(
            "sweep deadline expired before this point could run"
            if elapsed is None
            else "sweep deadline expired while this point was running"
        ),
        attempts=attempts,
        elapsed=elapsed or 0.0,
    )


def _failure_from_exception(
    task: SweepTask, exc: BaseException, attempts: int, elapsed: float
) -> PointFailure:
    return PointFailure(
        index=task.index,
        coords=task.coords,
        error_type=type(exc).__name__,
        message=str(exc),
        traceback="".join(
            traceback_module.format_exception(type(exc), exc, exc.__traceback__)
        ),
        attempts=attempts,
        elapsed=elapsed,
        exception=exc,
    )


def _pool_probe() -> None:
    """No-op task used to force worker spawning before committing to a pool."""


def create_pool(n_jobs: int):
    """``(pool, None)`` for a verified-working process pool, else ``(None, reason)``.

    ``ProcessPoolExecutor`` spawns workers lazily, so constructing one can
    succeed on platforms where forking is forbidden; a probe task surfaces
    the failure here -- with a recordable reason -- instead of mid-sweep.
    """
    try:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
    except ImportError as exc:  # pragma: no cover - stdlib always present
        return None, f"concurrent.futures unavailable: {exc}"
    try:
        pool = ProcessPoolExecutor(max_workers=n_jobs)
    except (OSError, PermissionError, ValueError) as exc:
        return None, f"pool construction failed: {type(exc).__name__}: {exc}"
    try:
        pool.submit(_pool_probe).result()
    except (OSError, PermissionError, BrokenProcessPool) as exc:
        # wait=True: the probe pool spawned real processes -- reap them
        # rather than leaking zombies behind the fallback.
        pool.shutdown(wait=True, cancel_futures=True)
        return None, f"pool probe failed: {type(exc).__name__}: {exc}"
    return pool, None


def _abandon_pool(pool) -> None:
    """Shut down a pool whose workers may be mid-task, killing them first.

    ``ProcessPoolExecutor.shutdown`` cannot stop a running task, so the
    worker would keep computing until the task returns.  Python 3.11 has no
    public call to stop it, hence the private ``_processes`` map; the pool
    sees its workers die and fails their futures, which the caller has
    already settled.
    """
    for process in list((pool._processes or {}).values()):
        process.kill()
    pool.shutdown(wait=False, cancel_futures=True)


def _robust_worker(payload: tuple) -> tuple:
    """Process-pool entrypoint: one attempt of one point, errors as data.

    Shares ``repro.api.sweep._worker_session``'s per-process session (one
    session per worker, rebuilt only when technology or root seed change)
    but never raises: failures come back as structured ``("err", ...)``
    tuples so the coordinator can retry without losing the exception detail
    across the process boundary.
    """
    index, spec, technology, root_seed, fault = payload
    start = time.monotonic()
    try:
        from repro.api.sweep import _worker_session

        session = _worker_session(technology, root_seed)
        corrupt = apply_fault(fault, parallel=True)
        report = CORRUPTED_RESULT if corrupt else session.run(spec)
        return ("ok", index, report, time.monotonic() - start)
    except Exception as exc:
        return (
            "err",
            index,
            type(exc).__name__,
            str(exc),
            traceback_module.format_exc(),
            time.monotonic() - start,
        )


class _Engine:
    """Shared state of one :func:`execute_tasks` run."""

    def __init__(
        self,
        session: "Session",
        policy: ExecutionPolicy,
        fault_plan: FaultPlan | None,
        trace: ExecutionTrace,
    ) -> None:
        self.session = session
        self.policy = policy
        self.fault_plan = fault_plan
        self.trace = trace
        self.store = (
            CheckpointStore(policy.checkpoint_dir)
            if policy.checkpoint_dir is not None
            else None
        )
        self.start = time.monotonic()
        self.points: list["SweepPoint"] = []
        self.failures: list[PointFailure] = []

    # -- shared helpers -------------------------------------------------
    def deadline_exceeded(self) -> bool:
        deadline = self.policy.sweep_deadline
        return deadline is not None and time.monotonic() - self.start > deadline

    def deadline_at(self) -> float | None:
        if self.policy.sweep_deadline is None:
            return None
        return self.start + self.policy.sweep_deadline

    def fault_for(self, index: int, attempt: int):
        if self.fault_plan is None:
            return None
        return self.fault_plan.fault_for(index, attempt)

    def checkpoint_lookup(self, state: _TaskState) -> bool:
        """Serve the task from the checkpoint store if possible."""
        if self.store is None:
            return False
        if state.store_spec is None:
            state.store_spec = resolved_store_spec(state.task.spec, self.session)
        report = self.store.get(state.store_spec)
        if report is None:
            return False
        self.trace.checkpoint_hits += 1
        self.points.append(_make_point(state.task, report))
        return True

    def checkpoint_write(self, state: _TaskState, report: Any) -> None:
        if self.store is None:
            return
        if state.store_spec is None:
            state.store_spec = resolved_store_spec(state.task.spec, self.session)
        self.store.put(state.store_spec, report)
        self.trace.checkpoint_writes += 1

    # -- serial engine --------------------------------------------------
    def run_serial(self, states: deque[_TaskState]) -> None:
        """Evaluate the remaining states in order on the caller's session.

        Resumes each state at its current attempt count, so the parallel
        engine can hand half-retried work over on pool loss without
        granting extra attempts.
        """
        while states:
            state = states.popleft()
            if self.deadline_exceeded():
                self.trace.deadline_hit = True
                self.failures.append(
                    _deadline_failure(state.task, attempts=state.attempt - 1)
                )
                continue
            if self.checkpoint_lookup(state):
                continue
            self._run_point_serial(state)

    def _attempt_elapsed(self, attempt_start: float, io_before: float) -> float:
        """Wall-clock of one attempt minus the session's store I/O inside it.

        ``Session(store=...)`` read-through does disk work inside
        ``session.run``; charging that against ``policy.point_timeout``
        would fail perfectly healthy points behind a slow (e.g. networked)
        store, so the attempt clock covers the evaluation only.
        """
        io_spent = (
            getattr(self.session, "store_io_seconds", 0.0) - io_before
        )
        return max(0.0, time.monotonic() - attempt_start - io_spent)

    def _run_point_serial(self, state: _TaskState) -> None:
        task = state.task
        last: tuple[BaseException, int, float] | None = None
        attempt = state.attempt
        while attempt <= self.policy.max_attempts:
            if attempt > state.attempt or last is not None:
                if self.deadline_exceeded():
                    self.trace.deadline_hit = True
                    break
                delay = self.policy.backoff_delay(task.index, attempt - 1)
                if delay > 0.0:
                    time.sleep(delay)
                self.trace.n_retries += 1
            attempt_start = time.monotonic()
            io_before = getattr(self.session, "store_io_seconds", 0.0)
            try:
                corrupt = apply_fault(
                    self.fault_for(task.index, attempt), parallel=False
                )
                report = (
                    CORRUPTED_RESULT if corrupt else self.session.run(task.spec)
                )
                if not _valid_report(report):
                    raise TypeError(
                        f"point {task.index} returned a corrupted result "
                        f"({type(report).__name__}, not a report)"
                    )
                elapsed = self._attempt_elapsed(attempt_start, io_before)
                if (
                    self.policy.point_timeout is not None
                    and elapsed > self.policy.point_timeout
                ):
                    self.trace.n_timeouts += 1
                    raise PointTimeout(
                        f"point {task.index} attempt {attempt} took "
                        f"{elapsed:.3f}s > point_timeout="
                        f"{self.policy.point_timeout}s"
                    )
            except Exception as exc:
                last = (exc, attempt, self._attempt_elapsed(attempt_start, io_before))
                attempt += 1
                continue
            self.checkpoint_write(state, report)
            self.points.append(_make_point(task, report))
            return
        assert last is not None
        exc, attempts, elapsed = last
        self.failures.append(
            _failure_from_exception(task, exc, attempts=attempts, elapsed=elapsed)
        )

    # -- parallel engine ------------------------------------------------
    def run_parallel(self, states: deque[_TaskState], n_jobs: int) -> None:
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        # Checkpoint pre-pass before spawning anything: a fully resumed
        # sweep never pays pool startup.
        if self.store is not None:
            remaining: deque[_TaskState] = deque()
            for state in states:
                if not self.checkpoint_lookup(state):
                    remaining.append(state)
            states = remaining
        if not states:
            self.trace.pool_kind = "serial"
            return

        pool, reason = create_pool(n_jobs)
        if pool is None:
            self.trace.pool_kind = "serial"
            self.trace.fallback_reason = reason
            self.run_serial(states)
            return
        self.trace.pool_kind = "process"

        inflight: dict[Any, _TaskState] = {}

        def submit(state: _TaskState) -> None:
            payload = (
                state.task.index,
                state.task.spec,
                self.session.technology,
                self.session.root_seed,
                self.fault_for(state.task.index, state.attempt),
            )
            state.started = time.monotonic()
            inflight[pool.submit(_robust_worker, payload)] = state

        def attempt_failed(
            state: _TaskState, exc: BaseException, elapsed: float
        ) -> None:
            """Charge one attempt; re-enqueue with backoff or finalise."""
            if state.attempt >= self.policy.max_attempts:
                self.failures.append(
                    _failure_from_exception(
                        state.task, exc, attempts=state.attempt, elapsed=elapsed
                    )
                )
                return
            delay = self.policy.backoff_delay(state.task.index, state.attempt)
            state.attempt += 1
            state.ready_at = time.monotonic() + delay
            self.trace.n_retries += 1
            states.append(state)

        def respawn(why: str) -> bool:
            """Replace a dead/abandoned pool; degrade to serial on failure."""
            nonlocal pool
            _abandon_pool(pool)
            pool, reason = create_pool(n_jobs)
            self.trace.n_worker_respawns += 1
            if pool is None:
                self.trace.fallback_reason = f"{why}; respawn failed: {reason}"
                return False
            return True

        try:
            while states or inflight:
                now = time.monotonic()
                if self.deadline_exceeded():
                    # Queued points never start; running ones are cut off
                    # and their workers killed with the pool (finally).
                    self.trace.deadline_hit = True
                    for state in states:
                        self.failures.append(
                            _deadline_failure(state.task, attempts=state.attempt - 1)
                        )
                    for state in inflight.values():
                        self.failures.append(
                            _deadline_failure(
                                state.task,
                                attempts=state.attempt,
                                elapsed=now - state.started,
                            )
                        )
                    states.clear()
                    break
                # Submit every ready state up to one task per worker, so a
                # submitted attempt is (approximately) a running attempt and
                # per-point timeouts measure execution, not queueing.
                rotations = 0
                while states and len(inflight) < n_jobs:
                    if states[0].ready_at <= now:
                        submit(states.popleft())
                        rotations = 0
                    else:
                        states.rotate(-1)
                        rotations += 1
                        if rotations >= len(states):
                            break  # every remaining state is backing off
                if not inflight:
                    # Nothing running: sleep to the earliest backoff wakeup
                    # or the deadline, whichever comes first.
                    time.sleep(self._wait_timeout(states, inflight))
                    continue
                done, _ = wait(
                    set(inflight),
                    timeout=self._wait_timeout(states, inflight),
                    return_when=FIRST_COMPLETED,
                )
                broken: BaseException | None = None
                for future in done:
                    state = inflight.pop(future)
                    elapsed = time.monotonic() - state.started
                    try:
                        result = future.result()
                    except BrokenProcessPool as exc:
                        broken = exc
                        attempt_failed(state, exc, elapsed)
                        continue
                    except Exception as exc:  # pragma: no cover - defensive
                        attempt_failed(state, exc, elapsed)
                        continue
                    if result[0] == "ok":
                        report = result[2]
                        if _valid_report(report):
                            self.checkpoint_write(state, report)
                            self.points.append(_make_point(state.task, report))
                        else:
                            attempt_failed(
                                state,
                                TypeError(
                                    f"point {state.task.index} returned a "
                                    f"corrupted result "
                                    f"({type(report).__name__}, not a report)"
                                ),
                                result[3],
                            )
                    else:
                        _, _, error_type, message, tb_text, w_elapsed = result
                        self._structured_attempt_failed(
                            state, error_type, message, tb_text, w_elapsed,
                            attempt_failed,
                        )
                if broken is not None:
                    # The pool cannot identify the culprit: charge every
                    # in-flight task one attempt (retries cover innocents)
                    # and replace the pool.
                    for future, state in list(inflight.items()):
                        attempt_failed(
                            state, broken, time.monotonic() - state.started
                        )
                    inflight.clear()
                    if not respawn("process pool broke"):
                        self.run_serial(states)
                        return
                    continue
                self._reap_timeouts(states, inflight, attempt_failed, respawn)
        finally:
            if pool is not None:
                if inflight:
                    _abandon_pool(pool)
                else:
                    pool.shutdown(wait=False, cancel_futures=True)

    def _structured_attempt_failed(
        self, state, error_type, message, tb_text, elapsed, attempt_failed
    ) -> None:
        """Route a worker's structured ``("err", ...)`` through retry logic.

        The original exception object stayed in the worker process, so a
        finalised failure is reconstructed from the shipped strings; the
        retry path only needs attempt accounting, which ``attempt_failed``
        already does (it cannot finalise here -- the attempt bound was
        checked first, so the surrogate exception it holds is never
        recorded).
        """
        if state.attempt >= self.policy.max_attempts:
            self.failures.append(
                PointFailure(
                    index=state.task.index,
                    coords=state.task.coords,
                    error_type=error_type,
                    message=message,
                    traceback=tb_text,
                    attempts=state.attempt,
                    elapsed=elapsed,
                )
            )
            return
        attempt_failed(state, RuntimeError(message), elapsed)

    def _wait_timeout(
        self, states: deque[_TaskState], inflight: dict
    ) -> float | None:
        """Seconds to block in ``wait()``: the nearest scheduled wakeup."""
        candidates: list[float] = []
        if self.policy.point_timeout is not None:
            candidates.extend(
                state.started + self.policy.point_timeout
                for state in inflight.values()
            )
        deadline = self.deadline_at()
        if deadline is not None:
            candidates.append(deadline)
        candidates.extend(
            state.ready_at for state in states if state.ready_at > 0.0
        )
        if not candidates:
            return None
        return max(_MIN_WAIT, min(candidates) - time.monotonic())

    def _reap_timeouts(
        self, states: deque[_TaskState], inflight: dict, attempt_failed, respawn
    ) -> None:
        """Preemptive per-point timeout: abandon stuck workers, spare the rest."""
        if self.policy.point_timeout is None or not inflight:
            return
        now = time.monotonic()
        expired = [
            (future, state)
            for future, state in inflight.items()
            if now - state.started > self.policy.point_timeout
        ]
        if not expired:
            return
        for future, state in expired:
            del inflight[future]
            self.trace.n_timeouts += 1
            attempt_failed(
                state,
                PointTimeout(
                    f"point {state.task.index} attempt {state.attempt} exceeded "
                    f"point_timeout={self.policy.point_timeout}s"
                ),
                now - state.started,
            )
        # A ProcessPoolExecutor cannot cancel a *running* task, so enforcing
        # the timeout means abandoning the whole pool and killing its
        # workers.  In-flight innocents are re-enqueued without an attempt
        # penalty.
        for future, state in list(inflight.items()):
            state.started = 0.0
            states.append(state)
        inflight.clear()
        if not respawn("point timeout abandoned a stuck worker"):
            self.run_serial(states)
            states.clear()


def execute_tasks(
    tasks: list[SweepTask],
    session: "Session",
    policy: ExecutionPolicy | None = None,
    n_jobs: int | None = None,
    fault_plan: FaultPlan | None = None,
) -> tuple[list["SweepPoint"], list[PointFailure], ExecutionTrace]:
    """Evaluate sweep tasks under a policy; never raises for point failures.

    Returns ``(points, failures, trace)``: successful
    :class:`~repro.api.sweep.SweepPoint` s (sweep order), structured
    :class:`~repro.robust.failures.PointFailure` s for every point that
    exhausted its attempts, and the
    :class:`~repro.robust.failures.ExecutionTrace` of what the engine did.
    """
    policy = policy if policy is not None else ExecutionPolicy()
    trace = ExecutionTrace(
        n_jobs=n_jobs,
        n_points=len(tasks),
        fault_plan_seed=fault_plan.seed if fault_plan is not None else None,
    )
    engine = _Engine(session, policy, fault_plan, trace)
    states = deque(_TaskState(task=task) for task in tasks)
    if n_jobs is None or n_jobs <= 1:
        trace.pool_kind = "serial"
        engine.run_serial(states)
    else:
        engine.run_parallel(states, n_jobs)
    engine.points.sort(key=lambda point: point.index)
    engine.failures.sort(key=lambda failure: failure.index)
    trace.n_completed = len(engine.points)
    trace.n_failed = len(engine.failures)
    trace.elapsed = time.monotonic() - engine.start
    return engine.points, engine.failures, trace
