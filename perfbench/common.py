"""Shared machinery of the benchmark workloads.

Times are reported in *reference-host seconds*.  The host this benchmark
was sized on (2 shared vCPUs) changes speed by up to 3x within a couple of
minutes, which no amount of repetition inside a 16 s run averages out.
Each time is therefore divided by ``(host time / base) **
HOST_ELASTICITY[operation]``, where the host time is that of a fixed
computation that never calls the program:

* where this process does the work (scale_characterize, design_sweep,
  sweep_fanout), the median of the probes :class:`HostSampler` runs every
  ``reference.PERIOD_S`` inside the timed work, while that one operation
  was timed (base ``PROBE_S`` of the probe part it uses);
* in serve_mix, a run of ``reference.py`` in a helper process right after
  each server boot, or around the load window (base ``REFERENCE_S``).

Work done in other processes -- sweep_fanout's pool start and cold pass,
the served latencies -- followed neither these probes nor the helper's
reference, or probes run inside the server, so it is reported as measured
(slope 0).

The per-run record keeps each scaled time's unscaled wall-clock median
beside it (the ``*_wall`` names) and every (wall, host time) pair under
``samples``; ``elasticity.py`` fits the slopes from those pairs.

A workload is set-up (timed several times, reported as the median) followed
by *rounds*: fixed units of work repeated until ``--seconds`` have passed.
With ``--trace 0`` every round is untraced and feeds the end-to-end
metrics.  With ``--trace 1`` rounds alternate untraced / traced, so the
traced rounds give the per-layer split and the untraced ones the
tracing-overhead baseline; set-ups are traced too, because that is where
pipelines are built and compiled.
"""

from __future__ import annotations

import bisect
import functools
import gc
import hashlib
import json
import math
import multiprocessing
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import reference
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


@functools.cache
def metric_units(kind: str) -> dict[str, str]:
    """``{name: unit}`` of BENCHMARK.json's ``end_to_end`` or ``per_layer`` metrics.

    Per-layer times are seconds per round (median over traced rounds),
    except the ``circuit`` build/compile split, which is seconds per set-up.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


#: Counts that must repeat exactly from one round to the next.
EXACT = (
    "circuit.accessor_calls",
    "optimize.size_stage_calls",
    "api.cache_hits",
    "api.cache_misses",
    "robust.store_gets",
    "robust.store_puts",
    "robust.checkpoint_hits",
    "robust.checkpoint_writes",
)


def span_metrics(snapshot: dict, wall_s: float) -> dict[str, float]:
    """Per-layer values of one traced segment (a set-up or a round)."""
    spans = snapshot["spans"]

    def get(name: str, kind: str) -> float:
        return spans.get(name, {}).get(kind, 0)

    values = {
        "circuit.build_s": get("circuit.build", "self_s"),
        "circuit.compile_s": get("circuit.compile", "inclusive_s"),
        "circuit.accessor_s": get("circuit.accessor", "self_s"),
        "circuit.accessor_calls": get("circuit.accessor", "calls"),
        "process.sample_s": get("process.sample", "inclusive_s"),
        "timing.delay_model_s": get("timing.delay_model", "self_s"),
        "timing.propagate_s": get("timing.propagate", "inclusive_s"),
        "timing.ssta_s": get("timing.ssta", "inclusive_s"),
        "montecarlo.run_s": get("montecarlo.run", "inclusive_s"),
        "montecarlo.self_s": get("montecarlo.run", "self_s"),
        "core.clark_s": get("core.clark", "inclusive_s"),
        "optimize.size_stage_s": get("optimize.size_stage", "inclusive_s"),
        "optimize.size_stage_calls": get("optimize.size_stage", "calls"),
        "optimize.curve_s": get("optimize.curve", "inclusive_s"),
        "api.session_run_s": get("api.session", "inclusive_s"),
        "api.self_s": get("api.session", "self_s"),
        "robust.create_pool_s": get("robust.create_pool", "inclusive_s"),
        "robust.store_get_s": get("robust.store_get", "inclusive_s"),
        "robust.store_put_s": get("robust.store_put", "inclusive_s"),
        "robust.store_gets": get("robust.store_get", "calls"),
        "robust.store_puts": get("robust.store_put", "calls"),
    }
    covered = sum(entry["self_s"] for entry in spans.values())
    values["trace.unaccounted_s"] = max(0.0, wall_s - covered)
    return values


def _without_wall_clock(data):
    """``data`` minus its ``seconds`` fields (sizing traces record wall time)."""
    if isinstance(data, dict):
        return {k: _without_wall_clock(v) for k, v in data.items() if k != "seconds"}
    if isinstance(data, list):
        return [_without_wall_clock(v) for v in data]
    return data


def report_digest(report) -> str:
    """SHA-256 of a report's canonical JSON (samples included, wall time not)."""
    text = json.dumps(_without_wall_clock(report.to_dict()), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set of this process (and reaped children), in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KB on Linux


def median(values) -> float:
    return float(statistics.median(values))


#: Best-of-two reference time on the sizing host in a fast period.
REFERENCE_S = 0.02
#: Shortest stretch of probes a timing is scaled by (about five probes).
PROBE_WINDOW_S = 0.2
#: Which part of the probe each in-process operation is scaled by, and that
#: part's time on the sizing host in a fast period.  Design points are
#: Python over small arrays; the 100k-gate studies and build also stream
#: arrays far larger than the caches.
PROBE_PART = {
    "scale.setup": "full",
    "scale.mc_study": "full",
    "scale.ssta_study": "full",
    "design.setup": "compute",
    "design.point": "compute",
    "design.sweep": "compute",
    "fanout.pool_start": "compute",
    "fanout.cold_pass": "compute",
    "fanout.resume_pass": "compute",
}
PROBE_S = {"compute": 0.001, "full": 0.0015}
#: How far each operation's time follows the host's speed: the log-log
#: slope of its wall time on the host time, as ``elasticity.py`` fits it on
#: the 2-vCPU sizing host.  In-process operations, each timing scaled by
#: the median probe while it ran: over 30 stretches of 16 s (8 minutes of
#: design sweeps) points per second were steadiest at 0.6-0.8 on the
#: compute probe (spread 0.28 unscaled, 0.04-0.05 scaled), so points use
#: 0.7; over 10 runs whole sweeps followed it with 0.55 (r = 0.91);
#: over 5 scale runs the studies followed the full probe with 0.5-0.7
#: and the build with 0.75-0.9; over 6 fan-out runs the resume passes,
#: which run in this process, followed the compute probe with 0.95
#: (r = 0.87), and the cold passes, which run in pool workers, with 0.12.
#: Server boots follow the helper reference with 0.4 (over 15 runs).  The
#: served p50 followed no host time (on probes in the generator: 0.32,
#: r = 0.15 over 7 runs).
HOST_ELASTICITY = {
    "scale.setup": 0.8,
    "scale.mc_study": 0.7,
    "scale.ssta_study": 0.5,
    "design.setup": 0.7,
    "design.point": 0.7,
    "design.sweep": 0.55,
    "fanout.pool_start": 0.0,
    "fanout.cold_pass": 0.0,
    "fanout.resume_pass": 1.0,
    "serve.boot": 0.4,
    "serve.p50": 0.0,
    "serve.p98": 0.0,
}


@dataclass
class Time:
    """One timing, as wall-clock seconds and in reference-host seconds.

    A timing scaled by host probes gets its ``scaled`` value only when its
    operation's timings are done (see :meth:`Run.resolve`).
    """

    wall: float
    scaled: float = math.nan

    def map(self, fn) -> Time:
        return Time(fn(self.wall), fn(self.scaled))


def timing(times, per: float | None = None) -> Time:
    """Median of ``times`` -- with ``per``, of the rate ``per / time`` -- both ways."""
    times = list(times)

    def one(values: list[float]) -> float:
        return median([per / v for v in values] if per is not None else values)

    return Time(one([t.wall for t in times]), one([t.scaled for t in times]))


class Reference:
    """The helper process that runs ``reference.py`` on request."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "reference.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.seconds()  # wait until it is ready, so it never overlaps timed work

    def seconds(self) -> float:
        """Best-of-two seconds of the reference, run now."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference process exited")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


class HostSampler:
    """Times a :class:`reference.Probe` every ``reference.PERIOD_S``, inside the timed work.

    A reference run after an operation says little about how fast the host
    ran during it: consecutive reference runs are barely correlated beyond
    100 ms, and the helper process may run on the other CPU, which a
    neighbour may be slowing while this one is not.  The probe runs from a
    ``SIGALRM`` handler instead, in this process, while the work runs.  It
    touches only data allocated up front, so the program's heap cannot move
    it.  Its own time is taken out of the operations it interrupts.
    """

    def __init__(self) -> None:
        self._probe = reference.Probe()
        self.ends: list[float] = []
        self.durations: dict[str, list[float]] = {"compute": [], "full": []}
        self._run()  # so a run too short for the timer still has one
        self._previous = signal.signal(signal.SIGALRM, self._run)
        signal.setitimer(signal.ITIMER_REAL, reference.PERIOD_S, reference.PERIOD_S)

    def _run(self, signum=None, frame=None) -> None:
        compute, full, end = self._probe.run()
        self.ends.append(end)
        self.durations["compute"].append(compute)
        self.durations["full"].append(full)

    def inside(self, start: float, end: float, part: str = "full") -> list[float]:
        """Times of ``part`` of the probes that ran between ``start`` and ``end``."""
        lo = bisect.bisect_left(self.ends, start)
        return self.durations[part][lo:bisect.bisect_right(self.ends, end)]

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


@dataclass
class Outcome:
    """What one workload run measured.

    The four end-to-end fields are the workload's primary numbers under the
    benchmark-wide names; ``named`` carries the same numbers (and the
    workload's other ones) under their own names.  A :class:`Time` is
    reported scaled, and unscaled as ``<name>_wall``.
    """

    setup_s: Time
    peak_rss_mb: float
    throughput_per_s: Time | float
    latency_ms: Time
    named: dict[str, tuple[Time | float, str]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)

    def end_to_end(self) -> dict[str, float]:
        values = {}
        for name in metric_units("end_to_end"):
            value = getattr(self, name)
            values[name] = value.scaled if isinstance(value, Time) else value
        return values

    def named_values(self) -> dict[str, tuple[float, str]]:
        values = {"setup_s_wall": (self.setup_s.wall, "s")}
        for name, (value, unit) in self.named.items():
            if isinstance(value, Time):
                values[name] = (value.scaled, unit)
                values[f"{name}_wall"] = (value.wall, unit)
            else:
                values[name] = (value, unit)
        return values


class Run:
    """One benchmark invocation: inputs, output checks and traced segments."""

    def __init__(self, seed: int, seconds: float, trace: bool, tiny: bool,
                 workdir: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tiny = tiny
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, list[int]] = {}  # name -> [passed, failed]
        self.recorder = tracing.Recorder()
        self.setup_segments: list[dict] = []
        self.round_segments: list[dict] = []  # traced rounds' per-layer values
        self.round_counts: list[dict] = []  # every round's exact counts
        self.untraced_walls: list[float] = []
        self.traced_walls: list[float] = []
        self.samples: dict[str, list[list[float]]] = {}  # operation -> [wall, reference] pairs
        self.reference = Reference()
        self.sampler: HostSampler | None = None
        self._pending: list[tuple[str, float, float, Time]] = []

    def sample_host(self) -> None:
        """Scale this process's timings by in-process probes from now on.

        Untraced runs only: a probe inside a traced round would land in
        whichever span is open.
        """
        if not self.trace:
            self.sampler = HostSampler()

    def close(self) -> None:
        if self.sampler is not None:
            self.sampler.close()
        self.reference.close()

    # -- operations and output checks -----------------------------------
    def op(self, count: int = 1, failed: int = 0) -> None:
        """Count operations attempted, ``failed`` of which failed or were refused."""
        self.attempted += count
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one output check; a failure counts as a failed operation."""
        self.attempted += 1
        entry = self.checks.setdefault(name, [0, 0])
        entry[0 if ok else 1] += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {name}: {detail}", file=sys.stderr)
        return ok

    def measure(self, operation: str, wall_s: float, reference_s: float | None = None) -> Time:
        """``wall_s`` both ways, scaled by a reference run made now (or ``reference_s``)."""
        if reference_s is None:
            reference_s = self.reference.seconds()
        self.samples.setdefault(operation, []).append([wall_s, reference_s])
        factor = (reference_s / REFERENCE_S) ** HOST_ELASTICITY[operation]
        return Time(wall_s, wall_s / factor)

    def measure_span(self, operation: str, start: float, end: float) -> Time:
        """The operation that ran from ``start`` to ``end`` (``perf_counter``).

        With host probes running, its wall time less theirs, scaled by
        :meth:`resolve`; otherwise as :meth:`measure`.
        """
        if self.sampler is None:
            return self.measure(operation, end - start)
        measured = Time(end - start - sum(self.sampler.inside(start, end)))
        self._pending.append((operation, start, end, measured))
        return measured

    def resolve(self) -> None:
        """Scale every timing :meth:`measure_span` left pending.

        Each timing gets its own factor: the median of the probes that ran
        while it was timed, or, for one shorter than ``PROBE_WINDOW_S``, in
        that much time around it.  The host changes speed from one second
        to the next, so a factor taken over the whole run misses what a
        single operation met; a median, unlike a mean, ignores the few
        probes a neighbour's burst slows several-fold.
        """
        for operation, start, end, measured in self._pending:
            part = PROBE_PART[operation]
            middle, half = (start + end) / 2, max(end - start, PROBE_WINDOW_S) / 2
            probes = self.sampler.inside(middle - half, middle + half, part)
            probe_s = median(probes or self.sampler.durations[part])
            factor = (probe_s / PROBE_S[part]) ** HOST_ELASTICITY[operation]
            self.samples.setdefault(operation, []).append([measured.wall, probe_s])
            measured.scaled = measured.wall / factor
        self._pending.clear()

    def timed(self, operation: str, fn, *args):
        """``(result, Time)`` of ``fn(*args)``."""
        start = time.perf_counter()
        result = fn(*args)
        return result, self.measure_span(operation, start, time.perf_counter())

    # -- traced segments -------------------------------------------------
    def traced(self, fn, *args):
        """Run ``fn`` with the layer wrappers installed; returns (result, snapshot, wall)."""
        self.recorder.reset()
        layers = tracing.install(self.recorder)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - start
            layers.uninstall()
        return result, self.recorder.snapshot(), wall

    def setup(self, operation: str, fn, repeats: int, after=None) -> tuple[list[Time], object, list]:
        """Time ``fn()`` ``repeats`` times, each a cold set-up.

        Returns ``(times, last result, notes)``; ``after(result)`` runs
        untimed after each set-up and its return values are the notes.
        Only the last result is kept alive, so set-ups do not stack memory.
        """
        times, notes, result = [], [], None
        for _ in range(repeats):
            result = None
            gc.collect()
            if self.trace:
                result, snapshot, wall = self.traced(fn)
                self.setup_segments.append(span_metrics(snapshot, wall))
                times.append(self.measure(operation, wall))
            else:
                result, elapsed = self.timed(operation, fn)
                times.append(elapsed)
            if after is not None:
                notes.append(after(result))
        return times, result, notes

    def rounds(self, one_round) -> list[dict]:
        """Repeat ``one_round(k)`` for ``--seconds``; returns untraced rounds' data.

        ``one_round`` returns a dict; its ``"counts"`` entry (program
        counters such as ``Session.stats()`` deltas) is checked for exact
        repetition together with the traced span counts.
        """
        untraced: list[dict] = []
        start = time.perf_counter()
        k = 0
        while True:
            elapsed = time.perf_counter() - start
            if self.trace:
                done = (elapsed >= self.seconds and len(self.traced_walls) >= 2
                        and len(self.untraced_walls) >= 1)
            else:
                done = elapsed >= self.seconds and untraced
            if done:
                break
            if self.trace and k % 2 == 1:
                data, snapshot, wall = self.traced(one_round, k)
                values = span_metrics(snapshot, wall)
                values.update(data.get("counts", {}))
                self.round_segments.append(values)
                self.round_counts.append(values)
                self.traced_walls.append(wall)
            else:
                round_start = time.perf_counter()
                data = one_round(k)
                wall = time.perf_counter() - round_start
                self.untraced_walls.append(wall)
                untraced.append(data)
                self.round_counts.append(dict(data.get("counts", {})))
            k += 1
        for name in EXACT:
            seen = {counts[name] for counts in self.round_counts if name in counts}
            if any(seen):
                self.check(f"exact:{name}", len(seen) == 1,
                           f"drifted across rounds: {sorted(seen)}")
        self.resolve()
        return untraced

    def layer_metrics(self) -> dict[str, float]:
        """The traced run's per-layer split (every ``per_layer`` name)."""
        values = {}
        for name in metric_units("per_layer"):
            if name in ("circuit.build_s", "circuit.compile_s"):
                source = self.setup_segments
            else:
                source = self.round_segments
            observed = [s[name] for s in source if name in s]
            value = median(observed) if observed else 0.0
            values[name] = int(value) if value.is_integer() else value
        if self.traced_walls and self.untraced_walls:
            values["trace.overhead"] = (
                median(self.traced_walls) / median(self.untraced_walls) - 1.0
            )
        return values


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def reap_children(timeout_s: float = 60.0) -> None:
    """Wait for every worker process this run started to exit."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
