"""The :class:`ExecutionPolicy`: how a sweep survives its own failures.

The policy is pure data -- a frozen, validated, JSON-round-trippable
dataclass in the same family as the experiment specs -- describing *how*
sweep points execute, never *what* they compute:

* **retries** -- ``max_retries`` extra attempts per point, separated by
  exponential backoff (``backoff_base * backoff_factor**(attempt-1)``,
  capped at ``backoff_cap``) with deterministic seed-derived jitter: the
  jitter fraction for (point, attempt) is spawned from ``retry_seed`` via
  ``numpy.random.SeedSequence``, so two runs of the same sweep back off
  identically -- replayable chaos, not wall-clock noise;
* **timeouts** -- ``point_timeout`` bounds one attempt of one point.  In
  process-parallel execution it is enforced preemptively (the stuck worker
  is abandoned and the pool replaced); in serial execution it is checked
  after the attempt returns (the interpreter cannot preempt its own frame),
  so a slow point still consumes an attempt and retries deterministically.
  The serial attempt clock covers the *evaluation* only: time the session
  spends in :class:`~repro.robust.checkpoint.CheckpointStore` read-through
  I/O (``Session.store_io_seconds``) is subtracted, so a slow persistent
  store can never time out a healthy point;
* **deadline** -- ``sweep_deadline`` bounds the whole sweep: once exceeded
  the executor stops submitting new points, abandons the ones still
  running in a process pool (their workers are killed), and returns
  partial results with every unfinished point recorded as a structured
  failure.  A serial run cannot preempt its own frame, so the point in
  progress finishes first;
* **checkpointing** -- ``checkpoint_dir`` names a content-addressed
  on-disk store (see :mod:`repro.robust.checkpoint`); completed points are
  persisted as they finish and an interrupted sweep resumes exactly from
  the points already stored.

``ExecutionPolicy()`` (all defaults) is the legacy behaviour: no retries,
no timeout, no deadline, no checkpointing.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np


@dataclass(frozen=True)
class ExecutionPolicy:
    """How sweep points run: retries, backoff, timeouts, deadline, checkpoints.

    Parameters
    ----------
    max_retries:
        Extra attempts after the first failure of a point (0 = fail fast).
    backoff_base / backoff_factor / backoff_cap:
        Exponential backoff between attempts of one point, in seconds:
        attempt ``k`` (1-based) waits ``min(cap, base * factor**(k-1))``
        before retrying.  A zero base disables waiting entirely.
    backoff_jitter:
        Fractional jitter band applied to each backoff delay: the delay is
        scaled by ``1 + jitter * u`` with ``u`` drawn deterministically in
        ``[-1, 1)`` from ``SeedSequence(retry_seed, spawn_key=(point,
        attempt))`` -- independent streams per (point, attempt), identical
        across reruns.
    retry_seed:
        Root seed of the jitter streams.
    point_timeout:
        Seconds one attempt of one point may take, or ``None`` for no
        bound.  Enforced preemptively in process pools (worker replaced),
        post-hoc in serial runs -- where the clock covers the evaluation
        only, excluding the session's checkpoint-store read-through I/O.
        On a session shared between threads (a served sweep) the serial
        clock also covers time the point waits for the session's lock
        while another thread's computation holds it.
    sweep_deadline:
        Seconds the whole sweep may take, or ``None``.  On expiry no new
        points are submitted, points still running in a process pool are
        abandoned, and every unfinished point becomes a structured deadline
        failure (serial runs finish the point in progress first).
    checkpoint_dir:
        Directory of the content-addressed checkpoint store, or ``None``
        to disable checkpointing.  ``POST /v1/sweep`` rejects a policy that
        sets it: a served sweep persists through the server's own store.
    """

    max_retries: int = 0
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 5.0
    backoff_jitter: float = 0.25
    retry_seed: int = 0
    point_timeout: float | None = None
    sweep_deadline: float | None = None
    checkpoint_dir: str | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {self.max_retries}")
        if self.backoff_base < 0.0:
            raise ValueError(f"backoff_base must be non-negative, got {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be at least 1, got {self.backoff_factor}"
            )
        if self.backoff_cap < 0.0:
            raise ValueError(f"backoff_cap must be non-negative, got {self.backoff_cap}")
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise ValueError(
                f"backoff_jitter must be in [0, 1), got {self.backoff_jitter}"
            )
        if self.retry_seed < 0:
            raise ValueError(f"retry_seed must be non-negative, got {self.retry_seed}")
        if self.point_timeout is not None and self.point_timeout <= 0.0:
            raise ValueError(
                f"point_timeout must be None or positive, got {self.point_timeout}"
            )
        if self.sweep_deadline is not None and self.sweep_deadline <= 0.0:
            raise ValueError(
                f"sweep_deadline must be None or positive, got {self.sweep_deadline}"
            )
        if self.checkpoint_dir is not None:
            object.__setattr__(self, "checkpoint_dir", str(self.checkpoint_dir))

    # -- derived behaviour ----------------------------------------------
    @property
    def max_attempts(self) -> int:
        """Total attempts a point gets (first try + retries)."""
        return self.max_retries + 1

    def backoff_delay(self, point_index: int, attempt: int) -> float:
        """Seconds to wait before retrying ``point_index`` after ``attempt``.

        Deterministic: the jitter is spawned from ``retry_seed`` along the
        ``(point_index, attempt)`` branch, so reruns (and resumed runs)
        back off identically.
        """
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        if self.backoff_base == 0.0:
            return 0.0
        delay = min(
            self.backoff_cap, self.backoff_base * self.backoff_factor ** (attempt - 1)
        )
        if self.backoff_jitter == 0.0:
            return delay
        sequence = np.random.SeedSequence(
            self.retry_seed, spawn_key=(int(point_index), int(attempt))
        )
        jitter = np.random.default_rng(sequence).uniform(-1.0, 1.0)
        return float(delay * (1.0 + self.backoff_jitter * jitter))

    def replace(self, **changes: Any) -> "ExecutionPolicy":
        """``dataclasses.replace`` convenience, mirroring the spec classes."""
        return dataclasses.replace(self, **changes)

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            f.name: getattr(self, f.name) for f in dataclasses.fields(self)
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionPolicy":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown ExecutionPolicy field(s): {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return cls(**dict(data))

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExecutionPolicy":
        return cls.from_dict(json.loads(text))
