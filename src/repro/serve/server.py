"""The asyncio study server: timing analysis and yield-driven design as a service.

:class:`StudyServer` turns the Study/Design API into a network service.
Every endpoint accepts the same frozen, JSON-round-trippable specs the
local API uses -- the README's "storage or RPC" promise made real:

``POST /v1/study``
    A :class:`~repro.api.spec.StudySpec` JSON body; answers with the
    :class:`~repro.api.backends.DelayReport` (plus the spec's content
    digest and whether the request coalesced onto an in-flight duplicate).
``POST /v1/design``
    A :class:`~repro.api.spec.DesignStudySpec` JSON body; answers with the
    :class:`~repro.api.design.DesignReport`.
``POST /v1/sweep``
    ``{"base": <tagged spec>, "axes": {...}, "mode", "seed_policy",
    "n_jobs", "policy", "chunk"}``; answers with a chunked NDJSON stream --
    one event per completed :class:`~repro.api.sweep.SweepPoint` (and per
    structured :class:`~repro.robust.failures.PointFailure`), then a final
    ``done`` event carrying the merged execution trace -- so clients see
    points as they finish, not when the sweep ends.
``GET /v1/health`` / ``GET /v1/stats``
    Liveness, and server + session + budget counters.

Three production concerns shape the implementation:

* **Content-addressed request coalescing.**  Each admitted study/design
  spec is resolved against the session (deferred seeds made concrete) and
  keyed by :func:`~repro.api.canonical.spec_digest` -- the *same* digest
  the checkpoint store uses.  A request whose digest is already in flight
  awaits the existing computation instead of starting another: N identical
  concurrent submissions cost exactly one characterisation.  Computation
  ownership lives in a detached task, so an impatient client disconnecting
  never kills work other clients are waiting on.  Sequential duplicates are
  the session report cache's job (and the optional
  :class:`~repro.robust.checkpoint.CheckpointStore` read-through makes
  them survive restarts).
* **A bounded worker bridge.**  Handlers never run NumPy on the event
  loop: computation is pushed to a thread pool, and the shared session
  serialises its computations on its own lock (its caches are plain
  dicts), taken per spec in :meth:`~repro.api.session.Session.run`.
  Request concurrency therefore buys coalescing, caching and I/O overlap;
  *compute* fan-out comes from the sweep executor's process pool
  (``n_jobs``), and a sweep's retry backoff, checkpoint I/O and pool waits
  run outside the lock, so unary requests are served meanwhile.
* **Backpressure and graceful drain.**  Admission is checked against
  :class:`~repro.serve.budgets.ServeBudgets` (sampling caps per tier, sweep
  size, ``max_in_flight``); excess load gets structured 429/413 envelopes
  immediately.  Sweep sizes are computed from the axis lengths *before* the
  sweep is materialised -- a 1 KB body describing a combinatorially huge
  grid is rejected without building a single point -- and a failure after a
  stream's head has been written ends the stream with a structured
  ``error`` event (never a second response head mid-body).  :meth:`StudyServer.shutdown` stops accepting, answers new
  requests on kept-alive connections with 503, and drains in-flight
  computations to completion before returning.

:class:`BackgroundServer` runs the whole thing on a daemon thread with its
own event loop -- what the tests, the benchmark and embedding applications
use.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.api.backends import get_backend
from repro.api.canonical import resolved_store_spec, spec_digest, spec_from_wire
from repro.api.design import check_design
from repro.api.session import Session
from repro.api.spec import DesignStudySpec, ExecutionPolicy, StudySpec
from repro.robust.executor import SweepTask, execute_tasks
from repro.robust.failures import ExecutionTrace
from repro.serve.budgets import BudgetExceeded, ServeBudgets
from repro.serve.protocol import (
    MAX_HEADER_BYTES,
    PROTOCOL_VERSION,
    HttpRequest,
    ProtocolError,
    chunk,
    error_payload,
    event_line,
    json_response,
    last_chunk,
    read_request,
    stream_head,
)


@dataclass(frozen=True)
class ServeConfig:
    """How the server listens and schedules work.

    Parameters
    ----------
    host / port:
        Listen address; port 0 binds an ephemeral port (read it back from
        :attr:`StudyServer.port` -- what the tests and benchmark do).
    workers:
        Threads in the compute bridge.  The shared session serialises on
        its lock, so this mainly bounds how many requests can be mid-flight
        through parsing/serialisation at once; sweep process fan-out is
        per-request (``n_jobs``).
    budgets:
        Admission-time request budgets (see
        :class:`~repro.serve.budgets.ServeBudgets`).
    stream_chunk:
        Points per executor batch in streamed sweeps; ``None`` picks 1 for
        serial sweeps (true per-point streaming) and ``4 * n_jobs`` for
        parallel ones (amortises pool spin-up per batch).
    drain_timeout:
        Seconds :meth:`StudyServer.shutdown` waits for in-flight work.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 8
    budgets: ServeBudgets = field(default_factory=ServeBudgets)
    stream_chunk: int | None = None
    drain_timeout: float = 60.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.stream_chunk is not None and self.stream_chunk < 1:
            raise ValueError(
                f"stream_chunk must be None or >= 1, got {self.stream_chunk}"
            )
        if self.drain_timeout <= 0.0:
            raise ValueError(
                f"drain_timeout must be positive, got {self.drain_timeout}"
            )


@dataclass
class ServerStats:
    """Mutable request counters, reported by ``/v1/stats``.

    ``coalesced`` counts requests that awaited an in-flight duplicate
    instead of computing; ``computed`` counts computations the server
    actually ran (a request served from the session's report cache still
    counts here -- the cache hit is visible in the *session* stats).
    """

    requests: int = 0
    computed: int = 0
    coalesced: int = 0
    streams: int = 0
    points_streamed: int = 0
    rejected_budget: int = 0
    rejected_busy: int = 0
    rejected_draining: int = 0
    rejected_invalid: int = 0
    errors: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "computed": self.computed,
            "coalesced": self.coalesced,
            "streams": self.streams,
            "points_streamed": self.points_streamed,
            "rejected_budget": self.rejected_budget,
            "rejected_busy": self.rejected_busy,
            "rejected_draining": self.rejected_draining,
            "rejected_invalid": self.rejected_invalid,
            "errors": self.errors,
        }


class _Rejection(Exception):
    """Internal: a request mapped to a structured HTTP rejection."""

    def __init__(
        self,
        status: int,
        error_type: str,
        message: str,
        detail: Mapping[str, Any] | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.payload = error_payload(error_type, message, detail)


class StudyServer:
    """One shared-session asyncio HTTP server over the Study/Design API."""

    def __init__(
        self,
        session: Session | None = None,
        config: ServeConfig | None = None,
    ) -> None:
        self.session = session if session is not None else Session()
        self.config = config if config is not None else ServeConfig()
        self.stats = ServerStats()
        self.host: str | None = None
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-serve"
        )
        self._inflight: dict[str, asyncio.Future] = {}
        self._active = 0  #: requests currently computing (coalesced waiters excluded)
        self._handlers: set[asyncio.Task] = set()
        self._busy: set[asyncio.Task] = set()  #: handlers mid-request
        self._owners: set[asyncio.Task] = set()
        self._draining = False
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener (resolving an ephemeral port) without blocking."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._on_connection,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_HEADER_BYTES,
        )
        address = self._server.sockets[0].getsockname()
        self.host, self.port = address[0], address[1]
        self._started_at = time.monotonic()

    async def serve_forever(self) -> None:
        """Run until cancelled (``python -m repro.serve`` uses this)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting and (by default) drain in-flight work.

        New requests on kept-alive connections are answered with a
        structured 503 while the drain runs; in-flight computations and
        streams finish normally (bounded by ``config.drain_timeout``).
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            # Wait for in-flight *work* -- computations and handlers that
            # are mid-request -- not for idle keep-alive connections, which
            # would otherwise stall the drain for its full timeout.
            loop = asyncio.get_running_loop()
            deadline = loop.time() + self.config.drain_timeout
            while loop.time() < deadline:
                working = {
                    task
                    for task in self._busy | self._owners
                    if task is not asyncio.current_task() and not task.done()
                }
                if not working and self._active == 0:
                    break
                await asyncio.sleep(0.02)
        leftover = [
            task
            for task in self._handlers | self._owners
            if task is not asyncio.current_task() and not task.done()
        ]
        for task in leftover:
            task.cancel()
        if leftover:
            # Retrieve the CancelledErrors (idle keep-alive handlers die
            # here); an unawaited cancelled task logs a spurious traceback
            # at GC time.
            await asyncio.gather(*leftover, return_exceptions=True)
        self._executor.shutdown(wait=drain, cancel_futures=not drain)

    @property
    def in_flight(self) -> int:
        """Requests currently computing (coalesced waiters not counted)."""
        return self._active

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, self.config.budgets.max_body_bytes
                    )
                except ProtocolError as exc:
                    self.stats.rejected_invalid += 1
                    writer.write(
                        json_response(
                            exc.status,
                            error_payload(exc.error_type, str(exc)),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                if task is not None:
                    self._busy.add(task)
                try:
                    must_close = await self._dispatch(request, writer)
                    await writer.drain()
                finally:
                    if task is not None:
                        self._busy.discard(task)
                if must_close or not request.keep_alive or self._draining:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            # Shutdown cancelled an idle keep-alive handler.  Finish the
            # task normally: asyncio.streams' done-callback calls
            # task.exception() and would log a cancelled task as an
            # unhandled 'Exception in callback' traceback.
            pass
        finally:
            if task is not None:
                self._handlers.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> bool:
        """Route one request; returns True when the connection must close."""
        self.stats.requests += 1
        route = (request.method, request.path)
        try:
            if route == ("GET", "/v1/health"):
                writer.write(json_response(200, self._health_payload()))
                return False
            if route == ("GET", "/v1/stats"):
                writer.write(json_response(200, self._stats_payload()))
                return False
            if route == ("POST", "/v1/study"):
                writer.write(await self._handle_unary(request, kind="study"))
                return False
            if route == ("POST", "/v1/design"):
                writer.write(await self._handle_unary(request, kind="design"))
                return False
            if route == ("POST", "/v1/sweep"):
                return await self._handle_sweep(request, writer)
            if request.path in ("/v1/health", "/v1/stats", "/v1/study",
                                "/v1/design", "/v1/sweep"):
                raise _Rejection(
                    405, "MethodNotAllowed",
                    f"{request.method} is not supported on {request.path}",
                )
            raise _Rejection(404, "NotFound", f"unknown endpoint {request.path}")
        except _Rejection as rejection:
            writer.write(json_response(rejection.status, rejection.payload))
            return False
        except ProtocolError as exc:
            self.stats.rejected_invalid += 1
            writer.write(
                json_response(exc.status, error_payload(exc.error_type, str(exc)))
            )
            return False
        except (ConnectionResetError, BrokenPipeError):
            raise  # dead socket: nothing to answer, _on_connection cleans up
        except Exception as exc:  # noqa: BLE001 - last-resort request guard
            self.stats.errors += 1
            writer.write(
                json_response(
                    500,
                    error_payload(
                        "InternalError", f"{type(exc).__name__}: {exc}"
                    ),
                )
            )
            return False

    # ------------------------------------------------------------------
    # Unary endpoints: /v1/study and /v1/design
    # ------------------------------------------------------------------
    def _parse_spec(self, request: HttpRequest, kind: str):
        payload = request.json()
        if not isinstance(payload, Mapping):
            raise _Rejection(
                400, "InvalidSpec", "request body must be a JSON object spec"
            )
        cls = StudySpec if kind == "study" else DesignStudySpec
        try:
            spec = cls.from_dict(payload)
            _check_names(spec)
            return spec
        except (ValueError, TypeError, KeyError) as exc:
            self.stats.rejected_invalid += 1
            raise _Rejection(
                400, "InvalidSpec", f"not a valid {cls.__name__}: {exc}"
            ) from None

    def _admit(self) -> None:
        """Backpressure gate for one new computation."""
        if self._draining:
            self.stats.rejected_draining += 1
            raise _Rejection(
                503, "ServerDraining", "server is draining; resubmit elsewhere"
            )
        if self._active >= self.config.budgets.max_in_flight:
            self.stats.rejected_busy += 1
            raise _Rejection(
                429,
                "TooManyRequests",
                f"{self._active} requests already in flight "
                f"(max_in_flight={self.config.budgets.max_in_flight})",
                detail={
                    "limit": self.config.budgets.max_in_flight,
                    "in_flight": self._active,
                },
            )

    async def _handle_unary(self, request: HttpRequest, kind: str) -> bytes:
        spec = self._parse_spec(request, kind)
        try:
            self.config.budgets.check_spec(spec)
        except BudgetExceeded as exc:
            self.stats.rejected_budget += 1
            raise _Rejection(
                413, "BudgetExceeded", str(exc), detail=exc.detail()
            ) from None
        resolved = resolved_store_spec(spec, self.session)
        digest = spec_digest(resolved)

        future = self._inflight.get(digest)
        if future is not None:
            self.stats.coalesced += 1
            coalesced = True
        else:
            self._admit()
            coalesced = False
            future = self._begin_compute(digest, resolved)
        try:
            report = await asyncio.shield(future)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - computation failed
            self.stats.errors += 1
            raise _Rejection(
                500,
                "ComputeError",
                f"{type(exc).__name__}: {exc}",
                detail={"digest": digest},
            ) from None
        return json_response(
            200,
            {
                "kind": kind,
                "digest": digest,
                "coalesced": coalesced,
                "report": report.to_dict(),
            },
        )

    def _begin_compute(self, digest: str, resolved) -> asyncio.Future:
        """Start (and own) the computation for a digest in a detached task.

        Ownership is deliberately *not* the requesting handler: if that
        client disconnects, coalesced waiters still get their result.  The
        in-flight entry is removed only after the future resolves, so every
        duplicate arriving in between coalesces onto it.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        # A fully-coalesced request set can be abandoned wholesale; consume
        # the exception so abandoned failures never warn at GC time.
        future.add_done_callback(
            lambda f: None if f.cancelled() else f.exception()
        )
        self._inflight[digest] = future
        self._active += 1

        async def owner() -> None:
            try:
                report = await loop.run_in_executor(
                    self._executor, self._compute, resolved
                )
            except Exception as exc:  # noqa: BLE001 - forwarded to waiters
                if not future.done():
                    future.set_exception(exc)
            else:
                self.stats.computed += 1
                if not future.done():
                    future.set_result(report)
            finally:
                self._inflight.pop(digest, None)
                self._active -= 1

        task = asyncio.ensure_future(owner())
        self._owners.add(task)
        task.add_done_callback(self._owners.discard)
        return future

    def _compute(self, spec):
        """Worker-thread entrypoint: one spec through the shared session."""
        return self.session.run(spec)

    # ------------------------------------------------------------------
    # Streaming endpoint: /v1/sweep
    # ------------------------------------------------------------------
    def _parse_sweep(self, request: HttpRequest):
        """Parse and budget-check a sweep request WITHOUT materialising it.

        The prospective point count is computed from the axis lengths alone
        (product for grid mode, axis length for zip), so a tiny body that
        describes a combinatorially huge grid is rejected with a structured
        413 before a single point spec -- let alone the full task list -- is
        built.  Construction itself happens later, off the event loop, in
        :meth:`_build_tasks`.
        """
        payload = request.json()
        if not isinstance(payload, Mapping) or "base" not in payload:
            raise _Rejection(
                400,
                "InvalidSweep",
                'sweep body must be {"base": <tagged spec>, "axes": {...}, ...}',
            )
        try:
            base = spec_from_wire(payload["base"])
            axes = payload.get("axes")
            if not isinstance(axes, Mapping):
                raise ValueError("axes must be a mapping of path -> values")
            mode = payload.get("mode", "grid")
            if mode not in ("grid", "zip"):
                raise ValueError(f"mode must be 'grid' or 'zip', got {mode!r}")
            seed_policy = payload.get("seed_policy", "spawn")
            n_points = _sweep_point_count(axes, mode)
            if "shards" in payload:
                # Fail an old client loudly rather than run it serial.
                raise ValueError(
                    "'shards' is not a sweep field; ask for process fan-out "
                    "with 'n_jobs'"
                )
            n_jobs = payload.get("n_jobs")
            if n_jobs is not None:
                n_jobs = int(n_jobs)
            policy = (
                ExecutionPolicy.from_dict(payload["policy"])
                if payload.get("policy") is not None
                else ExecutionPolicy()
            )
            if policy.checkpoint_dir is not None:
                raise ValueError(
                    "'policy.checkpoint_dir' is not accepted over the network; "
                    "the server persists reports through its --store"
                )
            chunk_size = payload.get("chunk")
            if chunk_size is not None:
                chunk_size = max(1, int(chunk_size))
        except (ValueError, TypeError, KeyError) as exc:
            self.stats.rejected_invalid += 1
            raise _Rejection(
                400, "InvalidSweep", f"not a valid sweep request: {exc}"
            ) from None
        try:
            self.config.budgets.check_sweep_size(n_points, n_jobs)
        except BudgetExceeded as exc:
            self.stats.rejected_budget += 1
            raise _Rejection(
                413, "BudgetExceeded", str(exc), detail=exc.detail()
            ) from None
        return base, axes, mode, seed_policy, n_jobs, policy, chunk_size

    def _build_tasks(self, base, axes, mode: str, seed_policy: str):
        """Worker-thread entrypoint: materialise an admitted sweep.

        Point-spec derivation (and per-point SeedSequence spawning) is CPU
        work proportional to the sweep size; running it here keeps the
        event loop responsive while a large-but-within-budget sweep builds.
        Every point passes the same name checks as a ``/v1/study`` or
        ``/v1/design`` body, so an unknown backend, optimizer, sizer or
        sizer option fails the request before any point computes.
        """
        from repro.api.sweep import ScenarioSweep

        sweep = ScenarioSweep(base, axes, mode=mode, seed_policy=seed_policy)
        tasks = sweep.tasks(self.session)
        for task in tasks:
            _check_names(task.spec)
        return tasks

    def _sweep_chunk_size(self, n_jobs: int | None, override: int | None) -> int:
        if override is not None:
            return override
        if self.config.stream_chunk is not None:
            return self.config.stream_chunk
        if n_jobs is not None and n_jobs > 1:
            return 4 * n_jobs  # amortise pool spin-up per streamed batch
        return 1  # serial: true per-point streaming

    def _run_batch(self, tasks: list[SweepTask], n_jobs, policy):
        """Worker-thread entrypoint: one streamed batch through the executor.

        ``execute_tasks`` with ``n_jobs > 1`` fans out to its own process
        pool (sweep parallelism lives in the child processes, not in racing
        session threads).  A serial batch takes the session's lock once per
        point, inside :meth:`~repro.api.session.Session.run`, so retry
        backoff, checkpoint I/O and pool waits never hold it.
        """
        return execute_tasks(tasks, self.session, policy=policy, n_jobs=n_jobs)

    async def _handle_sweep(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> bool:
        """Stream a sweep as NDJSON; returns True (connection closes after).

        The stream is chunk-framed, so clients could keep the connection,
        but closing after a stream keeps the drain logic trivial; clients
        reconnect cheaply.
        """
        base, axes, mode, seed_policy, n_jobs, policy, chunk_override = (
            self._parse_sweep(request)
        )
        self._admit()

        self._active += 1
        loop = asyncio.get_running_loop()
        try:
            try:
                tasks = await loop.run_in_executor(
                    self._executor, self._build_tasks, base, axes, mode, seed_policy
                )
            except (ValueError, TypeError, KeyError) as exc:
                self.stats.rejected_invalid += 1
                raise _Rejection(
                    400, "InvalidSweep", f"not a valid sweep request: {exc}"
                ) from None
            try:
                self.config.budgets.check_sweep([t.spec for t in tasks], n_jobs)
            except BudgetExceeded as exc:
                self.stats.rejected_budget += 1
                raise _Rejection(
                    413, "BudgetExceeded", str(exc), detail=exc.detail()
                ) from None

            self.stats.streams += 1
            batch = self._sweep_chunk_size(n_jobs, chunk_override)
            merged = ExecutionTrace(n_jobs=n_jobs, n_points=len(tasks))
            started = time.monotonic()
            try:
                writer.write(stream_head(keep_alive=False))
                writer.write(
                    chunk(
                        event_line(
                            {
                                "event": "start",
                                "n_points": len(tasks),
                                "chunk": batch,
                                "protocol": PROTOCOL_VERSION,
                            }
                        )
                    )
                )
                await writer.drain()
                for offset in range(0, len(tasks), batch):
                    points, failures, trace = await loop.run_in_executor(
                        self._executor,
                        self._run_batch,
                        tasks[offset : offset + batch],
                        n_jobs,
                        policy,
                    )
                    merged.merge(trace)
                    for point in points:
                        self.stats.points_streamed += 1
                        writer.write(
                            chunk(
                                event_line(
                                    {"event": "point", "point": point.to_dict()}
                                )
                            )
                        )
                    for failure in failures:
                        writer.write(
                            chunk(
                                event_line(
                                    {"event": "failure", "failure": failure.to_dict()}
                                )
                            )
                        )
                    await writer.drain()
                merged.elapsed = time.monotonic() - started
                writer.write(
                    chunk(event_line({"event": "done", "trace": merged.to_dict()}))
                )
                writer.write(last_chunk())
                await writer.drain()
            except asyncio.CancelledError:
                raise
            except (ConnectionResetError, BrokenPipeError):
                raise  # client went away mid-stream; _on_connection handles
            except Exception as exc:  # noqa: BLE001 - mid-stream failure
                # The head is already out: a second HTTP response here would
                # corrupt the chunk framing.  Finish the stream with a
                # structured error event and terminator instead; the
                # connection closes either way (return True below).
                self.stats.errors += 1
                try:
                    writer.write(
                        chunk(
                            event_line(
                                {
                                    "event": "error",
                                    **error_payload(
                                        "ComputeError",
                                        f"{type(exc).__name__}: {exc}",
                                    ),
                                }
                            )
                        )
                    )
                    writer.write(last_chunk())
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    pass
        finally:
            self._active -= 1
        return True

    # ------------------------------------------------------------------
    # Introspection endpoints
    # ------------------------------------------------------------------
    def _health_payload(self) -> dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "protocol": PROTOCOL_VERSION,
            "uptime_s": time.monotonic() - self._started_at,
            "in_flight": self._active,
        }

    def _stats_payload(self) -> dict[str, Any]:
        return {
            "protocol": PROTOCOL_VERSION,
            "uptime_s": time.monotonic() - self._started_at,
            "in_flight": self._active,
            "inflight_digests": len(self._inflight),
            "server": self.stats.to_dict(),
            "session": self.session.stats(),
            "budgets": self.config.budgets.to_dict(),
        }


def _sweep_point_count(axes: Mapping[str, Any], mode: str) -> int:
    """Prospective sweep size from the axis lengths alone.

    Grid mode multiplies, zip mode pairs elementwise; either way the count
    is known before any point spec exists, which is what lets the server
    budget-check a sweep without materialising it.
    """
    lengths = []
    for path, values in axes.items():
        if not isinstance(values, list):
            raise ValueError(f"axis {path!r} must be a JSON array of values")
        lengths.append(len(values))
    if mode == "zip":
        return max(lengths, default=0)
    count = 1
    for length in lengths:
        count *= length
    return count


def _check_names(spec: StudySpec | DesignStudySpec) -> None:
    """Resolve the registry names a spec uses; an unknown one raises.

    A study names its analysis backend; a design, its optimizer and sizer.
    """
    if isinstance(spec, DesignStudySpec):
        check_design(spec.design)
    else:
        get_backend(spec.analysis.backend)


class BackgroundServer:
    """A :class:`StudyServer` on a daemon thread with its own event loop.

    Usage (tests, benchmarks, embedding)::

        with BackgroundServer(config=ServeConfig()) as server:
            client = Client(server.host, server.port)
            ...

    ``stop`` (or leaving the ``with`` block) drains in-flight work through
    :meth:`StudyServer.shutdown` before joining the thread.
    """

    def __init__(
        self,
        session: Session | None = None,
        config: ServeConfig | None = None,
    ) -> None:
        self.server = StudyServer(session=session, config=config)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._startup_error: BaseException | None = None

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "BackgroundServer":
        if self._thread is not None:
            raise RuntimeError("background server already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as exc:  # noqa: BLE001 - reported to starter
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()

    def stop(self, drain: bool = True, timeout: float | None = None) -> None:
        """Drain (optionally) and stop the server, then join the thread."""
        if self._thread is None or self._loop is None or self._stop is None:
            return
        if self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(
                self.server.shutdown(drain=drain), self._loop
            ).result(timeout if timeout is not None else None)
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout)
        self._thread = None

    # -- conveniences ----------------------------------------------------
    @property
    def host(self) -> str:
        assert self.server.host is not None, "server not started"
        return self.server.host

    @property
    def port(self) -> int:
        assert self.server.port is not None, "server not started"
        return self.server.port

    @property
    def session(self) -> Session:
        return self.server.session

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
