"""A typed, stdlib-only client for the study server.

:class:`Client` wraps one keep-alive ``http.client`` connection and gives
the service the same shape as the local API: specs in, reports out --

>>> client = Client(host, port)
>>> report = client.study(StudySpec(...))          # DelayReport
>>> report = client.design(DesignStudySpec(...))   # DesignReport
>>> for event in client.sweep(ScenarioSweep(...)): # streamed points
...     ...

Unary calls return fully-typed reports (the raw envelope -- digest,
coalesced flag -- is kept on :attr:`Client.last_envelope` for callers who
care); :meth:`Client.sweep` yields typed :class:`SweepEvent` records as the
server streams NDJSON chunks, and :meth:`Client.sweep_result` folds a whole
stream back into the same :class:`~repro.api.sweep.SweepResult` the local
``run_sweep`` returns.

Structured server rejections raise :class:`ServerError` carrying the
machine-readable ``type``/``detail`` from the error envelope.

One instance owns one socket and is **not** thread-safe; concurrent load
generators use one ``Client`` per worker (see ``benchmarks/bench_serve.py``).
"""

from __future__ import annotations

import http.client
import json
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from repro.api.canonical import report_from_wire
from repro.api.spec import DesignStudySpec, ExecutionPolicy, StudySpec
from repro.serve.protocol import PROTOCOL_VERSION


class ServerError(Exception):
    """A structured rejection from the server (never a raw traceback).

    ``status`` is the HTTP status, ``error_type`` the envelope's machine
    name (``BudgetExceeded``, ``TooManyRequests``, ...) and ``detail`` its
    optional machine-readable payload.
    """

    def __init__(
        self,
        status: int,
        error_type: str,
        message: str,
        detail: Mapping[str, Any] | None = None,
    ) -> None:
        super().__init__(f"[{status} {error_type}] {message}")
        self.status = status
        self.error_type = error_type
        self.detail = dict(detail) if detail else {}


@dataclass(frozen=True)
class SweepEvent:
    """One NDJSON event off a ``/v1/sweep`` stream.

    ``kind`` is ``"start"``, ``"point"``, ``"failure"`` or ``"done"``;
    ``data`` is the decoded event object.  Typed views (:attr:`point`,
    :attr:`failure`, :attr:`trace`) lazily rebuild the API objects.
    """

    kind: str
    data: Mapping[str, Any]

    @property
    def point(self):
        """The :class:`~repro.api.sweep.SweepPoint` of a ``point`` event."""
        from repro.api.sweep import SweepPoint

        return SweepPoint.from_dict(self.data["point"])

    @property
    def failure(self):
        """The :class:`~repro.robust.failures.PointFailure` of a ``failure`` event."""
        from repro.robust.failures import PointFailure

        return PointFailure.from_dict(self.data["failure"])

    @property
    def trace(self):
        """The merged :class:`~repro.robust.failures.ExecutionTrace` of ``done``."""
        from repro.robust.failures import ExecutionTrace

        return ExecutionTrace.from_dict(self.data["trace"])


#: Failures that mean the reused keep-alive socket was already dead when
#: this exchange started (server restarted, idle connection reaped): nothing
#: reached the server, so retrying cannot double-submit work.
_STALE_SOCKET_ERRORS = (
    http.client.BadStatusLine,  # includes RemoteDisconnected
    ConnectionResetError,
    ConnectionAbortedError,
    BrokenPipeError,
)


class Client:
    """One keep-alive connection to a :class:`~repro.serve.server.StudyServer`."""

    def __init__(self, host: str, port: int, timeout: float | None = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.last_envelope: dict[str, Any] | None = None
        self._conn: http.client.HTTPConnection | None = None
        self._exchanged = False  #: current connection completed an exchange

    # -- plumbing --------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._exchanged = False
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        self._exchanged = False

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request(
        self, method: str, path: str, payload: Any | None = None
    ) -> http.client.HTTPResponse:
        conn = self._connection()
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        reused = self._exchanged
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
        except (http.client.HTTPException, ConnectionError, OSError) as exc:
            self.close()
            # Retry only when a resubmission cannot double work server-side:
            # idempotent GETs, or a stale keep-alive socket the server closed
            # before this exchange started.  A POST that timed out or died
            # mid-exchange may already be computing -- surface the error
            # rather than silently submitting the same spec twice.
            if method != "GET" and not (
                reused and isinstance(exc, _STALE_SOCKET_ERRORS)
            ):
                raise
            conn = self._connection()
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
        self._exchanged = True
        return response

    def _json_call(self, method: str, path: str, payload: Any | None = None) -> Any:
        response = self._request(method, path, payload)
        data = json.loads(response.read().decode("utf-8"))
        if response.status >= 400:
            raise _to_server_error(response.status, data)
        return data

    # -- endpoints -------------------------------------------------------
    def health(self) -> dict[str, Any]:
        """``GET /v1/health``; verifies the protocol version matches."""
        payload = self._json_call("GET", "/v1/health")
        if payload.get("protocol") != PROTOCOL_VERSION:
            raise ServerError(
                200,
                "ProtocolMismatch",
                f"server speaks protocol {payload.get('protocol')}, "
                f"client speaks {PROTOCOL_VERSION}",
            )
        return payload

    def stats(self) -> dict[str, Any]:
        """``GET /v1/stats``: server, session and budget counters."""
        return self._json_call("GET", "/v1/stats")

    def study(self, spec: StudySpec):
        """Characterise one analysis study; returns its ``DelayReport``."""
        return self._unary("/v1/study", spec)

    def design(self, spec: DesignStudySpec):
        """Run one design study; returns its ``DesignReport``."""
        return self._unary("/v1/design", spec)

    def run(self, spec: StudySpec | DesignStudySpec):
        """Dispatch on spec type -- the remote mirror of ``Session.run``."""
        if isinstance(spec, DesignStudySpec):
            return self.design(spec)
        return self.study(spec)

    def _unary(self, path: str, spec):
        envelope = self._json_call("POST", path, spec.to_dict())
        self.last_envelope = envelope
        return report_from_wire(
            {"kind": "design" if envelope["kind"] == "design" else "delay",
             "data": envelope["report"]}
        )

    def sweep(
        self,
        sweep,
        n_jobs: int | None = None,
        policy: ExecutionPolicy | None = None,
        chunk: int | None = None,
    ) -> Iterator[SweepEvent]:
        """``POST /v1/sweep``: yield :class:`SweepEvent` as the server streams.

        ``sweep`` is a :class:`~repro.api.sweep.ScenarioSweep` (or any
        object with ``base``/``axes``/``mode``/``seed_policy`` attributes).
        The iterator is driven by the socket: each ``next()`` blocks until
        the server finishes another point.
        """
        from repro.api.canonical import spec_to_wire

        payload: dict[str, Any] = {
            "base": spec_to_wire(sweep.base),
            "axes": {path: list(values) for path, values in dict(sweep.axes).items()},
            "mode": sweep.mode,
            "seed_policy": sweep.seed_policy,
        }
        if n_jobs is not None:
            payload["n_jobs"] = n_jobs
        if policy is not None:
            payload["policy"] = policy.to_dict()
        if chunk is not None:
            payload["chunk"] = chunk
        response = self._request("POST", "/v1/sweep", payload)
        if response.status >= 400:
            raise _to_server_error(
                response.status, json.loads(response.read().decode("utf-8"))
            )
        # http.client undoes the chunked framing; readline gives NDJSON lines.
        try:
            while True:
                line = response.readline()
                if not line:
                    break
                event = json.loads(line.decode("utf-8"))
                if event.get("event") == "error":
                    # The server hit a mid-stream failure after the head was
                    # out; it ends the stream with a structured error event.
                    raise _to_server_error(500, event)
                yield SweepEvent(kind=event["event"], data=event)
        finally:
            # A stream always closes the connection server-side.
            self.close()

    def sweep_result(
        self,
        sweep,
        n_jobs: int | None = None,
        policy: ExecutionPolicy | None = None,
        chunk: int | None = None,
    ):
        """Consume a whole stream into a local-identical ``SweepResult``."""
        from repro.api.sweep import SweepResult

        points, failures, trace = [], [], None
        for event in self.sweep(sweep, n_jobs=n_jobs, policy=policy, chunk=chunk):
            if event.kind == "point":
                points.append(event.point)
            elif event.kind == "failure":
                failures.append(event.failure)
            elif event.kind == "done":
                trace = event.trace
        return SweepResult(
            points=tuple(points), failures=tuple(failures), trace=trace
        )


def _to_server_error(status: int, payload: Any) -> ServerError:
    if isinstance(payload, Mapping) and isinstance(payload.get("error"), Mapping):
        error = payload["error"]
        return ServerError(
            status,
            str(error.get("type", "Unknown")),
            str(error.get("message", "")),
            error.get("detail"),
        )
    return ServerError(status, "Unknown", f"unrecognised error payload: {payload!r}")
