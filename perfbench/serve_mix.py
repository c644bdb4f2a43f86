"""serve_mix: the study server under open-loop unary load plus streamed sweeps.

The server runs as ``python -m repro.serve`` in its own process (the traced
run launches it through ``serve_traced.py`` instead).  The generator is this
single asyncio process with at most ``nproc`` keep-alive connections.
Generator and server run on one CPU: spread over two shared vCPUs, the
server's threads and the generator met each other on either CPU by
chance, and the median latency of ten runs spread 0.29 of its value
(5.8-11.8 ms); on one CPU ten runs read 4.1-4.8 ms (spread 0.06).

Unary ``POST /v1/study`` requests are due on a fixed-rate open-loop schedule
of *bursts*: one unique study, or two identical studies from a small hot
set, due at the same instant.  One connection only sends unary requests.
Another alternates: it streams one ``POST /v1/sweep``, then sends unary
requests for a turn.  During its turns both halves of a hot burst are
in flight together, so the server can coalesce them; during its sweeps the
second half waits behind the first and is served from the session's cache.
Latency is timed from each request's due time, so a stall also charges the
requests queued behind it.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time

import numpy as np

from common import Outcome, Run, Time, median, metric_units, nproc, span_metrics, timing

#: Unary bursts per second the schedule offers: 36 requests per second,
#: so a 16 s window holds ~580 requests, eleven of them beyond p98 (the
#: highest percentile reported).  At 65 requests per second the server had
#: too little idle time on a slow host: the median latency of runs ranged
#: 8-35 ms, against 5-6 ms at this rate.
BURST_RATE_PER_S = 30.0
#: A unary request is good when answered 200 within this latency.
LATENCY_LIMIT_MS = 250.0
#: Hot specs, and the exact share of bursts drawn from them.  Eight hot
#: specs, as in the duplicate-heavy mix of ``benchmarks/bench_serve.py``
#: (1000 submissions over 8 specs), blended 1:2 with its unique-heavy mix
#: (every spec distinct): a fifth of the bursts, two requests each, make a
#: third of the requests hot.  With half the requests hot, the median fell
#: on the boundary between fast cached answers and computed ones and moved
#: with each seed's hot share; at a third it lies among the computed ones.
HOT_SET = 8
HOT_BURST_SHARE = 1 / 5
#: Seconds the alternating connection sends unary requests between two
#: sweeps.  One 12-point sweep takes 0.1-0.2 s, so the stream keeps the
#: server a tenth to a fifth busy; back-to-back sweeps left it no idle time.
UNARY_TURN_S = 1.0
#: Served reports re-computed locally to compare byte for byte.
LOCAL_SAMPLE = 8
SERVER_BOOTS = 5
#: Seconds of the mix driven, unmeasured, before the measured window.
WARM_S = 3.0

HERE = os.path.dirname(os.path.abspath(__file__))


def _canonical(data) -> str:
    return json.dumps(data, sort_keys=True)


class Server:
    """One ``repro.serve`` process; ``boot_s`` is spawn to first 200."""

    def __init__(self, seed: int, trace_out: str | None = None) -> None:
        argv = [sys.executable]
        if trace_out is None:
            argv += ["-m", "repro.serve"]
        else:
            argv += [os.path.join(HERE, "serve_traced.py"), trace_out]
        argv += ["--port", "0", "--seed", str(seed)]
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        try:
            line = self.proc.stdout.readline()
            match = re.search(r"http://([^:/\s]+):(\d+)", line)
            if match is None:
                raise RuntimeError(f"server did not report its address: {line!r}")
            self.host, self.port = match.group(1), int(match.group(2))
            if self.get("/v1/health")["status"] != "ok":
                raise RuntimeError("server is not healthy")
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - start

    def get(self, path: str) -> dict:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
            if response.status != 200:
                raise RuntimeError(f"GET {path} answered {response.status}")
            return json.loads(body)
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Interrupt (the server drains), then wait for the process to exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
#: Pipeline shapes ``(n_stages, logic_depth)`` and backends unary studies use.
SHAPES = tuple((stages, depth) for stages in range(2, 7) for depth in range(3, 9))
BACKENDS = ("ssta", "analytic")


def _study(rng: np.random.Generator, shape=None, backend=None) -> str:
    """One unary study body; the seed makes it unique."""
    from repro.api import AnalysisSpec, PipelineSpec, StudySpec, VariationSpec

    n_stages, depth = shape or SHAPES[int(rng.integers(len(SHAPES)))]
    spec = StudySpec(
        pipeline=PipelineSpec(n_stages=n_stages, logic_depth=depth),
        variation=VariationSpec.combined(),
        analysis=AnalysisSpec(backend=backend or str(rng.choice(BACKENDS)),
                              n_samples=100, seed=int(rng.integers(1, 2**31))),
    )
    return json.dumps(spec.to_dict())


def make_bursts(rng: np.random.Generator, hot: list[str], n: int) -> list[list[str]]:
    """``n`` bursts in seeded order: a fixed share are two copies of a
    hot-set body, the rest one unique body each."""
    hot_bursts = set(rng.permutation(n)[: round(n * HOT_BURST_SHARE)].tolist())
    bursts = []
    for i in range(n):
        if i in hot_bursts:
            body = hot[int(rng.integers(len(hot)))]
            bursts.append([body, body])
        else:
            bursts.append([_study(rng)])
    return bursts


def warm_requests(rng: np.random.Generator, hot: list[str]) -> list[str]:
    """The hot set plus every shape and backend once, to fill the server caches."""
    return hot + [
        _study(rng, shape, backend) for shape in SHAPES for backend in BACKENDS
    ]


def make_stream(rng: np.random.Generator) -> dict:
    """One streamed sweep request: 12 small points over two backends."""
    from repro.api import AnalysisSpec, PipelineSpec, StudySpec, VariationSpec, spec_to_wire

    base = StudySpec(
        pipeline=PipelineSpec(logic_depth=8),
        variation=VariationSpec.combined(),
        analysis=AnalysisSpec(n_samples=100, seed=int(rng.integers(1, 2**31))),
    )
    axes = {
        "analysis.backend": ["ssta", "analytic"],
        "pipeline.n_stages": [4, 6, 8],
        "variation.sigma_scale": [0.9, 1.1],
    }
    return {"base": spec_to_wire(base), "axes": axes}


# ----------------------------------------------------------------------
# The generator
# ----------------------------------------------------------------------
def _request(method: str, path: str, body: str) -> bytes:
    data = body.encode()
    return (
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(data)}\r\n\r\n"
    ).encode() + data


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, list[bytes]]:
    """Status and body parts (one per chunk for a chunked response)."""
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        if ":" in line:
            key, value = line.split(":", 1)
            headers[key.strip().lower()] = value.strip()
    if headers.get("transfer-encoding") == "chunked":
        parts = []
        while True:
            size = int((await reader.readline()).strip(), 16)
            if size == 0:
                await reader.readline()
                return status, parts
            parts.append((await reader.readexactly(size + 2))[:-2])
    return status, [await reader.readexactly(int(headers.get("content-length", 0)))]


class Traffic:
    """Results of one load window."""

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []  # inf for failed or refused requests
        self.lags_ms: list[float] = []
        self.served: dict[str, list[str]] = {}  # request body -> each served report's JSON
        self.stream_points = 0
        self.stream_s = 0.0
        self.first_stream: list | None = None
        self.last_response = 0.0
        self.elapsed_s = 0.0
        self.failed = 0
        self.hot_share = 0.0  # share of the window's requests from the hot set
        self.reference_s = 0.0  # host reference time around the window


async def _unary(host, port, queue: asyncio.Queue, traffic: Traffic, until=None) -> bool:
    """Send queued unary requests on one keep-alive connection.

    Returns False at the end of the schedule, True when the loop time
    ``until`` passes first.
    """
    loop = asyncio.get_running_loop()
    reader, writer = await asyncio.open_connection(host, port)
    try:
        while True:
            get = asyncio.ensure_future(queue.get())
            if until is not None:
                await asyncio.wait({get}, timeout=max(0.0, until - loop.time()))
                if not get.done():
                    get.cancel()
                    try:
                        await get  # it may have taken an item as it was cancelled
                    except asyncio.CancelledError:
                        return True
            item = await get
            if item is None:
                queue.put_nowait(None)  # leave the end mark for the other connections
                return False
            due, body = item
            writer.write(_request("POST", "/v1/study", body))
            status, parts = await _read_response(reader)
            traffic.last_response = loop.time()
            if status == 200:
                report = json.loads(parts[0])["report"]
                traffic.served.setdefault(body, []).append(_canonical(report))
                traffic.latencies_ms.append((traffic.last_response - due) * 1e3)
            else:
                traffic.failed += 1
                traffic.latencies_ms.append(float("inf"))
    finally:
        writer.close()
        await writer.wait_closed()


async def _stream(host, port, rng, traffic: Traffic) -> None:
    """One streamed sweep, on its own connection (the server closes it after)."""
    request = make_stream(rng)
    start = time.perf_counter()
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(_request("POST", "/v1/sweep", json.dumps(request)))
        status, parts = await _read_response(reader)
    finally:
        writer.close()
        await writer.wait_closed()
    events = [json.loads(part) for part in parts]
    points = [event["point"] for event in events if event.get("event") == "point"]
    if status != 200 or events[-1].get("event") != "done" or len(points) != 12:
        traffic.failed += 1
    traffic.stream_points += len(points)
    traffic.stream_s += time.perf_counter() - start
    if traffic.first_stream is None:
        traffic.first_stream = [request, points]


async def _alternate(host, port, queue: asyncio.Queue, rng, traffic: Traffic) -> None:
    """Stream one sweep, then send unary requests for a turn; repeat."""
    loop = asyncio.get_running_loop()
    while True:
        await _stream(host, port, rng, traffic)
        if not await _unary(host, port, queue, traffic, until=loop.time() + UNARY_TURN_S):
            return


async def _drive(host, port, bursts, rng, rate: float, connections: int) -> Traffic:
    """Offer ``bursts`` at ``rate`` per second (all at once when infinite),
    with one connection streaming sweeps when there are two or more."""
    loop = asyncio.get_running_loop()
    traffic = Traffic()
    queue: asyncio.Queue = asyncio.Queue()
    t0 = loop.time() + 0.05

    async def ticker() -> None:
        for i, burst in enumerate(bursts):
            due = t0 + i / rate
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            traffic.lags_ms.append(max(0.0, loop.time() - due) * 1e3)
            for body in burst:
                queue.put_nowait((due, body))
        queue.put_nowait(None)

    lanes = [_unary(host, port, queue, traffic) for _ in range(max(1, connections - 1))]
    if connections > 1:
        lanes.append(_alternate(host, port, queue, rng, traffic))
    await asyncio.gather(ticker(), *lanes)
    traffic.elapsed_s = traffic.last_response - t0
    return traffic


def load_window(run: Run, server: Server, rng: np.random.Generator, seconds: float,
                connections: int, traced: bool = False):
    """Warm the server's caches, then drive one window.

    A traced server is told to clear its spans when the window starts, so
    they cover the window only.

    Returns ``(traffic, deltas)``: what the generator saw, and the change
    in the server's ``/v1/stats`` counters over the window.
    """
    hot = [_study(rng) for _ in range(HOT_SET)]
    # The number of sweeps streamed depends on timing; their own generator
    # keeps every other input fixed by the seed.
    stream_rng = np.random.default_rng(int(rng.integers(2**62)))
    warm = [[body] for body in warm_requests(rng, hot)]
    asyncio.run(_drive(server.host, server.port, warm, stream_rng, float("inf"), 1))
    # A fresh server answers its first few hundred mixed requests at half
    # its steady rate, so a short window of the mix itself runs unmeasured.
    bursts = make_bursts(rng, hot, int(BURST_RATE_PER_S * WARM_S))
    asyncio.run(_drive(server.host, server.port, bursts, stream_rng, BURST_RATE_PER_S, connections))
    bursts = make_bursts(rng, hot, max(10, int(BURST_RATE_PER_S * seconds)))
    if traced:
        server.proc.send_signal(signal.SIGUSR1)
    before = server.get("/v1/stats")
    references = [run.reference.seconds()]
    traffic = asyncio.run(
        _drive(server.host, server.port, bursts, stream_rng, BURST_RATE_PER_S, connections)
    )
    references.append(run.reference.seconds())
    after = server.get("/v1/stats")
    traffic.reference_s = median(references)
    traffic.hot_share = (
        sum(len(burst) for burst in bursts if len(burst) > 1)
        / sum(len(burst) for burst in bursts)
    )
    deltas = {
        key: after["server"][key] - before["server"][key] for key in after["server"]
    }
    for key in ("cache_hits", "cache_misses"):
        deltas[key] = after["session"][key] - before["session"][key]
    return traffic, deltas


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q, method="higher"))


def _check(run: Run, traffic: Traffic, seed: int, rng: np.random.Generator) -> None:
    """Served reports against each other and against local ``Session.run`` results."""
    from repro.api import ScenarioSweep, Session, StudySpec, spec_from_wire

    run.op(len(traffic.latencies_ms) + traffic.stream_points, failed=traffic.failed)
    for body, served in traffic.served.items():
        if len(served) > 1:
            run.check("repeat_requests_identical", len(set(served)) == 1, body[:80])
    local = Session(root_seed=seed)
    sampled = list(traffic.served)
    for index in rng.choice(len(sampled), size=min(LOCAL_SAMPLE, len(sampled)), replace=False):
        body = sampled[int(index)]
        expected = _canonical(local.run(StudySpec.from_json(body)).to_dict())
        run.check("served_equals_local", set(traffic.served[body]) == {expected}, body[:80])
    if traffic.first_stream is not None:
        request, points = traffic.first_stream
        sweep = ScenarioSweep(spec_from_wire(request["base"]), request["axes"])
        expected = [_canonical(p.to_dict()) for p in sweep.iter_results(Session(root_seed=seed))]
        run.check("streamed_equals_local", [_canonical(p) for p in points] == expected)


def serve_mix(run: Run) -> Outcome:
    connections = nproc()
    # Every server started from here on inherits this process's one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    rng = np.random.default_rng(run.seed)
    server_seed = int(rng.integers(1, 2**31))
    if run.trace:
        return _traced(run, rng, server_seed, connections)
    boots = []
    for attempt in range(SERVER_BOOTS):
        server = Server(server_seed)
        boots.append(run.measure("serve.boot", server.boot_s))
        if attempt < SERVER_BOOTS - 1:
            server.stop()
    try:
        traffic, deltas = load_window(run, server, rng, run.seconds, connections)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    _check(run, traffic, server_seed, rng)
    return _outcome(run, timing(boots), rss, traffic, deltas)


def _outcome(run: Run, setup_s: Time, rss: float, traffic: Traffic, deltas: dict,
             layers=None) -> Outcome:
    """Latencies scaled by the host reference measured around the window;
    goodput and shares as the generator and the server counted them."""
    latencies = traffic.latencies_ms
    good = sum(1 for value in latencies if value <= LATENCY_LIMIT_MS)
    goodput = good / traffic.elapsed_s

    def latency(operation: str, value_ms: float) -> Time:
        seconds = run.measure(operation, value_ms / 1e3, traffic.reference_s)
        return seconds.map(lambda s: s * 1e3)

    p50 = latency("serve.p50", median(latencies))
    p98 = latency("serve.p98", _percentile(latencies, 98))
    stream_rate = traffic.stream_points / traffic.stream_s if traffic.stream_s else 0.0
    return Outcome(
        setup_s=setup_s,
        peak_rss_mb=rss,
        throughput_per_s=goodput,
        latency_ms=p50,
        named={
            "serve_p50_ms": (p50, "ms"),
            "serve_p98_ms": (p98, "ms"),
            "serve_samples": (len(latencies), "count"),
            "serve_goodput_rps": (goodput, "1/s"),
            "serve_hot_share": (traffic.hot_share, "fraction"),
            # Session cache counters: characterisation caches only, because
            # the session's report cache, which answers hot repeats, counts
            # neither hits nor misses.
            "serve_cache_hits": (deltas["cache_hits"], "count"),
            "serve_cache_misses": (deltas["cache_misses"], "count"),
            "serve_coalesced": (deltas["coalesced"], "count"),
            "stream_points_per_s": (stream_rate, "1/s"),
        },
        layers=layers or {},
    )


def _traced(run: Run, rng: np.random.Generator, server_seed: int, connections: int) -> Outcome:
    """Half the window on a plain server, half on a traced one."""
    half = run.seconds / 2
    server = Server(server_seed)
    try:
        plain, _ = load_window(run, server, rng, half, connections)
    finally:
        server.stop()
    trace_out = os.path.join(run.workdir, "serve-trace.json")
    server = Server(server_seed, trace_out=trace_out)
    try:
        traffic, deltas = load_window(run, server, rng, half, connections, traced=True)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    with open(trace_out) as handle:
        snapshot = json.load(handle)
    _check(run, plain, server_seed, rng)
    _check(run, traffic, server_seed, rng)
    layers = dict.fromkeys(metric_units("per_layer"), 0)
    layers.update(span_metrics(snapshot, traffic.elapsed_s))
    n_unary = len(traffic.latencies_ms)
    session_s = snapshot["edges"].get("serve.compute>api.session", 0.0) / n_unary
    finite = [value for value in traffic.latencies_ms if value != float("inf")]
    layers.update({
        "serve.session_s": session_s,
        "serve.non_compute_ms": float(np.mean(finite)) - session_s * 1e3,
        "api.cache_hits": deltas["cache_hits"],
        "api.cache_misses": deltas["cache_misses"],
        "serve.computed": deltas["computed"],
        "serve.coalesced": deltas["coalesced"],
        "serve.rejected": sum(v for k, v in deltas.items() if k.startswith("rejected")),
        "serve.generator_lag_ms": float(np.mean(traffic.lags_ms)),
        "trace.overhead": median(traffic.latencies_ms) / median(plain.latencies_ms) - 1.0,
    })
    return _outcome(run, Time(0.0, 0.0), rss, traffic, deltas, layers)
