"""Workload ``serve_http``: a ``repro.cli serve`` subprocess driven over HTTP.

Set-up writes the seed's fixture and the full-size default bundle with
``repro.cli generate`` and ``export-bundle``, then starts
``repro.cli serve det.npz --port 0`` three times; ``setup_s`` is the median
time from spawn until ``/readyz`` answers 200.  The third server takes the
load in two phases, ``online`` for 7 s (half of ``--seconds`` when that is
shorter) and ``bulk`` for the rest:

* ``online``: an open loop of 64-device requests at a fixed 150 requests/s,
  about half the measured capacity.  Latency counts from each request's due
  time, so a stall also charges the requests queued behind it.  The phase
  sends 1050 requests, enough for a p99.
* ``bulk``: a closed loop of 2 clients sending 2048-device requests.  Its
  throughput is reported from the median request time (clients x devices /
  p50), which a few scheduler stalls of a shared machine do not move; the
  devices-per-wall-second figure is recorded too.  The phase takes all the
  time ``online`` leaves: the server is CPU-bound here, so its figure moves
  with the host's speed, and a longer window averages more of that drift.
  Two clients keep both cores of a 2-vCPU host busy, which reads steadier
  than one: on a shared 2-vCPU host a single thread's speed was seen to
  switch by 1.5x for seconds at a time, and one client's request time
  followed it while the two-client figure moved far less.

The loader is this one process with 2 threads, each with at most one open
connection (a fresh one per request, as ``repro.serve.client`` does).
``online`` is bound by per-request overhead (parse, queue, straggler
window), ``bulk`` by JSON encoding and the scoring kernel.  Every
response is compared with in-process ``ScoringEngine.score`` on the same
bundle after the phase ends.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import select
import signal
import statistics
import subprocess
import threading
import time
from typing import List, Optional

from harness import (
    PINNED,
    SMALL_FLAGS,
    Context,
    Result,
    SetupError,
    checked,
    child_env,
    engine_probe,
    import_probe,
    percentile,
    request_batch,
    run_cli,
    tail_percentile,
)

ONLINE_RATE = 150.0
ONLINE_DEVICES = 64
BULK_DEVICES = 2048
CLIENTS = 2
ONLINE_SECONDS = 7.0
SERVER_STARTS = 3
DISTINCT_BODIES = 16
#: The serve tests' tolerance: micro-batching may change BLAS shapes.
RTOL, ATOL = 1e-9, 1e-12


class Server:
    """One ``repro.cli serve`` subprocess on an ephemeral port."""

    def __init__(self, ctx: Context, timeout: float = 60.0):
        argv, self.spans_file = ctx.cli("serve", "det.npz", "--port", "0")
        self.ctx = ctx
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ctx.work, env=child_env(unbuffered=True),
                                     stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        try:
            self.host, self.port = self._address(start + timeout)
            self._wait_ready(start + timeout)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - start

    def _address(self, deadline: float):
        """Read the server's stdout until its ``url:`` line."""
        fd = self.proc.stdout.fileno()
        pending = b""
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise SetupError("serve printed no url")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise SetupError(f"serve exited {self.proc.wait()} before printing a url")
            pending += chunk
            for line in pending.decode(errors="replace").splitlines():
                if line.strip().startswith("url:") and pending.endswith(b"\n"):
                    host, port = line.split("//", 1)[1].strip().rsplit(":", 1)
                    return host, int(port)

    def _wait_ready(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            try:
                status, _ = self.get("/readyz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise SetupError("serve never became ready")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=30)

    def get(self, path: str):
        conn = self.connect()
        try:
            conn.request("GET", path)
            reply = conn.getresponse()
            return reply.status, reply.read()
        finally:
            conn.close()

    def metrics(self) -> dict:
        status, body = self.get("/metricz")
        if status != 200:
            raise SetupError(f"/metricz answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        if self.spans_file is not None and self.spans_file.exists():
            self.ctx.tracer.adopt(self.spans_file)
            self.spans_file = None


def _post(server: Server, body: bytes):
    """One scoring request on a fresh connection, as ``ScoringClient`` sends it.

    A keep-alive connection would stall each reply by the peer's delayed ACK
    (the server writes headers and body separately, without TCP_NODELAY).
    """
    conn = server.connect()
    try:
        conn.request("POST", "/v1/score", body=body,
                     headers={"Content-Type": "application/json", "Connection": "close"})
        reply = conn.getresponse()
        return reply.status, reply.read()
    finally:
        conn.close()


def _client(server: Server, next_request, record) -> None:
    """Send requests until ``next_request`` returns None."""
    while True:
        job = next_request()
        if job is None:
            return
        index, due, body = job
        delay = due - time.perf_counter() if due is not None else 0.0
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        try:
            status, payload = _post(server, body)
        except (OSError, http.client.HTTPException) as error:
            status, payload = -1, repr(error).encode()
        record(index, due if due is not None else sent, sent, time.perf_counter(),
               status, payload)


def _run_clients(server: Server, next_request) -> list:
    records = []
    lock = threading.Lock()

    def record(*entry):
        with lock:
            records.append(entry)

    threads = [threading.Thread(target=_client, args=(server, next_request, record))
               for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def open_loop(server: Server, bodies, rate: float, duration: float) -> list:
    """Requests due every ``1/rate`` s for ``duration`` s, whatever the replies."""
    count = max(1, int(rate * duration))
    t0 = time.perf_counter() + 0.05
    indices = itertools.count()

    def next_request():
        i = next(indices)
        if i >= count:
            return None
        return i, t0 + i / rate, bodies[i % len(bodies)][0]

    return _run_clients(server, next_request)


def closed_loop(server: Server, bodies, duration: float) -> list:
    """Each client sends its next request when the previous reply arrives."""
    end = time.perf_counter() + duration
    indices = itertools.count()

    def next_request():
        if time.perf_counter() >= end:
            return None
        i = next(indices)
        return i, None, bodies[i % len(bodies)][0]

    return _run_clients(server, next_request)


def check_replies(result: Result, records, bodies, phase: str) -> int:
    """Count failures; return the devices scored correctly."""
    import numpy as np

    devices = 0
    for index, _, _, _, status, payload in records:
        result.attempted += 1
        if status != 200:
            result.fail(f"{phase} request {index}: HTTP {status}: {payload[:200]!r}")
            continue
        expected = bodies[index % len(bodies)][1]
        reply = json.loads(payload)
        mismatch = [name for name, scores in expected.items()
                    if not np.allclose(reply["boundaries"][name]["scores"], scores,
                                       rtol=RTOL, atol=ATOL)]
        if mismatch or reply["n_devices"] != len(next(iter(expected.values()))):
            result.fail(f"{phase} request {index}: scores differ on {mismatch}")
            continue
        devices += reply["n_devices"]
    return devices


def make_bodies(fingerprints, engine, devices: int, rng) -> list:
    """Encoded request bodies with their in-process scores."""
    bodies = []
    for _ in range(DISTINCT_BODIES):
        batch = request_batch(fingerprints, devices, rng)
        expected = engine.score(batch).scores
        bodies.append((json.dumps({"fingerprints": batch.tolist()}).encode(), expected))
    return bodies


def _phase_means(before: dict, after: dict, name: str) -> Optional[float]:
    hist_a = after["histograms"].get(name) or {}
    hist_b = before["histograms"].get(name) or {}
    count = (hist_a.get("count") or 0) - (hist_b.get("count") or 0)
    total = (hist_a.get("total") or 0.0) - (hist_b.get("total") or 0.0)
    return total / count if count else None


def run(ctx: Context, small: bool = False) -> Result:
    import numpy as np

    from repro.core.io import load_experiment_data
    from repro.serve.bundle import load_bundle
    from repro.serve.engine import ScoringEngine

    extra = SMALL_FLAGS if small else ()
    checked(run_cli(ctx, "generate", "fixture.npz", "--seed", str(ctx.seed), *PINNED,
                    *extra[:2]), "generate")
    checked(run_cli(ctx, "export-bundle", "det.npz", "--data", "fixture.npz", *PINNED,
                    *extra[2:]), "export-bundle")
    fingerprints = load_experiment_data(ctx.work / "fixture.npz").dutt_fingerprints
    engine = ScoringEngine(load_bundle(ctx.work / "det.npz").detector)
    rng = np.random.default_rng(ctx.seed)
    online_bodies = make_bodies(fingerprints, engine, ONLINE_DEVICES, rng)
    bulk_bodies = make_bodies(fingerprints, engine, BULK_DEVICES, rng)

    ready: List[float] = []
    server = None
    try:
        for _ in range(SERVER_STARTS):
            if server is not None:
                server.stop()
            server = Server(ctx)
            ready.append(server.ready_s)
        snap0 = server.metrics()
        online_start = time.perf_counter()
        online_s = min(ONLINE_SECONDS, ctx.seconds / 2)
        online = open_loop(server, online_bodies, ONLINE_RATE, online_s)
        online_end = time.perf_counter()
        snap1 = server.metrics()
        bulk_start = time.perf_counter()
        bulk = closed_loop(server, bulk_bodies, ctx.seconds - online_s)
        bulk_end = time.perf_counter()
        snap2 = server.metrics()
    finally:
        if server is not None:
            server.stop()

    result = Result()
    check_replies(result, online, online_bodies, "online")
    bulk_devices = check_replies(result, bulk, bulk_bodies, "bulk")

    online_ms = [1e3 * (done - due) for _, due, _, done, _, _ in online]
    bulk_ms = [1e3 * (done - sent) for _, _, sent, done, status, _ in bulk if status == 200]
    late_ms = [1e3 * (sent - due) for _, due, sent, _, _, _ in online]
    p50 = statistics.median(online_ms)
    tail = tail_percentile(online_ms)
    setup_s = statistics.median(ready)
    bulk_dev_s = (CLIENTS * BULK_DEVICES / (statistics.median(bulk_ms) / 1e3)
                  if bulk_ms else 0.0)
    bulk_wall_dev_s = bulk_devices / (max(done for *_, done, _, _ in bulk) - bulk_start)
    result.e2e = {"setup_s": setup_s, "latency_ms": p50, "throughput_per_s": bulk_dev_s}
    result.named = {
        "setup_s": (setup_s, "s"),
        "serve_p50_ms": (p50, "ms"),
        "serve_tail_ms": (tail[1] if tail else None, "ms"),
        "serve_tail_pct": (tail[0] if tail else None, "percentile"),
        "bulk_dev_s": (bulk_dev_s, "devices/s"),
        "bulk_wall_dev_s": (bulk_wall_dev_s, "devices/s"),
    }

    engine_online = _phase_means(snap0, snap1, "serve.latency_ms") or 0.0
    engine_bulk = _phase_means(snap1, snap2, "serve.latency_ms") or 0.0
    rejected = (snap2["counters"].get("serve.rejected", 0.0)
                - snap0["counters"].get("serve.rejected", 0.0))
    result.details = {
        "online_requests": len(online), "bulk_requests": len(bulk),
        "online_phase_s": online_end - online_start, "bulk_phase_s": bulk_end - bulk_start,
        "setup_samples_s": ready,
    }
    if ctx.trace:
        from spans import coverage, layer_metrics

        result.layer = layer_metrics(ctx.tracer)
        result.layer.update(import_probe(ctx))
        result.layer.update(engine_probe(ctx.work / "det.npz", ctx.work / "fixture.npz"))
        result.layer.update({
            "serve.engine_ms_mean": _phase_means(snap0, snap2, "serve.latency_ms") or 0.0,
            "serve.batch_devices_mean": _phase_means(snap0, snap2, "serve.batch_size") or 0.0,
            "serve.rejected": rejected,
            "serve.overhead_ms_online": p50 - engine_online,
            "serve.overhead_ms_bulk": (statistics.median(bulk_ms) if bulk_ms else 0.0)
            - engine_bulk,
            "serve.late_ms_max": max(late_ms),
            "serve.tail_ms": tail[1] if tail else percentile(online_ms, 99),
            "trace.coverage": coverage(ctx.tracer.spans, [(online_start, online_end),
                                                          (bulk_start, bulk_end)]),
        })
    return result
