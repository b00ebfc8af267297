"""Zero-dependency threaded HTTP JSON API over the scoring engine.

Endpoints
---------
``POST /v1/score``
    Body: ``{"fingerprints": [[...], ...], "boundaries": ["B5", ...]}``
    (a single flat vector is accepted as a one-device batch; ``boundaries``
    is optional and defaults to every boundary the bundle carries).
    Response: ``{"n_devices": n, "boundaries": {"B5": {"trojan_free":
    [...], "scores": [...]}}}``.  Validation failures return **400** with a
    structured body ``{"error": {"code": ..., "message": ...}}``; a full
    queue returns **429** — the server never crashes on a bad payload.
``GET /healthz``
    Liveness: always ``200 {"status": "ok"}`` while the process serves.
``GET /readyz``
    Readiness: ``200`` once the bundle is loaded and the engine can score,
    ``503`` otherwise.
``GET /metricz``
    JSON snapshot of the engine's metrics registry (``serve.requests``,
    ``serve.devices_scored``, ``serve.batch_size`` / ``serve.latency_ms``
    histograms, ``serve.queue_depth`` gauge, per-boundary verdict
    counters) plus bundle identity (digest, schema version, boundaries).

Built on :class:`http.server.ThreadingHTTPServer` — one thread per
connection feeding the shared :class:`~repro.serve.engine.BatchingEngine`,
which is where concurrent requests coalesce into vectorized batches.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterable, Optional

from repro.serve.bundle import LoadedBundle, load_bundle
from repro.serve.engine import (
    BatchingEngine,
    QueueFullError,
    RequestValidationError,
    ScoringEngine,
)

#: Reject request bodies beyond this size before reading them fully.
MAX_BODY_BYTES = 64 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """Request handler; the server instance carries the shared engine."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; with Nagle's algorithm on, the
    # body waits for the client's delayed ACK (~40 ms per keep-alive
    # request).  TCP_NODELAY sends it at once.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging is the metrics registry's job

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, code: str, message: str) -> None:
        self._send_json(status, {"error": {"code": code, "message": message}})

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/healthz":
            self._send_json(200, {"status": "ok"})
        elif self.path == "/readyz":
            if self.server.ready():
                self._send_json(200, {"status": "ready",
                                      "bundle": self.server.bundle_summary()})
            else:
                self._send_error_json(503, "not_ready", "no bundle loaded")
        elif self.path == "/metricz":
            self._send_json(200, self.server.metrics())
        else:
            self._send_error_json(404, "not_found", f"no route {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path != "/v1/score":
            self._send_error_json(404, "not_found", f"no route {self.path!r}")
            return
        if not self.server.ready():
            self._send_error_json(503, "not_ready", "no bundle loaded")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length <= 0:
            self._send_error_json(400, "empty_body", "request body required")
            return
        if length > MAX_BODY_BYTES:
            self._send_error_json(
                413, "too_large", f"request body exceeds {MAX_BODY_BYTES} bytes"
            )
            return
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            self._send_error_json(400, "bad_json", f"unparseable body: {error}")
            return
        if not isinstance(payload, dict) or "fingerprints" not in payload:
            self._send_error_json(
                400, "bad_request", 'body must be {"fingerprints": [...]}'
            )
            return
        boundaries = payload.get("boundaries")
        if boundaries is not None and (
            not isinstance(boundaries, list)
            or not all(isinstance(b, str) for b in boundaries)
        ):
            self._send_error_json(
                400, "bad_request", '"boundaries" must be a list of names'
            )
            return
        try:
            result = self.server.batcher.submit(
                payload["fingerprints"], boundaries=boundaries
            )
        except RequestValidationError as error:
            self._send_error_json(400, error.code, error.message)
            return
        except QueueFullError as error:
            self._send_error_json(429, "queue_full", str(error))
            return
        except TimeoutError:
            self._send_error_json(504, "timeout", "scoring timed out")
            return
        self._send_json(200, result.to_json())


class DetectorServer(ThreadingHTTPServer):
    """The screening service: a loaded bundle behind the HTTP JSON API.

    Parameters
    ----------
    bundle:
        Path to a ``repro-bundle-v1`` file, or an already-loaded
        :class:`~repro.serve.bundle.LoadedBundle`.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (see ``.port``).
    max_batch / max_wait_ms / max_queue:
        Micro-batching knobs, passed to the :class:`BatchingEngine`.
    max_request_devices:
        Per-request device cap of the underlying :class:`ScoringEngine`.
    """

    daemon_threads = True

    def __init__(
        self,
        bundle,
        host: str = "127.0.0.1",
        port: int = 0,
        default_boundaries: Optional[Iterable[str]] = None,
        max_batch: int = 256,
        max_wait_ms: float = 2.0,
        max_queue: int = 1024,
        max_request_devices: Optional[int] = None,
    ):
        if not isinstance(bundle, LoadedBundle):
            bundle = load_bundle(bundle)
        self.bundle = bundle
        engine_kwargs = {}
        if max_request_devices is not None:
            engine_kwargs["max_request_devices"] = max_request_devices
        self.engine = ScoringEngine(
            bundle.detector, default_boundaries=default_boundaries,
            **engine_kwargs,
        )
        self.batcher = BatchingEngine(
            self.engine, max_batch=max_batch, max_wait_ms=max_wait_ms,
            max_queue=max_queue,
        )
        self._thread: Optional[threading.Thread] = None
        super().__init__((host, port), _Handler)

    # ------------------------------------------------------------------
    # handler-facing state
    # ------------------------------------------------------------------

    def ready(self) -> bool:
        """Whether a bundle is loaded and the engine can score."""
        return self.bundle is not None and bool(self.engine.available)

    def bundle_summary(self) -> dict:
        """Identity of the served bundle (also embedded in ``/metricz``)."""
        return {
            "digest": self.bundle.digest,
            "schema_version": int(self.bundle.header["schema_version"]),
            "boundaries": list(self.engine.available),
            "path": self.bundle.path,
        }

    def metrics(self) -> dict:
        """The ``/metricz`` payload."""
        snapshot = self.engine.metrics_snapshot()
        snapshot["gauges"].setdefault("serve.queue_depth", None)
        snapshot["gauges"]["serve.queue_depth"] = float(
            self.batcher.queue_depth
        )
        snapshot["bundle"] = self.bundle_summary()
        return snapshot

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        return self.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        host = self.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "DetectorServer":
        """Serve in a background thread (tests, examples, bench)."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-http", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut down the listener and the batching worker."""
        self.shutdown()
        self.server_close()
        self.batcher.close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "DetectorServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
