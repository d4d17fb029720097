"""Live metrics endpoint: a background HTTP thread over a MetricRegistry.

``repro count --metrics-port N`` (and, eventually, the ROADMAP's
``repro serve`` daemon) exposes the run's registry while it is still
running: the CLI updates ``progress_*`` / heartbeat / ETA gauges between
batches, and any Prometheus scraper — or a plain ``curl`` — can watch a
long count converge instead of waiting for the final ``--metrics-out``
file.

Endpoints:

* ``/metrics`` — the registry in Prometheus text exposition format
  (exactly :func:`repro.telemetry.export.prometheus_text`);
* ``/metrics.json`` — the deterministic JSON snapshot;
* ``/healthz`` — ``ok`` (liveness probe).

The server is a daemon ``ThreadingHTTPServer`` on localhost by default;
``port=0`` binds an ephemeral port (read it back from ``.port``), which
is what the tests and the CI smoke scrape use.  Handlers only *read* the
registry — reads take the registry's internal lock per family, so a
scrape concurrent with engine updates sees a consistent family but never
blocks the run for more than a dict copy.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .export import json_snapshot, prometheus_text
from .registry import MetricRegistry

__all__ = ["MetricsServer"]


class MetricsServer:
    """Background HTTP server exposing one registry; start()/stop() or ``with``."""

    def __init__(self, registry: MetricRegistry, *, host: str = "127.0.0.1", port: int = 0) -> None:
        self.registry = registry
        self._httpd = ThreadingHTTPServer((host, port), self._handler_class())
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    def _handler_class(self) -> type[BaseHTTPRequestHandler]:
        registry = self.registry

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                path = self.path.split("?", 1)[0]
                if path == "/metrics":
                    body = prometheus_text(registry).encode()
                    ctype = "text/plain; version=0.0.4; charset=utf-8"
                elif path == "/metrics.json":
                    body = json.dumps(json_snapshot(registry), sort_keys=True).encode()
                    ctype = "application/json"
                elif path in ("/", "/healthz"):
                    body = b"ok\n"
                    ctype = "text/plain; charset=utf-8"
                else:
                    self.send_error(404, "unknown endpoint (use /metrics, /metrics.json, /healthz)")
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *_args) -> None:
                pass  # scrapes must not spam the run's stdout

        return Handler

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "MetricsServer":
        if self._thread is not None:
            raise RuntimeError("metrics server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-metrics", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the port — bound since construction, started or not."""
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
