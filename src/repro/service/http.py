"""stdlib-``http.server`` JSON API over the analysis service.

Endpoints (all JSON):

* ``POST /campaigns``            — body is a campaign spec; returns
  ``{"campaign_id", "status", "num_jobs"}`` (202 while queued/running,
  200 when the content-addressed campaign already completed). It takes
  no query parameters: every campaign runs at the service's own
  ``--workers`` width;
* ``GET  /campaigns``            — all stored campaigns;
* ``GET  /campaigns/<id>``       — one campaign's status, per-unit run
  states, and (once done) its aggregate report;
* ``GET  /runs``                 — all stored runs;
* ``GET  /runs/<id>/report``     — one completed unit's full report;
* ``GET  /runs/<id>/search``     — that unit's search block (policy,
  budget, ledger, the per-round :class:`~repro.search.trace.SearchTrace`);
* ``GET  /domains``              — the registered domain plugins (what a
  submitted spec's ``{"domain": ...}`` problem blocks may name);
* ``GET  /healthz``              — liveness, version, worker count,
  uptime, and store reachability in one body;
* ``GET  /version``              — ``repro.__version__``;
* ``GET  /metrics``              — Prometheus text exposition (oracle,
  solver, search, service, and HTTP metrics; DESIGN.md §15). Scrapes are
  read-only: they render a snapshot copy and mutate nothing;
* ``GET  /dashboard``            — the self-contained operator dashboard
  (one HTML page polling this JSON API; no external assets).

Error discipline: every failure is a JSON body. A body that is not
UTF-8 JSON, a spec that fails validation or nests deeper than
:data:`MAX_SPEC_DEPTH`, and any query parameter on ``POST /campaigns``
are 400; unknown paths 404, unsupported methods 405 (with an ``Allow``
header), bodies over :data:`MAX_BODY_BYTES` 413, and a full submit
backlog (``max_pending``) 429 with a ``Retry-After`` hint. A rejected
submit registers nothing.

The server is a ``ThreadingHTTPServer``: requests are served on their
own threads and only ever touch the store through per-operation SQLite
connections, so readers never block the worker thread executing
campaigns.
"""

from __future__ import annotations

import json
import logging
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlparse

import repro
from repro.exceptions import AnalyzerError, ServiceBusy
from repro.obs import EXPOSITION_CONTENT_TYPE, install, render_prometheus
from repro.service.dashboard import DASHBOARD_HTML
from repro.service.service import AnalysisService

logger = logging.getLogger("repro.service")

#: default service port (a random-ish high port, not 8080, to keep out
#: of the way of whatever else a dev box is running)
DEFAULT_PORT = 8347

#: request-body cap: a campaign spec is a list of job blocks, not a data
#: upload — anything this large is a client bug, rejected with 413
#: before the JSON parser chews on it
MAX_BODY_BYTES = 2 * 1024 * 1024

#: nesting bound for a campaign spec, which is a handful of levels deep:
#: a body near the interpreter's recursion limit parses, then fails
#: deeper down (hashing, the store) as a RecursionError
MAX_SPEC_DEPTH = 64

#: seconds a 429 response suggests waiting before re-submitting
RETRY_AFTER_SECONDS = 5


def _depth(value) -> int:
    """How many levels of arrays and objects ``value`` nests (a scalar is 1)."""
    depth, level = 0, [value]
    while level:
        depth += 1
        level = [
            child
            for item in level
            if isinstance(item, (dict, list))
            for child in (item.values() if isinstance(item, dict) else item)
        ]
    return depth


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes requests onto the :class:`AnalysisService` it was bound to."""

    service: AnalysisService  # set by make_server
    server_version = f"xplain/{repro.__version__}"

    # -- plumbing -----------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        # Through the stdlib logging tree, not stderr: embedders and the
        # CLI's --log-level knob decide what (if anything) is printed.
        logger.info(
            "%s - %s", self.address_string(), format % args
        )

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self._send_raw(status, "application/json", body)

    def _send_raw(
        self,
        status: int,
        content_type: str,
        body: bytes,
        headers: dict | None = None,
    ) -> None:
        # Count the request before any byte of the response goes out: a
        # client that has read its response may scrape /metrics next and
        # must find its own request there.
        self._observe()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(
        self, status: int, message: str, headers: dict | None = None
    ) -> None:
        body = json.dumps({"error": message}, sort_keys=True).encode()
        self._send_raw(status, "application/json", body, headers)

    def _method_not_allowed(self) -> None:
        self._error(
            405,
            f"method {self.command} is not supported; the API is "
            "GET for queries and POST /campaigns for submission",
            headers={"Allow": "GET, POST"},
        )

    # Anything beyond GET/POST gets a JSON 405, not http.server's
    # default HTML 501 page.
    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        self._method_not_allowed()

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._method_not_allowed()

    def do_PATCH(self) -> None:  # noqa: N802 - http.server API
        self._method_not_allowed()

    def do_HEAD(self) -> None:  # noqa: N802 - http.server API
        self._method_not_allowed()

    # -- request metrics ----------------------------------------------------
    def _route_template(self, parts: list[str]) -> str:
        """A low-cardinality route label (IDs collapse to ``{id}``)."""
        if not parts:
            return "/"
        head = parts[0]
        if len(parts) == 1 and head in self._KNOWN_ROUTES:
            return f"/{head}"
        if head == "campaigns" and len(parts) == 2:
            return "/campaigns/{id}"
        if head == "runs" and len(parts) == 3 and parts[2] in (
            "report",
            "search",
        ):
            return "/runs/{id}/" + parts[2]
        return "(unknown)"

    #: ``(path parts, start time)`` of the GET/POST being served, until
    #: :meth:`_observe` records it
    _pending: tuple[list[str], float] | None = None

    def _observe(self) -> None:
        if self._pending is None:
            return
        parts, started = self._pending
        self._pending = None
        route = self._route_template(parts)
        self.service.metrics.counter_inc(
            "xplain_http_requests_total",
            1,
            help="API requests served",
            method=self.command,
            route=route,
        )
        self.service.metrics.histogram_observe(
            "xplain_http_request_seconds",
            time.perf_counter() - started,
            help="API request wall-clock by route",
            route=route,
        )

    # -- routes -------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        started = time.perf_counter()
        parts = [p for p in urlparse(self.path).path.split("/") if p]
        self._pending = (parts, started)
        self._get(parts)

    def _get(self, parts: list[str]) -> None:
        try:
            if parts == ["healthz"]:
                self._send(200, self.service.health_info())
            elif parts == ["metrics"]:
                text = render_prometheus(self.service.metrics_snapshot())
                self._send_raw(
                    200, EXPOSITION_CONTENT_TYPE, text.encode("utf-8")
                )
            elif parts == ["dashboard"]:
                self._send_raw(
                    200,
                    "text/html; charset=utf-8",
                    DASHBOARD_HTML.encode("utf-8"),
                )
            elif parts == ["version"]:
                self._send(200, {"version": repro.__version__})
            elif parts == ["domains"]:
                from repro.domains.registry import registry

                plugins = registry().plugins()
                payload = {"domains": [p.to_dict() for p in plugins]}
                self._send(200, payload)
            elif parts == ["campaigns"]:
                campaigns = self.service.store.list_campaigns()
                self._send(200, {"campaigns": campaigns})
            elif len(parts) == 2 and parts[0] == "campaigns":
                campaign = self.service.campaign_status(parts[1])
                if campaign is None:
                    self._error(404, f"no campaign {parts[1]!r}")
                else:
                    self._send(200, campaign)
            elif parts == ["runs"]:
                self._send(200, {"runs": self.service.store.list_runs()})
            elif len(parts) == 3 and parts[0] == "runs" and parts[2] == "report":
                report = self.service.run_report(parts[1])
                if report is None:
                    self._error(404, f"no completed run {parts[1]!r}")
                else:
                    self._send(200, report)
            elif len(parts) == 3 and parts[0] == "runs" and parts[2] == "search":
                search = self.service.run_search(parts[1])
                if search is None:
                    self._error(404, f"no completed run {parts[1]!r}")
                else:
                    self._send(200, {"run_id": parts[1], "search": search})
            else:
                self._error(404, f"unknown path {self.path!r}")
        except Exception as exc:  # noqa: BLE001 - one request, one error
            self._error(500, f"{type(exc).__name__}: {exc}")

    #: routes that only answer GET (a POST to them is a 405, not a 404)
    _GET_ONLY = (
        "healthz",
        "version",
        "domains",
        "runs",
        "metrics",
        "dashboard",
    )

    #: every top-level route, for the metrics route label
    _KNOWN_ROUTES = _GET_ONLY + ("campaigns",)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        started = time.perf_counter()
        parts = [p for p in urlparse(self.path).path.split("/") if p]
        self._pending = (parts, started)
        self._post(parts)

    def _post(self, parts: list[str]) -> None:
        url = urlparse(self.path)
        if parts and parts[0] in self._GET_ONLY:
            self._error(
                405,
                f"{url.path} only supports GET; submission is "
                "POST /campaigns",
                headers={"Allow": "GET"},
            )
            return
        if parts != ["campaigns"]:
            self._error(404, f"unknown path {self.path!r}")
            return
        try:
            try:
                length = int(self.headers.get("Content-Length", 0))
            except ValueError:
                length = -1
            if length < 0:
                self._error(400, "Content-Length must be an integer >= 0")
                return
            if length > MAX_BODY_BYTES:
                # Drain what the client is still sending (bounded), so
                # the 413 arrives on an intact connection instead of a
                # reset mid-upload; past the drain cap we just close.
                remaining = min(length, 8 * MAX_BODY_BYTES)
                while remaining > 0:
                    chunk = self.rfile.read(min(remaining, 65536))
                    if not chunk:
                        break
                    remaining -= len(chunk)
                self.close_connection = True
                self._error(
                    413,
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte campaign-spec limit",
                )
                return
            raw = self.rfile.read(length)
            if url.query:
                self._error(
                    400,
                    "POST /campaigns takes no query parameters, got "
                    f"{url.query!r}; campaigns run at the service's --workers",
                )
                return
            try:
                spec_data = json.loads(raw)
            except (ValueError, RecursionError) as exc:
                # Not UTF-8 (UnicodeDecodeError), not JSON
                # (JSONDecodeError), or nested past the parser's depth.
                self._error(400, f"request body is not valid JSON: {exc}")
                return
            if not isinstance(spec_data, dict):
                self._error(400, "campaign spec must be a JSON object")
                return
            if _depth(spec_data) > MAX_SPEC_DEPTH:
                self._error(
                    400, f"campaign spec nests deeper than {MAX_SPEC_DEPTH} levels"
                )
                return
            try:
                submitted = self.service.submit(spec_data)
            except ServiceBusy as exc:
                self._error(
                    429,
                    str(exc),
                    headers={"Retry-After": str(RETRY_AFTER_SECONDS)},
                )
                return
            except AnalyzerError as exc:
                self._error(400, str(exc))
                return
            status = 200 if submitted["status"] == "done" else 202
            self._send(status, submitted)
        except Exception as exc:  # noqa: BLE001 - one request, one error
            self._error(500, f"{type(exc).__name__}: {exc}")


def make_server(
    service: AnalysisService,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
) -> ThreadingHTTPServer:
    """Bind a threading HTTP server to the service (``port=0`` = ephemeral)."""

    class _BoundHandler(ServiceHandler):
        pass

    _BoundHandler.service = service
    return ThreadingHTTPServer((host, port), _BoundHandler)


def serve(
    store_path: str,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    workers: int = 1,
    retention: int = 0,
    max_pending: int = 0,
    log_level: str = "warning",
) -> None:
    """Run the service until interrupted (the ``repro serve`` entry point)."""
    level = getattr(logging, log_level.upper(), None)
    if not isinstance(level, int):
        raise AnalyzerError(
            f"unknown log level {log_level!r}; expected one of "
            "debug, info, warning, error"
        )
    logging.basicConfig(
        level=level,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    logging.getLogger("repro").setLevel(level)
    service = AnalysisService(
        store_path,
        workers=workers,
        retention=retention,
        max_pending=max_pending,
    )
    # The serve process is where metrics go global: the service's
    # registry becomes the process registry, which pipeline hooks feed.
    install(service.metrics)
    service.start()
    server = make_server(service, host=host, port=port)
    actual_host, actual_port = server.server_address[:2]
    print(
        f"xplain analysis service v{repro.__version__} on "
        f"http://{actual_host}:{actual_port} (store: {service.store.db_path})"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
        service.stop()
