"""The ``service`` workload: ``repro serve`` under the dashboard's reads.

One client process, two threads, at most two connections:

* a closed-loop submitter posts a campaign, polls ``/campaigns`` until
  it is ``done``, and posts the next one (each with its own seed) while
  the next is expected to end within the run's seconds; then it
  re-submits the first spec, which is served from the store;
* an open-loop reader issues the dashboard's tick plus ``/metrics`` at
  ``READ_RATE`` reads/s for the whole of the campaigns and
  ``POST_READS`` reads after them (more if the run has fewer than
  ``MIN_READS``, which the p90 needs), about the campaign posted last.
  Each read is timed from its due time, so a stall also delays the
  reads queued behind it; a failed or refused read counts as
  ``TIMEOUT_S``, over any latency limit.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from campaignbench.stats import percentile

#: the dashboard's tick (service/dashboard.py) plus the metrics scrape
ROUTES = (
    "/healthz",
    "/campaigns",
    "/campaigns/{campaign}",
    "/runs/{run}/report",
    "/runs/{run}/search",
    "/metrics",
)
#: routes answered from the run store
STORE_ROUTES = frozenset(ROUTES[1:5]) | {"/runs"}
#: two open dashboards (each ticks every 2 s) plus scrapes. Every request
#: takes the server's interpreter lock from the campaign thread, so the
#: reads slow the campaign they watch, the more so the slower the host.
READ_RATE = 5.0
POST_READS = 30
MIN_READS = 100
#: the submitter's poll interval; each poll is one more such request
POLL_S = 0.5
TIMEOUT_S = 10.0
CAMPAIGN_TIMEOUT_S = 120.0


@dataclass
class Request:
    route: str
    due: float
    sent: float
    done: float
    status: int
    nbytes: int
    ok: bool

    @property
    def latency_ms(self) -> float:
        """From due time to completion; a failure counts as a timeout."""
        return (self.done - self.due) * 1000.0 if self.ok else TIMEOUT_S * 1e3

    @property
    def duration_ms(self) -> float:
        return (self.done - self.sent) * 1000.0


def request(port: int, method: str, path: str, body: bytes | None = None):
    """One HTTP exchange: ``(status, body)``; raises OSError on refusal."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Client:
    """Records every request it makes, failed ones included."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.log: list[Request] = []
        self._lock = threading.Lock()

    def call(self, method, route, path, body=None, due=None, parse=True):
        sent = time.perf_counter()
        status, payload, ok, nbytes = 0, b"", False, 0
        try:
            status, payload = request(self.port, method, path, body)
            nbytes = len(payload)
            ok = 200 <= status < 300
            if ok and parse:
                payload = json.loads(payload)
        except (OSError, http.client.HTTPException, ValueError):
            ok = False
        done = time.perf_counter()
        record = Request(
            route, sent if due is None else due, sent, done, status, nbytes, ok
        )
        with self._lock:
            self.log.append(record)
        return record, payload


# ----------------------------------------------------------------------
def spawn_server(root: Path, store: Path, log_path: Path):
    """Start ``repro serve`` on an ephemeral port; ``(process, port,
    setup_s)`` with set-up timed from spawn until ``/healthz`` is 200."""
    env = child_env(root)
    start = time.perf_counter()
    log = open(log_path, "ab")
    try:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", str(store),
             "--port", "0"],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=log,
        )
    finally:
        log.close()
    banner = process.stdout.readline().decode()
    try:
        port = int(banner.split("http://127.0.0.1:")[1].split()[0])
    except (IndexError, ValueError):
        stop_server(process)
        raise RuntimeError(f"repro serve did not start: {banner!r}") from None
    while True:
        try:
            if request(port, "GET", "/healthz")[0] == 200:
                break
        except OSError:
            pass
        if time.perf_counter() - start > CAMPAIGN_TIMEOUT_S:
            stop_server(process)
            raise RuntimeError("repro serve never answered /healthz")
        time.sleep(0.005)
    return process, port, time.perf_counter() - start


def peak_rss_mb(pid: int) -> float:
    """The process's resident high-water mark (Linux ``VmHWM``)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def stop_server(process) -> None:
    """SIGINT (the server's graceful shutdown), then kill; always waits."""
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    process.stdout.close()


def child_env(root: Path) -> dict:
    """The environment children run in: the checkout's ``src`` first,
    and no observability or solver knobs inherited from the caller."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith(("XPLAIN_", "REPRO_"))
    }
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    return env


def parse_metrics(text: str) -> dict[str, float]:
    """Prometheus text summed over labels: ``{family: total}``."""
    totals: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, _, value = line.rpartition(" ")
        name = name_part.split("{", 1)[0]
        try:
            totals[name] = totals.get(name, 0.0) + float(value)
        except ValueError:
            continue
    return totals


# ----------------------------------------------------------------------
class Reader(threading.Thread):
    """The open-loop dashboard reader."""

    def __init__(self, client: Client, campaign_id: str) -> None:
        super().__init__(daemon=True)
        self.client = client
        self.campaign_id = campaign_id
        self.run_id: str | None = None
        self.finished_at: float | None = None
        self.reads: list[Request] = []
        self.stop_now = threading.Event()

    def run(self) -> None:
        start = time.perf_counter()
        after = 0
        k = 0
        while (
            after < POST_READS or len(self.reads) < MIN_READS
        ) and not self.stop_now.is_set():
            due = start + k / READ_RATE
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            route = ROUTES[k % len(ROUTES)]
            if "{run}" in route and self.run_id is None:
                route = "/runs"  # no unit has finished yet
            path = route.format(campaign=self.campaign_id, run=self.run_id)
            record, payload = self.client.call(
                "GET", route, path, due=due, parse=route != "/metrics"
            )
            self.reads.append(record)
            if record.ok and route == "/campaigns/{campaign}":
                done = [
                    r["run_id"]
                    for r in payload.get("runs", ())
                    if r.get("status") == "done"
                ]
                if done:
                    self.run_id = done[-1]
            if self.finished_at is not None:
                after += 1
            k += 1


def wait_done(client: Client, campaign_id: str, posted: float):
    """Poll ``/campaigns`` until the campaign ends; its final status."""
    status = None
    while time.perf_counter() - posted < CAMPAIGN_TIMEOUT_S:
        record, listing = client.call("GET", "poll /campaigns", "/campaigns")
        if record.ok:
            status = next(
                (
                    c["status"]
                    for c in listing["campaigns"]
                    if c["campaign_id"] == campaign_id
                ),
                None,
            )
            if status in ("done", "failed"):
                break
        time.sleep(POLL_S)
    return status


def run_service(
    root: Path, work: Path, specs, seconds: float, extra_setups: int
) -> dict:
    """One service run; returns raw measurements for the runner.

    ``specs(k)`` is the k-th campaign spec to post; campaigns are posted
    one after another while the next is expected to end within
    ``seconds`` of campaign wall-clock (at least one).
    """
    server, port, setup_s = spawn_server(
        root, work / "store", work / "serve.log"
    )
    client = Client(port)
    failures: list[str] = []
    reader = None
    campaigns: list[tuple[str, dict, float]] = []
    rss_mb = 0.0
    try:
        while True:
            spec = specs(len(campaigns))
            posted = time.perf_counter()
            record, submitted = client.call(
                "POST", "POST /campaigns", "/campaigns", json.dumps(spec).encode()
            )
            if not record.ok:
                raise RuntimeError(f"campaign submission failed: {record.status}")
            campaign_id = submitted["campaign_id"]
            if reader is None:
                reader = Reader(client, campaign_id)
                reader.start()
            else:
                reader.campaign_id = campaign_id
            status = wait_done(client, campaign_id, posted)
            campaign_s = time.perf_counter() - posted
            if status != "done":
                failures.append(f"campaign ended {status!r}, not 'done'")
                break
            campaigns.append((campaign_id, spec, campaign_s))
            if len(campaigns) == 1:
                # the high-water mark through one campaign under the reads,
                # whatever number of campaigns the run fits
                rss_mb = peak_rss_mb(server.pid)
            spent = [c[2] for c in campaigns]
            if sum(spent) + max(spent) > seconds:
                break
        reader.finished_at = time.perf_counter()
        if campaigns:
            body = json.dumps(campaigns[0][1]).encode()
            record, again = client.call("POST", "POST /campaigns", "/campaigns", body)
            if not record.ok or again.get("status") != "done":
                failures.append("re-submission was not served from the store")
        reader.join(timeout=CAMPAIGN_TIMEOUT_S)
        record, text = client.call(
            "GET", "scrape /metrics", "/metrics", parse=False
        )
        scrape = parse_metrics(text.decode()) if record.ok else {}
        units = []
        for campaign_id, spec, _ in campaigns:
            record, campaign = client.call(
                "GET", "fetch /campaigns/{campaign}", f"/campaigns/{campaign_id}"
            )
            served = []
            for run in campaign.get("runs", ()) if record.ok else ():
                record, report = client.call(
                    "GET",
                    "fetch /runs/{run}/report",
                    f"/runs/{run['run_id']}/report",
                )
                if record.ok:
                    served.append(report)
            if len(served) != len(spec["jobs"]):
                failures.append(
                    f"{len(served)} of {len(spec['jobs'])} reports served"
                )
            units += served
    finally:
        if reader is not None:
            reader.stop_now.set()
            reader.join(timeout=TIMEOUT_S + 1)
        stop_server(server)
    setups = [setup_s]
    for i in range(extra_setups):
        process, _, spawn_s = spawn_server(
            root, work / f"setup-store-{i}", work / "serve.log"
        )
        stop_server(process)
        setups.append(spawn_s)
    return {
        "setups": setups,
        "campaigns_s": [c[2] for c in campaigns],
        "peak_rss_mb": rss_mb,
        "reads": reader.reads,
        "log": client.log,
        "failures": failures,
        "scrape": scrape,
        "units": units,
    }


def service_layers(raw: dict) -> dict[str, float]:
    """Per-layer metrics of a service run: client-side per-route timings
    and byte counts, the final ``/metrics`` scrape, and the served unit
    reports. Layers the client cannot observe stay 0."""
    reads = raw["reads"]
    log = raw["log"]
    scrape = raw["scrape"]
    units = raw["units"]

    def p50(route: str) -> float:
        values = [r.duration_ms for r in log if r.route == route and r.ok]
        return percentile(values, 50) if values else 0.0

    store_reads = [r for r in reads if r.route in STORE_ROUTES]
    points = scrape.get("xplain_oracle_points_total", 0.0)
    engine_s = scrape.get("xplain_oracle_batch_seconds_sum", 0.0)
    spans = [len(u["timing"].get("spans", ())) for u in units]
    first = [
        u["search"]["evals_to_first_region"]
        for u in units
        if u["search"].get("evals_to_first_region") is not None
    ]
    hits = scrape.get("xplain_oracle_cache_hits_total", 0.0)
    return {
        "service.requests": float(len(log)),
        "service.submit_ms_p50": p50("POST /campaigns"),
        "service.campaign_ms_p50": p50("/campaigns/{campaign}"),
        "service.report_ms_p50": p50("/runs/{run}/report"),
        "service.metrics_ms_p50": p50("/metrics"),
        "service.read_bytes_mean": (
            sum(r.nbytes for r in reads) / len(reads) if reads else 0.0
        ),
        "service.late_ms_max": max(
            ((r.sent - r.due) * 1000.0 for r in reads), default=0.0
        ),
        "store.reads": float(len(store_reads)),
        "store.read_s": sum(r.done - r.sent for r in store_reads),
        "store.writes": scrape.get("xplain_units_completed_total", 0.0),
        "oracle.batches": scrape.get("xplain_oracle_batch_seconds_count", 0.0),
        "oracle.points": points,
        "oracle.cache_hits": hits,
        "oracle.hit_ratio": hits / points if points else 0.0,
        "oracle.engine_s": engine_s,
        "oracle.points_per_s": points / engine_s if engine_s else 0.0,
        "search.oracle_calls": scrape.get(
            "xplain_search_oracle_calls_total", 0.0
        ),
        "search.evals_to_first_region": float(sum(first)),
        "analyzer.calls": float(sum(u["analyzer_calls"] for u in units)),
        "parallel.units": float(len(units)),
        "obs.spans_per_unit": sum(spans) / len(spans) if spans else 0.0,
        "obs.spans_dropped": float(
            sum(u["timing"].get("spans_dropped", 0) for u in units)
        ),
    }
