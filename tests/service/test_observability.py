"""Observability surface: /metrics, /dashboard, progress, logging, profiles."""

import json
import logging
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "obs"))
from promtext import parse, sample  # noqa: E402 - tests/obs helper

from repro.obs import EXPOSITION_CONTENT_TYPE, install, uninstall  # noqa: E402
from repro.parallel.campaign import (  # noqa: E402
    CampaignSpec,
    deterministic_view,
    run_campaign,
)
from repro.service import AnalysisService, make_server  # noqa: E402

SPEC = {
    "name": "obs-test",
    "seed": 11,
    "defaults": {
        "explainer_samples": 15,
        "generalizer_samples": 0,
        "generator": {
            "max_subspaces": 1,
            "tree_extra_samples": 40,
            "significance_pairs": 12,
        },
    },
    "jobs": [
        {
            "name": "band",
            "problem": {
                "factory": "repro.parallel._testing:band_problem",
                "kwargs": {"dim": 2},
            },
        }
    ],
}


@pytest.fixture()
def service(tmp_path):
    service = AnalysisService(tmp_path / "store").start()
    yield service
    service.stop()


@pytest.fixture()
def server(service):
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def _get_raw(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return (
            response.status,
            response.headers.get("Content-Type"),
            response.read(),
        )


def _get(base, path):
    status, _, body = _get_raw(base, path)
    return status, json.loads(body)


def _submit_and_wait(base, spec=SPEC, timeout=60.0):
    request = urllib.request.Request(
        base + "/campaigns", data=json.dumps(spec).encode(), method="POST"
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        campaign_id = json.loads(response.read())["campaign_id"]
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, campaign = _get(base, f"/campaigns/{campaign_id}")
        if campaign["status"] in ("done", "failed"):
            return campaign
        time.sleep(0.05)
    raise AssertionError(f"campaign {campaign_id} never finished")


class TestMetricsEndpoint:
    def test_scrape_content_type_and_families(self, server):
        campaign = _submit_and_wait(server)
        assert campaign["status"] == "done"
        status, content_type, body = _get_raw(server, "/metrics")
        assert status == 200
        assert content_type == EXPOSITION_CONTENT_TYPE
        families = parse(body.decode("utf-8"))
        # oracle + search totals folded from the finished unit
        assert sample(
            families, "xplain_units_completed_total",
            domain="custom", resumed="false",
        ) == 1
        assert sample(
            families, "xplain_oracle_points_total", domain="custom"
        ) > 0
        assert sample(families, "xplain_campaigns_completed_total") == 1
        # service gauges synthesized per scrape
        assert sample(families, "xplain_service_worker_alive") == 1
        assert sample(families, "xplain_service_uptime_seconds") >= 0
        # HTTP latency histogram saw the polling GETs
        assert families["xplain_http_request_seconds"]["type"] == "histogram"
        assert sample(
            families, "xplain_http_requests_total",
            method="GET", route="/campaigns/{id}",
        ) > 0

    def test_scrape_is_read_only(self, server):
        _submit_and_wait(server)

        def work_families(text):
            return {
                (name, labels): value
                for name, entry in parse(text).items()
                if name.startswith(("xplain_oracle", "xplain_units"))
                for (name_, labels), value in entry["samples"].items()
                for name in (name_,)
            }

        first = _get_raw(server, "/metrics")[2].decode()
        second = _get_raw(server, "/metrics")[2].decode()
        assert work_families(first) == work_families(second)

    def test_metrics_route_rejects_post(self, server):
        request = urllib.request.Request(
            server + "/metrics", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 405

    def test_unknown_routes_use_low_cardinality_label(self, service, server):
        try:
            urllib.request.urlopen(server + "/no/such/route", timeout=10)
        except urllib.error.HTTPError:
            pass
        snap = service.metrics.snapshot()
        labels = snap["xplain_http_requests_total"]["samples"]
        assert all('"(unknown)"' in k or '"/' in k for k in labels)


class TestDashboard:
    def test_dashboard_serves_self_contained_html(self, server):
        status, content_type, body = _get_raw(server, "/dashboard")
        assert status == 200
        assert content_type.startswith("text/html")
        text = body.decode("utf-8")
        assert text.startswith("<!DOCTYPE html>")
        # self-contained: no external scripts, styles, or fonts
        assert "src=\"http" not in text and "href=\"http" not in text
        # the page drives the documented JSON API
        for path in ("/healthz", "/campaigns", "/search"):
            assert path in text


class TestProgress:
    def test_campaign_progress_fraction(self, server):
        campaign = _submit_and_wait(server)
        assert campaign["units_total"] == 1
        assert campaign["units_done"] == 1
        assert campaign["progress"] == 1.0

    def test_unknown_campaign_still_404s(self, server):
        try:
            urllib.request.urlopen(server + "/campaigns/nope", timeout=10)
            raise AssertionError("expected 404")
        except urllib.error.HTTPError as err:
            assert err.code == 404

    def test_list_campaigns_counts_done_units(self, service):
        service.submit(SPEC)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            rows = service.store.list_campaigns()
            if rows and rows[0]["status"] == "done":
                break
            time.sleep(0.05)
        assert rows[0]["num_runs"] == 1
        assert rows[0]["num_done"] == 1


class TestRequestLogging:
    def test_requests_log_through_stdlib_logging(self, server, caplog):
        with caplog.at_level(logging.INFO, logger="repro.service"):
            _get(server, "/healthz")
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and not any(
                "/healthz" in record.getMessage()
                for record in caplog.records
            ):
                time.sleep(0.01)
        assert any(
            "/healthz" in record.getMessage() for record in caplog.records
        ), "request line never reached the 'repro.service' logger"


class TestDeterminismContract:
    def test_instrumented_run_is_bit_identical(self):
        spec = CampaignSpec.from_dict(SPEC)
        plain = run_campaign(spec)
        registry = install()
        try:
            instrumented = run_campaign(spec)
        finally:
            uninstall()
        assert deterministic_view(plain) == deterministic_view(instrumented)
        # both runs profile their units: profiles need no registry
        for report in (plain, instrumented):
            rows = report["problems"][0]["timing"]["profile"]
            assert {"unit", "stage.generate", "oracle.batch"} <= set(rows)
            assert report["timing"]["profile"]["campaign"]["calls"] == 1
        snap = registry.snapshot()
        assert "xplain_oracle_batch_seconds" in snap
        assert "xplain_units_completed_total" in snap
