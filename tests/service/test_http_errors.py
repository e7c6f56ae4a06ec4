"""HTTP error discipline: every failure is a JSON body with the right
status — 400 malformed, 404 unknown, 405 wrong method, 413 oversized,
429 backlog full — and no request body makes the server answer 500."""

import http.client
import json
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service import MAX_BODY_BYTES, AnalysisService, make_server

SPEC = {
    "name": "http-errors",
    "seed": 3,
    "defaults": {
        "explainer_samples": 15,
        "generalizer_samples": 0,
        "generator": {"max_subspaces": 1},
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
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
JSON_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)


def _object(**optional):
    """Objects holding some of the keys, or any JSON value instead."""
    return JSON_VALUES | st.fixed_dictionaries({}, optional=optional)


_JOBS = _object(
    name=st.sampled_from(["a", "b"]) | JSON_VALUES,
    problem=_object(
        factory=st.just("repro.parallel._testing:band_problem") | JSON_VALUES,
        domain=st.just("caching") | JSON_VALUES,
        kwargs=st.just({"dim": 2}) | JSON_VALUES,
    ),
    config=_object(explainer_samples=st.just(15) | JSON_VALUES),
    seed=st.integers() | JSON_VALUES,
)
SPEC_SHAPED = _object(
    name=JSON_VALUES,
    seed=st.integers() | JSON_VALUES,
    defaults=_object(generator=_object(max_subspaces=st.just(1) | JSON_VALUES)),
    jobs=st.lists(_JOBS, max_size=2) | JSON_VALUES,
)
#: any bytes, any JSON value, and objects shaped like a campaign spec
BODIES = (
    st.binary(max_size=64)
    | JSON_VALUES.map(lambda value: json.dumps(value).encode())
    | SPEC_SHAPED.map(lambda value: json.dumps(value).encode())
)


def _nested_kwargs(depth):
    """A spec body whose job kwargs hold ``depth`` nested arrays."""
    factory = SPEC["jobs"][0]["problem"]["factory"]
    nest = "[" * depth + "]" * depth
    body = '{"jobs": [{"problem": {"factory": "%s", "kwargs": {"a": %s}}}]}'
    return (body % (factory, nest)).encode()


def _request(base, path, method="GET", data=None, headers=None):
    """Issue one request; return (status, parsed JSON body, headers)."""
    request = urllib.request.Request(
        base + path, data=data, method=method, headers=headers or {}
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


class TestMalformedRequests:
    def test_malformed_json_is_400_with_json_error(self, server):
        status, body, _ = _request(
            server, "/campaigns", method="POST", data=b"{not json"
        )
        assert status == 400
        assert "not valid JSON" in body["error"]

    def test_non_object_spec_is_400(self, server):
        status, body, _ = _request(
            server, "/campaigns", method="POST", data=b'["a", "list"]'
        )
        assert status == 400
        assert "JSON object" in body["error"]

    def test_invalid_spec_is_400(self, server):
        status, body, _ = _request(
            server,
            "/campaigns",
            method="POST",
            data=json.dumps({"name": "x"}).encode(),
        )
        assert status == 400
        assert body["error"]

    def test_non_object_job_is_400(self, server):
        status, body, _ = _request(
            server,
            "/campaigns",
            method="POST",
            data=json.dumps({"jobs": [1]}).encode(),
        )
        assert status == 400
        assert "job #0 must be an object" in body["error"]

    @pytest.mark.parametrize(
        "config, knob",
        [
            ({"explainer_samples": "x"}, "explainer_samples"),
            ({"cache_max_entries": 64}, "cache_max_entries"),
            ({"generator": {"significance_pairs": -4}}, "significance_pairs"),
            ({"generator": {"expansion": {"stp": 0.1}}}, "ExpansionConfig"),
        ],
    )
    def test_bad_job_config_is_400_and_registers_nothing(self, server, config, knob):
        spec = json.loads(json.dumps(SPEC))
        spec["jobs"][0]["config"] = config
        status, body, _ = _request(
            server, "/campaigns", method="POST", data=json.dumps(spec).encode()
        )
        assert status == 400
        assert knob in body["error"]
        status, body, _ = _request(server, "/campaigns")
        assert (status, body["campaigns"]) == (200, [])

    @pytest.mark.parametrize(
        "query", ["workers=soon", "workers=2", "dry_run", "a=1&b=2"]
    )
    def test_query_string_is_400(self, server, query):
        status, body, _ = _request(
            server,
            f"/campaigns?{query}",
            method="POST",
            data=json.dumps(SPEC).encode(),
        )
        assert status == 400
        assert query in body["error"]
        status, body, _ = _request(server, "/campaigns")
        assert (status, body["campaigns"]) == (200, [])

    @pytest.mark.parametrize(
        "data", [b"\xff", b"[" * 5000], ids=["not-utf8", "5000-arrays-deep"]
    )
    def test_undecodable_body_is_400(self, server, data):
        status, body, _ = _request(server, "/campaigns", method="POST", data=data)
        assert status == 400
        assert "not valid JSON" in body["error"]

    @pytest.mark.parametrize("depth", [60, 980])
    def test_deep_spec_is_400(self, server, depth):
        # 980 arrays parse, then overflowed the recursion limit while the
        # run IDs were hashed; 60 (65 levels in all) is just over the cap.
        status, body, _ = _request(
            server, "/campaigns", method="POST", data=_nested_kwargs(depth)
        )
        assert status == 400
        assert "nests deeper" in body["error"]
        status, body, _ = _request(server, "/campaigns")
        assert (status, body["campaigns"]) == (200, [])

    def test_negative_content_length_is_400(self, server):
        # No body follows: read(-1) would block until the client hangs up.
        url = urllib.parse.urlparse(server)
        connection = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
        try:
            connection.putrequest("POST", "/campaigns")
            connection.putheader("Content-Length", "-1")
            connection.endheaders()
            response = connection.getresponse()
            status, body = response.status, json.loads(response.read())
        finally:
            connection.close()
        assert status == 400
        assert "Content-Length" in body["error"]


class TestFuzzedBodies:
    def test_no_body_answers_500(self, tmp_path):
        # Never started: an accepted spec is registered and queued, but
        # nothing runs it.
        service = AnalysisService(tmp_path / "store")
        server = make_server(service, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        base = f"http://127.0.0.1:{server.server_address[1]}"

        @settings(deadline=None)
        @given(body=BODIES)
        @example(body=b"\xff")
        @example(body=b"[" * 5000)
        @example(body=_nested_kwargs(980))
        def post(body):
            before = len(service.store.list_campaigns())
            status, payload, _ = _request(base, "/campaigns", "POST", body)
            assert status in (200, 202, 400, 413), (status, payload)
            registered = len(service.store.list_campaigns()) - before
            if status >= 400:
                assert payload["error"]
                assert registered == 0
            else:
                assert service.store.campaign(payload["campaign_id"])

        try:
            post()
        finally:
            server.shutdown()
            server.server_close()


class TestUnknownRoutes:
    def test_unknown_get_path_is_404(self, server):
        status, body, _ = _request(server, "/nope/nothing")
        assert status == 404
        assert "unknown path" in body["error"]

    def test_unknown_post_path_is_404(self, server):
        status, body, _ = _request(
            server, "/campaigns/abc/retry", method="POST", data=b"{}"
        )
        assert status == 404


class TestWrongMethods:
    @pytest.mark.parametrize("method", ["PUT", "DELETE", "PATCH"])
    def test_unsupported_methods_are_405(self, server, method):
        status, body, headers = _request(
            server, "/campaigns", method=method, data=b"{}"
        )
        assert status == 405
        assert method in body["error"]
        assert "GET" in headers["Allow"]

    def test_post_to_a_get_only_route_is_405(self, server):
        for path in ("/healthz", "/runs", "/metrics"):
            status, body, headers = _request(
                server, path, method="POST", data=b"{}"
            )
            assert status == 405, path
            assert headers["Allow"] == "GET"
            assert "POST /campaigns" in body["error"]


class TestOversizedPayload:
    def test_body_over_the_cap_is_413(self, server):
        padding = "x" * (MAX_BODY_BYTES + 1)
        status, body, _ = _request(
            server,
            "/campaigns",
            method="POST",
            data=json.dumps({"pad": padding}).encode(),
        )
        assert status == 413
        assert "exceeds" in body["error"]

    def test_body_at_the_cap_is_parsed_normally(self, server):
        # One byte under the cap passes the size gate and fails later,
        # in spec validation — proving 413 is purely the size check.
        padding = "x" * (MAX_BODY_BYTES - 100)
        status, body, _ = _request(
            server,
            "/campaigns",
            method="POST",
            data=json.dumps({"pad": padding}).encode(),
        )
        assert status == 400


class TestBackpressure:
    def test_full_backlog_is_429_with_retry_after(self, tmp_path):
        # The service is deliberately never started: nothing drains the
        # backlog, so the second distinct submission must bounce.
        service = AnalysisService(tmp_path / "store", max_pending=1)
        server = make_server(service, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            status, body, _ = _request(
                base,
                "/campaigns",
                method="POST",
                data=json.dumps(SPEC).encode(),
            )
            assert status == 202
            other = dict(SPEC, name="svc-test-2")
            status, body, headers = _request(
                base,
                "/campaigns",
                method="POST",
                data=json.dumps(other).encode(),
            )
            assert status == 429
            assert "backlog" in body["error"]
            assert int(headers["Retry-After"]) > 0
        finally:
            server.shutdown()
            server.server_close()
