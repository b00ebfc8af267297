"""End-to-end HTTP tests: the screening service over a real socket.

One bundle-backed :class:`DetectorServer` on an ephemeral port serves the
whole module; every test talks to it through the stdlib-only
:class:`ScoringClient`.  This module is also the ``make smoke-serve``
target: it proves the full export → serve → score loop, the structured
error contract, and correctness under concurrent clients.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.pipeline import BOUNDARY_NAMES
from repro.serve.bundle import export_bundle, load_bundle
from repro.serve.client import ScoringClient, ServerError
from repro.serve.server import DetectorServer


@pytest.fixture(scope="module")
def bundle_path(fitted_detector, tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "detector.npz"
    export_bundle(fitted_detector, path)
    return str(path)


@pytest.fixture(scope="module")
def server(bundle_path):
    with DetectorServer(bundle_path, port=0, max_wait_ms=1.0) as running:
        yield running


@pytest.fixture(scope="module")
def client(server):
    client = ScoringClient(server.url, timeout=30.0)
    client.wait_ready(timeout=10.0)
    return client


def _post_raw(url: str, body: bytes, content_type="application/json"):
    request = urllib.request.Request(
        url + "/v1/score", data=body,
        headers={"Content-Type": content_type}, method="POST",
    )
    return urllib.request.urlopen(request, timeout=10)


class TestEndpoints:
    def test_healthz(self, client):
        assert client.health() == {"status": "ok"}

    def test_readyz_reports_bundle(self, server, client):
        reply = client._request("GET", "/readyz")
        assert reply["status"] == "ready"
        assert reply["bundle"]["digest"] == server.bundle.digest
        assert reply["bundle"]["boundaries"] == list(BOUNDARY_NAMES)

    def test_metricz_counts_scoring(self, server, client, experiment_data):
        before = client.metrics()["counters"].get("serve.devices_scored", 0)
        client.score(experiment_data.dutt_fingerprints[:5])
        metrics = client.metrics()
        assert metrics["counters"]["serve.devices_scored"] == before + 5
        assert metrics["bundle"]["digest"] == server.bundle.digest
        assert metrics["bundle"]["schema_version"] == 1
        assert "serve.queue_depth" in metrics["gauges"]

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServerError) as err:
            client._request("GET", "/v2/nothing")
        assert err.value.status == 404
        assert err.value.code == "not_found"


class TestScoring:
    def test_single_device_matches_detector(self, client, fitted_detector,
                                            experiment_data):
        device = experiment_data.dutt_fingerprints[0]
        result = client.score(device, boundaries=["B5"])
        assert result.n_devices == 1
        expected = fitted_detector.classify(device[None, :], boundary="B5")
        assert np.array_equal(result.verdicts["B5"], expected)

    def test_batch_matches_detector_exactly(self, client, fitted_detector,
                                            experiment_data):
        """JSON floats round-trip exactly: wire scores == in-process scores."""
        fingerprints = experiment_data.dutt_fingerprints
        result = client.score(fingerprints)
        expected = fitted_detector.decision_scores_batch(fingerprints)
        for name in BOUNDARY_NAMES:
            assert np.array_equal(result.scores[name], expected[name]), name
            assert np.array_equal(result.verdicts[name],
                                  expected[name] >= 0.0), name

    def test_keep_alive_connection_serves_sequential_requests(
            self, server, fitted_detector, experiment_data):
        """Five requests on one HTTP/1.1 connection, each scored correctly."""
        import http.client

        from repro.serve.server import _Handler

        assert _Handler.disable_nagle_algorithm is True
        fingerprints = experiment_data.dutt_fingerprints
        expected = fitted_detector.decision_scores_batch(fingerprints)
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=30.0)
        try:
            for i in range(5):
                rows = slice(4 * i, 4 * i + 4)
                connection.request(
                    "POST", "/v1/score",
                    body=json.dumps({"fingerprints": fingerprints[rows].tolist()}),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                assert response.status == 200
                reply = json.loads(response.read().decode("utf-8"))
                for name in BOUNDARY_NAMES:
                    # A 4-row batch may differ from the 120-row one in the
                    # last ULP (BLAS blocking), hence allclose.
                    np.testing.assert_allclose(
                        reply["boundaries"][name]["scores"], expected[name][rows],
                        rtol=1e-9, atol=1e-12)
        finally:
            connection.close()

    def test_boundary_subset(self, client, experiment_data):
        result = client.score(experiment_data.dutt_fingerprints[:2],
                              boundaries=["B3", "B5"])
        assert set(result.scores) == {"B3", "B5"}

    def test_concurrent_clients(self, server, fitted_detector,
                                experiment_data):
        """8 clients hammering the server coalesce without cross-talk."""
        fingerprints = experiment_data.dutt_fingerprints
        expected = fitted_detector.decision_scores_batch(fingerprints)
        n = fingerprints.shape[0]
        slices = [(i % n, fingerprints[i % n:i % n + 2]) for i in range(8)]
        results: dict = {}
        errors: list = []

        def worker(index, offset, block):
            try:
                local = ScoringClient(server.url, timeout=30.0)
                for _ in range(3):
                    results[(index, offset)] = local.score(block)
            except BaseException as error:  # pragma: no cover - test plumbing
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i, o, b))
                   for i, (o, b) in enumerate(slices)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        # Coalesced batches go through BLAS with a different stacked shape,
        # which may perturb the last ULP — hence allclose, not array_equal.
        for (index, offset), result in results.items():
            width = result.n_devices
            for name in BOUNDARY_NAMES:
                np.testing.assert_allclose(
                    result.scores[name], expected[name][offset:offset + width],
                    rtol=1e-9, atol=1e-12, err_msg=f"{index}/{offset}/{name}",
                )


class TestErrorContract:
    def test_nan_payload_is_structured_400(self, client, experiment_data):
        poisoned = experiment_data.dutt_fingerprints[:2].copy()
        poisoned[0, 0] = np.nan
        with pytest.raises(ServerError) as err:
            client.score(poisoned)
        assert err.value.status == 400
        assert err.value.code == "non_finite"

    def test_wrong_width_is_structured_400(self, client, experiment_data):
        narrow = experiment_data.dutt_fingerprints[:2, :-1]
        with pytest.raises(ServerError) as err:
            client.score(narrow)
        assert err.value.status == 400
        assert err.value.code == "bad_width"

    def test_non_numeric_is_structured_400(self, server):
        body = json.dumps({"fingerprints": [["a", "b"]]}).encode()
        with pytest.raises(urllib.error.HTTPError) as err:
            _post_raw(server.url, body)
        assert err.value.code == 400
        assert json.loads(err.value.read())["error"]["code"] == "bad_dtype"

    def test_unknown_boundary_is_structured_400(self, client,
                                                experiment_data):
        with pytest.raises(ServerError) as err:
            client.score(experiment_data.dutt_fingerprints[:1],
                         boundaries=["B9"])
        assert err.value.status == 400
        assert err.value.code == "unknown_boundary"

    def test_oversized_batch_is_structured_400(self, bundle_path,
                                               experiment_data):
        with DetectorServer(load_bundle(bundle_path), port=0,
                            max_request_devices=8) as capped:
            local = ScoringClient(capped.url)
            local.wait_ready()
            with pytest.raises(ServerError) as err:
                local.score(experiment_data.dutt_fingerprints[:9])
        assert err.value.status == 400
        assert err.value.code == "too_large"

    def test_unparseable_body_is_bad_json(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post_raw(server.url, b"{not json")
        assert err.value.code == 400
        assert json.loads(err.value.read())["error"]["code"] == "bad_json"

    def test_missing_fingerprints_is_bad_request(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post_raw(server.url, json.dumps({"devices": []}).encode())
        assert err.value.code == 400
        assert json.loads(err.value.read())["error"]["code"] == "bad_request"

    def test_bad_boundaries_type_is_bad_request(self, server,
                                                experiment_data):
        body = json.dumps({
            "fingerprints": experiment_data.dutt_fingerprints[:1].tolist(),
            "boundaries": "B5",
        }).encode()
        with pytest.raises(urllib.error.HTTPError) as err:
            _post_raw(server.url, body)
        assert err.value.code == 400

    def test_empty_body_is_rejected(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post_raw(server.url, b"")
        assert err.value.code == 400
        assert json.loads(err.value.read())["error"]["code"] == "empty_body"

    def test_server_survives_abuse(self, client, experiment_data):
        """After every bad payload above, the server still scores correctly."""
        result = client.score(experiment_data.dutt_fingerprints[:3])
        assert result.n_devices == 3


class TestLifecycle:
    def test_start_stop_cycle(self, bundle_path, experiment_data):
        server = DetectorServer(load_bundle(bundle_path), port=0)
        server.start()
        try:
            local = ScoringClient(server.url)
            local.wait_ready()
            assert local.score(experiment_data.dutt_fingerprints[:1]).n_devices == 1
        finally:
            server.stop()
        with pytest.raises(Exception):
            ScoringClient(server.url, timeout=1.0).health()
