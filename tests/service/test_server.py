"""End-to-end HTTP tests: a real gateway on a random port.

Includes the acceptance-criteria parity check: for registered
experiments, the payload served by ``GET /v1/runs/<id>`` equals the
``rota <exp> --json`` output (same ``to_dict()`` dictionary), and a
repeated POST with identical params is served as a cache hit visible
in ``/metrics``.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.experiments.registry import run_experiment
from repro.gateway import GatewayConfig, GatewayService
from tests.gateway.client import request, wait_for, wait_terminal

#: (spec id, params, direct runner kwargs) for the parity sweep — cheap
#: experiments spanning no-param, int-param, and str-param schemas.
PARITY_CASES = [
    ("table2", {}, {}),
    ("unfold", {"x": 5, "y": 4}, {"x": 5, "y": 4}),
    ("walkthrough", {"network": "SqueezeNet"}, {"network": "SqueezeNet"}),
    ("fleet-accuracy", {"requests": 40}, {"num_requests": 40}),
]


def submit_and_wait(service, spec_id, params):
    status, _, payload = request(
        service, "POST", f"/v1/experiments/{spec_id}/runs", params
    )
    assert status == 202, payload
    return wait_terminal(service, payload["job"]["id"])


def one_worker_gateway(tmp_path):
    service = GatewayService(
        GatewayConfig(
            port=0,
            workers=1,
            queue_depth=8,
            start_method="fork",
            cache_dir=str(tmp_path),
        )
    )
    service.start()
    return service


class TestHttpSurface:
    def test_healthz(self, gateway):
        status, _, payload = request(gateway, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"

    def test_experiments_listing(self, gateway):
        status, _, payload = request(gateway, "GET", "/v1/experiments")
        assert status == 200
        ids = {entry["id"] for entry in payload["experiments"]}
        assert {"table2", "unfold", "lifetime", "faults"} <= ids

    def test_invalid_json_body_is_structured_400(self, gateway):
        req = urllib.request.Request(
            gateway.url + "/v1/experiments/unfold/runs",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=30)
        assert excinfo.value.code == 400
        payload = json.loads(excinfo.value.read())
        assert payload["error"]["code"] == "invalid-json"

    def test_validation_error_over_http(self, gateway):
        status, _, payload = request(
            gateway, "POST", "/v1/experiments/unfold/runs", {"x": "wide"}
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid-params"
        assert "x" in payload["error"]["fields"]

    def test_unknown_route_over_http(self, gateway):
        status, _, payload = request(gateway, "GET", "/totally/unknown")
        assert status == 404
        assert payload["error"]["code"] == "not-found"


class TestParity:
    @pytest.mark.parametrize(
        "spec_id,params,kwargs",
        PARITY_CASES,
        ids=[case[0] for case in PARITY_CASES],
    )
    def test_run_payload_matches_cli_json(self, gateway, spec_id, params, kwargs):
        body = submit_and_wait(gateway, spec_id, params)
        assert body["state"] == "done", body["error"]
        direct = run_experiment(spec_id, **kwargs).result.to_dict()
        # Same dictionary `rota <exp> --json` prints; manifest timing
        # fields are allowed to differ and live under body["manifest"].
        assert body["result"] == json.loads(json.dumps(direct))
        assert body["manifest"]["spec_id"] == spec_id

    def test_repeat_post_is_cache_hit_in_metrics(self, gateway):
        params = {"x": 7, "y": 3}
        first = submit_and_wait(gateway, "unfold", params)
        assert first["state"] == "done"
        _, _, before = request(gateway, "GET", "/metrics")
        second = submit_and_wait(gateway, "unfold", params)
        assert second["state"] == "done"
        assert second["cached"] is True
        assert second["result"] == first["result"]
        _, _, after = request(gateway, "GET", "/metrics")
        assert after["cache"]["hits"] > before["cache"]["hits"]

    def test_metrics_track_jobs_and_requests(self, gateway):
        submit_and_wait(gateway, "unfold", {"x": 2, "y": 9})
        _, _, payload = request(gateway, "GET", "/metrics")
        assert payload["jobs"]["completed"] >= 1
        assert payload["requests"]["total"] >= 1
        assert payload["uptime_seconds"] > 0


class TestShutdown:
    def test_drain_summary_and_queued_cancellation(self, tmp_path):
        service = one_worker_gateway(tmp_path)
        done = submit_and_wait(service, "unfold", {"x": 3, "y": 3})
        assert done["state"] == "done"
        # Occupy the only worker, then queue a second unique run: the
        # drain lets the first finish and cancels the second.
        _, _, running = request(
            service, "POST", "/v1/experiments/lifetime/runs", {"iterations": 60}
        )
        assert wait_for(lambda: service.manager.running_count() == 1)
        _, _, queued = request(
            service, "POST", "/v1/experiments/lifetime/runs", {"iterations": 50}
        )
        queued_job = service.manager.get(queued["job"]["id"])
        assert queued_job.state == "queued"
        summary = service.shutdown()
        assert "drained" in summary
        assert "1 cancelled" in summary
        assert queued_job.state == "cancelled"
        assert service.manager.get(running["job"]["id"]).state == "done"
        assert "2 completed" in summary

    def test_server_stops_accepting_after_shutdown(self, tmp_path):
        service = one_worker_gateway(tmp_path)
        url = service.url
        service.shutdown()
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(url + "/healthz", timeout=2)
