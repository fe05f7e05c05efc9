"""Unit tests for the transport-independent gateway API layer."""

import pytest

from repro.experiments.registry import spec_ids
from repro.gateway import GatewayAPI, GatewayManager
from tests.gateway.client import wait_done


def wait_state(manager, job_id, timeout=60.0):
    return wait_done(manager.get(job_id), timeout)


@pytest.fixture
def api(gateway_manager):
    return GatewayAPI(gateway_manager)


@pytest.fixture
def cold_api(tmp_path):
    """API over a manager whose workers never run (queueing tests)."""
    manager = GatewayManager(
        workers=1, queue_depth=2, cache_dir=str(tmp_path), start_method="fork"
    )
    yield GatewayAPI(manager)
    manager.shutdown()


class TestHealthAndMetrics:
    def test_healthz(self, api):
        response = api.handle("GET", "/healthz", None)
        assert response.status == 200
        assert response.payload["status"] == "ok"
        assert response.payload["uptime_seconds"] >= 0

    def test_metrics_shape(self, cold_api):
        response = cold_api.handle("GET", "/metrics", None)
        assert response.status == 200
        payload = response.payload
        assert set(payload) >= {"uptime_seconds", "queue", "jobs", "cache", "tasks"}
        assert payload["jobs"]["submitted"] == 0
        assert payload["queue"]["depth"] == 0

    def test_wrong_method(self, api):
        response = api.handle("POST", "/healthz", None)
        assert response.status == 405
        assert response.payload["error"]["code"] == "method-not-allowed"
        assert ("Allow", "GET") in response.headers


class TestExperimentEndpoints:
    def test_list_covers_whole_registry(self, api):
        response = api.handle("GET", "/v1/experiments", None)
        assert response.status == 200
        listed = {entry["id"] for entry in response.payload["experiments"]}
        assert listed == set(spec_ids())

    def test_detail_includes_param_schema(self, api):
        response = api.handle("GET", "/v1/experiments/unfold", None)
        assert response.status == 200
        spec = response.payload["experiment"]
        assert spec["id"] == "unfold"
        assert {param["name"] for param in spec["params"]} == {"x", "y"}

    def test_unknown_experiment_404(self, api):
        response = api.handle("GET", "/v1/experiments/nope", None)
        assert response.status == 404
        assert response.payload["error"]["code"] == "unknown-experiment"

    def test_unknown_route_404(self, api):
        response = api.handle("GET", "/v2/everything", None)
        assert response.status == 404
        assert response.payload["error"]["code"] == "not-found"


class TestSubmission:
    def test_submit_returns_202_with_location(self, api):
        response = api.handle(
            "POST", "/v1/experiments/unfold/runs", {"x": 4, "y": 4}
        )
        assert response.status == 202
        job = response.payload["job"]
        assert job["spec_id"] == "unfold"
        assert response.payload["status_url"] == f"/v1/runs/{job['id']}"
        assert ("Location", f"/v1/runs/{job['id']}") in response.headers
        wait_state(api.manager, job["id"])

    def test_validation_errors_are_per_field(self, api):
        response = api.handle(
            "POST",
            "/v1/experiments/unfold/runs",
            {"x": "four", "y": True, "bogus": 1},
        )
        assert response.status == 400
        error = response.payload["error"]
        assert error["code"] == "invalid-params"
        assert set(error["fields"]) == {"x", "y", "bogus"}
        assert "integer" in error["fields"]["x"]
        assert "unknown parameter" in error["fields"]["bogus"]

    def test_submit_to_unknown_experiment_404(self, api):
        response = api.handle("POST", "/v1/experiments/nope/runs", {})
        assert response.status == 404
        assert response.payload["error"]["code"] == "unknown-experiment"

    def test_converter_errors_become_field_errors(self, api):
        response = api.handle(
            "POST", "/v1/experiments/faults/runs", {"dead": ["zero,zero"]}
        )
        assert response.status == 400
        assert "dead" in response.payload["error"]["fields"]

    def test_queue_full_maps_to_429(self, cold_api):
        # Distinct params: identical submissions would coalesce instead.
        for x in (2, 3):
            body = {"x": x}
            assert cold_api.handle("POST", "/v1/experiments/unfold/runs", body).status == 202
        response = cold_api.handle("POST", "/v1/experiments/unfold/runs", {"x": 4})
        assert response.status == 429
        assert response.payload["error"]["code"] == "queue-full"
        assert ("Retry-After", "1") in response.headers

    def test_submit_during_shutdown_maps_to_503(self, cold_api):
        cold_api.manager.shutdown()
        response = cold_api.handle("POST", "/v1/experiments/unfold/runs", {})
        assert response.status == 503
        assert response.payload["error"]["code"] == "shutting-down"


class TestChoiceValidation:
    """Enumerated string params reject bad values per field (400)."""

    def test_bad_objective_is_a_field_error(self, api):
        response = api.handle(
            "POST", "/v1/experiments/mapping-search/runs", {"objective": "banana"}
        )
        assert response.status == 400
        error = response.payload["error"]
        assert error["code"] == "invalid-params"
        assert set(error["fields"]) == {"objective"}
        assert "'banana'" in error["fields"]["objective"]
        assert "energy-wear" in error["fields"]["objective"]

    def test_bad_search_mode_is_a_field_error(self, api):
        response = api.handle(
            "POST", "/v1/experiments/mapping-search/runs", {"search": "dfs"}
        )
        assert response.status == 400
        fields = response.payload["error"]["fields"]
        assert set(fields) == {"search"}
        assert "beam" in fields["search"]

    def test_bad_fields_reported_together(self, api):
        response = api.handle(
            "POST",
            "/v1/experiments/mapping-search/runs",
            {"objective": "banana", "search": "dfs", "beam_width": "wide"},
        )
        assert response.status == 400
        assert set(response.payload["error"]["fields"]) == {
            "objective",
            "search",
            "beam_width",
        }

    def test_valid_choices_accepted(self, api):
        response = api.handle(
            "POST",
            "/v1/experiments/mapping-search/runs",
            {"objective": "wear", "search": "greedy", "limit": 1},
        )
        assert response.status == 202
        wait_state(api.manager, response.payload["job"]["id"])


class TestRunEndpoints:
    def test_run_detail_reaches_done_with_result(self, api):
        submitted = api.handle(
            "POST", "/v1/experiments/unfold/runs", {"x": 4, "y": 4}
        )
        job_id = submitted.payload["job"]["id"]
        wait_state(api.manager, job_id)
        response = api.handle("GET", f"/v1/runs/{job_id}", None)
        assert response.status == 200
        assert response.payload["state"] == "done"
        assert response.payload["result"]["result"] == "Fig4Result"
        assert response.payload["manifest"]["spec_id"] == "unfold"

    def test_failed_run_carries_structured_error(self, api):
        submitted = api.handle(
            "POST",
            "/v1/experiments/walkthrough/runs",
            {"network": "NoSuchNet"},
        )
        job_id = submitted.payload["job"]["id"]
        job = wait_state(api.manager, job_id)
        assert job.state == "failed"
        response = api.handle("GET", f"/v1/runs/{job_id}", None)
        # The ReproError surfaces as a structured error on the job, not
        # a traceback or a 500 — the HTTP twin of CLI exit code 2.
        assert response.status == 200
        assert response.payload["error"]["code"] == "repro-error"
        assert "NoSuchNet" in response.payload["error"]["message"]
        assert response.payload["result"] is None

    def test_unknown_run_404(self, api):
        response = api.handle("GET", "/v1/runs/run-999999-deadbeef", None)
        assert response.status == 404
        assert response.payload["error"]["code"] == "unknown-job"

    def test_list_runs(self, api):
        submitted = api.handle("POST", "/v1/experiments/unfold/runs", {})
        job_id = submitted.payload["job"]["id"]
        wait_state(api.manager, job_id)
        response = api.handle("GET", "/v1/runs", None)
        assert response.status == 200
        runs = response.payload["runs"]
        assert runs[-1]["id"] == job_id
        # Oldest first, and summaries stay light: no result body.
        created = [run["created_at"] for run in runs]
        assert created == sorted(created)
        assert all("result" not in run for run in runs)

    def test_handle_never_raises(self, api):
        # Even a nonsense params type becomes a structured response.
        response = api.handle("POST", "/v1/experiments/unfold/runs", "not-a-dict")
        assert response.status == 400
