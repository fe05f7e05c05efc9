"""Gateway hardening: job timeouts (504), circuit breaker, worker recovery.

Workers are ``fork``-started, so a ``run_experiment`` patched in this
process before the manager starts is what the workers execute.
"""

import os
import signal
import time

import pytest

from repro.gateway import GatewayAPI, GatewayManager, JobState
from repro.resilience import CircuitBreaker, CircuitOpenError
from tests.gateway.client import wait_done, wait_for

RUN_EXPERIMENT = "repro.experiments.registry.run_experiment"


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def manager_factory(tmp_path):
    managers = []

    def build(**kwargs):
        kwargs.setdefault("workers", 1)
        manager = GatewayManager(
            cache_dir=str(tmp_path / "cache"),
            cache_enabled=False,
            start_method="fork",
            **kwargs,
        )
        manager.start()
        managers.append(manager)
        return manager

    yield build
    for manager in managers:
        manager.shutdown(timeout=5.0)


def _slow(spec_id, **params):
    time.sleep(5.0)


class TestJobTimeout:
    def test_overrunning_job_flips_to_timeout(self, manager_factory, monkeypatch):
        monkeypatch.setattr(RUN_EXPERIMENT, _slow)
        manager = manager_factory(job_timeout=0.2)
        job = manager.submit("unfold", {})
        wait_done(job, timeout=10.0)
        assert job.state == JobState.TIMEOUT
        assert job.error["code"] == "timeout"
        assert manager.metrics.jobs_timeout == 1
        assert manager.metrics.jobs_failed == 0

    def test_timeout_job_detail_is_504(self, manager_factory, monkeypatch):
        monkeypatch.setattr(RUN_EXPERIMENT, _slow)
        manager = manager_factory(job_timeout=0.2)
        job = manager.submit("unfold", {})
        wait_done(job, timeout=10.0)
        response = GatewayAPI(manager).handle("GET", f"/v1/runs/{job.id}", None)
        assert response.status == 504
        assert response.payload["state"] == "timeout"

    def test_fast_job_unaffected_by_deadline(self, manager_factory):
        manager = manager_factory(job_timeout=60.0)
        job = manager.submit("unfold", {})
        wait_done(job, timeout=10.0)
        assert job.state == JobState.DONE

    def test_invalid_timeout_rejected(self, tmp_path):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            GatewayManager(job_timeout=0.0, cache_dir=str(tmp_path))


class TestCircuitBreakerIntegration:
    def _failing(self, monkeypatch, flag):
        """Workers fail every run while ``flag`` exists (a cross-process switch)."""
        from repro.experiments.registry import run_experiment

        def fail_while_flagged(spec_id, **params):
            if flag.exists():
                raise RuntimeError("worker blew up")
            return run_experiment(spec_id, **params)

        flag.touch()
        monkeypatch.setattr(RUN_EXPERIMENT, fail_while_flagged)

    def test_consecutive_failures_open_and_shed(
        self, manager_factory, monkeypatch, tmp_path
    ):
        self._failing(monkeypatch, tmp_path / "fail")
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown_seconds=30.0, clock=clock
        )
        manager = manager_factory(breaker=breaker)
        for _ in range(2):
            wait_done(manager.submit("unfold", {}), timeout=10.0)
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            manager.submit("unfold", {})

    def test_api_maps_open_circuit_to_503_with_retry_after(
        self, manager_factory, monkeypatch, tmp_path
    ):
        self._failing(monkeypatch, tmp_path / "fail")
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=30.0, clock=clock
        )
        manager = manager_factory(breaker=breaker)
        wait_done(manager.submit("unfold", {}), timeout=10.0)
        response = GatewayAPI(manager).handle(
            "POST", "/v1/experiments/unfold/runs", {}
        )
        assert response.status == 503
        assert response.payload["error"]["code"] == "circuit-open"
        headers = dict(response.headers)
        assert int(headers["Retry-After"]) >= 1

    def test_successful_probe_closes_the_circuit(
        self, manager_factory, monkeypatch, tmp_path
    ):
        flag = tmp_path / "fail"
        self._failing(monkeypatch, flag)
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=30.0, clock=clock
        )
        manager = manager_factory(breaker=breaker)
        wait_done(manager.submit("unfold", {}), timeout=10.0)
        assert breaker.state == "open"
        clock.now += 30.0
        flag.unlink()  # the workers run the real experiment again
        probe = manager.submit("unfold", {})  # the half-open probe
        wait_done(probe, timeout=10.0)
        assert probe.state == JobState.DONE
        assert breaker.state == "closed"

    def test_metrics_expose_breaker_state(self, manager_factory):
        breaker = CircuitBreaker(failure_threshold=5, cooldown_seconds=30.0)
        manager = manager_factory(breaker=breaker)
        response = GatewayAPI(manager).handle("GET", "/metrics", None)
        resilience = response.payload["resilience"]
        assert resilience["breaker"]["state"] == "closed"
        assert resilience["workers_restarted"] == 0
        assert response.payload["jobs"]["timeout"] == 0


class TestWorkerRecovery:
    def test_dead_worker_is_respawned_on_submit(self, manager_factory):
        manager = manager_factory(workers=1)
        corpse = manager.worker_health()[0]["pid"]
        os.kill(corpse, signal.SIGKILL)
        assert wait_for(lambda: manager.metrics.workers_restarted == 1, 10.0)
        job = manager.submit("unfold", {})
        wait_done(job, timeout=10.0)
        assert job.state == JobState.DONE
        assert manager.worker_health()[0]["pid"] != corpse
        assert manager.metrics.workers_restarted == 1
