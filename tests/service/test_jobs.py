"""Job intake and execution through the gateway's job manager (no HTTP)."""

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.experiments.registry import ParamValidationError, run_experiment
from repro.gateway import GatewayManager, JobState, QueueFullError, ServiceStoppedError
from tests.gateway.client import wait_done


@pytest.fixture
def manager(gateway_manager):
    return gateway_manager


def unstarted(tmp_path, **kwargs):
    """A manager whose workers never start: submissions stay queued."""
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("queue_depth", 8)
    return GatewayManager(cache_dir=str(tmp_path), start_method="fork", **kwargs)


class TestSubmit:
    def test_runs_to_done_with_payload(self, manager):
        job = manager.submit("unfold", {"x": 4, "y": 4})
        assert job.state == JobState.QUEUED
        wait_done(job)
        assert job.state == JobState.DONE
        assert job.error is None
        assert job.payload["result"]["result"] == "Fig4Result"
        assert job.payload["manifest"]["result"] == "RunManifest"
        assert job.started_at is not None and job.finished_at is not None

    def test_unknown_experiment_rejected_before_enqueue(self, manager):
        before = len(manager.jobs())
        with pytest.raises(ConfigurationError):
            manager.submit("nope", {})
        assert len(manager.jobs()) == before

    def test_bad_params_rejected_before_enqueue(self, manager):
        before = len(manager.jobs())
        with pytest.raises(ParamValidationError) as excinfo:
            manager.submit("unfold", {"x": "four", "bogus": 1})
        assert set(excinfo.value.errors) == {"x", "bogus"}
        assert len(manager.jobs()) == before

    def test_defaults_fill_omitted_params(self, manager):
        job = wait_done(manager.submit("unfold", None))
        assert job.params == {"x": 8, "y": 8}
        assert job.state == JobState.DONE

    def test_queue_full_raises_and_counts(self, tmp_path):
        # Workers never started: unique submissions pile up in the queue.
        m = unstarted(tmp_path, queue_depth=2)
        try:
            m.submit("unfold", {"x": 2})
            m.submit("unfold", {"x": 3})
            with pytest.raises(QueueFullError):
                m.submit("unfold", {"x": 4})
            assert m.metrics.jobs_rejected == 1
            assert m.metrics.jobs_submitted == 2
            # The rejected job must not linger in the job table.
            assert len(m.jobs()) == 2
        finally:
            m.shutdown()


class TestWarmHits:
    def test_repeat_submission_is_a_cache_hit(self, manager):
        hits, puts = manager.metrics.cache_hits, manager.metrics.cache_puts
        first = wait_done(manager.submit("unfold", {"x": 5, "y": 3}))
        assert first.cached is False
        second = wait_done(manager.submit("unfold", {"x": 5, "y": 3}))
        assert second.cached is True
        assert second.payload == first.payload
        assert manager.metrics.cache_hits >= hits + 1
        assert manager.metrics.cache_puts >= puts + 1

    def test_different_params_miss(self, manager):
        first = wait_done(manager.submit("unfold", {"x": 5, "y": 2}))
        other = wait_done(manager.submit("unfold", {"x": 2, "y": 5}))
        assert other.cached is False
        assert other.payload != first.payload

    def test_cached_payload_matches_cli_json(self, manager):
        job = wait_done(manager.submit("unfold", {"x": 6, "y": 2}))
        direct = run_experiment("unfold", x=6, y=2).result.to_dict()
        assert job.payload["result"] == direct


class TestFailures:
    def test_repro_error_marks_job_failed(self, manager):
        failed_before = manager.metrics.jobs_failed
        job = wait_done(manager.submit("walkthrough", {"network": "NoSuchNet"}))
        assert job.state == JobState.FAILED
        assert job.error["code"] == "repro-error"
        assert "NoSuchNet" in job.error["message"]
        assert manager.metrics.jobs_failed == failed_before + 1

    def test_failed_job_does_not_kill_worker(self, manager):
        wait_done(manager.submit("walkthrough", {"network": "NoSuchNet2"}))
        ok = wait_done(manager.submit("unfold", {"x": 3, "y": 7}))
        assert ok.state == JobState.DONE


class TestShutdown:
    def test_queued_jobs_cancelled(self, tmp_path):
        m = unstarted(tmp_path)
        # Never started: both jobs still queued at shutdown.
        a = m.submit("unfold", {})
        b = m.submit("unfold", {"x": 2, "y": 2})
        m.shutdown()
        assert a.state == JobState.CANCELLED
        assert b.state == JobState.CANCELLED
        assert m.metrics.jobs_cancelled == 2

    def test_submit_after_shutdown_rejected(self, tmp_path):
        m = unstarted(tmp_path)
        m.shutdown()
        with pytest.raises(ServiceStoppedError):
            m.submit("unfold", {})

    def test_completed_jobs_survive_shutdown(self, tmp_path):
        m = unstarted(tmp_path)
        m.start()
        job = wait_done(m.submit("unfold", {}))
        m.shutdown()
        assert job.state == JobState.DONE
        assert m.get(job.id) is job


class TestValidation:
    def test_bad_worker_and_queue_counts(self):
        with pytest.raises(ReproError):
            GatewayManager(workers=0)
        with pytest.raises(ReproError):
            GatewayManager(queue_depth=0)
