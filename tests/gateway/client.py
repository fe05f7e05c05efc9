"""Shared helpers for tests that drive a gateway in-process or over HTTP."""

import json
import time
import urllib.error
import urllib.request

TERMINAL = ("done", "failed", "cancelled", "timeout")


def wait_for(predicate, timeout=30.0, interval=0.01):
    """Poll ``predicate`` until it holds; returns whether it did."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def wait_done(job, timeout=60.0):
    """Poll one in-process job to a terminal state."""
    if not wait_for(lambda: job.done, timeout):
        raise AssertionError(f"job {job.id} stuck in {job.state}")
    return job


def request(service, method, path, body=None, headers=None):
    """One HTTP round-trip; returns (status, headers, parsed payload)."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    all_headers = dict(headers or {})
    if data:
        all_headers["Content-Type"] = "application/json"
    req = urllib.request.Request(
        service.url + path, data=data, method=method, headers=all_headers
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as response:
            return (
                response.status,
                dict(response.headers),
                json.loads(response.read() or b"null"),
            )
    except urllib.error.HTTPError as error:
        raw = error.read()
        return (
            error.code,
            dict(error.headers),
            json.loads(raw) if raw else None,
        )


def wait_terminal(service, job_id, timeout=120.0):
    """Poll ``GET /v1/runs/<id>`` until the job reaches a terminal state."""
    deadline = time.monotonic() + timeout
    while True:
        status, _, body = request(service, "GET", f"/v1/runs/{job_id}")
        assert status in (200, 504), body
        if body["state"] in TERMINAL:
            return body
        assert time.monotonic() < deadline, f"job {job_id} stuck"
        time.sleep(0.05)
