"""serve-mix: open-loop traffic against ``rota gateway --jobs 2``.

One benchmark process drives a seeded schedule of ``fleet-accuracy``
submissions. Every request is due at a fixed offset and is timed from
that due time to the gateway's own ``finished_at`` stamp, so a late
generator or a stalled gateway shows up as latency, not as lost load.
At most :data:`CONNECTIONS` HTTP connections are open at once; the
number of outstanding jobs is not capped.

The traffic is :data:`UNIQUE` distinct runs plus exact repeats of some
of them: :data:`DURING` arrive while their primary run is in flight
(coalesced onto it) and :data:`AFTER` arrive seconds later (served from
the result cache). The seed picks the runs' ``seed`` parameters from the
pinned pool, the arrival jitter and which runs repeat; it never changes
the work size. Layer numbers come from ``/metrics`` deltas and
``GET /v1/runs/<id>``, never from wrappers.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import layers
from harness import (
    BenchError,
    Workspace,
    percentile,
    pick,
    program_env,
    rota,
    sha256,
)
from probe import Speedometer
from workloads import pin_key, prefill

WORKERS = 2
CONNECTIONS = 2
UNIQUE = 70
DURING = 15
AFTER = 15
#: Spacing of unique arrivals. One execution takes ~0.15 s, so the two
#: workers stay under half busy and p50 sits on execution, not queueing.
SPACING_S = 0.17
#: Monte Carlo size of one request: fixed, whatever the seed.
SCENARIOS = 1
PREFILL = ("SqueezeNet", "ResNet-50")
#: A run whose generator sent its p90 request later than this after the
#: due time did not offer the schedule's load: it is invalid, not slow.
LAG_LIMIT_MS = 50.0
#: A request not finished this long after its due time has failed.
REQUEST_TIMEOUT_S = 60.0
READY_TIMEOUT_S = 60.0
POLL_EVERY_S = 0.25
TERMINAL = ("done", "failed", "cancelled", "timeout")


def request_args(seed: int) -> List[str]:
    """The CLI twin of one request, whose digest the payload must match."""
    return [
        "fleet-accuracy", "--json", "--seed", str(seed), "--scenarios", str(SCENARIOS)
    ]


@dataclass
class Request:
    due: float
    seed: int
    kind: str  # "unique", "during" or "after"
    sent: Optional[float] = None
    job_id: Optional[str] = None
    etag: Optional[str] = None
    last_poll: float = 0.0
    detail: Optional[Dict[str, Any]] = None
    error: Optional[str] = None

    @property
    def settled(self) -> bool:
        return self.error is not None or self.detail is not None


def build_schedule(seed: int, pool: List[int]) -> List[Request]:
    rng = random.Random(seed)
    uniques = [
        Request(index * SPACING_S + rng.uniform(0.0, SPACING_S / 2), run_seed, "unique")
        for index, run_seed in enumerate(pick(pool, UNIQUE, seed))
    ]
    end = uniques[-1].due
    repeats = [
        Request(uniques[i].due + rng.uniform(0.02, 0.06), uniques[i].seed, "during")
        for i in rng.sample(range(UNIQUE), DURING)
    ]
    late = [i for i in range(UNIQUE) if uniques[i].due + 3.0 < end]
    repeats += [
        Request(uniques[i].due + rng.uniform(2.5, 3.0), uniques[i].seed, "after")
        for i in rng.sample(late, AFTER)
    ]
    return sorted(uniques + repeats, key=lambda request: request.due)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Client:
    """Plain ``Connection: close`` HTTP calls to one gateway."""

    def __init__(self, port: int) -> None:
        self.port = port

    def call(
        self, method: str, path: str, body: Optional[Dict] = None,
        headers: Optional[Dict[str, str]] = None, timeout: float = 30.0,
    ) -> Tuple[int, Dict[str, str], Optional[Dict]]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            payload = None if body is None else json.dumps(body).encode()
            send_headers = dict(headers or {})
            if payload is not None:
                send_headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=send_headers)
            response = conn.getresponse()
            raw = response.read()
            reply_headers = {k.lower(): v for k, v in response.getheaders()}
            return response.status, reply_headers, json.loads(raw) if raw else None
        finally:
            conn.close()


def _proc_cpu_s(pid: int) -> float:
    fields = open(f"/proc/{pid}/stat").read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_hwm_mb(pid: int) -> float:
    for line in open(f"/proc/{pid}/status"):
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


class Gateway:
    """One ``rota gateway`` process tree, started and stopped by us."""

    def __init__(self, ws: Workspace, template) -> None:
        self.port = _free_port()
        self.client = Client(self.port)
        self.workdir = ws.fresh_dir()
        self.cache = ws.fresh_dir(template)
        self.proc: Optional[subprocess.Popen] = None
        self.pids: List[int] = []

    def start(self) -> None:
        """Start and wait until every ``/healthz`` worker row is ``ready``."""
        began = time.perf_counter()
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            self.proc = subprocess.Popen(
                rota("gateway", "--jobs", str(WORKERS), "--host", "127.0.0.1",
                     "--port", str(self.port)),
                env=program_env(self.cache), cwd=self.workdir,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
        deadline = began + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                break
            try:
                status, _, body = self.client.call("GET", "/healthz", timeout=2.0)
            except OSError:
                time.sleep(0.002)
                continue
            rows = body.get("workers", []) if status == 200 else []
            if len(rows) == WORKERS and all(row["ready"] and row["alive"] for row in rows):
                self.pids = [self.proc.pid] + [row["pid"] for row in rows]
                return
            time.sleep(0.002)
        raise BenchError(
            "gateway never became ready: "
            + (self.workdir / "stderr").read_text(errors="replace")[-500:]
        )

    def metrics(self) -> Dict:
        status, _, body = self.client.call("GET", "/metrics")
        if status != 200:
            raise BenchError(f"/metrics answered {status}")
        return body

    def cpu_s(self) -> float:
        return sum(_proc_cpu_s(pid) for pid in self.pids)

    def peak_rss_mb(self) -> float:
        return sum(_proc_hwm_mb(pid) for pid in self.pids)

    def stop(self) -> None:
        """SIGTERM drain, then make sure no process of the tree is left."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for pid in self.pids[1:]:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


class LoadGenerator:
    """Sends the schedule on time and polls the jobs it created."""

    def __init__(self, client: Client, schedule: List[Request]) -> None:
        self.client = client
        self.schedule = schedule
        self._lock = threading.Lock()
        self._next = 0
        self.polls = 0
        self.start_perf = 0.0
        self.start_epoch = 0.0

    def run(self) -> None:
        self.start_perf = time.perf_counter() + 0.05
        self.start_epoch = time.time() + (self.start_perf - time.perf_counter())
        threads = [threading.Thread(target=self._loop) for _ in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def _claim(self) -> Tuple[str, Optional[Request], float]:
        """The next action: send, poll, wait or stop."""
        now = time.perf_counter()
        with self._lock:
            if self._next < len(self.schedule):
                request = self.schedule[self._next]
                due = self.start_perf + request.due
                if due - now < 0.05:
                    self._next += 1
                    return "send", request, due
                wait = min(due - now - 0.05, 0.01)
            else:
                wait = 0.01
            pending = [r for r in self.schedule[: self._next] if r.job_id and not r.settled]
            stale = [r for r in pending if now - r.last_poll >= POLL_EVERY_S]
            if stale:
                request = min(stale, key=lambda r: r.last_poll)
                request.last_poll = now
                return "poll", request, 0.0
            if self._next == len(self.schedule) and all(
                r.settled for r in self.schedule
            ):
                return "stop", None, 0.0
            for request in pending:
                if now - (self.start_perf + request.due) > REQUEST_TIMEOUT_S:
                    request.error = "timeout"
            return "wait", None, wait

    def _loop(self) -> None:
        while True:
            action, request, value = self._claim()
            if action == "stop":
                return
            if action == "wait":
                time.sleep(value)
            elif action == "send":
                delay = value - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self._send(request)
            else:
                self._poll(request)

    def _send(self, request: Request) -> None:
        request.sent = time.perf_counter()
        try:
            status, _, body = self.client.call(
                "POST", "/v1/experiments/fleet-accuracy/runs",
                {"seed": request.seed, "scenarios": SCENARIOS},
            )
        except OSError as error:
            request.error = f"send: {error}"
            return
        if status != 202:
            request.error = f"submit answered {status}"
            return
        with self._lock:
            request.job_id = body["job"]["id"]
            request.last_poll = time.perf_counter()

    def _poll(self, request: Request) -> None:
        headers = {"If-None-Match": request.etag} if request.etag else {}
        try:
            status, reply_headers, body = self.client.call(
                "GET", f"/v1/runs/{request.job_id}", headers=headers
            )
        except OSError:
            return
        with self._lock:
            self.polls += 1
            if status == 304:
                return
            if status not in (200, 504) or body is None:
                request.error = f"poll answered {status}"
                return
            request.etag = reply_headers.get("etag")
            if body["state"] in TERMINAL:
                request.detail = body


def _outcome(
    request: Request, generator: LoadGenerator, digests: Dict[str, str]
) -> Tuple[bool, float]:
    """Whether a request finished OK with the pinned payload; its latency (s)."""
    due_epoch = generator.start_epoch + request.due
    detail = request.detail
    if detail is None:
        return False, REQUEST_TIMEOUT_S
    latency = (detail["finished_at"] or due_epoch + REQUEST_TIMEOUT_S) - due_epoch
    if detail["state"] != "done" or detail.get("result") is None:
        return False, max(latency, 0.0)
    text = json.dumps(detail["result"], indent=2, sort_keys=True) + "\n"
    ok = sha256(text.encode()) == digests[pin_key(request_args(request.seed))]
    return ok, latency


def run_serve_mix(
    seed: int, trace: bool, pins: Dict, ws: Workspace, goodput_ms: float
) -> Dict:
    """One serve-mix run. Its schedule is fixed at ~12 s of traffic,
    longer than the benchmark's run length, whatever ``--seconds`` says."""
    schedule = build_schedule(seed, pins["inputs"]["serve-mix"])
    speed = Speedometer()
    speed.start()
    try:
        template, prefill_runs = prefill(ws, PREFILL, pins)
        gateway = Gateway(ws, template)
        try:
            began = time.perf_counter()
            gateway.start()
            ready = time.perf_counter()
            before = gateway.metrics()
            cpu_before = gateway.cpu_s()
            generator = LoadGenerator(gateway.client, schedule)
            generator.run()
            drained = time.perf_counter()
            after = gateway.metrics()
            cpu_s = gateway.cpu_s() - cpu_before
            peak_rss_mb = gateway.peak_rss_mb()
        finally:
            gateway.stop()
    finally:
        speed.stop()
    setup_s = speed.reference_s(began, ready) + sum(
        speed.reference_s(run.started, run.ended) for run in prefill_runs
    )
    # Latency and CPU in reference seconds of the traffic window; wall_s
    # stays host time, because the open-loop schedule is host time.
    factor = speed.factor(generator.start_perf, drained)

    outcomes = [_outcome(r, generator, pins["digests"]) for r in schedule]
    for request, (ok, _) in zip(schedule, outcomes):
        if not ok:
            print(f"failed: request seed={request.seed} {request.kind}: "
                  f"{request.error or (request.detail or {}).get('state')}",
                  file=sys.stderr)
    attempted = len(schedule)
    failed = sum(not ok for ok, _ in outcomes)
    latencies = [latency * factor for _, latency in outcomes]
    lags_ms = [
        1000.0 * max(0.0, r.sent - (generator.start_perf + r.due))
        for r in schedule if r.sent is not None
    ]
    lag_p90_ms = percentile(lags_ms, 90)
    print(f"serve-mix: loadgen.lag_p90_ms={lag_p90_ms:.3f}", file=sys.stderr)
    if lag_p90_ms > LAG_LIMIT_MS:
        raise BenchError(
            f"invalid run: the generator ran {lag_p90_ms:.1f} ms late at p90 "
            f"(limit {LAG_LIMIT_MS} ms), so the schedule's load was not offered"
        )
    finished = [
        r.detail["finished_at"] for r in schedule if r.detail and r.detail["finished_at"]
    ]
    duration = schedule[-1].due - schedule[0].due
    limit_s = goodput_ms / 1000.0
    result = {"attempted": attempted, "failed": failed, "problems": []}
    if not trace:
        result["metrics"] = {
            "wall_s": max(finished) - (generator.start_epoch + schedule[0].due),
            "cpu_s": cpu_s * factor,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": (attempted - failed) / attempted,
            "p50_ms": 1000.0 * percentile(latencies, 50),
            "p90_ms": 1000.0 * percentile(latencies, 90),
            "goodput_rps": sum(
                ok and latency <= limit_s for (ok, _), latency in zip(outcomes, latencies)
            ) / duration,
        }
        return result

    # Gateway layer times are scaled like the latencies they split.
    executed = [
        r.detail for r in schedule
        if r.detail and not r.detail["coalesced"] and r.detail["started_at"]
    ]
    queue_ms, exec_ms, overhead_ms, named, total = [], [], [], 0.0, 0.0
    for request in schedule:
        d = request.detail
        if d and not d["coalesced"] and d["started_at"]:
            latency = d["finished_at"] - (generator.start_epoch + request.due)
            waited = d["started_at"] - d["created_at"]
            ran = d["finished_at"] - d["started_at"]
            queue_ms.append(1000.0 * factor * waited)
            exec_ms.append(1000.0 * factor * ran)
            overhead_ms.append(1000.0 * factor * (latency - waited - ran))
            named += waited + ran
            total += latency

    def delta(*path: str) -> float:
        a, b = after, before
        for key in path:
            a, b = a[key], b[key]
        return a - b

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    gets = delta("cache", "hits") + delta("cache", "misses")
    metrics = layers.zero_metrics()
    metrics.update({
        "runtime.result_cache.get.calls": gets,
        "runtime.result_cache.put.calls": delta("cache", "puts"),
        "runtime.result_cache.hit_ratio": ratio(delta("cache", "hits"), gets),
        "gateway.queue_wait_ms.p50": percentile(queue_ms, 50),
        "gateway.queue_wait_ms.p90": percentile(queue_ms, 90),
        "gateway.exec_ms.p50": percentile(exec_ms, 50),
        "gateway.overhead_ms.p50": percentile(overhead_ms, 50),
        "gateway.executions": delta("gateway", "executions_dispatched"),
        "gateway.coalesce_ratio": ratio(
            delta("gateway", "coalesced"), delta("jobs", "submitted")
        ),
        "gateway.cache_hit_ratio": ratio(
            sum(bool(d["cached"]) for d in executed), len(executed)
        ),
        "gateway.not_modified_ratio": ratio(
            delta("gateway", "not_modified"), generator.polls
        ),
        "gateway.rejected": delta("jobs", "rejected"),
        "gateway.worker_busy_s": factor * delta("jobs", "seconds"),
        "gateway.workers_restarted": delta("resilience", "workers_restarted"),
        "gateway.task_retries": delta("resilience", "task_retries"),
        "loadgen.lag_p90_ms": lag_p90_ms,
        "loadgen.repeat_share": sum(r.kind != "unique" for r in schedule) / attempted,
        "experiments.run_experiment.s": factor * sum(
            d["manifest"]["wall_seconds"] for d in executed
            if not d["cached"] and d.get("manifest")
        ),
        "trace.coverage": ratio(named, total),
    })
    result["metrics"] = metrics
    result["problems"] = layers.check_predictions("serve-mix", metrics)
    return result
