"""The three command workloads: cold-start, faults-mc and fleet-slo.

Each runs a fixed list of ``rota ... --json`` commands, chosen by the
seed from a pinned input set, one process at a time (``--jobs 1``) on
the speed probe's CPU, and checks every stdout against its pinned
sha256. Timed commands run serially because two pooled processes on a
two-core box spread far more than one serial process does (see
README.md). Times are reference seconds (see probe.py).
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import layers
from harness import (
    BENCH_DIR,
    BenchError,
    ProcessRun,
    Workspace,
    percentile,
    pick,
    rota,
    run_process,
    sha256,
)
from probe import Speedometer

#: Networks of cold-start, in pinned order; the seed permutes them.
COLD_NETWORKS = ("SqueezeNet", "ResNet-50", "YOLO v3")
#: Timed, repeated ``import repro`` starts behind cold-start's setup_s.
IMPORT_REPEATS = 5
#: Monte Carlo sizes: large enough that one command is seconds of work.
FAULTS_SCENARIOS = 8
FLEET_SCENARIOS = 32
#: Candidate seeds pin.py estimates; it pins the near-median ones.
CANDIDATE_SEEDS = tuple(range(1, 49))
PINNED_PER_WORKLOAD = 6


def profile_args(network: str) -> List[str]:
    return ["profile", "--json", "--network", network]


def faults_args(seed: int) -> List[str]:
    return [
        "faults", "--json", "--network", "SqueezeNet",
        "--scenarios", str(FAULTS_SCENARIOS), "--seed", str(seed), "--jobs", "1",
    ]


def fleet_args(seed: int) -> List[str]:
    return [
        "fleet-accuracy", "--json",
        "--scenarios", str(FLEET_SCENARIOS), "--seed", str(seed), "--jobs", "1",
    ]


def pin_key(args: Sequence[str]) -> str:
    """The pins.json key of one command's ``--json`` output."""
    return " ".join(args)


@dataclass(frozen=True)
class CommandWorkload:
    """A workload made of whole ``rota`` commands."""

    name: str
    #: Networks whose mapping search fills the schedule cache first;
    #: empty for cold-start, whose commands each start from nothing.
    prefill: Tuple[str, ...]
    #: Builds one command's arguments from a pinned input.
    args: Callable[[object], List[str]]
    #: Commands per round.
    per_round: int

    def inputs(self, pins: Dict) -> Sequence:
        if self.name == "cold-start":
            return COLD_NETWORKS
        return pins["inputs"][self.name]


WORKLOADS = {
    "cold-start": CommandWorkload("cold-start", (), profile_args, 3),
    "faults-mc": CommandWorkload("faults-mc", ("SqueezeNet",), faults_args, 2),
    "fleet-slo": CommandWorkload(
        "fleet-slo", ("SqueezeNet", "ResNet-50"), fleet_args, 3
    ),
}


def prefill(
    ws: Workspace, networks: Sequence[str], pins: Dict
) -> Tuple[Path, List[ProcessRun]]:
    """Fill a schedule cache by mapping search; returns it and the runs.

    The prefill commands are checked like any other: a wrong digest
    means the schedules behind every later command are suspect.
    """
    template = ws.fresh_dir()
    runs = []
    for network in networks:
        args = profile_args(network)
        run = run_process(rota(*args), template, ws.fresh_dir())
        if not run.ok or sha256(run.stdout) != pins["digests"][pin_key(args)]:
            raise BenchError(
                f"prefill `rota {pin_key(args)}` failed: rc={run.returncode} "
                f"{run.stderr.decode(errors='replace')[-300:]}"
            )
        runs.append(run)
    for leftover in template.iterdir():
        if leftover.name != "schedules.json":
            raise BenchError(f"prefill left {leftover.name} in the cache")
    return template, runs


def import_setup(ws: Workspace) -> List[ProcessRun]:
    """Timed program interpreter starts plus ``import repro``."""
    argv = [rota()[0], "-c", "import repro"]
    run_process(argv, ws.fresh_dir(), ws.fresh_dir())  # compile bytecode once
    runs = []
    for _ in range(IMPORT_REPEATS):
        run = run_process(argv, ws.fresh_dir(), ws.fresh_dir())
        if not run.ok:
            raise BenchError(f"`import repro` failed: {run.stderr[-300:]!r}")
        runs.append(run)
    return runs


def _run_op(
    ws: Workspace, args: List[str], template: Optional[Path], pins: Dict,
    spans: Optional[Path] = None,
) -> Tuple[ProcessRun, bool]:
    cache = ws.fresh_dir(template)
    if spans is None:
        argv = rota(*args)
    else:
        argv = [rota()[0], str(BENCH_DIR / "tracer.py"), str(spans), "--", *args]
    run = run_process(argv, cache, ws.fresh_dir())
    ok = run.ok and sha256(run.stdout) == pins["digests"][pin_key(args)]
    if not ok:
        print(
            f"failed: rota {pin_key(args)} rc={run.returncode} "
            f"{run.stderr.decode(errors='replace')[-300:]}",
            file=sys.stderr,
        )
    return run, ok


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, pins: Dict, ws: Workspace
) -> Dict:
    """One run of a command workload; returns the result object."""
    spec = WORKLOADS[name]
    ops = [spec.args(item) for item in pick(spec.inputs(pins), spec.per_round, seed)]
    attempted = failed = 0
    rounds: List[List[ProcessRun]] = []
    traced: List[ProcessRun] = []
    traces: List[Path] = []
    speed = Speedometer()
    speed.start()
    try:
        if spec.prefill:
            template, setup_runs = prefill(ws, spec.prefill, pins)
        else:
            template, setup_runs = None, import_setup(ws)
        started = time.perf_counter()
        # Untraced rounds until --seconds have passed (a traced run needs
        # just one, as the base of trace.overhead_ratio).
        while not rounds or (not trace and time.perf_counter() - started < seconds):
            round_runs = []
            for args in ops:
                run, ok = _run_op(ws, args, template, pins)
                attempted += 1
                failed += not ok
                round_runs.append(run)
            rounds.append(round_runs)
        if trace:
            for args in ops:
                spans = ws.fresh_dir() / "spans"
                run, ok = _run_op(ws, args, template, pins, spans=spans)
                attempted += 1
                failed += not ok
                traced.append(run)
                traces.append(spans)
    finally:
        speed.stop()

    def wall(run: ProcessRun) -> float:
        return speed.reference_s(run.started, run.ended)

    for run in [r for runs in rounds for r in runs] + traced:
        args = run.argv[run.argv.index("--") + 1:] if "--" in run.argv else run.argv[3:]
        print(
            f"{name}: {'traced ' if run in traced else ''}rota {' '.join(args)}: "
            f"host {run.wall_s:.3f} s, reference {wall(run):.3f} s",
            file=sys.stderr,
        )

    if trace:
        overhead = sum(map(wall, traced)) / sum(map(wall, rounds[0])) - 1.0
        factors = [speed.factor(run.started, run.ended) for run in traced]
        metrics = layers.command_metrics(traces, factors, overhead)
        problems = layers.check_predictions(name, metrics)
    else:
        walls = [wall(run) for runs in rounds for run in runs]
        if spec.prefill:
            setup_s = sum(map(wall, setup_runs))
        else:
            setup_s = statistics.median(map(wall, setup_runs))
        metrics = {
            "wall_s": statistics.median(sum(map(wall, runs)) for runs in rounds),
            "cpu_s": statistics.median(
                sum(r.cpu_s * speed.factor(r.started, r.ended) for r in runs)
                for runs in rounds
            ),
            "setup_s": setup_s,
            "peak_rss_mb": max(r.peak_rss_mb for runs in rounds for r in runs),
            "ok_ratio": (attempted - failed) / attempted,
            "p50_ms": 1000.0 * percentile(walls, 50),
            "p90_ms": 1000.0 * percentile(walls, 90),
            "goodput_rps": (attempted - failed) / sum(walls),
        }
        problems = []
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
    }
