"""Regenerate ``pins.json`` from the program in this checkout.

Usage (from the root of a checkout)::

    python3 rotabench/pin.py

For faults-mc and fleet-slo it first estimates the cost of every
candidate seed from a traced run and pins the
:data:`~workloads.PINNED_PER_WORKLOAD` seeds closest to the median
cost: a run then times near-equal work whichever pinned seeds it draws.
It then records the sha256 of the ``--json`` stdout of every command the
benchmark can run, including the CLI twin of every serve-mix request.
Run it only on a commit whose outputs are known good; the benchmark
treats every later mismatch as a failed operation.
"""

from __future__ import annotations

import json
import statistics
import sys

from harness import BENCH_DIR, PINS, Workspace, check_program, rota, run_process, sha256
from serve import request_args
from tracer import summarize
from workloads import (
    CANDIDATE_SEEDS,
    COLD_NETWORKS,
    PINNED_PER_WORKLOAD,
    faults_args,
    fleet_args,
    pin_key,
    prefill,
    profile_args,
)

#: Seeds of the ``fleet-accuracy`` runs serve-mix may request.
SERVE_POOL = tuple(range(1, 81))


def _digest(ws: Workspace, args, template, digests) -> None:
    run = run_process(rota(*args), ws.fresh_dir(template), ws.fresh_dir())
    if not run.ok:
        raise SystemExit(f"rota {pin_key(args)} failed: {run.stderr.decode()[-500:]}")
    digest = sha256(run.stdout)
    if digests.setdefault(pin_key(args), digest) != digest:
        raise SystemExit(f"rota {pin_key(args)} is not deterministic")


def _near_median(ws: Workspace, build, template, digests, costs) -> list:
    """The seeds whose estimated cost is closest to the candidates' median.

    Cost is estimated from one traced run per candidate: its call count
    of every traced function times that function's mean self time over
    all candidates. The counts are exact, and the unit times are shared,
    so a slow phase of the machine moves every estimate alike instead of
    reordering them.
    """
    rows = {}
    for seed in CANDIDATE_SEEDS:
        spans = ws.fresh_dir() / "spans"
        argv = [rota()[0], str(BENCH_DIR / "tracer.py"), str(spans), "--", *build(seed)]
        run = run_process(argv, ws.fresh_dir(template), ws.fresh_dir())
        if not run.ok:
            raise SystemExit(f"traced {pin_key(build(seed))} failed: {run.stderr.decode()[-500:]}")
        rows[seed] = summarize(str(spans))["layers"]
    names = {name for row in rows.values() for name in row}
    unit = {
        name: sum(row[name]["self_s"] for row in rows.values() if name in row)
        / sum(row[name]["calls"] for row in rows.values() if name in row)
        for name in names
    }
    estimate = {
        seed: sum(stats["calls"] * unit[name] for name, stats in row.items())
        for seed, row in rows.items()
    }
    middle = statistics.median(estimate.values())
    chosen = sorted(CANDIDATE_SEEDS, key=lambda seed: abs(estimate[seed] - middle))
    chosen = sorted(chosen[:PINNED_PER_WORKLOAD])
    costs.update({pin_key(build(seed)): round(estimate[seed], 4) for seed in CANDIDATE_SEEDS})
    for seed in chosen:
        _digest(ws, build(seed), template, digests)
    return chosen


def main() -> int:
    check_program()
    digests: dict = {}
    costs: dict = {}
    ws = Workspace()
    try:
        for network in COLD_NETWORKS:
            _digest(ws, profile_args(network), None, digests)
        pins = {"digests": digests}
        template, _ = prefill(ws, ("SqueezeNet", "ResNet-50"), pins)
        inputs = {
            "faults-mc": _near_median(ws, faults_args, template, digests, costs),
            "fleet-slo": _near_median(ws, fleet_args, template, digests, costs),
            "serve-mix": list(SERVE_POOL),
        }
        for seed in SERVE_POOL:
            _digest(ws, request_args(seed), template, digests)
    finally:
        ws.close()
    PINS.write_text(
        json.dumps(
            {"inputs": inputs, "digests": digests, "estimated_cost_s": costs},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {PINS}: {len(digests)} digests", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
