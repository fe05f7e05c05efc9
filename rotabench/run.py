"""RoTA host-time benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 rotabench/run.py --workload cold-start --seed 1 --seconds 8 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run of the same workload. The last line of stdout
is ``{"correct", "attempted", "failed", "metrics"}``. Diagnostics go to
stderr. Without the program's sources, or on an invalid run, the
benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

import layers
import serve
import workloads
from harness import BenchError, Workspace, check_program, load_pins

WORKLOADS = ("cold-start", "faults-mc", "fleet-slo", "serve-mix")

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("goodput_rps", "1/s"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--goodput-ms", type=float, default=1000.0,
        help="serve-mix latency limit of a request counted in goodput_rps",
    )
    return parser.parse_args(argv)


def _terminate(signum, frame) -> None:
    # Unwind through the finally blocks that stop the gateway and probe.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        check_program()
        pins = load_pins()
        ws = Workspace()
        try:
            if args.workload == "serve-mix":
                result = serve.run_serve_mix(
                    args.seed, bool(args.trace), pins, ws, args.goodput_ms
                )
            else:
                result = workloads.run_workload(
                    args.workload, args.seed, args.seconds, bool(args.trace),
                    pins, ws,
                )
        finally:
            ws.close()
    except BenchError as error:
        print(f"rotabench: {error}", file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(f"trace check: {problem}", file=sys.stderr)
    units = dict(layers.PER_LAYER) if args.trace else dict(END_TO_END)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0 and not result["problems"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
