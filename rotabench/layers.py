"""Per-layer metrics of the traced runs, and the checks on them.

The command workloads get their layer numbers from the span tracer
(:mod:`tracer`); serve-mix gets them from the gateway's ``/metrics``
deltas and run details (:mod:`serve`). Every workload prints every
metric; a layer a workload does not reach reads 0, and
:data:`PREDICTIONS` says which zeros and non-zeros are expected.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Sequence

from tracer import summarize

#: (metric, unit) for every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    ("dataflow.schedule_layer.calls", "count"),
    ("dataflow.schedule_layer.self_s", "s"),
    ("dataflow.grow_temporal_greedy.calls", "count"),
    ("dataflow.grow_temporal_greedy.s", "s"),
    ("dataflow.schedule_cache.hit_ratio", "ratio"),
    ("dataflow.save_schedule_cache.s", "s"),
    ("core.engine.run.calls", "count"),
    ("core.engine.run.self_s", "s"),
    ("core.engine.run_layer.calls", "count"),
    ("core.engine.run_layer.self_s", "s"),
    ("core.engine.fold_ratio", "ratio"),
    ("core.tracker.add_space.calls", "count"),
    ("core.tracker.add_space.self_s", "s"),
    ("faults.place_with_faults.calls", "count"),
    ("faults.place_with_faults.self_s", "s"),
    ("faults.clean_start_mask.calls", "count"),
    ("faults.clean_start_mask.self_s", "s"),
    ("faults.dead_in_window.calls", "count"),
    ("faults.dead_in_window.self_s", "s"),
    ("faults.placement.shift_ratio", "ratio"),
    ("faults.state.kill.calls", "count"),
    ("faults.sample_endurance_budgets.s", "s"),
    ("faults.state.num_dead.calls", "count"),
    ("faults.state.alive_fraction.calls", "count"),
    ("faults.state.self_s", "s"),
    ("fleet.simulate_fleet.calls", "count"),
    ("fleet.simulate_fleet.self_s", "s"),
    ("fleet.dispatch.select.calls", "count"),
    ("fleet.dispatch.select.self_s", "s"),
    ("fleet.device.complete.calls", "count"),
    ("fleet.device.complete.self_s", "s"),
    ("fleet.device.enqueue.calls", "count"),
    ("fleet.device.enqueue.self_s", "s"),
    ("fleet.traffic.make_traffic.s", "s"),
    ("fleet.build_profiles.s", "s"),
    ("accuracy.predicted_loss.calls", "count"),
    ("accuracy.predicted_loss.self_s", "s"),
    ("accuracy.model.loss.calls", "count"),
    ("reliability.self_s", "s"),
    ("analysis.render_heatmap_grid.s", "s"),
    ("runtime.result_cache.get.calls", "count"),
    ("runtime.result_cache.get.s", "s"),
    ("runtime.result_cache.put.calls", "count"),
    ("runtime.result_cache.put.s", "s"),
    ("runtime.result_cache.hit_ratio", "ratio"),
    ("gateway.queue_wait_ms.p50", "ms"),
    ("gateway.queue_wait_ms.p90", "ms"),
    ("gateway.exec_ms.p50", "ms"),
    ("gateway.overhead_ms.p50", "ms"),
    ("gateway.executions", "count"),
    ("gateway.coalesce_ratio", "ratio"),
    ("gateway.cache_hit_ratio", "ratio"),
    ("gateway.not_modified_ratio", "ratio"),
    ("gateway.rejected", "count"),
    ("gateway.worker_busy_s", "s"),
    ("gateway.workers_restarted", "count"),
    ("gateway.task_retries", "count"),
    ("loadgen.lag_p90_ms", "ms"),
    ("loadgen.repeat_share", "ratio"),
    ("experiments.run_experiment.s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)

_PLACEMENT = (
    "faults.place_with_faults.calls",
    "faults.clean_start_mask.calls",
    "faults.dead_in_window.calls",
)
_FLEET = (
    "fleet.simulate_fleet.calls",
    "fleet.dispatch.select.calls",
    "fleet.device.complete.calls",
    "fleet.device.enqueue.calls",
    "accuracy.predicted_loss.calls",
    "accuracy.model.loss.calls",
)

#: Per workload: metrics that must read > 0 ("work") and == 0
#: ("bypass") in a traced run. A wrapper installed at an attribute no
#: caller uses turns a "work" entry into a failed check.
PREDICTIONS: Dict[str, Dict[str, Sequence[str]]] = {
    "cold-start": {
        "work": (
            "dataflow.schedule_layer.calls",
            "dataflow.grow_temporal_greedy.calls",
            "experiments.run_experiment.s",
        ),
        "bypass": (
            "core.engine.run.calls",
            "core.engine.run_layer.calls",
            "core.tracker.add_space.calls",
            *_PLACEMENT,
            "faults.state.kill.calls",
            "faults.state.num_dead.calls",
            "faults.state.alive_fraction.calls",
            *_FLEET,
            "gateway.executions",
        ),
    },
    "faults-mc": {
        "work": (
            "core.engine.run.calls",
            "core.engine.run_layer.calls",
            "core.tracker.add_space.calls",
            *_PLACEMENT,
            "faults.state.kill.calls",
            "faults.sample_endurance_budgets.s",
            "experiments.run_experiment.s",
        ),
        "bypass": (
            "dataflow.grow_temporal_greedy.calls",
            *_FLEET,
            "gateway.executions",
        ),
    },
    "fleet-slo": {
        "work": (
            *_FLEET,
            "faults.state.num_dead.calls",
            "faults.state.alive_fraction.calls",
            "runtime.result_cache.put.calls",
            "experiments.run_experiment.s",
        ),
        "bypass": (
            "dataflow.grow_temporal_greedy.calls",
            *_PLACEMENT,
            "gateway.executions",
        ),
    },
    "serve-mix": {
        "work": (
            "gateway.executions",
            "gateway.coalesce_ratio",
            "gateway.cache_hit_ratio",
            "gateway.worker_busy_s",
            "runtime.result_cache.get.calls",
            "runtime.result_cache.hit_ratio",
            "experiments.run_experiment.s",
        ),
        "bypass": (
            "gateway.rejected",
            "gateway.workers_restarted",
            "gateway.task_retries",
        ),
    },
}


def zero_metrics() -> Dict[str, float]:
    return {name: 0.0 for name, _ in PER_LAYER}


def command_metrics(
    traces: Sequence[Path], factors: Sequence[float], overhead_ratio: float
) -> Dict[str, float]:
    """Per-layer metrics of one traced round (one trace per command).

    Each command's span times are scaled by its speed-probe factor, so
    layer seconds are reference seconds like the end-to-end ones.
    """
    layers: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, int] = {}
    misses = 0
    for prefix, factor in zip(traces, factors):
        summary = summarize(str(prefix))
        for name, row in summary["layers"].items():
            total = layers.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            total["calls"] += row["calls"]
            total["s"] += row["s"] * factor
            total["self_s"] += row["self_s"] * factor
        for name, count in summary["counters"].items():
            counters[name] = counters.get(name, 0) + count
        misses += summary["schedule_misses"]

    def get(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    out = zero_metrics()
    for metric in out:
        stem, _, key = metric.rpartition(".")
        if key in ("calls", "s", "self_s") and stem in layers:
            out[metric] = float(get(stem, key))
    root = layers.get("experiments.run_experiment", {"s": 0.0, "self_s": 0.0})
    out.update(
        {
            "dataflow.schedule_cache.hit_ratio": ratio(
                get("dataflow.schedule_layer", "calls") - misses,
                get("dataflow.schedule_layer", "calls"),
            ),
            "core.engine.fold_ratio": ratio(
                counters.get("core.engine.run.analytic", 0),
                get("core.engine.run", "calls"),
            ),
            "faults.placement.shift_ratio": ratio(
                counters.get("faults.placement.shifted", 0),
                get("faults.place_with_faults", "calls"),
            ),
            "faults.state.self_s": sum(
                get(name, "self_s")
                for name in (
                    "faults.state.kill",
                    "faults.state.num_dead",
                    "faults.state.alive_fraction",
                )
            ),
            "runtime.result_cache.hit_ratio": ratio(
                counters.get("runtime.result_cache.get.hits", 0),
                get("runtime.result_cache.get", "calls"),
            ),
            "trace.coverage": 1.0 - ratio(root["self_s"], root["s"]),
            "trace.overhead_ratio": overhead_ratio,
        }
    )
    return out


def check_predictions(workload: str, metrics: Dict[str, float]) -> List[str]:
    """Each prediction of :data:`PREDICTIONS` that the trace broke."""
    rules = PREDICTIONS[workload]
    problems = [
        f"{name} = 0, predicted work on {workload}"
        for name in rules["work"]
        if not metrics[name] > 0
    ]
    problems += [
        f"{name} = {metrics[name]:g}, predicted 0 on {workload}"
        for name in rules["bypass"]
        if metrics[name] != 0
    ]
    return problems
