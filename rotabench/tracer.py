"""Span tracer for the traced runs of the command workloads.

The tracer lives entirely in the benchmark: it wraps the program's layer
functions at every attribute a caller can look them up through, records
one span per call (name, start, end, parent) in flat in-memory arrays,
and writes them out once the process ends. Nothing under ``src/`` knows
it exists.

Run as a script it is the traced twin of ``python -m repro``::

    python rotabench/tracer.py SPANS_PREFIX -- ARGS...

installs the wrappers, runs ``repro.cli.main(ARGS)`` and leaves
``SPANS_PREFIX.json`` (names and counters) and ``SPANS_PREFIX.bin``
(the span arrays) behind.
"""

from __future__ import annotations

import atexit
import importlib
import json
import pkgutil
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

#: (span name, module, attribute path). A class attribute path wraps the
#: method on that class and on every loaded subclass that overrides it;
#: properties are wrapped through their getter.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("experiments.run_experiment", "repro.experiments.registry", "run_experiment"),
    ("dataflow.schedule_layer", "repro.dataflow.scheduler", "Scheduler.schedule_layer"),
    ("dataflow.grow_temporal_greedy", "repro.dataflow.space", "grow_temporal_greedy"),
    ("dataflow.save_schedule_cache", "repro.dataflow.scheduler", "save_schedule_cache"),
    ("core.engine.run", "repro.core.engine", "WearLevelingEngine.run"),
    ("core.engine.run_layer", "repro.core.engine", "WearLevelingEngine.run_layer"),
    ("core.tracker.add_space", "repro.core.tracker", "UsageTracker.add_space"),
    ("faults.place_with_faults", "repro.faults.placement", "place_with_faults"),
    ("faults.clean_start_mask", "repro.faults.placement", "clean_start_mask"),
    ("faults.dead_in_window", "repro.faults.placement", "dead_in_window"),
    ("faults.state.kill", "repro.faults.state", "FaultState.kill"),
    ("faults.state.num_dead", "repro.faults.state", "FaultState.num_dead"),
    ("faults.state.alive_fraction", "repro.faults.state", "FaultState.alive_fraction"),
    ("faults.sample_endurance_budgets", "repro.faults.injection", "sample_endurance_budgets"),
    ("fleet.simulate_fleet", "repro.fleet.simulate", "simulate_fleet"),
    ("fleet.dispatch.select", "repro.fleet.dispatch", "DispatchPolicy.select"),
    ("fleet.device.complete", "repro.fleet.device", "FleetDevice.complete"),
    ("fleet.device.enqueue", "repro.fleet.device", "FleetDevice.enqueue"),
    ("fleet.traffic.make_traffic", "repro.fleet.traffic", "make_traffic"),
    ("fleet.build_profiles", "repro.fleet.device", "build_profiles"),
    ("accuracy.predicted_loss", "repro.fleet.device", "FleetDevice.predicted_loss"),
    ("accuracy.model.loss", "repro.accuracy.model", "AccuracyModel.loss"),
    ("analysis.render_heatmap_grid", "repro.analysis.heatmap", "render_heatmap_grid"),
    ("runtime.result_cache.get", "repro.runtime.cache", "ResultCache.get"),
    ("runtime.result_cache.put", "repro.runtime.cache", "ResultCache.put"),
)

#: Every public function defined in these modules is traced under the
#: single span name ``reliability``.
RELIABILITY_MODULES = (
    "repro.reliability.endurance",
    "repro.reliability.lifetime",
    "repro.reliability.montecarlo",
    "repro.reliability.projection",
    "repro.reliability.variation",
)

ROOT = "experiments.run_experiment"


def _count_analytic(counters: Counter, args: tuple, result: Any) -> None:
    counters["core.engine.run.analytic"] += args[0].last_run_mode == "analytic"


def _count_shifted(counters: Counter, args: tuple, result: Any) -> None:
    counters["faults.placement.shifted"] += bool(result.shifted)


def _count_hit(counters: Counter, args: tuple, result: Any) -> None:
    counters["runtime.result_cache.get.hits"] += result is not None


#: Per-call observers: read the call's outcome into a named counter.
OBSERVERS: Dict[str, Callable[[Counter, tuple, Any], None]] = {
    "core.engine.run": _count_analytic,
    "faults.place_with_faults": _count_shifted,
    "runtime.result_cache.get": _count_hit,
}


class Tracer:
    """Flat span store: parallel arrays indexed by span number."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A wrapper of ``fn`` that records one span per call."""
        name_id = self._name_id(name)
        observer = OBSERVERS.get(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            span = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if observer is not None:
                observer(counters, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def save(self, prefix: str) -> None:
        """Write the spans (``.bin``) and names/counters (``.json``)."""
        with open(prefix + ".bin", "wb") as handle:
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(handle)
        Path(prefix + ".json").write_text(
            json.dumps(
                {
                    "names": self.names,
                    "spans": len(self.start),
                    "counters": dict(self.counters),
                }
            )
        )


def load_spans(prefix: str) -> Tuple[List[str], array, array, array, array, Dict[str, int]]:
    """Read back what :meth:`Tracer.save` wrote."""
    meta = json.loads(Path(prefix + ".json").read_text())
    count = meta["spans"]
    columns = [array("i"), array("i"), array("d"), array("d")]
    with open(prefix + ".bin", "rb") as handle:
        for column in columns:
            column.fromfile(handle, count)
    return (meta["names"], *columns, meta["counters"])


def summarize(prefix: str) -> Dict[str, Any]:
    """Per-name calls, inclusive seconds and self seconds of one trace.

    ``s`` counts only the outermost span of a name, so recursion is not
    counted twice; ``self_s`` is each span's duration minus the time its
    direct children cover. A ``dataflow.schedule_layer`` span with a
    ``dataflow.grow_temporal_greedy`` span under it is a schedule-cache
    miss. ``coverage`` is the share of root time inside named children.
    """
    names, name, parent, start, end, counters = load_spans(prefix)
    durations = [e - s for s, e in zip(start, end)]
    child_time = [0.0] * len(durations)
    for span, up in enumerate(parent):
        if up >= 0:
            child_time[up] += durations[span]
    ids = {label: index for index, label in enumerate(names)}
    grow = ids.get("dataflow.grow_temporal_greedy", -1)
    layer = ids.get("dataflow.schedule_layer", -1)
    missed = set()
    stats: Dict[str, Dict[str, float]] = {}
    for span, name_id in enumerate(name):
        row = stats.setdefault(names[name_id], {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += durations[span] - child_time[span]
        up = parent[span]
        nested = False
        while up >= 0:
            nested = nested or name[up] == name_id
            if name_id == grow and name[up] == layer:
                missed.add(up)
            up = parent[up]
        if not nested:
            row["s"] += durations[span]
    root = stats.get(ROOT, {"s": 0.0, "self_s": 0.0})
    return {
        "layers": stats,
        "counters": dict(counters),
        "schedule_misses": len(missed),
        "coverage": 1.0 - root["self_s"] / root["s"] if root["s"] else 0.0,
    }


def _import_program() -> None:
    """Import every ``repro`` module so each alias of a target is loaded."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _wrap_method(tracer: Tracer, name: str, owner: type, attr: str) -> None:
    for cls in _subclasses(owner):
        original = cls.__dict__.get(attr)
        if original is None:
            continue
        if isinstance(original, property):
            wrapped = property(
                tracer.wrap(name, original.fget),
                original.fset,
                original.fdel,
                original.__doc__,
            )
        else:
            wrapped = tracer.wrap(name, original)
        setattr(cls, attr, wrapped)


def _wrap_function(tracer: Tracer, name: str, original: Callable) -> int:
    """Rebind every module attribute that holds ``original``."""
    wrapped = tracer.wrap(name, original)
    rebound = 0
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
                rebound += 1
    return rebound


def install(tracer: Tracer) -> None:
    """Wrap every target in the loaded program."""
    _import_program()
    for name, module_name, path in TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            owner_name, attr = path.split(".")
            _wrap_method(tracer, name, getattr(module, owner_name), attr)
        else:
            _wrap_function(tracer, name, getattr(module, path))
    for module_name in RELIABILITY_MODULES:
        module = importlib.import_module(module_name)
        for attr, value in list(vars(module).items()):
            if (
                not attr.startswith("_")
                and callable(value)
                and not isinstance(value, type)
                and getattr(value, "__module__", None) == module_name
            ):
                _wrap_function(tracer, "reliability", value)


def _main(argv: List[str]) -> int:
    prefix, separator, *program_args = argv
    if separator != "--":
        raise SystemExit("usage: tracer.py SPANS_PREFIX -- ARGS...")
    tracer = Tracer()
    # Registered before the program registers its own exit hooks, so it
    # runs after them and still sees spans they record (atexit is LIFO).
    atexit.register(tracer.save, prefix)
    install(tracer)
    from repro.cli import main

    return main(program_args)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
