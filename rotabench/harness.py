"""Running the program from outside: processes, caches, timing, checks.

Every program process the benchmark starts runs this checkout's
``src/`` under the benchmark's own interpreter, with every inherited
``REPRO_*`` variable dropped and a fresh ``REPRO_CACHE_DIR`` of its own.
Wall time is taken around the process, CPU time and peak RSS from the
``wait4`` rusage of that process (which includes any children it
waited for).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
PINS = BENCH_DIR / "pins.json"

#: Longest any one program command may take before it counts as failed.
COMMAND_TIMEOUT_S = 150.0
#: The CPU that timed commands and the speed probe share (see probe.py).
PROBE_CPU = min(os.sched_getaffinity(0))


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad arguments)."""


def check_program() -> None:
    """Refuse to run where the program's sources are absent."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(f"no program sources under {SRC}")


def load_pins() -> Dict:
    return json.loads(PINS.read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workspace:
    """Scratch directories under the checkout, removed on close."""

    def __init__(self) -> None:
        self.root = ROOT / ".rotabench_work" / f"{os.getpid()}-{time.time_ns()}"
        self.root.mkdir(parents=True)
        self._count = 0

    def fresh_dir(self, template: Optional[Path] = None) -> Path:
        """A new empty directory, or a copy of ``template``'s files."""
        self._count += 1
        path = self.root / f"d{self._count:04d}"
        if template is not None:
            shutil.copytree(template, path)
        else:
            path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            self.root.parent.rmdir()
        except OSError:
            pass


def program_env(cache_dir: Path) -> Dict[str, str]:
    """The environment of one program process."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def rota(*args: str) -> List[str]:
    """The argv of ``rota ARGS`` for this checkout."""
    return [sys.executable, "-m", "repro", *args]


@dataclass
class ProcessRun:
    """One finished program process, measured from outside."""

    argv: Sequence[str]
    started: float
    ended: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes

    @property
    def ok(self) -> bool:
        return self.returncode == 0


@contextlib.contextmanager
def on_probe_cpu():
    """Processes started inside run on :data:`PROBE_CPU` only."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {PROBE_CPU})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def run_process(
    argv: Sequence[str],
    cache_dir: Path,
    workdir: Path,
    timeout: float = COMMAND_TIMEOUT_S,
) -> ProcessRun:
    """Run one program process on :data:`PROBE_CPU` and measure it.

    Output goes to files, so the wait is a plain ``wait4`` whose rusage
    belongs to this process alone. A process that overruns ``timeout``
    is killed and reported with return code -9.
    """
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        with on_probe_cpu():
            proc = subprocess.Popen(
                list(argv), env=program_env(cache_dir), cwd=workdir,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcessRun(
        argv=argv,
        started=start,
        ended=end,
        wall_s=end - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pick(pool: Sequence, count: int, seed: int) -> List:
    """``count`` members of ``pool`` in a seeded order."""
    chosen = list(pool)
    random.Random(seed).shuffle(chosen)
    return chosen[:count]
