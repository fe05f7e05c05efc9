"""Machine-speed probe: turns host seconds into reference seconds.

On a shared virtual machine the same command's host time swings by
40% within minutes, and every process on the box slows together (see
README.md, "Spread"). A timing taken there says as much about the
neighbours as about the program. So while the benchmark times the
program, a separate probe process runs a fixed kernel every
:data:`PERIOD_S` and records how much CPU time it took. The kernel
is small numpy shifts followed by a pure-Python arithmetic loop: of the
kernels tried (numpy only, loop only, dict building only, numpy plus
dicts, numpy plus loop), this one held both the numpy-heavy fault
placement and the pure-Python mapping search steadiest (IQR 2% and 1%
of the median over repeated identical commands, against 6% and 7% raw). Over any
interval the benchmark then converts host seconds into *reference
seconds* — the time the same work would have taken at the probe's
reference speed::

    reference_s = host_s * mean(REFERENCE_S / kernel_cpu_s over the interval)

The probe shares one CPU with the timed commands. A slow phase comes
from whatever else the host runs on the same physical core, and a
virtual CPU moves between physical cores, so only a probe on the
program's own virtual CPU sees the same phases; one on the other CPU
tracked fault placement to 2% but the fleet simulator only to 18%. The
probe times its kernel in thread CPU time, so being descheduled in
favour of the program does not read as a slow machine. It takes about
6% of that CPU.

Run as a script it is the probe process itself: it samples until its
stdin closes, then writes ``time cpu`` lines to stdout.
"""

from __future__ import annotations

import gc
import select
import subprocess
import sys
import time
from typing import List, Optional, Tuple

import numpy as np

from harness import on_probe_cpu

KERNEL_SHIFTS = 60
KERNEL_ITERATIONS = 20000
#: Kernel CPU time at reference speed: about the fast state of a
#: 2.1 GHz Xeon two-vCPU virtual machine.
REFERENCE_S = 0.0019
PERIOD_S = 0.04


def _kernel(grid: np.ndarray) -> int:
    total = np.zeros_like(grid)
    for shift in range(KERNEL_SHIFTS):
        total += np.roll(grid, -shift, axis=1)
    acc = int(total[0, 0])
    for i in range(KERNEL_ITERATIONS):
        acc += i * i
    return acc


class Speedometer:
    """The probe process, seen from the benchmark."""

    def __init__(self) -> None:
        self._proc: Optional[subprocess.Popen] = None
        self.samples: List[Tuple[float, float]] = []

    def start(self) -> None:
        with on_probe_cpu():
            self._proc = subprocess.Popen(
                [sys.executable, __file__],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            )

    def stop(self) -> None:
        if self._proc is None:
            return
        out, _ = self._proc.communicate(timeout=30.0)
        self._proc = None
        self.samples = [tuple(map(float, line.split())) for line in out.decode().splitlines()]

    def factor(self, start: float, end: float) -> float:
        """Mean reference/observed speed over ``[start, end]`` (perf_counter).

        An interval shorter than the probe period uses the nearest sample.
        """
        inside = [cpu for at, cpu in self.samples if start <= at <= end]
        if not inside:
            if not self.samples:
                raise RuntimeError("the speed probe recorded no samples")
            middle = (start + end) / 2
            inside = [min(self.samples, key=lambda sample: abs(sample[0] - middle))[1]]
        return sum(REFERENCE_S / cpu for cpu in inside) / len(inside)

    def reference_s(self, start: float, end: float) -> float:
        """Reference seconds of the host interval ``[start, end]``."""
        return (end - start) * self.factor(start, end)


def _main() -> int:
    gc.disable()  # a collection inside the kernel would read as a slow machine
    grid = np.arange(32 * 32, dtype=np.int64).reshape(32, 32)
    samples = []
    while True:
        cpu0 = time.thread_time()
        _kernel(grid)
        cpu = time.thread_time() - cpu0
        samples.append(f"{time.perf_counter():.6f} {cpu:.9f}")
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            break
    sys.stdout.write("\n".join(samples) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(_main())
