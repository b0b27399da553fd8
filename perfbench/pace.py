"""How fast the machine ran while it was measured: a reference kernel, sampled.

On a host shared with other tenants a core runs faster or slower, in bursts
from milliseconds to minutes long, so the same pass can take 2 s or 4 s. A pacer
interrupts the load process every ``INTERVAL_S`` (``ITIMER_REAL``/``SIGALRM``)
and runs a fixed kernel of the benchmark's own in the signal handler: 256 x 256
complex matrix-vector products and a Python dict loop, like the BLAS-bound
and the interpreter-bound parts of a stabsim pass. No stabsim code
runs in it, so a change to the program does not change the kernel's time.

The kernel's mean time over a stretch, over ``NOMINAL_KERNEL_S``, is how much
slower than nominal the machine ran during that stretch. A calibrated time is
the stretch's wall time, without the handler's own time, divided by that
factor: the time the work would have taken on the machine at its nominal
speed. Python runs the handler between bytecodes, so a long C call (a
d = 36 SVD) is not sampled while it runs; the samples around it stand in.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
# the kernel's mean time on this benchmark's baseline machine (2-vCPU
# Firecracker VM, Intel Xeon at 2.0 GHz) when it interrupts a pass;
# it only scales the calibrated times, and is the same for every commit
NOMINAL_KERNEL_S = 0.6e-3
STALL_CLIP = 2.5

_rng = np.random.default_rng(20231210)
_MATRIX = (_rng.standard_normal((256, 256)) + 1j * _rng.standard_normal((256, 256))) / 20.0
_VECTOR = np.ones(256, dtype=complex)


def kernel() -> None:
    """The fixed reference work: 0.35-0.55 ms in a loop on the baseline
    machine, 0.5-0.8 ms when it interrupts a pass and finds its cache cold."""
    vec = _VECTOR
    for _ in range(8):
        vec = _MATRIX @ vec
    table = {}
    for i in range(1500):
        table[i & 63] = table.get(i & 31, 0) + i


class Pacer:
    """Samples the kernel every ``INTERVAL_S`` while active.

    ``clock()`` is ``time.perf_counter()`` without the time spent in the
    kernel; ``slowdown()`` is the mean kernel time over nominal. Only one
    pacer may be active in a process, and only in its main thread.
    """

    def __init__(self):
        self.samples = []
        self.handler_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        self.handler_s += seconds

    def __enter__(self) -> "Pacer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def clock(self) -> float:
        return time.perf_counter() - self.handler_s

    def slowdown(self) -> float:
        """Mean kernel time over nominal; 1.0 when nothing was sampled.

        A sample counts at most ``STALL_CLIP`` times the median: a sample
        that caught the process descheduled for milliseconds says nothing
        about how fast the core ran.
        """
        if not self.samples:
            return 1.0
        cap = STALL_CLIP * statistics.median(self.samples)
        mean = sum(min(x, cap) for x in self.samples) / len(self.samples)
        return mean / NOMINAL_KERNEL_S

    def calibrated(self, seconds: float) -> float:
        """`seconds`, measured with ``clock()``, at the machine's nominal speed."""
        return seconds / self.slowdown()
