"""Tests of the machine-speed pacer: python3 -m pytest -q perfbench/test_pace.py"""

from __future__ import annotations

import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import pace  # noqa: E402


def test_pacer_samples_takes_its_time_out_of_the_clock_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with pace.Pacer() as pacer:
        start_wall, start = time.perf_counter(), pacer.clock()
        while time.perf_counter() - start_wall < 0.3:
            sum(range(1000))
        wall, clocked = time.perf_counter() - start_wall, pacer.clock() - start
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(pacer.samples) >= 5
    assert abs(wall - clocked - pacer.handler_s) < 1e-4  # two clock reads apart
    assert pacer.slowdown() > 0


def test_slowdown_is_the_clipped_mean_over_nominal():
    pacer = pace.Pacer()
    assert pacer.slowdown() == 1.0
    nominal = pace.NOMINAL_KERNEL_S
    pacer.samples = [nominal, nominal, 2 * nominal, 100 * nominal]
    cap = pace.STALL_CLIP * 1.5
    assert abs(pacer.slowdown() - (1 + 1 + 2 + cap) / 4) < 1e-12
    assert abs(pacer.calibrated(3.0) - 3.0 / pacer.slowdown()) < 1e-12
