"""Machine-speed sampling, so that timings can be given at a fixed speed.

The 2-core virtual machines this benchmark runs on share their physical
cores with other tenants. The same execution of a workload can run up to
twice as slowly when a neighbour is busy, in episodes of one to ten
seconds, and the share of slow time drifts over minutes. Medians over a
run do not remove that drift.

So every execution samples the speed of the CPU it runs on: an interval
timer interrupts the process every ``INTERVAL_S`` seconds of wall time
and times a fixed kernel of interpreter work and small numpy operations,
the two kinds of work the program does, and nothing of the program.
:func:`reference_seconds` then gives the length of an interval at the
reference speed: its wall time, minus the time spent in the kernel,
scaled by ``KERNEL_REFERENCE_S`` over the kernel's mean time during the
interval. On a machine where the kernel takes ``KERNEL_REFERENCE_S``
seconds, reference seconds are wall seconds.

The kernel runs while the program is paused, in the same process and on
the same CPU, so it sees what slows the program from outside (other
tenants, frequency) but not the program's own work: a change to the
program moves reference seconds exactly as it moves wall seconds. The
kernel imports nothing, so it is safe to run from a signal handler at any
point, also in the middle of an import; numpy is imported with this
module, before the sampler can start.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Seconds between two samples.
INTERVAL_S = 0.1
# Mean time of one kernel on the machine the benchmark was written on
# (2-core Intel Xeon virtual machine, Python 3.11, numpy 2); under 1 % of
# a sampling interval.
KERNEL_REFERENCE_S = 0.0007
PYTHON_ITERATIONS = 1000
NUMPY_ITERATIONS = 100
WARMUP_ITERATIONS = 100
# A sample this many times slower than the median sample is an outlier.
OUTLIER_FACTOR = 3.0


_ROWS = np.arange(40.0).reshape(2, 20) / 40.0


def kernel() -> float:
    """Seconds taken by a fixed amount of interpreter and numpy work."""
    acc = 0.0
    x = np.zeros(20)
    for i in range(WARMUP_ITERATIONS):
        acc += (i * 0.5) % 7.0
    start = time.monotonic()
    for i in range(PYTHON_ITERATIONS):
        acc += (i * 0.5) % 7.0
    for i in range(NUMPY_ITERATIONS):
        row = _ROWS[i & 1]
        x -= 1e-6 * (row * (row @ x - 1.0))
    return time.monotonic() - start


class Sampler:
    """Times :func:`kernel` every ``INTERVAL_S`` seconds between
    :meth:`start` and :meth:`stop`. ``samples`` holds (monotonic start
    time, kernel seconds) pairs."""

    def __init__(self):
        self.samples: list = []

    def _sample(self, signum, frame) -> None:
        at = time.monotonic()
        self.samples.append((at, kernel()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def reference_seconds(start: float, end: float, samples) -> float:
    """Length of [start, end) at the reference speed.

    ``samples`` are all the samples of one execution. The time spent in
    the kernel inside the interval is not counted. A sample over
    ``OUTLIER_FACTOR`` times the execution's median sample was
    descheduled while it ran, so it is left out of the kernel's mean
    time; an interval with no other sample in it uses the mean over the
    whole execution. Without samples, the wall time is returned.
    """
    if not samples:
        return end - start
    limit = OUTLIER_FACTOR * statistics.median(seconds for _, seconds in samples)
    inside = [seconds for at, seconds in samples if start <= at < end]
    typical = [seconds for seconds in inside if seconds <= limit] or [
        seconds for _, seconds in samples if seconds <= limit
    ]
    return (end - start - sum(inside)) * KERNEL_REFERENCE_S / statistics.fmean(typical)
