"""Time at nominal processor speed, from a reference kernel sampled while the program runs.

The benchmark's host is a shared virtual machine whose processor speed
wanders: for a second or a few at a time the same code takes about 1.5
times as long, and the share of time spent slow drifts over minutes.
Wall times of a fixed job, and every statistic over the jobs of a
25-second run, drift with it by 15 to 30 percent from run to run.

`SpeedClock` interrupts the program every `TICK_S` seconds of wall time
(SIGALRM; the handler runs in the main thread between bytecodes) and
times a fixed reference kernel.  The kernel's time over its nominal time
is the slowdown at that moment.  The clock advances by wall time divided
by the slowdown, averaged over the samples at both ends of each
interval; the kernel's own time is left out.  A span timed on this clock
is its time at nominal speed: seconds on this host at its fastest, where
the kernels take their nominal times.  The samples add 1 to 2 percent
to the time the program takes.

Two kernels: `mixed_kernel`, interpreter work and small FFTs like the
program's own, for jobs; `python_kernel`, interpreter work only, for
set-up, which is timed from a fresh interpreter before numpy is imported.
This module imports nothing heavy, so that it does not add to set-up.
"""

import contextlib
import signal
from time import perf_counter

TICK_S = 0.025
# kernel times at this host's fastest: the 2nd percentile of about 2000
# samples inside running jobs of all four workloads (mixed), and of about
# 300 inside set-ups (interpreter only; 1.14e-4 and 1.26e-4 at two
# calibrations).  2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4.  They set
# the scale of every time reported, so changing them breaks comparisons.
MIXED_NOMINAL_S = 2.30e-4
PYTHON_NOMINAL_S = 1.20e-4

_inputs = []


def mixed_kernel():
    """Seconds for a fixed piece of interpreter, number formatting and
    small-array work, the kinds of work the program does."""
    import numpy as np

    if not _inputs:
        rng = np.random.default_rng(0)
        _inputs.extend([rng.standard_normal(512), rng.standard_normal(48).tolist()])
    x, row = _inputs
    t0 = perf_counter()
    acc = 0
    for i in range(600):
        acc += i * i
    for _ in range(2):
        ",".join(f"{v:.17g}" for v in row)
    for _ in range(6):
        np.fft.irfft(np.fft.rfft(x)) * 0.5 + x
    return perf_counter() - t0


def python_kernel():
    """Seconds for a fixed piece of interpreter work."""
    t0 = perf_counter()
    acc = 0
    for i in range(2000):
        acc += i * i
    return perf_counter() - t0


class SpeedClock:
    """A clock that runs at nominal speed while it is `running()`; between
    runs it stands still."""

    def __init__(self, kernel=mixed_kernel, nominal_s=MIXED_NOMINAL_S):
        self.kernel, self.nominal_s = kernel, nominal_s
        # (nominal seconds up to the last sample, wall time of that sample
        # with its kernel excluded, latest slowdown), replaced as one tuple
        # so that `now` never reads half of an update made by the handler
        self._state = (0.0, 0.0, 1.0)
        self.wall = 0.0      # wall seconds while running, kernels excluded
        self.kernel_s = 0.0  # wall seconds spent in the kernel
        self._on = False

    def _sample(self):
        t0 = perf_counter()
        k = self.kernel()
        t1 = perf_counter()
        nominal, last, prev = self._state
        slow = k / self.nominal_s
        if self._on:
            nominal += (t0 - last) / (0.5 * (prev + slow))
            self.wall += t0 - last
        self.kernel_s += t1 - t0
        self._state = (nominal, t1, slow)

    def _on_alarm(self, signum, frame):
        self._sample()

    def now(self):
        """Nominal seconds so far; between samples at the latest slowdown."""
        nominal, last, slow = self._state
        if not self._on:
            return nominal
        return nominal + (perf_counter() - last) / slow

    @property
    def nominal(self):
        return self._state[0]

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._sample()
        self._on = True
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()
            self._on = False

    def mean_slowdown(self):
        return self.wall / self.nominal if self.nominal else 1.0


_active = None


def now():
    """Nominal seconds on the active clock, or wall seconds without one."""
    return perf_counter() if _active is None else _active.now()


@contextlib.contextmanager
def timing(clock):
    """Run `clock` and make `now()` read it."""
    global _active
    _active = clock
    try:
        with clock.running():
            yield clock
    finally:
        _active = None
