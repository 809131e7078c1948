"""Wall time corrected for contention from other tenants of the host.

On a shared machine the same work takes anywhere from 1x to 1.6x as long,
in spells of seconds to minutes, so plain wall times of separate runs
differ by more than the changes the benchmark must detect.  This clock
runs a fixed probe from a SIGALRM handler every few milliseconds while the
timed code runs.  The probe slows down with the code around it, so its mean
duration measures how contended the core was over exactly that interval,
and

    reference seconds = (wall seconds - time spent in the handler)
                        * reference probe duration / mean probe duration

is the time the work would have taken on a core where the probe takes its
reference duration (about its uncontended duration on the 2-core
reference machine).

The probe is a pass of small-array numpy calls, timed on its second
repetition: the first pass reloads the caches the program evicted, so the
probe does not run slower inside a program that streams large arrays.  The
set-up measurement cannot load numpy before the import it times, so there
the probe is a pure-Python loop.

Run as a script, it reports the reference and wall seconds of
``import hbcycles.cli`` in this fresh interpreter, and the module's path.
"""

from __future__ import annotations

import signal
import statistics
import sys
import time

# Uncontended durations of one timed pass on the reference machine.
NUMPY_REFERENCE_S = 8.5e-5
PYTHON_REFERENCE_S = 1.2e-4


def _python_pass():
    total = 0
    for j in range(3000):
        total += j


def _numpy_pass_factory():
    import numpy as np

    x, y = np.ones(8), np.empty(8)

    def numpy_pass():
        for _ in range(40):
            x.sum()
            np.multiply(x, 2.0, out=y)
    return numpy_pass


class ContentionClock:
    """SIGALRM probe sampler; use as a context manager around timed code."""

    def __init__(self, interval: float, numpy_probe: bool = True):
        self.interval = interval
        if numpy_probe:
            self._pass, self.reference = _numpy_pass_factory(), NUMPY_REFERENCE_S
        else:
            self._pass, self.reference = _python_pass, PYTHON_REFERENCE_S
        self.samples: list[float] = []  # duration of each timed pass
        self.spent: list[float] = []    # time of each whole handler call
        self._previous = None

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self._pass()
        timed = time.perf_counter()
        self._pass()
        end = time.perf_counter()
        self.samples.append(end - timed)
        self.spent.append(end - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> tuple[float, int]:
        return time.perf_counter(), len(self.samples)

    def since(self, mark) -> tuple[float, float]:
        """(reference seconds, wall seconds) since ``mark``."""
        wall = time.perf_counter() - mark[0]
        probes = self.samples[mark[1]:]
        if not probes:  # shorter than one interval: no contention estimate
            return wall, wall
        net = wall - sum(self.spent[mark[1]:])
        return net * self.reference / statistics.fmean(probes), wall


def _import_probe() -> None:
    with ContentionClock(0.005, numpy_probe=False) as clock:
        mark = clock.mark()
        import hbcycles.cli
        ref, wall = clock.since(mark)
    print(ref, wall, hbcycles.cli.__file__)


if __name__ == "__main__":
    sys.exit(_import_probe())
