"""Host-speed reference: a fixed piece of pure Python timed next to the work.

On a shared virtual machine the speed of a CPU-bound Python loop switches
between a fast and a slow state, about 1.6 times apart, many times a second.
``reference()`` does the same kind of work as the library (building and
probing dicts keyed by string tuples, filling a set) without calling it, so its
time follows the host's speed but no change to the library can move it.  A
time ``t`` measured with a reference time ``r`` is reported as
``t * NOMINAL_S / r``: the time on a host on which the reference takes exactly
``NOMINAL_S``.
"""
import gc
import signal
from time import perf_counter

NOMINAL_S = 0.001
SIZE = 16


def reference():
    """About 1.2-2.0 ms on a 2-vCPU cloud VM with Python 3.11; returns a fixed count."""
    elements = [f"a{j}" for j in range(SIZE)]
    mult = {(f"a{j}", f"a{k}"): f"a{(j * k + j) % SIZE}"
            for j in range(SIZE) for k in range(SIZE)}
    seen = set()
    for x in elements:
        for y in elements:
            xy = mult[(x, y)]
            for z in elements:
                seen.add((xy, z, mult[(xy, z)]))
    return len(seen)


def reference_s():
    """One timed reference run, with the cyclic garbage collector held off.

    A collection started inside the reference would cost time in proportion to
    the library's heap, which the reference must not depend on.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    reference()
    seconds = perf_counter() - start
    if enabled:
        gc.enable()
    return seconds


def scaled(seconds, ref_s):
    return seconds * NOMINAL_S / ref_s


class Meter:
    """Times a stretch of code and samples the host speed around and inside it.

    The reference runs once before and once after the stretch, and every
    ``interval_s`` inside it from a SIGALRM handler; the time spent in the
    handler is taken off the stretch.  ``stop()`` returns the stretch's seconds
    and the harmonic mean of the reference samples, that is the reference time
    at the mean speed over the stretch.  Only one Meter may run at a time.
    """

    def __init__(self, interval_s):
        self.interval_s = interval_s
        for _ in range(5):  # let the interpreter specialise the reference first
            reference_s()
        self.samples = []
        self.handler_s = 0.0
        self.started = None
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        start = perf_counter()
        self.samples.append(reference_s())
        self.handler_s += perf_counter() - start

    def start(self):
        self.samples = [reference_s()]
        self.handler_s = 0.0
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        self.started = perf_counter()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = perf_counter() - self.started - self.handler_s
        self.samples.append(reference_s())
        return seconds, len(self.samples) / sum(1 / s for s in self.samples)
