"""Machine-speed calibration for the timed intervals of a run.

On a small shared VM a core switches between a fast and a slow state for
anything from a quarter of a second to minutes (a co-tenant on the same
physical core).  The slow state costs interpreter-bound code, and numpy
calls on small arrays, whose per-call overhead is interpreter-like, about
1.5-2x.  LAPACK calls on large operands feel it far less: over runs of a
512x512 SVD beside the interpreter-bound kernel below, the log of the SVD's
time moved HEAVY_EXPONENT (0.16 to 0.33 in three probes of 40-60 s) times
the log of the kernel's.

So the benchmark measures the drift with a fixed interpreter-bound kernel of
its own, run every INTERVAL_S on a background thread of this process, on the
same CPU as the program.  Each sample is the kernel's thread CPU time, right
after an untimed run of it that brings its data back into the caches: so
neither the program running beside it nor the program's working set
lengthens a sample; the slow state does.

Each timed interval is reported at the speed where the kernel takes
REFERENCE_S.  With h the share of the interval spent in numpy.linalg calls
that each last at least HEAVY_S (measured per scenario in the untimed first
pass, see LinalgClock), and the slowdown taken from the kernel samples that
ended inside the interval plus the NEIGHBOURS nearest on each side,

    rescaled = (raw - kernel CPU time inside it) /
               ((1 - h) * slowdown + h * slowdown ** HEAVY_EXPONENT)

The kernel uses no specfam code, so a change to the program cannot move it;
a program that gets slower reads slower by the same factor.  The model is
fitted, not exact: code on mid-sized numpy arrays feels the slow state less
than the kernel, so fiber-sweep reads 5-15% low in the deepest slow state.  The times
before rescaling are kept beside the rescaled ones in the run's detail line.
"""

from __future__ import annotations

import bisect
import functools
import threading
import time

import numpy as np
from tracer import LINALG

# Kernel time on the 2-vCPU Xeon VM the bounds were set on, in its fast
# state; it only sets the scale, so that rescaled seconds read like real ones.
REFERENCE_S = 0.00155
INTERVAL_S = 0.15
NEIGHBOURS = 2  # a scenario shorter than INTERVAL_S still gets 4 samples
HEAVY_S = 1e-3  # a linalg call this long is LAPACK-bound, not overhead-bound
HEAVY_EXPONENT = 0.3

_SMALL = np.random.default_rng(20141128).standard_normal((100, 2, 2))


def _kernel() -> float:
    """Dict and tuple work, as per grid member, then 2x2 array arithmetic."""
    table: dict[tuple[int, int], float] = {}
    for i in range(4_000):
        key = (i % 61, i % 59)
        table[key] = table.get(key, 0.0) + (i * 0.5) % 3.0
    acc = 0.0
    for m in _SMALL:
        acc += float(np.abs(m @ m.T).max())
    return acc + len(table)


def _cpu_seconds() -> float:
    """Thread CPU time of the kernel, run right after an untimed run of it."""
    _kernel()
    started = time.thread_time()
    _kernel()
    return time.thread_time() - started


class Speed:
    """Kernel samples taken in the background while the run goes on.

    Use as a context manager around everything that is timed; call
    `rescale` after it has exited, when every sample is in.
    """

    def __init__(self):
        self.ends: list[float] = []  # perf_counter when each sample finished
        self.samples: list[float] = []  # thread CPU seconds of each sample
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="perfbench-speed", daemon=True)
        _kernel()  # the first call pays for lazy set-up in numpy

    def __enter__(self):
        self._thread.start()
        self._cpu_clock = time.pthread_getcpuclockid(self._thread.ident)
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._take()  # the last interval gets a sample after it, however short the run

    def cpu_seconds(self) -> float:
        """CPU time of the sampling thread so far; only inside the `with` block.

        The run is pinned to one CPU, so this is time the kernel took from
        the program; the caller subtracts it from the interval it times.
        """
        return time.clock_gettime(self._cpu_clock)

    def _sample(self):
        while not self._stop.wait(INTERVAL_S):
            self._take()

    def _take(self):
        self.samples.append(_cpu_seconds())
        self.ends.append(time.perf_counter())

    def slowdown(self, start: float, end: float) -> float:
        lo = max(bisect.bisect_left(self.ends, start) - NEIGHBOURS, 0)
        hi = bisect.bisect_right(self.ends, end) + NEIGHBOURS
        around = self.samples[lo:hi]
        return sum(around) / len(around) / REFERENCE_S

    def rescale(self, raw: float, heavy_share: float, start: float, end: float) -> float:
        slow = self.slowdown(start, end)
        return raw / ((1.0 - heavy_share) * slow + heavy_share * slow**HEAVY_EXPONENT)


class LinalgClock:
    """Time inside numpy.linalg's svd, eigh and eigvalsh calls of at least HEAVY_S.

    Installed only for the untimed first pass, to learn each scenario's
    LAPACK-bound share; outermost calls only, so nested calls are not
    counted twice.
    """

    def __init__(self):
        self.seconds = 0.0
        self._depth = 0
        self._orig: dict[str, object] = {}

    def _wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self._depth += 1
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                took = time.perf_counter() - started
                if not self._depth and took >= HEAVY_S:
                    self.seconds += took

        return timed

    def __enter__(self):
        for name in LINALG:
            self._orig[name] = getattr(np.linalg, name)
            setattr(np.linalg, name, self._wrap(self._orig[name]))
        return self

    def __exit__(self, *exc):
        for name, fn in self._orig.items():
            setattr(np.linalg, name, fn)
        self._orig.clear()
