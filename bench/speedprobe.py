"""Scale wall time to the host's quiet speed with an in-process probe.

On a shared host the speed of this process switches between a quiet and
a contended state (1.4 to 2.4 times slower), every 0.2 to 1.5 s, because
of other tenants' work.  CPU time slows in step with wall time, so
neither is steady, and a 30 s run can spend anywhere from a fifth to
nearly all of its time in the slow state.

``SpeedProbe`` measures that state where the work runs: every
``INTERVAL_S`` of wall time a SIGALRM handler runs a fixed pure-Python
snippet twice (the first run warms the caches) and records the cost of
the cheaper run.  The snippet touches no permgate code, so nothing a
change to the program does can speed it up.  ``scaled(start, end)`` is
the wall time of [start, end], less the handler's own time, multiplied by
the mean of ``REFERENCE_COST_S / cost`` over the samples inside it: the
time the interval would have taken at the speed the snippet has when the
host is quiet.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.01
# the snippet's cost on a quiet host: Intel Xeon at 2.0 GHz, Python 3.11.7
REFERENCE_COST_S = 6.5e-6

_IMAGES = (3, 1, 2, 0, 7, 5, 6, 4)
_POINTS = list(range(8))


def _snippet() -> list:
    """Tuple building, sorting and a comprehension, like permgate's own
    inner loops, but on the probe's private data."""
    out = []
    for _ in range(3):
        images = tuple(_IMAGES[j] for j in _IMAGES)
        bijective = sorted(images) == _POINTS
        out = [x ^ 1 for x in images if bijective]
    return out


class SpeedProbe:
    """Samples the host's speed while active; use as a context manager."""

    def __init__(self):
        self.stamps: list[float] = []  # when each sample started
        self.costs: list[float] = []  # the snippet's cost in that sample
        self.spent: list[float] = []  # the handler's whole time
        self._previous = None

    def _tick(self, signum, frame) -> None:
        clock = time.perf_counter
        start = clock()
        _snippet()
        middle = clock()
        _snippet()
        end = clock()
        self.stamps.append(start)
        self.costs.append(min(middle - start, end - middle))
        self.spent.append(end - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float) -> float:
        """Wall time of [start, end] at the quiet speed.  An interval with
        no sample inside takes the nearest sample's speed."""
        if not self.costs:
            return end - start
        i = bisect.bisect_left(self.stamps, start)
        j = bisect.bisect_left(self.stamps, end)
        if i == j:
            costs = [self.costs[i - 1 if i else 0]]
        else:
            costs = self.costs[i:j]
        work = end - start - sum(self.spent[i:j])
        return work * statistics.fmean(REFERENCE_COST_S / c for c in costs)

    def summary(self) -> dict:
        """Samples taken, and the median slowdown against the quiet speed."""
        if not self.costs:
            return {"samples": 0, "median_slowdown": None}
        return {"samples": len(self.costs),
                "median_slowdown": statistics.median(self.costs) / REFERENCE_COST_S}
