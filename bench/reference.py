"""The machine's speed, measured with a fixed piece of pure-Python work.

On a shared machine the interpreter's speed can change by a factor of two
within a minute, for reasons outside the process, so a raw time measures
the machine as much as the program.  The benchmark therefore runs this
reference work between operations and reports times in reference seconds:
the measured seconds scaled by ``REFERENCE_S`` over the reference work's
mean time right before and after them.  A change to rdp moves the operations'
time and not the reference's, so it shows in full; a change in the
machine's speed moves both and cancels.

The work hashes tuples and updates a dictionary, like term hashing and
visited sets do, and allocates no container in its loop, so it triggers
no garbage collection of the objects rdp keeps alive.
"""

from __future__ import annotations

from time import perf_counter

# The reference work's nominal time: a reported time equals the measured
# one when the reference work took exactly this long.
REFERENCE_S = 0.0005
# Share of the operations' time spent on the reference work after them.
SHARE = 0.1
# Least number of reference runs that one operation's scale is taken from:
# enough to average out their own noise, few enough to stay within some
# milliseconds of the operation, since the machine's speed changes within
# a second.
MIN_RUNS = 10
_KEYS = tuple((i % 97, i * 7 % 13, i) for i in range(256))


def work() -> int:
    table = dict.fromkeys(_KEYS, 0)
    total = 0
    for _ in range(6):
        for key in _KEYS:
            table[key] += 1
            total += hash(key) & 7
    return total


def scale(runs: int, seconds: float) -> float:
    """Reference seconds per measured second, from ``runs`` of the reference
    work that took ``seconds``."""
    return REFERENCE_S * runs / seconds


class Gauge:
    """The reference work timed after each operation of one pass."""

    def __init__(self) -> None:
        self.after_op: list[tuple[int, float]] = []
        """(runs, seconds) of reference work after each operation."""
        self._owed = 0.0

    def run_for(self, seconds: float) -> tuple[int, float]:
        """Run the reference work until about ``seconds`` more of it have been
        timed (what one call overshoots, the next owes less); returns
        (runs, seconds) of this call."""
        self._owed += seconds
        runs, spent = 0, 0.0
        while self._owed > 0:
            t0 = perf_counter()
            work()
            took = perf_counter() - t0
            runs += 1
            spent += took
            self._owed -= took
        return runs, spent

    def after(self, op_seconds: float) -> None:
        self.after_op.append(self.run_for(SHARE * op_seconds))

    def scales(self, times: list[float]) -> list[float]:
        """Each operation's scale, from the reference runs nearest to it: those
        right before and right after it, widened to the neighbouring
        operations until they hold at least MIN_RUNS runs."""
        n = len(times)
        scales = []
        for i in range(n):
            runs, spent = 0, 0.0
            lo, hi = i - 1, i
            while True:
                for j in (lo, hi):
                    if 0 <= j < n:
                        runs += self.after_op[j][0]
                        spent += self.after_op[j][1]
                if runs >= MIN_RUNS or (lo < 0 and hi >= n - 1):
                    break
                lo, hi = lo - 1, hi + 1
            scales.append(scale(runs, spent))
        return scales
