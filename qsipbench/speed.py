"""Rescale measured times to one reference CPU speed.

Shared virtual machines change speed from second to second: on a 2-vCPU
Xeon VM the raw time of a fixed benchmark pass spread 18-32 % (quartile
range over median, ten runs), while nothing else ran in the VM.  A fixed
pure-Python reference loop slows down by the same factor, so the benchmark
samples it every ``PERIOD_S`` seconds of a timed region (from a SIGALRM
handler, so long checks are sampled too) and rescales the work time after
each sample by the reference speed it showed.  Rescaled, the same runs
spread 1.2-2.5 % (``baseline.json``).  Time spent in the samples is not
work time.

Run as a script, it measures the import of ``qsip.cli`` the same way and
prints ``{"raw_s": ..., "scaled_s": ...}``.
"""

from __future__ import annotations

import json
import signal
import time

PERIOD_S = 0.05
REFERENCE_S = 0.001  # one loop counts as 1 ms; it took 0.85-1.6 ms on that VM

_now = time.perf_counter


def reference() -> float:
    """Run the reference loop once; return its duration in seconds."""
    start = _now()
    table: dict = {}
    for i in range(4500):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i * i
    return _now() - start


class Ticker:
    """Context manager whose ``clock()`` reads rescaled work time.

    Between two samples the clock runs at the speed the reference loop
    showed at the earlier one, and it stands still while a sample runs.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0  # work time as measured
        self.scaled_s = 0.0  # work time rescaled, up to the last sample
        self.samples = 0

    def clock(self) -> float:
        return self.scaled_s + (_now() - self._last) * REFERENCE_S / self._ref

    def _account(self, end: float) -> None:
        self.raw_s += end - self._last
        self.scaled_s += (end - self._last) * REFERENCE_S / self._ref

    def _tick(self, signum, frame) -> None:
        self._account(_now())
        self._ref = reference()
        self.samples += 1
        self._last = _now()

    def __enter__(self) -> "Ticker":
        self._ref = reference()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._last = _now()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._account(_now())
        signal.signal(signal.SIGALRM, self._previous)


def probe_import() -> dict:
    """Import qsip.cli in this (fresh) interpreter, timed and rescaled."""
    before = min(reference() for _ in range(3))
    start = _now()
    import qsip.cli  # noqa: F401
    raw = _now() - start
    after = min(reference() for _ in range(3))
    return {"raw_s": raw, "scaled_s": raw * REFERENCE_S / ((before + after) / 2)}


if __name__ == "__main__":
    print(json.dumps(probe_import()))
