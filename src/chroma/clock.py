"""Wall clock vs. deterministic virtual clock.

Both clocks share one protocol: `now()` reads the time, and `tick(n)`
counts n objective evaluations and returns the time after them, so a
search loop that evaluates and then needs the time makes one call.

Setting CHROMA_VIRTUAL_CLOCK=1 makes every time-driven decision (ILS budgets,
wall budgets, reported elapsed seconds) a pure function of the number of
objective evaluations, at a fixed rate of one millisecond per evaluation.
Runs then produce byte-identical output for identical inputs and seeds.
`make_clock` reads the setting at every call, so each benchmark cell gets
the clock that the setting names when the cell starts.
"""

from __future__ import annotations

import os
import time
from typing import Union

VIRTUAL_CLOCK_ENV = "CHROMA_VIRTUAL_CLOCK"
VIRTUAL_SECONDS_PER_EVAL = 0.001


class WallClock:
    """Real time from time.perf_counter(); evaluations are not counted, so
    `tick` only reads the time."""

    def now(self) -> float:
        return time.perf_counter()

    def tick(self, evaluations: int = 1) -> float:
        return time.perf_counter()


class VirtualClock:
    """Counts objective evaluations; `now` is evaluations *
    VIRTUAL_SECONDS_PER_EVAL, and `tick(n)` adds n evaluations and returns
    that time, the value `now` gives next."""

    def __init__(self) -> None:
        self.evaluations = 0

    def now(self) -> float:
        return self.evaluations * VIRTUAL_SECONDS_PER_EVAL

    def tick(self, evaluations: int = 1) -> float:
        self.evaluations += evaluations
        return self.evaluations * VIRTUAL_SECONDS_PER_EVAL


Clock = Union[WallClock, VirtualClock]


def make_clock() -> Clock:
    if os.environ.get(VIRTUAL_CLOCK_ENV) == "1":
        return VirtualClock()
    return WallClock()
