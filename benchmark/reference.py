"""A fixed reference workload that measures how fast the machine is right now.

The host this benchmark was written on changes speed by up to about 1.9x
over spells of seconds to a minute, in wall and CPU time alike, because
other tenants share its cores.  A time taken in one run is therefore
scaled by the speed of the machine at that moment:

    scaled = measured * REFERENCE_S / reference_s()

where ``reference_s()`` times a small unit of interpreter work next to
the measurement, in the same process: between the checks of a sweep
pass, or before and after the work of a fresh process.  The unit uses
only the standard library (``copy.deepcopy`` of a small dataclass, dict
and list updates, ``hashlib``), the same kinds of work the program
spends its time in, so a change to the program cannot change it.  ``REFERENCE_S`` is what the
unit took on that host in its fast state; it only fixes the scale, so a
scaled time reads as seconds on that machine.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field
from time import perf_counter

REFERENCE_S = 0.0015
ROUNDS = 40


@dataclass
class _Cell:
    state: dict = field(default_factory=dict)
    log: list = field(default_factory=list)

    def step(self, value: int) -> int:
        self.state[value & 15] = self.state.get(value & 15, 0) + value
        self.log.append(value)
        return len(self.log)


def reference_unit() -> int:
    base = _Cell({100 + i: [i, str(i)] for i in range(8)}, list(range(8)))
    total = 0
    for r in range(ROUNDS):
        cell = copy.deepcopy(base)
        for value in range(20):
            total += cell.step(value * r)
        total += hashlib.sha256(repr(cell.state).encode()).digest()[0]
    return total


def reference_s() -> float:
    """The time of one reference unit, in seconds."""
    start = perf_counter()
    reference_unit()
    return perf_counter() - start


def measure(units: int = 3) -> tuple[float, float]:
    """(the middle time of ``units`` reference units, seconds spent in
    all of them).  One untimed unit goes first, so a fresh process's
    first-call costs are not counted."""
    start = perf_counter()
    reference_unit()
    times = sorted(reference_s() for _ in range(units))
    return times[units // 2], perf_counter() - start


def scaled(seconds: float, reference: float) -> float:
    """``seconds`` as they would read with the reference unit at
    ``REFERENCE_S``."""
    return seconds * REFERENCE_S / reference
