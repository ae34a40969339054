"""Speed probe: a fixed pure-Python loop, timed between operations.

Each CPU of the shared 2-core VMs this benchmark was tuned on flips between
a fast and a slow state every few seconds, about a third apart, and
independently of the other CPU. How much of a minute it spends in each
state changes from minute to minute, and every time a run measures moves
with it. So a run, pinned to one CPU by ``run.py``, also times this loop, a
few milliseconds at a time between its operations, and scales its times by
``REFERENCE_S / mean(probe times)``. A time then reads what it would have
read at the speed the loop was tuned at: a slower relgraph still reads
slower, but a slower CPU does not. The loop touches no relgraph code and
allocates no objects the garbage collector tracks, so nothing a change to
relgraph does can move it.
"""

from __future__ import annotations

import statistics
import time

# Mean time of one ``spin()`` within a run on the tuning machine (2-core
# x86-64 VM, Python 3.11.7; 3.6-4.4 ms from run to run). It only sets the
# scale the scaled times are read at.
REFERENCE_S = 0.0040
ROUNDS = 10_000

_TABLE = list(range(256))
_MAP = {i: (i * 7) % 256 for i in range(256)}


def spin() -> float:
    """Seconds taken by one fixed round of integer, list and dict work."""
    table, lookup = _TABLE, _MAP
    acc = 0
    t0 = time.perf_counter()
    for i in range(ROUNDS):
        x = table[i & 255] ^ (acc >> 3)
        acc = (acc + lookup[x & 255] * 31 + (x << 1)) & 0x3FFFFFFF
        if acc & 1:
            acc |= i & 0xF0
    return time.perf_counter() - t0


def sample(times: list[float], count: int) -> None:
    times.extend(spin() for _ in range(count))


def scale(times: list[float]) -> float:
    """Factor that brings times measured next to ``times`` to the reference speed."""
    return REFERENCE_S / statistics.fmean(times)
