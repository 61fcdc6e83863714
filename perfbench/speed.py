"""Machine-speed index for the benchmark's timings.

On a shared virtual machine all code runs up to about 1.5x slower for
stretches of seconds to minutes, set by the other tenants. A 15 s run can
fall entirely into one such stretch, so the median of raw wall times moves
by some 20% from run to run. To cancel that, fixed reference computations
are timed right before and right after each timed call. Their slowdown
against their reference times is the speed index, and a timing divided by
the index reads as it would on the machine in its fast state.

Different kinds of work slow down by different amounts in the same
stretch, so each workload names the reference parts that match its own
work: large vectorised numpy passes for transform-bound products; an
interpreter loop, many small numpy calls (on a tiny and on a 2 MB working
set) and object-dtype big-integer arithmetic for the rest. The index is the
geometric mean of the named parts' slowdowns.
"""

from __future__ import annotations

import math
import time

import numpy as np

_P = 998244353


def _python() -> int:
    s = 0
    for k in range(40000):
        s += k * k
    return s


def _small_numpy() -> np.ndarray:
    a = np.arange(64, dtype=np.int64)
    for k in range(400):
        a = (a * 31 + k) % _P
    return a


def _large_numpy() -> np.ndarray:
    a = np.arange(1 << 16, dtype=np.int64)
    for k in range(8):
        a = (a * 31 + k) % _P
    return a


_WIDE = [np.arange(1024, dtype=np.int64) + i for i in range(256)]


def _wide_numpy() -> None:
    for a in _WIDE:
        np.remainder(a * 31 + 7, _P, out=a)


def _object_ints() -> np.ndarray:
    a = np.array([(1 << 61) + i for i in range(256)], dtype=object)
    for k in range(30):
        a = (a * 1234567891011 + k) % 4611685941117976577
    return a


# name -> (part, seconds it takes on a 2-core Intel Xeon VM in its fast state)
PARTS = {
    "python": (_python, 2.9e-3),
    "small_numpy": (_small_numpy, 1.3e-3),
    "wide_numpy": (_wide_numpy, 2.5e-3),
    "object_ints": (_object_ints, 1.8e-3),
    "large_numpy": (_large_numpy, 3.9e-3),
}


def sample(parts) -> list[float]:
    """Seconds each named reference part takes now."""
    out = []
    for name in parts:
        t0 = time.perf_counter()
        PARTS[name][0]()
        out.append(time.perf_counter() - t0)
    return out


def index(parts, before: list[float], after: list[float]) -> float:
    """Geometric mean over the parts of (mean of the two samples) / reference."""
    logs = [math.log((b + a) / 2 / PARTS[name][1])
            for name, b, a in zip(parts, before, after)]
    return math.exp(sum(logs) / len(logs))


def timed(parts, fn):
    """(wall seconds, speed index, result) of fn(), the index taken from the
    named reference parts right before and right after the call."""
    before = sample(parts)
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return wall, index(parts, before, sample(parts)), result
