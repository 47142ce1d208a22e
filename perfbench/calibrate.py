"""Reference kernels that measure how fast the machine runs right now.

The reference machine shares its cores with other tenants, and its speed
drifts by up to 1.8x over seconds to minutes; pure-Python code slows more
than numpy code does. The worker reads a kernel between operations and
scales each timing by REF_S[kernel] over the readings around it, with
the kernel that matches what the operation spends its time on:

- "py": small-object Python (dataclass construction, validation, math
  calls), like `evaluate_rate`;
- "np": numpy element-wise transcendental work over a 1.6 MB array, like
  the optimizer grid and the simulator's draws and step loop;
- "proc": starting an interpreter, like a CLI call or a worker's setup.

Scaled times read as seconds on the reference machine (2-core Xeon at
2.1 GHz) when it is unloaded. The kernels live here, not in ionrep, so no
change to the program can move them; raw times are reported next to the
scaled ones.
"""
from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

# one kernel call on the reference machine, unloaded
REF_S = {"py": 1.1e-3, "np": 0.7e-3, "proc": 9.0e-3}

_ARRAY = np.random.default_rng(0).random(200_000)
# written in place: an allocating kernel would read faster or slower with
# whatever state the operation before it left the allocator in
_BUF = np.empty_like(_ARRAY)


@dataclass(frozen=True)
class _Point:
    p: float
    scale: float

    def check(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(self.p)


def _py_kernel() -> float:
    total = 0.0
    for i in range(1500):
        point = _Point(0.1, float(i))
        point.check()
        total += math.exp(math.log1p(-point.p) * point.scale)
    return total


def _np_kernel() -> float:
    np.negative(_ARRAY, out=_BUF)
    np.log1p(_BUF, out=_BUF)
    np.multiply(_BUF, 3.0, out=_BUF)
    np.exp(_BUF, out=_BUF)
    return float(_BUF.sum())


def _proc_kernel() -> None:
    # no timeout: with one, subprocess polls with sleeps and the reading
    # measures their granularity
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)


KERNELS = {"py": _py_kernel, "np": _np_kernel, "proc": _proc_kernel}


def measure(kernels, repeats: int = 1) -> dict[str, float]:
    """Seconds for one call of each named kernel now, median of `repeats`.

    Each kernel runs once untimed first, so the reading does not depend on
    what the operation before it left in the caches.
    """
    out = {}
    for name in kernels:
        kernel = KERNELS[name]
        kernel()
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        out[name] = statistics.median(times)
    return out


# readings on each side of an operation that its speed factor is taken from
WINDOW = 4


def speed_at(readings: list[dict[str, float]], before: int, kernel: str) -> float:
    """Factor that turns a time measured right after reading `before` into
    reference seconds (below 1 when the machine runs slow).

    It is REF_S over the mean of the readings around the operation, less
    the slowest one, which an interrupt or a preemption may have hit. A
    mean rather than a median, because the machine flickers between a fast
    and a slow state faster than readings are taken, and an operation runs
    at the average of the two.
    """
    lo = max(0, before - WINDOW + 1)
    window = sorted(r[kernel] for r in readings[lo:before + WINDOW + 1])
    if len(window) > 2:
        window = window[:-1]
    return REF_S[kernel] / (sum(window) / len(window))
