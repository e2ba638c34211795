"""Machine-speed calibration: a fixed kernel timed around every library call.

This benchmark runs on shared 2-core machines whose speed swings by a third
or more, over spans from a fraction of a second to tens of seconds
(identical calls vary as much in CPU time as in wall time, so it is not
time spent descheduled).  Every timing is therefore scaled to a reference
speed: a fixed kernel is timed before the first call and after every call,
and a call's time is multiplied by the kernel's ``REFERENCE_S`` over the
mean kernel time on its two sides.  Calibrating less often, every 0.25 s,
left the p99 of short calls at the mercy of the sub-second swings.  The
swings slow interpreter-bound code more than large-array numpy code, so a
workload names the kernel that matches it: ``mixed`` for the
interpreter-bound ones, ``array`` for negative-transfer, whose time is
mostly mixture log-densities over 400 x 256 arrays.  With the mixed kernel
its scaled throughput moved against the machine's speed (by 14 % between
runs).  The kernels never touch epibound, so a slower library still reads
slower.
"""

from __future__ import annotations

import time

import numpy as np

# kernel time that defines the reference speed, per kernel
REFERENCE_S = {"mixed": 0.002, "array": 0.0015}

_VEC = np.linspace(0.0, 1.0, 20_000)
_GRID = np.linspace(-3.0, 3.0, 102_400).reshape(400, 256)


def mixed_kernel() -> float:
    """Interpreter work, small numpy calls and a vectorised pass."""
    acc = 0.0
    small = _VEC[:64]
    for i in range(300):
        acc += float((small * i).sum())
    table: dict = {}
    for i in range(6000):
        table[i % 97] = table.get(i % 97, 0) + i
    for _ in range(8):
        acc += float(np.exp(-0.5 * _VEC).sum())
    return acc + len(table)


def array_kernel() -> float:
    """A log-sum-exp over a 400 x 256 array, the shape of a mixture logpdf."""
    z = (_GRID - 0.5) / 1.3
    comp = -0.5 * z * z
    top = comp.max(axis=1, keepdims=True)
    return float((top[:, 0] + np.log(np.exp(comp - top).sum(axis=1))).sum())


KERNELS = {"mixed": mixed_kernel, "array": array_kernel}


def kernel_seconds(kind: str = "mixed") -> float:
    t0 = time.perf_counter()
    KERNELS[kind]()
    return time.perf_counter() - t0


def scale(before: float, after: float, kind: str = "mixed") -> float:
    """Reference-speed factor of a call between two kernel timings."""
    return 2.0 * REFERENCE_S[kind] / (before + after)
