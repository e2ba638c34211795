"""The worker-process policy of every parallel run: the oracle suite and both experiments.

``ProcessPoolExecutor`` loads ``concurrent.futures.process`` (and with it
multiprocessing) at the first run that starts more than one process; a
serial run never loads it.  See ``_deferred``.
"""

from __future__ import annotations

import os

from ._deferred import Deferred

ProcessPoolExecutor = Deferred("concurrent.futures", "ProcessPoolExecutor", globals())


def worker_count(threads: int, payloads: int) -> int:
    """The processes a run of ``payloads`` starts: at most one per thread asked for and per
    CPU this process may run on (its affinity set, where the platform has one)."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(threads, payloads, cpus)


def map_payloads(fn, payloads: list, threads: int) -> list:
    """``[fn(p) for p in payloads]`` in ``worker_count`` processes; in this one when that is 1."""
    workers = worker_count(threads, len(payloads))
    if workers <= 1:
        return [fn(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, payloads))
