"""The worker-process policy of every parallel run: the oracle suite and both experiments."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor


def worker_count(threads: int, payloads: int) -> int:
    """The processes a run of ``payloads`` starts: at most one per thread asked for and per CPU."""
    return min(threads, payloads, os.cpu_count() or 1)


def map_payloads(fn, payloads: list, threads: int) -> list:
    """``[fn(p) for p in payloads]`` in ``worker_count`` processes; in this one when that is 1."""
    workers = worker_count(threads, len(payloads))
    if workers <= 1:
        return [fn(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, payloads))
