"""The worker cap: one process per thread asked for, per payload and per usable CPU."""

import os
import subprocess
import sys

import pytest

from epibound import workers


def test_cap_counts_the_affinity_set_not_the_machine(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1}, raising=False)
    monkeypatch.setattr(workers, "ProcessPoolExecutor", None)  # a pool would fail to start
    assert workers.worker_count(4, 10) == 1
    assert workers.map_payloads(abs, [-1, -2, 3], threads=4) == [1, 2, 3]


def test_cap_falls_back_to_cpu_count_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert workers.worker_count(8, 10) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert workers.worker_count(8, 10) == 1


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_cap_in_a_process_pinned_to_one_cpu():
    cpu = min(os.sched_getaffinity(0))
    script = "from epibound.workers import worker_count; print(worker_count(4, 10))"
    run = subprocess.run(
        [sys.executable, "-c", script],
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        check=True, capture_output=True, text=True,
    )
    assert run.stdout == "1\n"
