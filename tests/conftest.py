"""Shared fixtures: the worked two-outcome instance used across modules, and a
serial stand-in for process pools."""

import os

import numpy as np
import pytest

from epibound import Categorical, FiniteTaskDistribution, ModelClass, finite_tasks, workers


@pytest.fixture
def binary_source() -> FiniteTaskDistribution:
    return finite_tasks([
        (Categorical([0.3, 0.7]), 0.5),
        (Categorical([0.5, 0.5]), 0.5),
    ])


@pytest.fixture
def binary_target() -> FiniteTaskDistribution:
    return finite_tasks([(Categorical([0.6, 0.4]), 1.0)])


@pytest.fixture
def binary_model() -> ModelClass:
    return ModelClass(tuple(Categorical([p, 1.0 - p]) for p in (0.0, 0.25, 0.5, 0.75, 1.0)))


@pytest.fixture
def binary_predictor() -> Categorical:
    return Categorical([0.25, 0.75])


def random_categorical_pair(rng: np.random.Generator, m: int):
    return Categorical(rng.dirichlet(np.ones(m))), Categorical(rng.dirichlet(np.ones(m)))


@pytest.fixture
def serial_pools(monkeypatch) -> list:
    """A 3-CPU machine, by count and by affinity, whose process pools map in this
    process; lists each pool's ``max_workers``, so a test can ask for thousands
    without starting any."""
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(workers, "ProcessPoolExecutor", SerialPool)
    return asked
