"""Semantic exception hierarchy.

Public functions raise these instead of bare ValueError/RuntimeError so
callers can distinguish contract violations from numerical trouble.
"""

import numpy as np


class EpiboundError(Exception):
    """Base error for this package."""


class InvalidTaskDistribution(EpiboundError, ValueError):
    """Task distribution violates its invariants (empty, bad weights, mixed spaces)."""


class EventMismatch(EpiboundError, ValueError):
    """An event or distribution pair does not live on the expected sample space."""


class SupportViolation(EpiboundError):
    """A density/mass was required to be positive where it is zero."""


class PreconditionViolated(EpiboundError):
    """A bound statement's hypothesis fails on the given instance.

    ``assumption`` names the failed hypothesis (e.g. ``"perfect_learning"``,
    ``"first_order_boundedness"``, ``"eps_neighborhood"``).
    """

    def __init__(self, assumption: str, detail: str = ""):
        self.assumption = assumption
        msg = assumption if not detail else f"{assumption}: {detail}"
        super().__init__(msg)


class InvalidModelClass(EpiboundError, ValueError):
    """Model class is empty or its members live on different sample spaces."""


class NumericalFailure(EpiboundError, FloatingPointError):
    """A numerical routine failed (singular matrix, non-PD covariance, ...)."""


class InvalidArgument(EpiboundError, ValueError):
    """An argument is outside its documented domain."""


class GenerationFailure(EpiboundError):
    """Random instance generation could not satisfy the requested constraints."""


def require_int(name: str, value, low=None) -> int:
    """``value`` as an int: InvalidArgument for a bool, a non-integer such as 2.5 or "5",
    or an int below ``low``."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise InvalidArgument(f"{name} must be an integer, got {value!r}")
    value = value.__index__()
    if low is not None and value < low:
        raise InvalidArgument(f"{name} must be >= {low}, got {value}")
    return value


def require_finite_pair(name: str, raw) -> np.ndarray:
    """``raw`` as a fresh 2-vector: InvalidArgument unless it is two finite numbers."""
    try:
        v = np.array(raw, dtype=float)
    except (TypeError, ValueError):
        v = np.full(0, np.nan)
    if v.size != 2 or not np.isfinite(v).all():
        raise InvalidArgument(f"{name} must be two finite numbers, got {raw!r}")
    return v.reshape(2)
