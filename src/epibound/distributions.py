"""First- and second-order distributions and their summary functionals.

First-order distributions live on a sample space (a finite outcome set or
the real line) and play the role of tasks, predictors and barycenters.
Second-order ("task") distributions are distributions over tasks: either a
finite weighted support, used for all exact computations, or a parametric
sampler (Gaussian tasks whose variance follows an inverse gamma law), used
by the synthetic experiments.

All types are immutable values after construction and safe to share across
threads.  Sampling takes an explicit seed and owns a private generator per
call.

``ndtr``, the Gaussian CDF, loads ``scipy.special`` at its first call (a
Gaussian or mixture ``cdf``, or a thresholded task matrix) and then rebinds
to scipy's ufunc; finite instances never load it.  See ``_deferred``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Union

import numpy as np

from ._deferred import Deferred
from .errors import EventMismatch, InvalidArgument, InvalidTaskDistribution
from .seeding import normalize_seed

ndtr = Deferred("scipy.special", "ndtr", globals())

PROB_TOL = 1e-12          # normalization tolerance; out-of-tolerance input is rejected
SUP_ENUM_MAX_OUTCOMES = 12  # full 2^m event enumeration refused above this
DEFAULT_REIFY_COMPONENTS = 256
DEFAULT_THRESHOLDS = 401
DEFAULT_THRESHOLD_SPAN = 6.0  # threshold grid spans pooled mean +- span * pooled stddev

LOG_2PI = math.log(2.0 * math.pi)


def _freeze(obj, name: str, value: np.ndarray) -> None:
    arr = np.asarray(value, dtype=float)
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)


def _check_rows(P: np.ndarray, error=InvalidArgument, what: str = "probabilities") -> None:
    """Every row of ``P`` (or ``P`` itself when 1-D) is nonnegative and sums to 1.

    The first bad row gives the message, as checking the rows one at a time
    would: a negative entry before a bad sum.
    """
    sums = P.sum(axis=-1)
    gaps = abs(sums - 1.0)
    if (P < 0).any() or not (gaps if P.ndim == 1 else gaps.max()) <= PROB_TOL:  # NaN fails
        negative = np.ravel((P < 0).any(axis=-1))
        first = np.flatnonzero(negative | ~(np.ravel(gaps) <= PROB_TOL))[0]
        if negative[first]:
            raise error(f"{what} must be nonnegative")
        raise error(f"{what} must sum to 1 within {PROB_TOL}, got {np.ravel(sums)[first]!r}")


def _check_tasks(P: np.ndarray, w: Optional[np.ndarray] = None, m: Optional[int] = None) -> None:
    """Bulk form of the Categorical checks on the rows of ``P``, and of
    FiniteTaskDistribution's on the weights ``w`` when given."""
    if P.ndim != 2 or P.shape[0] == 0 or (m is not None and P.shape[1] != m):
        raise InvalidArgument(f"expected a nonempty (k, {m or 'm'}) array of probability rows, "
                              f"got shape {P.shape}")
    _check_rows(P)
    if w is not None:
        if w.shape != P.shape[:1]:
            raise InvalidTaskDistribution("one weight per task required")
        _check_rows(w, InvalidTaskDistribution, "task weights")


def _tv(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """TV between matching probability rows (last axis), broadcast, rounded as ``tv_exact``."""
    return 0.5 * np.abs(P - Q).sum(axis=-1)


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteEvent:
    """A subset of outcome indices of a categorical space."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.indices))
        if len(set(idx)) != len(idx):
            raise InvalidArgument("event indices must be unique")
        if idx and idx[0] < 0:
            raise InvalidArgument("event indices must be nonnegative")
        object.__setattr__(self, "indices", idx)


@dataclass(frozen=True)
class Interval:
    """An interval of the real line; endpoints may be infinite."""

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi) or self.lo > self.hi:
            raise InvalidArgument(f"interval endpoints must be ordered, got ({self.lo}, {self.hi})")


EventSet = Union[DiscreteEvent, Interval]


# ---------------------------------------------------------------------------
# First-order distributions
# ---------------------------------------------------------------------------


class FirstOrderDistribution:
    """Common surface of categorical / Gaussian / Gaussian-mixture values."""

    kind: str

    @property
    def is_continuous(self) -> bool:
        return self.kind != "categorical"

    def event_probability(self, event: EventSet) -> float:
        raise NotImplementedError

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    # Moments of a continuous distribution as a whole (quadrature windows
    # and threshold grids).
    def mean_std(self) -> tuple[float, float]:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class Categorical(FirstOrderDistribution):
    """Distribution over outcomes 0..m-1 given by a probability vector."""

    p: np.ndarray
    kind: str = field(default="categorical", init=False, repr=False)

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise InvalidArgument("probability vector must be 1-D and nonempty")
        _check_rows(p)
        _freeze(self, "p", p)

    @property
    def n_outcomes(self) -> int:
        return self.p.size

    def event_probability(self, event: EventSet) -> float:
        if not isinstance(event, DiscreteEvent):
            raise EventMismatch("categorical distribution takes discrete events")
        if event.indices and event.indices[-1] >= self.n_outcomes:
            raise EventMismatch(
                f"event index {event.indices[-1]} out of range for {self.n_outcomes} outcomes"
            )
        return float(self.p[list(event.indices)].sum())

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.choice(self.n_outcomes, size=count, p=self.p)

    def to_dict(self) -> dict:
        return {"kind": "categorical", "p": self.p.tolist()}


@dataclass(frozen=True, eq=False)
class Gaussian(FirstOrderDistribution):
    mean: float
    stddev: float
    kind: str = field(default="gaussian", init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "mean", float(self.mean))
        object.__setattr__(self, "stddev", float(self.stddev))
        if not math.isfinite(self.mean):
            raise InvalidArgument(f"mean must be finite, got {self.mean}")
        if not 0 < self.stddev < math.inf:
            raise InvalidArgument(f"stddev must be finite and strictly positive, got {self.stddev}")

    def event_probability(self, event: EventSet) -> float:
        return _interval_probability(self, event)

    def cdf(self, x):
        """P(X <= x) at a float or an array of points; ndtr gives 0 and 1 at -inf and inf."""
        return ndtr((x - self.mean) / self.stddev)

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        z = (np.asarray(x, dtype=float) - self.mean) / self.stddev
        return -0.5 * z**2 - math.log(self.stddev) - 0.5 * LOG_2PI

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return np.exp(self.logpdf(x))

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(self.mean, self.stddev, size=count)

    def mean_std(self) -> tuple[float, float]:
        return self.mean, self.stddev

    def to_dict(self) -> dict:
        return {"kind": "gaussian", "mean": self.mean, "stddev": self.stddev}


@dataclass(frozen=True, eq=False)
class GaussianMixture(FirstOrderDistribution):
    weights: np.ndarray
    means: np.ndarray
    stddevs: np.ndarray
    kind: str = field(default="gaussian_mixture", init=False, repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mu = np.asarray(self.means, dtype=float)
        sd = np.asarray(self.stddevs, dtype=float)
        if not (w.shape == mu.shape == sd.shape) or w.ndim != 1 or w.size == 0:
            raise InvalidArgument("weights, means, stddevs must be equal-length 1-D arrays")
        _check_rows(w, InvalidArgument, "mixture weights")
        if not np.all(np.isfinite(mu)):
            raise InvalidArgument("mixture means must be finite")
        if not np.all((sd > 0) & (sd < math.inf)):
            raise InvalidArgument("mixture stddevs must be finite and strictly positive")
        _freeze(self, "weights", w)
        _freeze(self, "means", mu)
        _freeze(self, "stddevs", sd)
        with np.errstate(divide="ignore"):  # a zero-weight component has log-weight -inf
            _freeze(self, "_log_weights", np.log(w))
        _freeze(self, "_log_stddevs", np.log(sd))

    def event_probability(self, event: EventSet) -> float:
        return _interval_probability(self, event)

    def cdf(self, x):
        """P(X <= x) at a float or an array of points, one component column per mean."""
        z = np.subtract.outer(x, self.means)
        z /= self.stddevs
        return ndtr(z, out=z) @ self.weights

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        # Log-sum-exp over components in one (n, k) buffer, updated in place.
        # The order of the steps, and the three separate per-component
        # constants, are fixed: each rounds exactly as the plain expression
        # -0.5*z**2 - log(sd) - 0.5*LOG_2PI + log(w), and the experiment CSV
        # bytes depend on every last bit of these values.
        x = np.atleast_1d(np.asarray(x, dtype=float))
        comp = np.subtract(x[:, None], self.means)
        comp /= self.stddevs
        np.square(comp, out=comp)
        comp *= -0.5
        comp -= self._log_stddevs
        comp -= 0.5 * LOG_2PI
        comp += self._log_weights
        mx = comp.max(axis=1, keepdims=True)
        mx[~np.isfinite(mx)] = 0.0  # a row of -inf stays -inf, not NaN, as in logsumexp
        comp -= mx
        np.exp(comp, out=comp)
        return mx[:, 0] + np.log(comp.sum(axis=1))

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return np.exp(self.logpdf(x))

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        comp = rng.choice(self.weights.size, size=count, p=self.weights)
        return rng.normal(self.means[comp], self.stddevs[comp])

    def mean_std(self) -> tuple[float, float]:
        m = float(self.weights @ self.means)
        second = float(self.weights @ (self.stddevs**2 + self.means**2))
        return m, math.sqrt(max(second - m * m, 0.0))

    def to_dict(self) -> dict:
        return {
            "kind": "gaussian_mixture",
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "stddevs": self.stddevs.tolist(),
        }


def _interval_probability(d: Union[Gaussian, GaussianMixture], event: EventSet) -> float:
    if not isinstance(event, Interval):
        raise EventMismatch(f"{d.kind} distribution takes interval events")
    return float(d.cdf(event.hi) - d.cdf(event.lo))


def _space(d: FirstOrderDistribution) -> Optional[int]:
    """The sample space of ``d``: its outcome count, or None for the real line."""
    return d.n_outcomes if isinstance(d, Categorical) else None


def require_same_space(a: FirstOrderDistribution, b: FirstOrderDistribution) -> None:
    if _space(a) != _space(b):
        kinds = [f"{d.kind}({d.n_outcomes} outcomes)" if isinstance(d, Categorical) else d.kind
                 for d in (a, b)]
        raise EventMismatch(f"distributions on different spaces: {kinds[0]} vs {kinds[1]}")


def distributions_close(a: FirstOrderDistribution, b: FirstOrderDistribution) -> bool:
    """Parameter-level equality within ``PROB_TOL`` (same kind required)."""
    if a.kind != b.kind:
        return False
    if isinstance(a, Categorical):
        return a.n_outcomes == b.n_outcomes and bool(np.all(np.abs(a.p - b.p) <= PROB_TOL))
    if isinstance(a, Gaussian):
        return abs(a.mean - b.mean) <= PROB_TOL and abs(a.stddev - b.stddev) <= PROB_TOL
    assert isinstance(a, GaussianMixture) and isinstance(b, GaussianMixture)
    return (
        a.weights.size == b.weights.size
        and bool(np.all(np.abs(a.weights - b.weights) <= PROB_TOL))
        and bool(np.all(np.abs(a.means - b.means) <= PROB_TOL))
        and bool(np.all(np.abs(a.stddevs - b.stddevs) <= PROB_TOL))
    )


# ---------------------------------------------------------------------------
# Task distributions (second order)
# ---------------------------------------------------------------------------


class _Rows:
    """The tasks or members (``_ITEMS``) of a finite family, with their rows as one matrix.

    Categorical items on one space are also kept as the read-only matrix ``P``
    of their rows; ``P`` is None for continuous items.  Items given as a (k, m)
    array are checked once, as a matrix, and are then ``Categorical`` views of
    its rows, each made on first access and kept.
    """

    _ITEMS: str

    def _init_rows(self, items, empty: Exception) -> tuple[int, bool]:
        """Keep ``items``; returns their count and whether they share one sample space."""
        array = isinstance(items, np.ndarray)
        items = np.ascontiguousarray(items, dtype=float) if array else tuple(items)
        if len(items) == 0:
            raise empty
        if array:
            _check_tasks(items)
            object.__delattr__(self, self._ITEMS)
        else:
            object.__setattr__(self, self._ITEMS, items)
            spaces = set(map(_space, items))
            if len(spaces) > 1 or spaces == {None}:
                return len(items), len(spaces) == 1
            items = np.stack([d.p for d in items])
        _freeze(self, "P", items)
        return len(items), True

    def __getattr__(self, name: str):
        if name != self._ITEMS or self.__dict__.get("P") is None:
            raise AttributeError(name)
        # setdefault keeps the first one made if two threads race
        return self.__dict__.setdefault(name, tuple(map(self._item, range(len(self.P)))))

    def _item(self, i: int) -> FirstOrderDistribution:
        """Item ``i``, without making the other rows' views."""
        if self._ITEMS in self.__dict__:
            return self.__dict__[self._ITEMS][i]
        views = self.__dict__.setdefault("_views", {})
        if i not in views:  # a Categorical on a checked read-only row, not checked again
            view = object.__new__(Categorical)
            object.__setattr__(view, "p", self.P[i])
            views.setdefault(i, view)
        return views[i]


@dataclass(frozen=True, eq=False)
class FiniteTaskDistribution(_Rows):
    """Finitely many tasks with weights; the exact-computation workhorse.

    ``tasks`` is a tuple of distributions on one space or a (k, m) array of rows.
    """

    tasks: tuple[FirstOrderDistribution, ...]
    weights: np.ndarray
    P: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    kind: str = field(default="finite_tasks", init=False, repr=False)
    _ITEMS = "tasks"

    def __post_init__(self):
        k, one_space = self._init_rows(self.tasks,
                                       InvalidTaskDistribution("task list must be nonempty"))
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (k,):
            raise InvalidTaskDistribution("one weight per task required")
        _check_rows(w, InvalidTaskDistribution, "task weights")
        if not one_space:
            raise InvalidTaskDistribution("all tasks must share one sample space")
        _freeze(self, "weights", w)

    @property
    def n_tasks(self) -> int:
        return self.weights.size

    @property
    def is_continuous(self) -> bool:
        return self.P is None

    def event_probabilities(self, event: EventSet) -> np.ndarray:
        """Q(event) for every support task."""
        return np.array([t.event_probability(event) for t in self.tasks])

    def sample_task(self, rng: np.random.Generator) -> FirstOrderDistribution:
        return self.tasks[int(rng.choice(self.n_tasks, p=self.weights))]

    def to_dict(self) -> dict:
        return {
            "kind": "finite_tasks",
            "tasks": [{"w": float(w), "dist": t.to_dict()} for w, t in zip(self.weights, self.tasks)],
        }


@dataclass(frozen=True)
class InverseGammaGaussianTasks:
    """Gaussian tasks with a fixed mean and variance drawn from IG(shape, rate).

    This is the parametric family used by the synthetic experiments: a task
    is N(mean, sqrt(v)) with v ~ InverseGamma(shape, rate).
    """

    mean: float
    shape: float
    rate: float
    kind: str = field(default="ig_gaussian_tasks", init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "mean", float(self.mean))
        object.__setattr__(self, "shape", float(self.shape))
        object.__setattr__(self, "rate", float(self.rate))
        if not math.isfinite(self.mean):
            raise InvalidTaskDistribution(f"task mean must be finite, got {self.mean}")
        if not (0 < self.shape < math.inf and 0 < self.rate < math.inf):
            raise InvalidTaskDistribution("inverse gamma parameters must be finite and positive")

    @property
    def is_continuous(self) -> bool:
        return True

    def sample_variances(self, count: int, rng: np.random.Generator) -> np.ndarray:
        # 1/Gamma(shape, scale=1/rate) is InverseGamma(shape, rate)
        return 1.0 / rng.gamma(self.shape, 1.0 / self.rate, size=count)

    def sample_task(self, rng: np.random.Generator) -> Gaussian:
        v = float(self.sample_variances(1, rng)[0])
        return Gaussian(self.mean, math.sqrt(v))

    def _sampled_stddevs(self, components: int, seed: int) -> np.ndarray:
        """The stddevs of the ``components`` tasks that ``reify`` and ``barycenter`` draw."""
        if components < 1:
            raise InvalidArgument("component budget must be >= 1")
        return np.sqrt(self.sample_variances(components, np.random.default_rng(seed)))

    def reify(self, components: int = DEFAULT_REIFY_COMPONENTS, seed: int = 0) -> FiniteTaskDistribution:
        """Equal-weight finite approximation by ``components`` sampled tasks."""
        tasks = tuple(Gaussian(self.mean, sd) for sd in self._sampled_stddevs(components, seed))
        return FiniteTaskDistribution(tasks, np.full(components, 1.0 / components))

    def to_dict(self) -> dict:
        return {"kind": "ig_gaussian_tasks", "mean": self.mean, "shape": self.shape, "rate": self.rate}


TaskDistribution = Union[FiniteTaskDistribution, InverseGammaGaussianTasks]


def as_finite(tasks: TaskDistribution, seed: int = 0) -> FiniteTaskDistribution:
    """Reify parametric task distributions by their default 256 tasks; pass finite ones through."""
    if isinstance(tasks, FiniteTaskDistribution):
        return tasks
    return tasks.reify(seed=seed)


# ---------------------------------------------------------------------------
# Summary functionals
# ---------------------------------------------------------------------------


def barycenter(
    tasks: TaskDistribution,
    components: int = DEFAULT_REIFY_COMPONENTS,
    seed: int = 0,
) -> FirstOrderDistribution:
    """Mixture distribution assigning each event E_{Q ~ tasks}[Q(event)].

    Exact for finite task distributions.  A parametric family is
    approximated by the equal-weight mixture of ``components`` sampled
    tasks, built straight from their stddevs: it equals the barycenter of
    ``tasks.reify(components, seed)`` bit for bit.
    """
    if isinstance(tasks, InverseGammaGaussianTasks):
        stddevs = tasks._sampled_stddevs(components, seed)
        k = stddevs.size
        return GaussianMixture(np.full(k, 1.0 / k), np.full(k, tasks.mean), stddevs)
    if tasks.P is not None:
        return Categorical(tasks.weights @ tasks.P)
    weights, means, stds = [], [], []
    for w, t in zip(tasks.weights, tasks.tasks):
        if isinstance(t, Gaussian):
            weights.append(w)
            means.append(t.mean)
            stds.append(t.stddev)
        else:
            assert isinstance(t, GaussianMixture)
            weights.extend(w * t.weights)
            means.extend(t.means)
            stds.extend(t.stddevs)
    return GaussianMixture(np.asarray(weights), np.asarray(means), np.asarray(stds))


def variance_at(tasks: TaskDistribution, event: EventSet) -> float:
    """E_{Q ~ tasks}[(Q(event) - bary(event))^2]; always within [0, 1/4]."""
    fin = as_finite(tasks)
    qa = fin.event_probabilities(event)
    ba = float(fin.weights @ qa)
    return float(fin.weights @ (qa - ba) ** 2)


@functools.lru_cache(maxsize=None)
def _event_masks(m: int) -> np.ndarray:
    """All 2^m events of an m-outcome space as 0/1 rows; one shared read-only array per m."""
    masks = np.array(list(itertools.product((0.0, 1.0), repeat=m)))
    masks.flags.writeable = False
    return masks


def _event_variances(P: np.ndarray, w: np.ndarray, bary: np.ndarray) -> np.ndarray:
    """``variance_at`` of every event of ``_event_masks``, for tasks ``P`` with weights ``w``.

    ``bary`` is ``w @ P``.  The one kernel behind every categorical
    sup-variance, in ``sup_variance`` and the oracle alike, so that both
    round every per-event variance the same way.
    """
    masks = _event_masks(P.shape[1])
    return w @ (P @ masks.T - bary @ masks.T) ** 2


# the continuous event family of ``sup_variance``, as ``evaluate_bound`` labels it
CONTINUOUS_EVENT_FAMILY = (
    f"half_lines({DEFAULT_THRESHOLDS} thresholds, +-{DEFAULT_THRESHOLD_SPAN} pooled sd)")


def _thresholds(tasks: FiniteTaskDistribution) -> np.ndarray:
    """The pooled-moment grid of thresholds t_k behind ``threshold_events``."""
    moments = np.array([t.mean_std() for t in tasks.tasks])
    pooled_mean = float(tasks.weights @ moments[:, 0])
    pooled_second = float(tasks.weights @ (moments[:, 1] ** 2 + moments[:, 0] ** 2))
    pooled_std = math.sqrt(max(pooled_second - pooled_mean**2, 1e-300))
    span = DEFAULT_THRESHOLD_SPAN
    return np.linspace(pooled_mean - span * pooled_std, pooled_mean + span * pooled_std,
                       DEFAULT_THRESHOLDS)


def threshold_events(tasks: FiniteTaskDistribution) -> list[Interval]:
    """Left-open half-line events (-inf, t_k] on a pooled-moment grid."""
    return [Interval(-math.inf, float(t)) for t in _thresholds(tasks)]


def _half_line_sup_variance(fin: FiniteTaskDistribution) -> float:
    """``max(variance_at(fin, e) for e in threshold_events(fin))`` without the events.

    The (thresholds, tasks) matrix of Q((-inf, t]) is one ``ndtr`` call
    when every task is a Gaussian, and is otherwise built one task's CDF
    column at a time.  Each row's variance then takes the same two
    ``w @ row`` dot products as ``variance_at``, so Gaussian tasks give
    bitwise the same result: one matrix-vector product over all rows would
    sum in another order.
    """
    ts = _thresholds(fin)
    if all(isinstance(t, Gaussian) for t in fin.tasks):
        means = np.array([t.mean for t in fin.tasks])
        stddevs = np.array([t.stddev for t in fin.tasks])
        qa = np.subtract.outer(ts, means)
        qa /= stddevs
        ndtr(qa, out=qa)  # each entry rounds as Gaussian.cdf
    else:
        qa = np.empty((ts.size, fin.n_tasks))
        for i, t in enumerate(fin.tasks):
            qa[:, i] = t.cdf(ts)
    w = fin.weights
    best = 0.0
    for row in qa:  # rows are written in place once read
        row -= w @ row
        np.square(row, out=row)
        best = max(best, w @ row)
    return float(best)


def sup_variance(tasks: TaskDistribution) -> float:
    """Max of variance_at over an event family.

    Categorical spaces enumerate all 2^m events (m <= 12); continuous spaces
    use the half-line threshold grid of ``threshold_events``.  A parametric
    family is reified as ``as_finite`` reifies it.
    """
    fin = as_finite(tasks)
    P = fin.P
    if P is not None:
        if P.shape[1] > SUP_ENUM_MAX_OUTCOMES:
            raise InvalidArgument(
                f"sup-variance enumerates all 2^m events of an m-outcome space, for at "
                f"most {SUP_ENUM_MAX_OUTCOMES} outcomes; this space has {P.shape[1]}"
            )
        return float(_event_variances(P, fin.weights, fin.weights @ P).max())
    return _half_line_sup_variance(fin)


def diameter(tasks: TaskDistribution) -> float:
    """Max pairwise TV distance over the support."""
    from .divergences import tv_exact

    fin = as_finite(tasks)
    if fin.P is not None:
        return float(_tv(fin.P[:, None, :], fin.P).max())
    best = 0.0
    for i in range(fin.n_tasks):
        for j in range(i + 1, fin.n_tasks):
            best = max(best, tv_exact(fin.tasks[i], fin.tasks[j]))
    return best


def max_first_order_b(tasks: FiniteTaskDistribution) -> float:
    """Largest b with every support weight in [b, 1-b] (<= 0 means unbounded)."""
    return float(_first_order_b(tasks.weights))


def _first_order_b(weights: np.ndarray) -> np.ndarray:
    """``max_first_order_b`` of each row of weights; zero weights are off the support."""
    return np.minimum(np.where(weights > 0, weights, np.inf).min(axis=-1),
                      1.0 - weights.max(axis=-1))


def max_second_order_b(tasks: FiniteTaskDistribution) -> float:
    """Largest b with every task's nonempty proper events in [b, 1-b].

    For a categorical task this requires full support; the binding constraint
    is then the smallest outcome probability.  Continuous tasks admit events
    of arbitrarily small probability, hence are never second-order bounded.
    """
    P = tasks.P
    if P is None:
        return 0.0
    return 0.0 if (P <= 0).any() else min(1.0, float(P.min()))


def task_distribution_tv(a: FiniteTaskDistribution, b: FiniteTaskDistribution) -> float:
    """TV distance between two finite task distributions over a merged support.

    Support tasks are matched by parameter equality within ``PROB_TOL``;
    unmatched tasks contribute their full weight.
    """
    if a.P is not None and b.P is not None and a.P.shape[1] == b.P.shape[1]:
        near = (np.abs(a.P[:, None, :] - b.P) <= PROB_TOL).all(axis=2).tolist()
        return _matched_tv(a.weights, b.weights, lambda i, j: near[i][j])
    return _matched_tv(
        a.weights, b.weights, lambda i, j: distributions_close(a.tasks[i], b.tasks[j])
    )


def _matched_tv(w_a: np.ndarray, w_b: np.ndarray, close: Callable[[int, int], bool]) -> float:
    """Greedy-matching TV: each a-task takes the first unused b-task ``close`` to it."""
    used = [False] * len(w_b)
    total = 0.0
    for i, wa in enumerate(w_a):
        wb = 0.0
        for j in range(len(w_b)):
            if not used[j] and close(i, j):
                used[j] = True
                wb = float(w_b[j])
                break
        total += abs(wa - wb)
    total += float(sum(w for w, u in zip(w_b, used) if not u))
    return 0.5 * total


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample(dist: FirstOrderDistribution, count: int, seed: int) -> np.ndarray:
    """Deterministic draw of ``count`` values; a private generator per call."""
    if count < 1:
        raise InvalidArgument("count must be >= 1")
    return dist.sample(count, np.random.default_rng(normalize_seed(seed)))


def sample_task(tasks: TaskDistribution, seed: int) -> FirstOrderDistribution:
    return tasks.sample_task(np.random.default_rng(normalize_seed(seed)))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def distribution_from_dict(data: dict) -> FirstOrderDistribution:
    kind = data.get("kind")
    if kind == "categorical":
        return Categorical(np.asarray(data["p"], dtype=float))
    if kind == "gaussian":
        return Gaussian(float(data["mean"]), float(data["stddev"]))
    if kind == "gaussian_mixture":
        return GaussianMixture(
            np.asarray(data["weights"], dtype=float),
            np.asarray(data["means"], dtype=float),
            np.asarray(data["stddevs"], dtype=float),
        )
    raise InvalidArgument(f"unknown first-order distribution kind: {kind!r}")


def _distributions_from_dicts(items: list) -> Union[np.ndarray, tuple]:
    """Tasks or members from their JSON forms: categorical rows as one (k, m) array.

    Any other list, or rows that form no such array, becomes a tuple of objects
    read one at a time, so that the first bad one raises its own error.
    """
    if items and all(isinstance(d, dict) and d.get("kind") == "categorical" for d in items):
        with contextlib.suppress(TypeError, ValueError):
            P = np.asarray([d.get("p") for d in items], dtype=float)
            if P.ndim == 2 and P.shape[1] > 0:
                return P
    return tuple(distribution_from_dict(d) for d in items)


def task_distribution_from_dict(data: dict) -> TaskDistribution:
    kind = data.get("kind")
    if kind == "finite_tasks":
        entries = data["tasks"]
        tasks = _distributions_from_dicts([e["dist"] for e in entries])
        weights = np.asarray([e["w"] for e in entries], dtype=float)
        return FiniteTaskDistribution(tasks, weights)
    if kind == "ig_gaussian_tasks":
        return InverseGammaGaussianTasks(float(data["mean"]), float(data["shape"]), float(data["rate"]))
    raise InvalidArgument(f"unknown task distribution kind: {kind!r}")


def finite_tasks(pairs: Iterable[tuple[FirstOrderDistribution, float]]) -> FiniteTaskDistribution:
    """Convenience constructor from (task, weight) pairs."""
    items = list(pairs)
    return FiniteTaskDistribution(
        tuple(t for t, _ in items), np.asarray([w for _, w in items], dtype=float)
    )
