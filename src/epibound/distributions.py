"""First- and second-order distributions and their summary functionals.

First-order distributions live on a sample space (a finite outcome set or
the real line) and play the role of tasks, predictors and barycenters.
Second-order ("task") distributions are distributions over tasks: either a
finite weighted support, used for all exact computations, or a parametric
family (Gaussian tasks whose variance follows an inverse gamma law), used
by the synthetic experiments and reified at fixed quantile nodes.

All types are immutable values after construction and safe to share across
threads.  Sampling takes an explicit seed and owns a private generator per
call; no summary functional samples.

``ndtr``, the Gaussian CDF, and ``gammainccinv``, the inverse upper
regularised gamma function, load ``scipy.special`` at their first call (a
Gaussian or mixture ``cdf``, a thresholded task matrix, or a reification)
and then rebind to scipy's ufuncs; finite instances never load them.  See
``_deferred``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Union

import numpy as np

from ._deferred import Deferred
from .errors import (
    EventMismatch,
    InvalidArgument,
    InvalidTaskDistribution,
    NumericalFailure,
    require_int,
)
from .seeding import generator

ndtr = Deferred("scipy.special", "ndtr", globals())
gammainccinv = Deferred("scipy.special", "gammainccinv", globals())

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
# First-order distributions
# ---------------------------------------------------------------------------


class FirstOrderDistribution:
    """Common surface of categorical / Gaussian / Gaussian-mixture values."""

    kind: str

    @property
    def is_continuous(self) -> bool:
        return self.kind != "categorical"

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

    def cdf(self, x):
        """P(X <= x) at a float or an array of points; ndtr gives 0 and 1 at -inf and inf."""
        return ndtr((x - self.mean) / self.stddev)

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        return _gaussian_logpdf(np.asarray(x, dtype=float), self.mean, self.stddev,
                                math.log(self.stddev))

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return np.exp(self.logpdf(x))

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(self.mean, self.stddev, size=count)

    def mean_std(self) -> tuple[float, float]:
        return self.mean, self.stddev

    def to_dict(self) -> dict:
        return {"kind": "gaussian", "mean": self.mean, "stddev": self.stddev}


def _gaussian_logpdf(x, mean, stddev, log_stddev):
    """The N(mean, stddev) log-density at ``x``; parameter columns broadcast against rows of x.

    ``log_stddev`` comes from ``math.log``: numpy's ``log`` can round differently.
    """
    z = (x - mean) / stddev
    return -0.5 * z**2 - log_stddev - 0.5 * LOG_2PI


def _check_gaussians(means: np.ndarray, stddevs: np.ndarray) -> None:
    """``Gaussian``'s checks on parameter columns: the first pair it rejects raises its error."""
    bad = ~(np.isfinite(means) & (stddevs > 0) & (stddevs < math.inf))
    if bad.any():
        i = int(bad.argmax())
        Gaussian(means[i], stddevs[i])


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
        self._set(w, mu, sd)

    @classmethod
    def _of(cls, g: Gaussian) -> "GaussianMixture":
        """The one-component mixture of a checked Gaussian, not checked again."""
        return object.__new__(cls)._set(np.ones(1), np.array([g.mean]), np.array([g.stddev]))

    def _shifted(self, c: float) -> "GaussianMixture":
        """This mixture moved by -c, not checked again."""
        return object.__new__(GaussianMixture)._set(self.weights, self.means - c, self.stddevs)

    def _set(self, w: np.ndarray, mu: np.ndarray, sd: np.ndarray) -> "GaussianMixture":
        _freeze(self, "weights", w)
        _freeze(self, "means", mu)
        _freeze(self, "stddevs", sd)
        with np.errstate(divide="ignore"):  # a zero-weight component has log-weight -inf
            _freeze(self, "_log_weights", np.log(w))
        _freeze(self, "_log_stddevs", np.log(sd))
        # One common mean, or one common log-weight, lets logpdf subtract it,
        # or add it, as a scalar; every IG barycenter has both.
        lw = self._log_weights
        object.__setattr__(self, "_common_mean", mu[0] if (mu == mu[0]).all() else None)
        object.__setattr__(self, "_common_log_weight", lw[0] if (lw == lw[0]).all() else None)
        return self

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
        # bytes depend on every last bit of these values.  With one common
        # mean, x - mu is taken once per point, and one common log-weight is
        # added as a scalar: the same operands, so the same roundings.
        # one component is its own max: the log-sum-exp adds log(exp(0)) = 0.0 to it
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.weights.size == 1:
            z2 = np.square(np.subtract(x, self.means[0]) / self.stddevs[0])
            return z2 * -0.5 - self._log_stddevs[0] - 0.5 * LOG_2PI + self._log_weights[0] + 0.0
        if self._common_mean is None:
            comp = np.subtract(x[:, None], self.means)
            comp /= self.stddevs
        else:
            comp = np.divide(np.subtract(x, self._common_mean)[:, None], self.stddevs)
        np.square(comp, out=comp)
        comp *= -0.5
        comp -= self._log_stddevs
        comp -= 0.5 * LOG_2PI
        comp += self._log_weights if self._common_log_weight is None else self._common_log_weight
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
        return _pooled_moments(self.weights, self.means, self.stddevs)

    def to_dict(self) -> dict:
        return {
            "kind": "gaussian_mixture",
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "stddevs": self.stddevs.tolist(),
        }


def _pooled_moments(w: np.ndarray, means: np.ndarray, stddevs: np.ndarray) -> tuple[float, float]:
    """Mean and stddev of the mixture of N(means[i], stddevs[i]) with weights ``w``; the
    variance is taken about the mean, as the square of a mean past 1.3e154 overflows.  A
    weight-0 component adds a 0 term: 0 * inf would make the variance NaN."""
    m = float(w @ means)
    live = w > 0
    means, stddevs = np.where(live, means, m), np.where(live, stddevs, 0.0)
    return m, math.sqrt(float(w @ (stddevs**2 + (means - m) ** 2)))


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


# checked Gaussian items N(means[i], stddevs[i]), given as two parameter columns
_GaussianColumns = NamedTuple("_GaussianColumns", [("means", np.ndarray), ("stddevs", np.ndarray)])


class _Rows:
    """The tasks or members (``_ITEMS``) of a finite family, with their parameters as arrays.

    Categorical items on one space are also kept as the read-only matrix ``P`` of their
    rows, all-Gaussian ones as the read-only columns ``means`` and ``stddevs``, else None.
    Items given as a (k, m) array or ``_GaussianColumns`` are views of it, made when read.
    """

    _ITEMS: str
    means = stddevs = None

    def _init_rows(self, items, empty: Exception) -> tuple[int, bool]:
        """Keep ``items``; returns their count and whether they share one sample space."""
        if isinstance(items, _GaussianColumns):
            object.__delattr__(self, self._ITEMS)
            return self._keep_columns(*items)
        array = isinstance(items, np.ndarray)
        items = np.ascontiguousarray(items, dtype=float) if array else tuple(items)
        if len(items) == 0:
            raise empty
        if array:
            _check_tasks(items)
            object.__delattr__(self, self._ITEMS)
        else:
            object.__setattr__(self, self._ITEMS, items)
            if all(isinstance(d, Gaussian) for d in items):
                return self._keep_columns(np.array([d.mean for d in items]),
                                          np.array([d.stddev for d in items]))
            spaces = set(map(_space, items))
            if len(spaces) > 1 or spaces == {None}:
                return len(items), len(spaces) == 1
            items = np.stack([d.p for d in items])
        _freeze(self, "P", items)
        return len(items), True

    def _keep_columns(self, means: np.ndarray, stddevs: np.ndarray) -> tuple[int, bool]:
        _freeze(self, "means", means)
        _freeze(self, "stddevs", stddevs)
        return len(means), True

    def __getattr__(self, name: str):
        if name != self._ITEMS or (params := self.means if self.P is None else self.P) is None:
            raise AttributeError(name)
        # setdefault keeps the first one made if two threads race
        return self.__dict__.setdefault(name, tuple(map(self._item, range(len(params)))))

    def _item(self, i: int) -> FirstOrderDistribution:
        """Item ``i``, without making the other items' views."""
        if self._ITEMS in self.__dict__:
            return self.__dict__[self._ITEMS][i]
        views = self.__dict__.setdefault("_views", {})
        if i not in views:  # a view on checked read-only parameters, not checked again
            if self.P is not None:
                view = object.__new__(Categorical)
                object.__setattr__(view, "p", self.P[i])
            else:
                view = object.__new__(Gaussian)
                view.__dict__.update(mean=float(self.means[i]), stddev=float(self.stddevs[i]))
            views.setdefault(i, view)
        return views[i]


@dataclass(frozen=True, eq=False)
class FiniteTaskDistribution(_Rows):
    """Finitely many tasks with weights; the exact-computation workhorse.

    ``tasks`` is a tuple of distributions on one space, (k, m) rows or ``_GaussianColumns``.
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

    def sample_task(self, rng: np.random.Generator) -> FirstOrderDistribution:
        return self._item(int(rng.choice(self.n_tasks, p=self.weights)))

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

    def reify(self, components: int = DEFAULT_REIFY_COMPONENTS) -> FiniteTaskDistribution:
        """Equal weights on the ``components`` midpoint quantiles of the variance law, as columns.

        Task i has variance ``rate / gammainccinv(shape, (i + 0.5) / k)``, the
        (i + 0.5) / k quantile of IG(shape, rate): 1 / v is Gamma(shape, rate), and
        its upper tail is the lower tail of v.
        """
        k = require_int("component budget", components, 1)
        stddevs = np.sqrt(self.rate / gammainccinv(self.shape, (np.arange(k) + 0.5) / k))
        means = np.full(k, self.mean)
        _check_gaussians(means, stddevs)
        return FiniteTaskDistribution(_GaussianColumns(means, stddevs), np.full(k, 1.0 / k))

    def to_dict(self) -> dict:
        return {"kind": "ig_gaussian_tasks", "mean": self.mean, "shape": self.shape, "rate": self.rate}


TaskDistribution = Union[FiniteTaskDistribution, InverseGammaGaussianTasks]


def as_finite(tasks: TaskDistribution) -> FiniteTaskDistribution:
    """Reify parametric task distributions at their default 256 nodes; pass finite ones through."""
    return tasks if isinstance(tasks, FiniteTaskDistribution) else tasks.reify()


# ---------------------------------------------------------------------------
# Summary functionals
# ---------------------------------------------------------------------------


def barycenter(tasks: TaskDistribution) -> FirstOrderDistribution:
    """Mixture distribution assigning each event E_{Q ~ tasks}[Q(event)].

    Exact for finite task distributions; a parametric family is reified as
    ``as_finite`` reifies it.
    """
    tasks = as_finite(tasks)
    if tasks.P is not None:
        return Categorical(tasks.weights @ tasks.P)
    if tasks.means is not None:
        return GaussianMixture(tasks.weights, tasks.means, tasks.stddevs)
    weights, means, stds = [], [], []
    for w, t in zip(tasks.weights, tasks.tasks):
        t = GaussianMixture._of(t) if isinstance(t, Gaussian) else t
        weights.extend(w * t.weights)
        means.extend(t.means)
        stds.extend(t.stddevs)
    return GaussianMixture(np.asarray(weights), np.asarray(means), np.asarray(stds))


@functools.lru_cache(maxsize=None)
def _event_masks(m: int) -> np.ndarray:
    """All 2^m events of an m-outcome space as 0/1 rows; one shared read-only array per m."""
    masks = np.array(list(itertools.product((0.0, 1.0), repeat=m)))
    masks.flags.writeable = False
    return masks


def _event_variances(P: np.ndarray, w: np.ndarray, bary: np.ndarray) -> np.ndarray:
    """Var(Q(A)) of every event A of ``_event_masks``, for tasks ``P`` with weights ``w``.

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
    """The pooled-moment grid of thresholds t_k of the half-line events (-inf, t_k]."""
    if tasks.means is not None:
        means, stddevs = tasks.means, tasks.stddevs
    else:  # contiguous columns: ``weights @`` a strided column can round unlike them
        means, stddevs = map(np.array, zip(*(t.mean_std() for t in tasks.tasks)))
    pooled_mean, pooled_std = _pooled_moments(tasks.weights, means, stddevs)
    span = DEFAULT_THRESHOLD_SPAN
    return np.linspace(pooled_mean - span * pooled_std, pooled_mean + span * pooled_std,
                       DEFAULT_THRESHOLDS)


def _half_line_sup_variance(fin: FiniteTaskDistribution) -> float:
    """The largest Var(Q((-inf, t])) over the thresholds t of ``_thresholds``.

    The (thresholds, tasks) matrix of Q((-inf, t]) is one ``ndtr`` call on
    the columns of an all-Gaussian family, and is otherwise built one task's
    CDF column at a time.  Each row q's variance is ``w @ (q - w @ q)**2``, two
    dot products with ``w``: ``np.vecdot`` sums each row as ``w @ row``
    does, so Gaussian tasks give bitwise the per-threshold result, where
    one matrix-vector product over all rows would sum in another order.  A
    NaN variance raises NumericalFailure.
    """
    ts = _thresholds(fin)
    if fin.means is not None:
        qa = np.subtract.outer(ts, fin.means)
        qa /= fin.stddevs
        ndtr(qa, out=qa)  # each entry rounds as Gaussian.cdf
    else:
        qa = np.column_stack([t.cdf(ts) for t in fin.tasks])
    w = fin.weights
    qa -= np.vecdot(qa, w)[:, None]
    np.square(qa, out=qa)
    variances = np.vecdot(qa, w)
    if np.isnan(variances).any():
        raise NumericalFailure(
            f"half-line sup-variance is NaN on the thresholds [{ts[0]}, {ts[-1]}]")
    return max(0.0, float(variances.max()))


def sup_variance(tasks: TaskDistribution) -> float:
    """Max of Var(Q(A)) = E_Q[(Q(A) - bary(A))^2] over an event family.

    Categorical spaces enumerate all 2^m events (m <= 12); continuous spaces
    use the half-lines (-inf, t] on the threshold grid of ``_thresholds``.  A
    parametric family is reified as ``as_finite`` reifies it.
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

    Support tasks are matched by parameter equality within ``PROB_TOL``, as
    ``distributions_close`` matches them; unmatched tasks contribute their
    full weight.  Categorical rows on one space and all-Gaussian columns are
    compared as one (k_a, k_b) matrix, other families one pair at a time.
    """
    if a.P is not None and b.P is not None and a.P.shape[1] == b.P.shape[1]:
        near = (np.abs(a.P[:, None, :] - b.P) <= PROB_TOL).all(axis=2)
    elif a.means is not None and b.means is not None:
        gap = np.abs(np.subtract.outer(a.means, b.means))
        near = gap <= PROB_TOL
        np.abs(np.subtract.outer(a.stddevs, b.stddevs, out=gap), out=gap)
        near &= gap <= PROB_TOL
    else:
        near = np.array([[distributions_close(s, t) for t in b.tasks] for s in a.tasks],
                        dtype=bool).reshape(a.n_tasks, b.n_tasks)
    return _matched_tv(a.weights, b.weights, near)


def _matched_tv(w_a: np.ndarray, w_b: np.ndarray, near: np.ndarray) -> float:
    """Greedy-matching TV: each a-task i takes the first unused b-task j with ``near[i, j]``."""
    candidates = [[] for _ in range(len(w_a))]
    rows, cols = np.divmod(np.flatnonzero(near), near.shape[1])  # row-major: j ascending
    for i, j in zip(rows.tolist(), cols.tolist()):
        candidates[i].append(j)
    used = [False] * len(w_b)
    total = 0.0
    for wa, js in zip(w_a, candidates):
        wb = 0.0
        for j in js:
            if not used[j]:
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
    return dist.sample(require_int("count", count, 1), generator(seed))


def sample_task(tasks: TaskDistribution, seed: int) -> FirstOrderDistribution:
    return tasks.sample_task(generator(seed))


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
