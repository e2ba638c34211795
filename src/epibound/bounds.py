"""Decomposition terms, the bound-statement table and its evaluation.

The decomposition splits a margin of epistemic error into task variability
(alpha), approximation bias B, lack of convergence C and distribution shift
D (or its learner-perceived variant).  Every statement has the form
``P_{Q ~ target}(loss(predictor, Q) >= margin) <= delta`` and is defined
once, in ``STATEMENTS``.  ``evaluate_bound`` turns one statement plus one
instance into a BoundReport holding every component, the margin and the
tail probability delta, all re-derivable from the stored fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Optional

import numpy as np

from .bayes import GaussianParamDist, param_tv_upper
from .distributions import (
    CONTINUOUS_EVENT_FAMILY,
    PROB_TOL,
    Categorical,
    FirstOrderDistribution,
    Gaussian,
    TaskDistribution,
    _distributions_from_dicts,
    _Rows,
    _tv,
    as_finite,
    barycenter,
    diameter,
    max_first_order_b,
    max_second_order_b,
    sup_variance,
    task_distribution_tv,
)
from .divergences import _tv_floor, hellinger_sq, kl_exact, l1_distance, tv_exact
from .errors import InvalidArgument, InvalidModelClass, PreconditionViolated

CSV_HEADER = "statement_id,alpha,B,C,D,D_learner,margin,delta,epsilon,b_S,b_T"
FLOOR_MARGIN = 1e-9  # best_approximation skips members whose TV floor exceeds B by more


# ---------------------------------------------------------------------------
# Model class
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ModelClass(_Rows):
    """Finite family of candidate predictive distributions.

    Enumeration order is part of the definition: argmin ties break toward
    the lowest index, and the order round-trips through serialization.
    ``members`` is a tuple of distributions on one space or a (n, m) array of rows.
    """

    members: tuple[FirstOrderDistribution, ...]
    P: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _ITEMS = "members"

    def __post_init__(self):
        _, one_space = self._init_rows(self.members,
                                       InvalidModelClass("model class must be nonempty"))
        if not one_space:
            raise InvalidModelClass("model class members must share one sample space")

    def __len__(self) -> int:
        return len(self.members) if self.P is None else len(self.P)

    @classmethod
    def gaussian_mean_grid(cls, lo: float, hi: float, step: float, stddev: float) -> "ModelClass":
        if step <= 0 or hi < lo:
            raise InvalidModelClass("grid requires step > 0 and hi >= lo")
        n = int(math.floor((hi - lo) / step + 1e-9)) + 1
        return cls(tuple(Gaussian(lo + i * step, stddev) for i in range(n)))

    def to_dict(self) -> dict:
        return {"members": [m.to_dict() for m in self.members]}

    @classmethod
    def from_dict(cls, data: dict) -> "ModelClass":
        return cls(_distributions_from_dicts(data["members"]))


# ---------------------------------------------------------------------------
# Component operations
# ---------------------------------------------------------------------------


def best_approximation(
    model: ModelClass, target: FirstOrderDistribution
) -> tuple[FirstOrderDistribution, float]:
    """Member minimizing exact TV to ``target`` and the attained minimum.

    Ties break toward the lowest enumeration index.  The minimum is the
    approximation bias B when ``target`` is the source barycenter.

    Continuous members run ``tv_exact`` in the stable order of their ``_tv_floor`` (which
    raise as it does, in index order) until a floor exceeds the least TV by ``FLOOR_MARGIN``:
    floor and crossing TV, both lower bounds on TV, differ only where the grid misses crossings.
    """
    if (model.P is not None and isinstance(target, Categorical)
            and model.P.shape[1] == target.n_outcomes):
        dists = _tv(model.P, target.p)
    else:  # a skipped member's TV stays inf
        dists = np.full(len(model), np.inf)
        floors = np.array([_tv_floor(member, target) for member in model.members])
        for i in np.argsort(floors, kind="stable").tolist():
            if floors[i] > dists.min() + FLOOR_MARGIN:
                break
            dists[i] = tv_exact(model.members[i], target)
    best_idx = int(dists.argmin())
    return model._item(best_idx), float(dists[best_idx])


def convergence_gap(predictor: FirstOrderDistribution, best: FirstOrderDistribution) -> float:
    """TV from the learner's predictor to the best class member (C)."""
    return tv_exact(predictor, best)


def distribution_shift_learner(
    best: FirstOrderDistribution, target_bary: FirstOrderDistribution, bias: float
) -> float:
    """tv(best, target barycenter) - B; may be negative."""
    return tv_exact(best, target_bary) - bias


def _require_alpha(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha > 0):  # also rejects NaN
        raise InvalidArgument(f"alpha must be finite and > 0, got {alpha}")
    if alpha * alpha == 0.0:  # every delta divides by alpha^2
        raise InvalidArgument(f"alpha {alpha} is too small: alpha * alpha underflows to 0")


# ---------------------------------------------------------------------------
# The statement table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Precondition:
    """A hypothesis of a statement: its name and a predicate on the components."""

    assumption: str
    holds: Callable[[Any], bool]
    detail: str


@dataclass(frozen=True)
class Statement:
    """``P_{Q ~ target}(loss(predictor, Q) >= margin) <= delta``.

    ``margin`` and ``delta`` take the components and alpha.  Components are
    read by name: objects computed on first use in ``evaluate_bound``,
    stored values in ``BoundReport.rederive``, exact arrays in the oracle.
    """

    loss: str  # a key of LOSSES
    margin: Callable[[Any, float], float]
    delta: Callable[[Any, float], float]
    preconditions: tuple[Precondition, ...] = ()

    def unmet(self, comp) -> Optional[Precondition]:
        """The first precondition that fails on ``comp``, else None."""
        return next((p for p in self.preconditions if not p.holds(comp)), None)


# per-task losses on (predictor, task); the oracle keeps exact arrays under the same names
LOSSES = {
    "tv": tv_exact,
    "l1": l1_distance,
    "hellinger_sq": hellinger_sq,
    "excess_ce": lambda p, q: kl_exact(q, p),  # CE(Q, pred) - H(Q) = KL(Q || pred)
}


# Margins, deltas and preconditions take floats or arrays and round the same
# either way: the oracle passes (batch, 1) component columns and an alpha row.
# Every square of an alpha-dependent term is written as a product, since numpy
# squares an array as x * x while Python's x ** 2 calls libm pow, which differs
# in the last bit for about 0.1 % of values.  Squares of components go through
# _pow2, which keeps Python's rounding on arrays; the recorded oracle reports
# depend on it.


def _pow2(x):
    """``x ** 2``, rounded as Python rounds a float's ``** 2`` in every element of an array."""
    if isinstance(x, np.ndarray):
        return np.array([v ** 2 for v in x.ravel().tolist()]).reshape(x.shape)
    return x ** 2


def _sum_thm1(c, a: float) -> float:
    return a + c.B + c.C + c.D


def _sum_bayes(c, a: float) -> float:
    return a + c.B + c.param_tv + c.D


def _chebyshev(c, a: float) -> float:
    return c.sup_var_target / (a * a)


def _eps_scale(c, a: float) -> float:
    """``(1 - b_T) / (b_S alpha^2)``, the factor of both Eps deltas.

    A positive b_S whose product with alpha^2 underflows to 0 is rejected,
    as ``_require_alpha`` rejects an alpha^2 that does: no delta divides by
    an exact zero.  A b_S of 0 fails ``source_boundedness`` instead.
    """
    denom = c.b_S * (a * a)
    if np.any((denom == 0.0) & (c.b_S > 0.0)):
        raise InvalidArgument(f"b_S * alpha * alpha underflows to 0 at alpha {np.min(a)}")
    return (1.0 - c.b_T) / denom


def _eps_tasks_delta(c, a: float) -> float:
    return _eps_scale(c, a) * (c.sup_var_source + _pow2(c.diam_source + c.epsilon))


def _eps_dist_delta(c, a: float) -> float:
    return _eps_scale(c, a) * (c.sup_var_source + _pow2(c.epsilon))


def _ce_margin(c, a: float) -> float:
    s = _sum_thm1(c, a)
    return (2.0 / c.b_pred) * (s * s)


_NO_SHIFT = Precondition("no_shift", lambda c: c.no_shift, "source and target differ")
_PERFECT_LEARNING = Precondition(
    "perfect_learning", lambda c: c.tv_pred_bary_s <= 1e-12,
    "predictor is not the source barycenter",
)
_BOUNDED = (
    Precondition("eps_domain", lambda c: (0.0 < c.epsilon) & (c.epsilon < 1.0),
                 "epsilon must lie in (0,1)"),
    Precondition(
        "source_boundedness", lambda c: (0.0 < c.b_S) & (c.b_S < 1.0) & (c.max_b_S >= c.b_S),
        "source must be first- and second-order b_S-bounded",
    ),
    Precondition(
        "target_boundedness", lambda c: (0.0 < c.b_T) & (c.b_T < 1.0) & (c.max_b_T >= c.b_T),
        "target must be first-order b_T-bounded",
    ),
)
_EPS_NEIGHBORHOOD = Precondition(
    "eps_neighborhood", lambda c: c.max_tv_to_source <= c.epsilon + 1e-12,
    "a target task exceeds TV epsilon from every source task",
)
_EPS_DISTANCE = Precondition(
    "eps_distribution_distance", lambda c: c.dist_tv <= c.epsilon + 1e-12,
    "TV between task distributions exceeds epsilon",
)
_EPS_TASKS = _BOUNDED + (_EPS_NEIGHBORHOOD,)
_EPS_DIST = _BOUNDED + (_EPS_DISTANCE,)
_CE = (
    Precondition(
        "finite_sample_space", lambda c: c.finite_space,
        "cross-entropy bound requires a shared finite sample space",
    ),
    Precondition(
        "predictor_boundedness", lambda c: c.b_pred > 0, "predictor must be b-bounded with b > 0"
    ),
    Precondition(
        "predictor_boundedness", lambda c: c.support_covered,
        "a target task puts mass outside the predictor's support",
    ),
)

STATEMENTS = {
    "lemma1": Statement("tv", lambda c, a: a, _chebyshev, (_NO_SHIFT, _PERFECT_LEARNING)),
    "lemma2": Statement("tv", lambda c, a: a + c.B + c.C, _chebyshev, (_NO_SHIFT,)),
    "thm1": Statement("tv", _sum_thm1, _chebyshev),
    "thm2": Statement("tv", lambda c, a: a + c.B + c.C + c.D_learner, _chebyshev),
    "cor_bayesian": Statement("tv", _sum_bayes, _chebyshev),
    "cor_eps": Statement("tv", _sum_thm1, _eps_tasks_delta, _EPS_TASKS),
    "cor_eps_dist": Statement("tv", _sum_thm1, _eps_dist_delta, _EPS_DIST),
    "cor_bayes_eps": Statement("tv", _sum_bayes, _eps_tasks_delta, _EPS_TASKS),
    "cor_bayes_eps_dist": Statement("tv", _sum_bayes, _eps_dist_delta, _EPS_DIST),
    "cor_ce": Statement("excess_ce", _ce_margin, _chebyshev, _CE),
    "cor_l1": Statement("l1", lambda c, a: 2.0 * _sum_thm1(c, a), _chebyshev),
    "cor_hellinger": Statement("hellinger_sq", _sum_thm1, _chebyshev),
}
STATEMENT_IDS = tuple(STATEMENTS)


# ---------------------------------------------------------------------------
# Bound reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    statement_id: str
    alpha: float
    B: float
    C: float
    D: float
    D_learner: float
    margin: float
    delta: float
    extras: dict = field(default_factory=dict)

    def rederive(self) -> tuple[float, float]:
        """Recompute (margin, delta) from stored components."""
        statement = STATEMENTS[self.statement_id]
        comp = SimpleNamespace(B=self.B, C=self.C, D=self.D, D_learner=self.D_learner,
                               **self.extras)
        return statement.margin(comp, self.alpha), statement.delta(comp, self.alpha)

    def to_dict(self) -> dict:
        return {
            "statement_id": self.statement_id,
            "alpha": self.alpha,
            "B": self.B,
            "C": self.C,
            "D": self.D,
            "D_learner": self.D_learner,
            "margin": self.margin,
            "delta": self.delta,
            "extras": dict(self.extras),
        }

    def to_csv_row(self) -> str:
        x = self.extras
        return ",".join([self.statement_id, *map(_csv_field, (
            self.alpha, self.B, self.C, self.D, self.D_learner, self.margin, self.delta,
            x.get("epsilon"), x.get("b_S"), x.get("b_T")))])


def _csv_field(v) -> str:
    """A CSV field: blank for None, else the float's repr."""
    return "" if v is None else repr(float(v))


# ---------------------------------------------------------------------------
# Statement evaluation
# ---------------------------------------------------------------------------

def _param_tv(posterior, best) -> float:
    """TV (exact or the Pinsker proxy) between two parameter distributions."""
    if isinstance(posterior, Categorical) and isinstance(best, Categorical):
        return tv_exact(posterior, best)
    if isinstance(posterior, GaussianParamDist) and isinstance(best, GaussianParamDist):
        return param_tv_upper(posterior, best)
    raise InvalidArgument("parameter distributions must both be categorical or both Gaussian")


def _given(value, name: str):
    if value is None:
        raise InvalidArgument(f"this statement requires {name}")
    return value


class _Lazy:
    """Components computed on first read; ``reads`` records every read."""

    def __init__(self, makers: dict):
        self._makers, self._values, self.reads = makers, {}, {}

    def __getattr__(self, name: str):
        if name not in self._values:
            if name not in self._makers:
                raise AttributeError(name)
            self._values[name] = self._makers[name]()
        value = self.reads[name] = self._values[name]
        return value


def evaluate_bound(
    statement_id: str,
    model: ModelClass,
    predictor: FirstOrderDistribution,
    source: TaskDistribution,
    target: TaskDistribution,
    alpha: float,
    epsilon: Optional[float] = None,
    b_source: Optional[float] = None,
    b_target: Optional[float] = None,
    param_posterior=None,
    param_best=None,
    b_pred: Optional[float] = None,
) -> BoundReport:
    """Evaluate one bound statement into a BoundReport.

    Raises PreconditionViolated when the statement's hypotheses fail on the
    instance (perfect learning, no shift, boundedness, neighborhood
    membership), InvalidModelClass / EventMismatch on malformed inputs.
    The report's extras hold sup_var_target and every component the
    statement's margin and delta read, so ``rederive`` can recompute them.
    """
    statement = STATEMENTS.get(statement_id)
    if statement is None:
        raise InvalidArgument(f"unknown statement id {statement_id!r}")
    _require_alpha(alpha)

    bary_s, bary_t = barycenter(source), barycenter(target)
    best, B = best_approximation(model, bary_s)
    C = convergence_gap(predictor, best)
    D = tv_exact(bary_s, bary_t)
    D_learner = distribution_shift_learner(best, bary_t, B)
    # every other component is computed only if the statement reads it: the
    # diameter and sup-variance of a reified parametric source take seconds.
    # ``_src`` and ``_tgt``, the task distributions as finite ones, are inputs
    # that reports leave out: a parametric family is reified only for the
    # components defined on its tasks, and an equal source and target share
    # one reification.
    comp = _Lazy({
        "B": lambda: B, "C": lambda: C, "D": lambda: D, "D_learner": lambda: D_learner,
        "_src": lambda: as_finite(source),
        "_tgt": lambda: comp._src if target == source else as_finite(target),
        "sup_var_target": lambda: sup_variance(comp._tgt),
        "sup_var_source": lambda: sup_variance(comp._src),
        "diam_source": lambda: diameter(comp._src),
        "param_tv": lambda: _param_tv(_given(param_posterior, "param_posterior"),
                                      _given(param_best, "param_best")),
        "epsilon": lambda: _given(epsilon, "epsilon"),
        "max_b_S": lambda: min(max_first_order_b(comp._src), max_second_order_b(comp._src)),
        "b_S": lambda: max(comp.max_b_S, 0.0) if b_source is None else b_source,
        "max_b_T": lambda: max_first_order_b(comp._tgt),
        "b_T": lambda: max(comp.max_b_T, 0.0) if b_target is None else b_target,
        "dist_tv": lambda: task_distribution_tv(comp._src, comp._tgt),
        "no_shift": lambda: comp.dist_tv <= PROB_TOL,
        "tv_pred_bary_s": lambda: tv_exact(predictor, bary_s),
        # read only once the source is categorical, being b_S-bounded
        "max_tv_to_source": lambda: float(
            _tv(target.P[:, None, :], source.P).min(axis=1)[target.weights > 0].max()),
        "finite_space": lambda: isinstance(predictor, Categorical) and not target.is_continuous,
        "b_pred": lambda: float(predictor.p[predictor.p > 0].min()) if b_pred is None else b_pred,
        # read only once finite_space holds
        "support_covered": lambda: not (
            (target.P > 0) & (predictor.p <= 0))[target.weights > 0].any(),
    })
    extras: dict = {"sup_var_target": comp.sup_var_target}
    if target.is_continuous:
        extras["event_family"] = CONTINUOUS_EVENT_FAMILY

    unmet = statement.unmet(comp)
    if unmet is not None:
        raise PreconditionViolated(unmet.assumption, unmet.detail)
    comp.reads.clear()
    margin, delta = statement.margin(comp, alpha), statement.delta(comp, alpha)
    extras.update((k, v) for k, v in comp.reads.items()
                  if k not in ("B", "C", "D", "D_learner") and not k.startswith("_"))
    return BoundReport(
        statement_id=statement_id,
        alpha=alpha,
        B=B,
        C=C,
        D=D,
        D_learner=D_learner,
        margin=float(margin),
        delta=float(delta),
        extras=extras,
    )
