"""Decomposition terms, the bound-statement table and its evaluation.

The decomposition splits a margin of epistemic error into task variability
(alpha), approximation bias B, lack of convergence C and distribution shift
D (or its learner-perceived variant).  Every statement has the form
``P_{Q ~ target}(loss(predictor, Q) >= margin) <= delta`` and is defined
once, in ``STATEMENTS``; every finite component once, in ``COMPONENTS``.
``evaluate_bound`` turns one statement plus one instance into a BoundReport
holding the components, the margin and delta, re-derivable from its fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .bayes import GaussianParamDist, param_tv_upper
from .distributions import (
    CONTINUOUS_EVENT_FAMILY,
    PROB_TOL,
    Categorical,
    FiniteTaskDistribution,
    FirstOrderDistribution,
    Gaussian,
    TaskDistribution,
    _distributions_from_dicts,
    _event_masks,
    _event_variances,
    _first_order_b,
    _matched_tv,
    _Rows,
    _tv,
    as_finite,
    barycenter,
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

    ``margin`` and ``delta`` take the components and alpha, read by name.  On
    finite inputs both readers of ``COMPONENTS`` supply them: the oracle its
    arrays per batch, ``evaluate_bound`` a stack of one, lazily; continuous
    inputs get objects, ``BoundReport.rederive`` the stored values.
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
# The finite component table
# ---------------------------------------------------------------------------


class _Lazy:
    """Components computed on first read, ``makers[name](self)``, and kept as attributes
    beside the ``given`` ones."""

    def __init__(self, makers: dict, given=()):
        self.__dict__.update(given)
        self._makers = makers

    def __getattr__(self, name: str):
        if name not in self._makers:
            raise AttributeError(name)
        value = self.__dict__[name] = self._makers[name](self)
        return value


class _Reads:
    """``comp`` as a margin or delta reads it: ``reads`` records every attribute read."""

    def __init__(self, comp):
        self._comp, self.reads = comp, {}

    def __getattr__(self, name: str):
        value = self.reads[name] = getattr(self._comp, name)
        return value


def _put_rows(out: np.ndarray, P: np.ndarray) -> None:
    """``P`` into the top-left of ``out``, its first row repeated below it."""
    k, m = P.shape
    out[:k, :m] = P
    out[k:, :m] = P[0]


def _stacked(rows: Sequence[tuple]) -> dict:
    """The inputs of ``COMPONENTS`` for a batch of ``(S, w_s, T, w_t, members, pred)``
    rows: ``_rows`` themselves, their padded arrays and both barycenters, ``w @ P``.

    Tasks and members are padded with copies of row 0 (weight 0 for tasks), outcomes
    with zero columns.  Every matrix product runs on one row's own arrays, as BLAS rounds
    a product by its shape; sums run over axes that ``oracle._groups`` keeps exact, and
    minima and maxima ignore copies.  A stack of one has nothing to pad: its arrays are
    views of the row's own.  No row is checked here.
    """
    ms = [row[5].size for row in rows]
    if len(rows) == 1:
        S, w_s, T, w_t, _, _ = rows[0]
        arrays = [a[None] for a in rows[0]] + [(w_s @ S)[None], (w_t @ T)[None]]
    else:
        n, m = len(rows), max(ms)
        k_s, k_t, r = (max(row[i].shape[0] for row in rows) for i in (0, 2, 4))
        S, T, members = np.zeros((n, k_s, m)), np.zeros((n, k_t, m)), np.zeros((n, r, m))
        w_s, w_t, pred, bary_s, bary_t = (np.zeros((n, k)) for k in (k_s, k_t, m, m, m))
        for b, (S_b, w_s_b, T_b, w_t_b, members_b, pred_b) in enumerate(rows):
            _put_rows(S[b], S_b)
            _put_rows(T[b], T_b)
            _put_rows(members[b], members_b)
            w_s[b, :w_s_b.size] = w_s_b
            w_t[b, :w_t_b.size] = w_t_b
            pred[b, :ms[b]] = pred_b
            bary_s[b, :ms[b]] = w_s_b @ S_b
            bary_t[b, :ms[b]] = w_t_b @ T_b
        arrays = [S, w_s, T, w_t, members, pred, bary_s, bary_t]
    return dict(zip(("_S", "_w_s", "_T", "_w_t", "_members", "_pred", "_bary_s", "_bary_t"),
                    arrays), _rows=rows, _ms=ms)


def _col(v) -> np.ndarray:
    return np.asarray(v)[:, None]


def _variances(c, side: int) -> np.ndarray:
    """Per-event variances of each row's source (``side`` 0) or target (2), padded with copies
    of the first event's; a row whose target is its source, weights too, reuses the source's."""
    bary = c._bary_s if side == 0 else c._bary_t
    if len(c._rows) == 1:  # a stack of one: nothing to pad
        return _event_variances(c._rows[0][side], c._rows[0][side + 1], bary[0])[None]
    out = np.empty((len(c._rows), len(_event_masks(max(c._ms)))))  # refuses m > 12 first
    for b, row in enumerate(c._rows):
        if side == 2 and row[2] is row[0] and row[3] is row[1]:
            out[b] = c.var_s_events[b]
            continue
        v = _event_variances(row[side], row[side + 1], bary[b, :c._ms[b]].copy())
        out[b, :v.size], out[b, v.size:] = v, v[0]
    return out


def _max_b_S(c) -> np.ndarray:
    """The largest b the source is first- and second-order bounded by; second-order,
    each task's smallest outcome probability (0 without full support) bounds it."""
    outcomes = np.arange(c._S.shape[2]) < np.array(c._ms)[:, None]  # padding excluded
    on_support = outcomes[:, None, :] & c._live_s[:, :, None]
    s_min = np.where(on_support, c._S, np.inf).min(axis=(1, 2))
    return np.minimum(c.b_S_first, _col(np.where(s_min <= 0, 0.0, np.minimum(1.0, s_min))))


def _dist_tv(c) -> np.ndarray:
    """TV between each row's task distributions, as ``task_distribution_tv`` matches their
    tasks; 0 where the target is the source, tasks and weights alike."""
    same = [row[2] is row[0] and row[3] is row[1] for row in c._rows]
    dist_tv = np.zeros(len(same))
    if not all(same):
        close = (c._gaps.max(axis=3) <= PROB_TOL).transpose(0, 2, 1)  # source i, target j
        for b, (_, w_s, _, w_t, *_) in enumerate(c._rows):
            if not same[b]:
                dist_tv[b] = _matched_tv(w_s, w_t, close[b, :w_s.size, :w_t.size])
    return _col(dist_tv)


def _losses(c) -> dict:
    """Each target task's loss under every ``LOSSES`` name, as (batch, k) arrays."""
    T, pred, leaks = c._T, c._pred[:, None, :], c._leaks
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(T > 0, T / np.where(pred > 0, pred, np.nan), 1.0)
        kl_rows = np.where(T > 0, T * np.log(ratio), 0.0)  # NaN where leaks
    excess_ce = np.where(leaks.any(axis=2), np.inf, np.where(leaks, 0.0, kl_rows).sum(axis=2))
    hellinger_sq = 0.5 * ((np.sqrt(T) - np.sqrt(pred)) ** 2).sum(axis=2)
    tv = c._tv_losses
    return {"tv": tv, "l1": 2.0 * tv, "hellinger_sq": hellinger_sq, "excess_ce": excess_ce}


# Each finite component, defined once as an array function of a stack (``_stacked``'s
# inputs and the other entries, read by name).  A scalar component is a (batch, 1)
# column, which a margin or delta broadcasts against a row of alphas; per-task arrays
# are (batch, k), per-event variances (batch, 2^m); "_" marks an intermediate.  The
# oracle evaluates every entry per batch, ``evaluate_bound`` those it reads on a stack
# of one.  A task of zero weight is never drawn: it is off the support, on either side.
COMPONENTS: dict[str, Callable[[Any], Any]] = {
    "_member_tvs": lambda c: _tv(c._members, c._bary_s[:, None, :]),
    "_best_idx": lambda c: c._member_tvs.argmin(axis=1),  # the first minimum: never padding
    "_best": lambda c: c._members[np.arange(len(c._rows)), c._best_idx],
    "B": lambda c: c._member_tvs.min(axis=1, keepdims=True),
    "C": lambda c: _col(_tv(c._pred, c._best)),
    "D": lambda c: _col(_tv(c._bary_s, c._bary_t)),
    "D_learner": lambda c: _col(_tv(c._best, c._bary_t)) - c.B,
    "var_s_events": lambda c: _variances(c, 0),
    "var_t_events": lambda c: _variances(c, 2),
    "sup_var_source": lambda c: _col(c.var_s_events.max(axis=1)),
    "sup_var_target": lambda c: _col(c.var_t_events.max(axis=1)),
    "_live_s": lambda c: c._w_s > 0,
    "diam_source": lambda c: _col(np.where(
        c._live_s[:, :, None] & c._live_s[:, None, :],
        _tv(c._S[:, :, None, :], c._S[:, None, :, :]), 0.0).max(axis=(1, 2))),
    "b_S_first": lambda c: _col(_first_order_b(c._w_s)),
    "max_b_S": _max_b_S,
    "b_S": lambda c: c.max_b_S,
    "max_b_T": lambda c: _col(_first_order_b(c._w_t)),
    "b_T": lambda c: c.max_b_T,
    "b_pred": lambda c: _col(np.where(c._pred > 0, c._pred, np.inf).min(axis=1)),
    "tv_pred_bary_s": lambda c: _col(_tv(c._pred, c._bary_s)),
    "tv_pred_bary_t": lambda c: _col(_tv(c._pred, c._bary_t)),
    "shared_support": lambda c: _col([row[2] is row[0] for row in c._rows]),  # T is S
    "_gaps": lambda c: np.abs(c._T[:, :, None, :] - c._S[:, None, :, :]),  # (batch, k_t, k_s, m)
    "dist_tv": _dist_tv,
    "no_shift": lambda c: c.dist_tv <= PROB_TOL,
    # over the target tasks that can be drawn: TV to the nearest source task
    "max_tv_to_source": lambda c: _col(np.where(c._w_t > 0, np.where(
        c._live_s[:, None, :], 0.5 * c._gaps.sum(axis=3), np.inf).min(axis=2),
        -np.inf).max(axis=1)),
    "_leaks": lambda c: (c._T > 0) & (c._pred[:, None, :] <= 0),  # mass the predictor lacks
    "support_covered": lambda c: _col(~(c._leaks.any(axis=2) & (c._w_t > 0)).any(axis=1)),
    "finite_space": lambda c: np.ones((len(c._rows), 1), dtype=bool),
    "t_weights": lambda c: c._w_t,
    "_tv_losses": lambda c: _tv(c._T, c._pred[:, None, :]),
    "losses": _losses,
}


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


def _scalar(value):
    """A (1, 1) column or numpy scalar as its Python float or bool, as reports hold them."""
    return value.item() if hasattr(value, "item") else value


def _finite_row(model: ModelClass, predictor, source, target) -> Optional[tuple]:
    """The row ``(S, w_s, T, w_t, members, pred)`` of inputs categorical on one space, else None."""
    m = predictor.p.size if isinstance(predictor, Categorical) else None
    if m is None or model.P is None or model.P.shape[1] != m or not all(
            isinstance(t, FiniteTaskDistribution) and t.P is not None and t.P.shape[1] == m
            for t in (source, target)):
        return None
    return source.P, source.weights, target.P, target.weights, model.P, predictor.p


def _object_makers(model: ModelClass, predictor: FirstOrderDistribution,
                   source: TaskDistribution, target: TaskDistribution) -> dict:
    """The components continuous inputs reach, on the objects; inputs on mixed spaces raise.

    No statement reads more: no continuous space is finite, and a continuous source is
    never second-order bounded.  ``_src`` and ``_tgt``, the task distributions reified
    only when read (an equal source and target share one), stay out of reports.
    """
    bary_s, bary_t = barycenter(source), barycenter(target)
    best, B = best_approximation(model, bary_s)
    C = convergence_gap(predictor, best)
    D = tv_exact(bary_s, bary_t)
    D_learner = distribution_shift_learner(best, bary_t, B)
    return {
        "B": lambda c: B, "C": lambda c: C, "D": lambda c: D, "D_learner": lambda c: D_learner,
        "_src": lambda c: as_finite(source),
        "_tgt": lambda c: c._src if target == source else as_finite(target),
        "sup_var_target": lambda c: sup_variance(c._tgt),
        "dist_tv": lambda c: task_distribution_tv(c._src, c._tgt),
        "no_shift": lambda c: c.dist_tv <= PROB_TOL,
        "tv_pred_bary_s": lambda c: tv_exact(predictor, bary_s),
        "finite_space": lambda c: False, "max_b_S": lambda c: 0.0, "b_S": lambda c: 0.0,
    }


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

    Inputs categorical on one space read ``COMPONENTS`` on a stack of one,
    lazily: a statement computes only the components it reads.  Any other
    input is evaluated on the objects.  ``epsilon``, ``b_source``,
    ``b_target``, ``b_pred`` and the parameter TV are applied on top.

    Raises PreconditionViolated when the statement's hypotheses fail on the
    instance (perfect learning, no shift, boundedness, neighborhood
    membership), InvalidModelClass / EventMismatch on malformed inputs.
    The report's extras hold sup_var_target and every component the
    statement's margin and delta read, so ``rederive`` can recompute them.
    """
    return _evaluate(statement_id, alpha, _finite_row(model, predictor, source, target),
                     (model, predictor, source, target), epsilon, b_source, b_target,
                     param_posterior, param_best, b_pred)


def _evaluate(statement_id: str, alpha: float, row: Optional[tuple], objects: tuple = (),
              epsilon=None, b_source=None, b_target=None, param_posterior=None, param_best=None,
              b_pred=None) -> BoundReport:
    """``evaluate_bound`` on the checked row ``(S, w_s, T, w_t, members, pred)`` of an
    instance categorical on one space, whose ``COMPONENTS`` are read lazily on its stack of
    one, or, where ``row`` is None, on ``objects``, ``(model, predictor, source, target)``."""
    statement = STATEMENTS.get(statement_id)
    if statement is None:
        raise InvalidArgument(f"unknown statement id {statement_id!r}")
    _require_alpha(alpha)
    if row is None:
        makers, given, continuous = _object_makers(*objects), {}, objects[3].is_continuous
    else:
        makers, given, continuous = dict(COMPONENTS), _stacked([row]), False
    makers["epsilon"] = lambda c: _given(epsilon, "epsilon")
    makers["param_tv"] = lambda c: _param_tv(_given(param_posterior, "param_posterior"),
                                             _given(param_best, "param_best"))
    for name, value in (("b_S", b_source), ("b_T", b_target), ("b_pred", b_pred)):
        if value is not None:
            makers[name] = lambda c, value=value: value
    comp = _Lazy(makers, given)
    B, C, D, D_learner = comp.B, comp.C, comp.D, comp.D_learner
    extras: dict = {"sup_var_target": comp.sup_var_target}
    if continuous:
        extras["event_family"] = CONTINUOUS_EVENT_FAMILY

    unmet = statement.unmet(comp)
    if unmet is not None:
        raise PreconditionViolated(unmet.assumption, unmet.detail)
    read = _Reads(comp)  # the extras: what the margin and delta read themselves
    margin, delta = statement.margin(read, alpha), statement.delta(read, alpha)
    extras.update((k, v) for k, v in read.reads.items()
                  if k not in ("B", "C", "D", "D_learner") and not k.startswith("_"))
    return BoundReport(
        statement_id=statement_id,
        alpha=alpha,
        B=_scalar(B),
        C=_scalar(C),
        D=_scalar(D),
        D_learner=_scalar(D_learner),
        margin=float(_scalar(margin)),
        delta=float(_scalar(delta)),
        extras={k: _scalar(v) for k, v in extras.items()},
    )
