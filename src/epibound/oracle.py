"""Exact verification of every bound statement on random finite instances.

Instances are small categorical worlds (2..6 outcomes, 2..6 tasks per task
distribution) where every total variation distance, variance and exceedance
probability is a finite sum, so each statement's tail probability is
computed exactly by enumeration: zero sampling noise.  Constraint modes
force the hypotheses of the conditional statements (no shift, perfect
learning, the two total-variation-neighborhood assumptions) to hold by
construction.  A suite draws each instance from its own seed as an
unchecked record, whose constructor never runs, and checks them a chunk at
a time as padded arrays: every probability row and weight vector once per
chunk, then all statements in one pass, with the per-instance results bit
for bit.  A chunk's seeds and Generators come from ``seeding``'s batch
kernel, with the bytes of one ``derive_seed`` and one ``default_rng`` per
instance.  Flat Dirichlet rows are drawn as numpy draws them, from
exponentials, into C-contiguous arrays: BLAS rounds a product by its strides.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from math import prod
from operator import attrgetter
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from .distributions import (
    PROB_TOL,
    Categorical,
    FiniteTaskDistribution,
    _check_rows,
    _check_tasks,
    _event_variances,
    _first_order_b,
    _freeze,
    _matched_tv,
    _tv,
)
from .bounds import (
    _EPS_DISTANCE,
    _EPS_NEIGHBORHOOD,
    STATEMENTS,
    ModelClass,
    Precondition,
    _pow2,
    _require_alpha,
)
from .errors import GenerationFailure, InvalidArgument, InvalidTaskDistribution, require_int
from .seeding import derive_seeds, generator, generator_from_words, normalize_seed, stream_words
from .workers import map_payloads, worker_count

DEFAULT_ALPHAS = tuple(round(0.05 * i, 2) for i in range(1, 11))
VIOLATION_TOL = 1e-12  # float guard on exact exceedance-vs-delta comparisons
SLACK_TOL = 1e-10      # deterministic lemma inequalities must have slack >= -SLACK_TOL

CONSTRAINT_MODES = ("none", "no_shift", "perfect_no_shift", "assumption1", "assumption2")

# the statements each constraint mode attempts; a statement whose preconditions
# fail on an instance is skipped there
_MODE_STATEMENTS = {
    "none": ["thm1", "thm2", "cor_l1", "cor_hellinger", "cor_ce",
             "lemma_b2", "lemma_b7", "prop1"],
    "no_shift": ["lemma2", "thm1", "thm2", "cor_l1", "cor_hellinger", "cor_ce",
                 "lemma_b2", "lemma_b7", "prop1"],
    "perfect_no_shift": ["lemma1", "lemma2", "thm1", "thm2", "cor_l1", "cor_hellinger",
                         "cor_ce", "lemma_b2", "lemma_b7", "prop1"],
    "assumption1": ["thm1", "thm2", "cor_eps", "cor_l1", "cor_hellinger", "cor_ce",
                    "lemma_b2", "lemma_b7", "lemma_b9", "prop1"],
    "assumption2": ["thm1", "thm2", "cor_eps", "cor_eps_dist", "cor_l1", "cor_hellinger",
                    "cor_ce", "lemma_b2", "lemma_b7", "lemma_b8", "lemma_b9", "lemma_b10",
                    "prop1"],
}
_INSTANCE_STATEMENTS = {
    sid for sids in _MODE_STATEMENTS.values() for sid in sids if sid in STATEMENTS
}
_THETA_STATEMENTS = ("lemma_b6", "cor_bayesian")  # verified on finite-theta instances only
PROB_STATEMENTS = tuple(
    sid for sid in STATEMENTS if sid in _INSTANCE_STATEMENTS or sid in _THETA_STATEMENTS
)
LEMMA_STATEMENTS = ("lemma_b2", "lemma_b6", "lemma_b7", "lemma_b8", "lemma_b9",
                    "lemma_b10", "prop1")
ALL_STATEMENTS = PROB_STATEMENTS + LEMMA_STATEMENTS


def _require_range(name: str, pair, low: int) -> None:
    """Reject a ``name`` that is not an ordered integer pair from ``low``; m_range stops at 12."""
    lo, hi = (require_int(f"each end of {name}", end) for end in pair)
    if not low <= lo <= hi:
        raise InvalidArgument(f"{name} must be an ordered pair from {low}, got {(lo, hi)}")
    if name == "m_range" and hi > 12:
        raise InvalidArgument("oracle instances need m <= 12 for exhaustive event families")


@dataclass(frozen=True)
class InstanceConfig:
    m_range: tuple[int, int] = (2, 6)
    tasks_range: tuple[int, int] = (2, 6)
    members_range: tuple[int, int] = (3, 20)
    constraint: str = "none"
    epsilon: Optional[float] = None  # drawn from U[0.02, 0.5] when None and constrained

    def __post_init__(self):
        if self.constraint not in CONSTRAINT_MODES:
            raise InvalidArgument(f"unknown constraint mode {self.constraint!r}")
        _require_range("m_range", self.m_range, 2)
        _require_range("tasks_range", self.tasks_range, 1)
        _require_range("members_range", self.members_range, 1)


@dataclass(frozen=True, eq=False)
class OracleInstance:
    """One desk-scale world as arrays: source/target tasks, model class, predictor.

    ``S`` and ``T`` hold the source and target tasks as rows, ``w_s`` and
    ``w_t`` their weights, ``members`` the model class in enumeration order.
    ``shared`` is true when the target reuses the source tasks (``T is S``);
    under no shift it reuses the weights too (``w_t is w_s``).  The arrays
    are read-only.  ``source``, ``target``, ``model`` and ``predictor`` are
    distribution views, built on first access.
    """

    S: np.ndarray
    w_s: np.ndarray
    T: np.ndarray
    w_t: np.ndarray
    members: np.ndarray
    pred: np.ndarray
    seed: int
    constraint: str
    epsilon: Optional[float]

    def __post_init__(self):
        for name in ("S", "w_s", "T", "w_t", "members", "pred"):
            _freeze(self, name, getattr(self, name))
        if self.pred.ndim != 1 or self.pred.size == 0:
            raise InvalidArgument("probability vector must be 1-D and nonempty")
        _check_rows(self.pred)
        _check_tasks(self.S, self.w_s, self.m)
        if not (self.shared and self.w_t is self.w_s):
            _check_tasks(self.T, self.w_t, self.m)
        _check_tasks(self.members, None, self.m)

    @property
    def m(self) -> int:
        return self.pred.size

    @property
    def shared(self) -> bool:
        return self.T is self.S

    @cached_property
    def source(self) -> FiniteTaskDistribution:
        return FiniteTaskDistribution(self.S, self.w_s)

    @cached_property
    def target(self) -> FiniteTaskDistribution:
        if not self.shared:
            return FiniteTaskDistribution(self.T, self.w_t)
        if self.w_t is self.w_s:
            return self.source
        return FiniteTaskDistribution(self.source.tasks, self.w_t)

    @cached_property
    def model(self) -> ModelClass:
        return ModelClass(self.members)

    @cached_property
    def predictor(self) -> Categorical:
        return Categorical(self.pred)

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "source": self.source.to_dict(),
            "target": self.target.to_dict(),
            "model": self.model.to_dict(),
            "predictor": self.predictor.to_dict(),
            "seed": self.seed,
            "constraint": self.constraint,
            "epsilon": self.epsilon,
        }


def _flat_dirichlet(rng: np.random.Generator, *shapes: tuple) -> list[np.ndarray]:
    """Consecutive ``rng.dirichlet(np.ones(n), size)`` draws, one per shape ``(*size, n)``.

    One exponential draw serves them all, bit for bit, and each array is a
    C-contiguous piece of its buffer.
    """
    sizes = [prod(shape) for shape in shapes]
    e, out, start = rng.standard_exponential(sum(sizes)), [], 0
    for shape, size in zip(shapes, sizes):
        out.append(_scale_rows(e[start:start + size].reshape(shape)))
        start += size
    return out


def _scale_rows(e: np.ndarray) -> np.ndarray:
    """Standard exponential rows ``e`` scaled in place into flat Dirichlet rows.

    numpy multiplies a row by ``1.0 /`` its sum added left to right, which
    ``np.sum`` is not from 8 entries on.  One row takes a scalar: faster.
    """
    e *= 1.0 / (np.add.accumulate(e)[-1] if e.ndim == 1 else np.add.accumulate(e, 1)[:, -1:])
    return e


_HALVINGS = 4  # etas per pass; the suite's rows settle within 2 halvings, 3 with m up to 12


def _project_rows(raw: np.ndarray, anchors: np.ndarray, eps: float) -> np.ndarray:
    """Each row of ``raw`` clipped into an L-inf box around its row of ``anchors``
    and renormalized, with the first half-width ``eps, eps/2, ...`` that puts it
    within TV ``eps``: all rows and ``_HALVINGS`` half-widths in one array pass.
    """
    out, rows, eta = np.empty_like(raw), np.arange(len(raw)), eps
    for _ in range(1000 // _HALVINGS):
        etas = []
        for _ in range(_HALVINGS):
            etas.append(eta)
            eta *= 0.5  # halved as the one-row loop halves it
        anchor, half = anchors[rows, None, :], np.array(etas)[:, None]
        clipped = np.clip(raw[rows, None, :], np.maximum(anchor - half, 0.0),
                          np.minimum(anchor + half, 1.0))
        total = clipped.sum(axis=2, keepdims=True)  # over a row's own m entries, as alone
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = clipped / total
            inside = (total[..., 0] > 0) & (0.5 * np.abs(cand - anchor).sum(axis=2) <= eps)
        done = inside.any(axis=1)
        out[rows[done]] = cand[done, inside.argmax(axis=1)[done]]
        rows = rows[~done]
        if rows.size == 0:
            return out
    raise GenerationFailure(f"could not project a task into the TV {eps}-ball")


def _unchecked(cls, **values):
    """A ``cls`` record of ``values`` that skips ``__post_init__``: not checked, not frozen."""
    record = object.__new__(cls)
    record.__dict__.update(values)
    return record


def _draw_instance(seed: int, config: InstanceConfig, rng: np.random.Generator) -> OracleInstance:
    """``generate_instance``'s instance, drawn from ``rng``, the Generator of ``seed``, unchecked.

    Such a record stays inside ``_run_range``, where ``_components`` checks
    its rows, with those of its chunk group, before any component is read.
    """
    m = int(rng.integers(config.m_range[0], config.m_range[1] + 1))
    k_s = int(rng.integers(config.tasks_range[0], config.tasks_range[1] + 1))
    k_t = int(rng.integers(config.tasks_range[0], config.tasks_range[1] + 1))

    S, w_s = _flat_dirichlet(rng, (k_s, m), (k_s,))

    n_members = int(rng.integers(config.members_range[0], config.members_range[1] + 1))
    members, = _flat_dirichlet(rng, (n_members, m))

    if config.constraint == "perfect_no_shift":
        pred = w_s @ S
    elif rng.random() < 0.5:
        pred = members[int(rng.integers(n_members))]
    else:
        pred, = _flat_dirichlet(rng, (m,))

    epsilon = config.epsilon
    if config.constraint in ("assumption1", "assumption2") and epsilon is None:
        epsilon = float(rng.uniform(0.02, 0.5))

    if config.constraint in ("no_shift", "perfect_no_shift"):
        T, w_t = S, w_s
    elif config.constraint == "assumption1":
        # each target row draws its anchor's index, then its own row
        anchors, raw = np.empty(k_t, dtype=int), np.empty((k_t, m))
        for i in range(k_t):
            anchors[i] = rng.integers(k_s)
            rng.standard_exponential(out=raw[i])
        T = _project_rows(_scale_rows(raw), S[anchors], epsilon)
        w_t, = _flat_dirichlet(rng, (k_t,))
    elif config.constraint == "assumption2":
        raw, = _flat_dirichlet(rng, (k_s,))
        dist = 0.5 * np.abs(w_s - raw).sum()
        if dist > epsilon:
            raw = w_s + (epsilon / dist) * (1.0 - 1e-12) * (raw - w_s)
            raw = np.maximum(raw, 0.0)
            raw = raw / raw.sum()
        if 0.5 * np.abs(w_s - raw).sum() > epsilon:
            raise GenerationFailure("assumption-2 weight projection failed")
        T, w_t = S, raw
    else:
        T, w_t = _flat_dirichlet(rng, (k_t, m), (k_t,))

    return _unchecked(OracleInstance, S=S, w_s=w_s, T=T, w_t=w_t, members=members, pred=pred,
                      seed=seed, constraint=config.constraint, epsilon=epsilon)


def generate_instance(seed: int, config: InstanceConfig = InstanceConfig()) -> OracleInstance:
    """Deterministic instance from ``seed``; flat-simplex weights and tasks, checked."""
    return replace(_draw_instance(seed, config, generator(seed)))


# ---------------------------------------------------------------------------
# Exact components, a batch of instances at a time
# ---------------------------------------------------------------------------

_CHUNK = 256  # instances generated and checked together; bounds the padded arrays' memory


def _groups(sizes: Sequence[tuple]) -> list[np.ndarray]:
    """Indices of a batch, grouped so that padding leaves every sum bit for bit the same.

    ``sizes`` holds one tuple per instance: the lengths of the axes that get
    summed.  numpy adds fewer than 8 values one at a time, so trailing zeros
    leave such a sum unchanged; it adds 8 or more in blocks, so an axis that
    long has one length within a group.
    """
    groups: dict = {}
    for i, row in enumerate(sizes):
        groups.setdefault(tuple(s if s >= 8 else 0 for s in row), []).append(i)
    return [np.array(g) for g in groups.values()]


def _put_rows(out: np.ndarray, P: np.ndarray) -> None:
    """``P`` into the top-left of ``out``, its first row repeated below it."""
    k, m = P.shape
    out[:k, :m] = P
    out[k:, :m] = P[0]


def _instance_groups(insts: Sequence[OracleInstance]) -> list[np.ndarray]:
    return _groups([(inst.pred.size, inst.S.shape[0], inst.T.shape[0]) for inst in insts])


def _stack(rows: Sequence[tuple], source_variances: bool = False) -> SimpleNamespace:
    """The components both instance kinds read, for a batch that ``_groups`` put together,
    from one ``(S, w_s, T, w_t, members, pred)`` per instance.

    The rows are stacked into padded arrays: tasks and members padded with
    copies of row 0 (weight 0 for tasks), outcomes with zero columns.  Every
    matrix product (barycenters, per-event variances, the source's when
    ``source_variances``) runs on one instance's own arrays, because BLAS
    rounds a product by its shape.  The rest is elementwise, sums over padded
    axes that the grouping keeps exact, and minima and maxima, which copies
    leave unchanged; ``argmin`` returns the first minimum, so a padded member
    is never the best one.  No row is checked here: each caller checks its
    own, in its own order, and a row passes or fails padded as it does alone.
    """
    n = len(rows)
    ms = [row[5].size for row in rows]
    m = max(ms)
    k_s, k_t, r = (max(row[i].shape[0] for row in rows) for i in (0, 2, 4))
    S, T, members = np.zeros((n, k_s, m)), np.zeros((n, k_t, m)), np.zeros((n, r, m))
    w_s, w_t = np.zeros((n, k_s)), np.zeros((n, k_t))
    pred, bary_s, bary_t = np.zeros((n, m)), np.zeros((n, m)), np.zeros((n, m))
    var_s = np.empty((n, 2 ** m)) if source_variances else None
    var_t = np.empty((n, 2 ** m))
    for b, (S_b, w_s_b, T_b, w_t_b, members_b, pred_b) in enumerate(rows):
        mb = ms[b]
        _put_rows(S[b], S_b)
        _put_rows(T[b], T_b)
        _put_rows(members[b], members_b)
        w_s[b, :w_s_b.size] = w_s_b
        w_t[b, :w_t_b.size] = w_t_b
        pred[b, :mb] = pred_b
        bary_s[b, :mb] = bs = w_s_b @ S_b
        if source_variances:
            vs = _event_variances(S_b, w_s_b, bs)
            var_s[b, :vs.size], var_s[b, vs.size:] = vs, vs[0]
        if source_variances and T_b is S_b and w_t_b is w_s_b:  # no shift: the source again
            bt, vt = bs, vs
        else:
            bt = w_t_b @ T_b
            vt = _event_variances(T_b, w_t_b, bt)
        bary_t[b, :mb] = bt
        var_t[b, :vt.size], var_t[b, vt.size:] = vt, vt[0]

    dists = _tv(members, bary_s[:, None, :])
    best_idx = dists.argmin(axis=1)
    best = members[np.arange(n), best_idx]
    return SimpleNamespace(
        ms=ms, S=S, T=T, members=members, w_s=w_s, w_t=w_t, pred=pred, bary_s=bary_s,
        bary_t=bary_t, var_s=var_s, var_t=var_t, best_idx=best_idx, best=best,
        B=np.take_along_axis(dists, best_idx[:, None], 1), C=_tv(pred, best)[:, None],
        D=_tv(bary_s, bary_t)[:, None], sup_var_target=var_t.max(axis=1)[:, None],
        tv_losses=_tv(T, pred[:, None, :]),
    )


def _components(insts: Sequence[OracleInstance]) -> SimpleNamespace:
    """Exact components of a batch of instances that ``_instance_groups`` put together,
    under the names ``bounds.STATEMENTS`` reads: ``_stack``'s, then those only the
    instance statements read.

    A scalar component is a (batch, 1) column, so that a margin or delta
    broadcasts it against a row of alphas.  Per-task arrays are (batch, k),
    padded past an instance's ``k_t`` target tasks with zero-weight copies of
    its first one; per-event variances are (batch, 2^m), padded with copies of
    the first event's.  ``b_S`` is the largest b the source is first- and
    second-order bounded by, and ``b_T`` the largest the target is first-order
    bounded by, so they are their own ``max_b_S`` and ``max_b_T``.

    Every probability row and weight vector is checked in the padded arrays,
    with ``OracleInstance``'s rules and error types, before any is read.
    """
    st = _stack(list(map(attrgetter("S", "w_s", "T", "w_t", "members", "pred"), insts)), True)
    S, T, w_s, w_t, pred = st.S, st.T, st.w_s, st.w_t, st.pred
    for P in (pred, S, T, st.members):
        _check_rows(P)
    for w in (w_s, w_t):
        _check_rows(w, InvalidTaskDistribution, "task weights")

    diam = _tv(S[:, :, None, :], S[:, None, :, :]).max(axis=(1, 2))
    outcomes = np.arange(S.shape[2]) < np.array(st.ms)[:, None]
    s_min = np.where(outcomes[:, None, :], S, np.inf).min(axis=(1, 2))  # padding excluded
    b_S_first = _first_order_b(w_s)

    hell_t = 0.5 * ((np.sqrt(T) - np.sqrt(pred)[:, None, :]) ** 2).sum(axis=2)
    gaps = np.abs(T[:, :, None, :] - S[:, None, :, :])  # (batch, k_t, k_s, m)
    cross = 0.5 * gaps.sum(axis=3)
    shared = np.array([inst.T is inst.S for inst in insts])
    # a shared instance has k_s == k_t <= k, and the grouping makes k its own
    # task count when k >= 8, so this sum is exact where it is used
    k = min(S.shape[1], T.shape[1])
    dist_tv = _tv(w_s[:, :k], w_t[:, :k])
    if not shared.all():
        # task_distribution_tv's matching, with source task i close to target task j
        close = (gaps.max(axis=3) <= PROB_TOL).transpose(0, 2, 1)
        for b in np.flatnonzero(~shared):
            w_s_b, w_t_b = insts[b].w_s, insts[b].w_t
            dist_tv[b] = _matched_tv(w_s_b, w_t_b, close[b, :len(w_s_b), :len(w_t_b)])

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(T > 0, T / np.where(pred > 0, pred, np.nan)[:, None, :], 1.0)
        kl_rows = np.where(T > 0, T * np.log(ratio), 0.0)
    nan = np.isnan(kl_rows)  # target mass where the predictor has none
    leaks = nan.any(axis=2)
    kl_t_pred = np.where(leaks, np.inf, np.where(nan, 0.0, kl_rows).sum(axis=2))
    live = w_t > 0  # zero-weight target tasks, padding included, are never drawn
    ers = st.tv_losses

    def col(v) -> np.ndarray:
        return np.asarray(v)[:, None]

    b_S = col(np.minimum(b_S_first, np.where(s_min <= 0, 0.0, np.minimum(1.0, s_min))))
    b_T = col(_first_order_b(w_t))
    return SimpleNamespace(
        B=st.B, C=st.C, D=st.D, D_learner=col(_tv(st.best, st.bary_t)) - st.B,
        sup_var_target=st.sup_var_target, sup_var_source=col(st.var_s.max(axis=1)),
        diam_source=col(diam),
        epsilon=col([np.nan if inst.epsilon is None else inst.epsilon for inst in insts]),
        b_S=b_S, max_b_S=b_S, b_S_first=col(b_S_first), b_T=b_T, max_b_T=b_T,
        b_pred=col(np.where(pred > 0, pred, np.inf).min(axis=1)),  # smallest positive
        tv_pred_bary_s=col(_tv(pred, st.bary_s)), tv_pred_bary_t=col(_tv(pred, st.bary_t)),
        shared_support=col(shared),  # identical task tuples; the weights may differ
        no_shift=col(dist_tv <= PROB_TOL), dist_tv=col(dist_tv),
        # over the target tasks that can be drawn: TV to the nearest source task
        max_tv_to_source=col(np.where(live, cross.min(axis=2), -np.inf).max(axis=1)),
        support_covered=col(~(leaks & live).any(axis=1)),
        t_weights=w_t, var_s_events=st.var_s, var_t_events=st.var_t, finite_space=True,
        losses={"tv": ers, "l1": 2.0 * ers, "hellinger_sq": hell_t, "excess_ce": kl_t_pred},
    )


def _looseness(comp: SimpleNamespace) -> np.ndarray:
    """Per instance: the mean of tv(pred, Q_t) over the exact target weights, minus (C + D)."""
    return np.vecdot(comp.t_weights, comp.losses["tv"]) - (comp.C + comp.D)[:, 0]


# ---------------------------------------------------------------------------
# Statement verification
# ---------------------------------------------------------------------------


@dataclass
class AlphaOutcome:
    alpha: float
    exceedance: float
    delta: float
    slack: float
    violated: bool


@dataclass
class StatementReport:
    statement_id: str
    trials: int = 0
    violations: int = 0
    skips: int = 0
    skip_reasons: Counter = field(default_factory=Counter)  # unmet hypothesis -> skips
    min_slack: float = np.inf
    max_slack: float = -np.inf
    keep_outcomes: bool = False
    outcomes: list = field(default_factory=list)

    def skip(self, reason: str, count: int) -> None:
        self.skips += count
        self.skip_reasons[reason] += count


def _record(reports: Sequence[StatementReport], ok: np.ndarray, slacks: np.ndarray,
            violated: np.ndarray, outcomes: tuple = ()) -> list[np.ndarray]:
    """Record statement ``s`` of a stack into ``reports[s]``; return each one's violating rows.

    ``ok`` (s, batch) marks the instances a statement checks, and ``slacks``
    and ``violated`` are (s, batch, alphas) or, for lemmas, (s, batch, 1).  A
    statement's least and greatest slack come from its own checked instances.
    ``outcomes``, a probability stack's alphas, exceedances and deltas, feed
    the ``AlphaOutcome``s of the reports that keep them.
    """
    checked = ok[..., None]
    violated &= checked
    trials = (ok.sum(axis=1) * slacks.shape[2]).tolist()
    counts = violated.sum(axis=(1, 2)).tolist()
    lows = np.where(checked, slacks, np.inf).min(axis=(1, 2)).tolist()
    highs = np.where(checked, slacks, -np.inf).max(axis=(1, 2)).tolist()
    for s, report in enumerate(reports):
        if trials[s]:
            report.trials += trials[s]
            report.violations += counts[s]
            report.min_slack = min(report.min_slack, lows[s])
            report.max_slack = max(report.max_slack, highs[s])
        if report.keep_outcomes and outcomes:
            alphas, exceedances, deltas = outcomes
            picked = (a[s, ok[s]] for a in (exceedances, deltas, slacks, violated))
            report.outcomes.extend(map(AlphaOutcome, *(a.ravel().tolist() for a in (
                np.broadcast_to(alphas, slacks[s, ok[s]].shape), *picked))))
    return [np.flatnonzero(v.any(axis=1)) if n else _NO_HITS for v, n in zip(violated, counts)]


_NO_HITS = np.zeros(0, dtype=int)


def _alpha_array(alphas: Sequence[float]) -> np.ndarray:
    values = [float(a) for a in alphas]
    for a in values:
        _require_alpha(a)
    return np.array(values)


def _b8_slack(c) -> np.ndarray:
    bound = (1.0 - c.b_T) / c.b_S_first * (c.var_s_events + _pow2(c.D))
    return (bound - c.var_t_events).min(axis=1, keepdims=True)


# each deterministic lemma: its slack, and the hypotheses it needs
_LEMMAS = {
    "lemma_b6": (lambda c: c.param_tv - c.C, ()),  # on finite-theta instances only
    "lemma_b2": (lambda c: c.B + c.C - c.tv_pred_bary_s, ()),
    "lemma_b7": (lambda c: c.B + c.C + c.D_learner - c.tv_pred_bary_t, ()),
    "prop1": (lambda c: c.D - c.D_learner, ()),
    "lemma_b9": (lambda c: c.diam_source + c.epsilon - c.D, (_EPS_NEIGHBORHOOD,)),
    "lemma_b10": (lambda c: c.epsilon - c.D, (_EPS_DISTANCE,)),
    "lemma_b8": (_b8_slack, (
        Precondition("shared_support", lambda c: c.shared_support,
                     "requires target support inside the source support"),
        Precondition("first_order_boundedness", lambda c: (c.b_S_first > 0) & (c.b_T > 0),
                     "first-order boundedness fails"),
    )),
}
# every statement checked on finite instances
_CHECKED = tuple(sid for sid in ALL_STATEMENTS if sid not in _THETA_STATEMENTS)


def _check(statement_ids: Sequence[str], comp, alphas: np.ndarray, attempts: np.ndarray,
           reports: Sequence[StatementReport]) -> list[np.ndarray]:
    """Check statement ``s`` of ``statement_ids`` on the instances of a batch that
    ``attempts[:, s]`` marks, into ``reports[s]``.

    A probability statement's exceedance ``P(loss >= margin)`` at every alpha
    of every instance is one masked sum over the target tasks, shared by the
    statements with its loss and margin function; each delta function and
    each precondition is evaluated once too.  A lemma gets one slack per
    instance.  An instance whose hypotheses fail is skipped under the first
    failing one.  Components are (batch, 1) columns, so every value rounds as
    it does for one instance and one alpha.  Returns, per statement, the
    batch positions of the instances with a violation.
    """
    values: dict = {}  # precondition masks, exceedances and deltas, by the function behind them
    probs, lemmas = [], []  # (position, checked instances, exceedances, deltas) and (..., slacks)
    with np.errstate(divide="ignore", invalid="ignore"):  # raised by the skipped instances
        for s, (sid, ok, attempted) in enumerate(zip(statement_ids, attempts.T,
                                                     attempts.any(axis=0).tolist())):
            if not attempted:
                continue
            statement = STATEMENTS.get(sid)
            slack, preconditions = (_LEMMAS[sid] if statement is None
                                    else (None, statement.preconditions))
            for p in preconditions:
                if p.holds not in values:
                    values[p.holds] = np.ravel(p.holds(comp))
                failed = int(np.count_nonzero(ok & ~values[p.holds]))
                if failed:
                    reports[s].skip(p.assumption, failed)
                    ok = ok & values[p.holds]
            if statement is None:
                lemmas.append((s, ok, slack(comp)))
                continue
            key = (statement.loss, statement.margin)
            if key not in values:
                # one row of alphas per instance; the grouping keeps each sum bit for bit
                # the sum of the selected weights of the instance's own target tasks
                margins = statement.margin(comp, alphas)
                selected = comp.losses[statement.loss][:, None, :] >= margins[..., None]
                values[key] = np.where(selected, comp.t_weights[:, None, :], 0.0).sum(axis=2)
            if statement.delta not in values:
                values[statement.delta] = np.broadcast_to(statement.delta(comp, alphas),
                                                          (ok.size, alphas.size))
            probs.append((s, ok, values[key], values[statement.delta]))
        found = {}  # position -> violating rows
        if probs:
            at, checked, exceedances, deltas = map(np.array, zip(*probs))
            found.update(zip(at.tolist(), _record(
                [reports[s] for s in at], checked, deltas - exceedances,
                exceedances > deltas + VIOLATION_TOL, (alphas, exceedances, deltas))))
        if lemmas:
            at, checked, slacks = map(np.array, zip(*lemmas))
            found.update(zip(at.tolist(), _record([reports[s] for s in at], checked, slacks,
                                                  slacks < -SLACK_TOL)))
    return [found.get(s, _NO_HITS) for s in range(len(statement_ids))]


def verify_statement(
    instance: OracleInstance,
    statement_id: str,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
) -> StatementReport:
    """Exactly verify one statement on one instance.

    A probability statement gets one outcome per alpha: the exceedance
    ``P(loss >= margin)`` is a weighted sum over the enumerated target
    support, compared with delta.  A deterministic lemma gets one slack.
    ``lemma_b6`` and ``cor_bayesian`` are checked on ``run_suite``'s
    finite-theta instances.
    """
    alpha_arr = _alpha_array(alphas)
    if statement_id not in _CHECKED:
        raise InvalidArgument(f"{statement_id!r} is not verified on finite instances")
    report = StatementReport(statement_id, keep_outcomes=True)
    _check([statement_id], _components([instance]), alpha_arr, np.ones((1, 1), dtype=bool),
           [report])
    return report


# ---------------------------------------------------------------------------
# Finite-theta instances (Bayesian bound and mixture contraction)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ThetaInstance:
    """Categorical parameter space with exact predictive mixtures."""

    theta_pmfs: np.ndarray      # (j, m) component likelihoods p(x | theta)
    source_weights: np.ndarray  # (j,) true mixing weights, source tasks = components
    candidates: np.ndarray      # (r, j) parameter distributions the learner may select
    p1: np.ndarray              # (j,) the learner's posterior over theta
    T: np.ndarray               # (k_t, m) target tasks
    w_t: np.ndarray             # (k_t,) their weights
    seed: int

    def __post_init__(self):
        for name in ("theta_pmfs", "source_weights", "candidates", "p1", "T", "w_t"):
            _freeze(self, name, getattr(self, name))
        _check_tasks(self.T, self.w_t, None)
        _check_tasks(self.theta_pmfs, None, self.T.shape[1])
        j = self.theta_pmfs.shape[0]
        _check_tasks(self.candidates, None, j)
        for name in ("source_weights", "p1"):
            weights = getattr(self, name)
            if weights.shape != (j,):
                raise InvalidArgument(f"{name} needs one weight per theta ({j}), "
                                      f"got shape {weights.shape}")
            _check_rows(weights, what=name)

    @cached_property
    def target(self) -> FiniteTaskDistribution:
        return FiniteTaskDistribution(self.T, self.w_t)


def _draw_theta_instance(seed: int, rng: np.random.Generator, m_range=(2, 6),
                         theta_range=(2, 8)) -> ThetaInstance:
    """``generate_theta_instance``'s instance, drawn from ``rng``, the Generator of ``seed``.

    The record is unchecked, as ``_draw_instance``'s is: ``_theta_components``
    checks its rows, with those of its chunk group, before any component is read.
    """
    m = int(rng.integers(m_range[0], m_range[1] + 1))
    j = int(rng.integers(theta_range[0], theta_range[1] + 1))
    r = int(rng.integers(2, 9))
    k_t = int(rng.integers(2, 7))
    theta_pmfs, weights, T, w_t = _flat_dirichlet(rng, (j, m), (r + 2, j), (k_t, m), (k_t,))
    source_weights, candidates, p1 = weights[0], weights[1:-1], weights[-1]
    return _unchecked(ThetaInstance, theta_pmfs=theta_pmfs, source_weights=source_weights,
                      candidates=candidates, p1=p1, T=T, w_t=w_t, seed=seed)


def generate_theta_instance(seed: int, m_range=(2, 6), theta_range=(2, 8)) -> ThetaInstance:
    """Deterministic finite-theta instance from ``seed``, with ranges as ``InstanceConfig``'s."""
    _require_range("m_range", m_range, 2)
    _require_range("theta_range", theta_range, 1)
    return replace(_draw_theta_instance(seed, generator(seed), m_range, theta_range))


def _theta_components(insts: Sequence[ThetaInstance]) -> SimpleNamespace:
    """The components ``cor_bayesian`` and ``lemma_b6`` read, for a batch as ``_components``:
    ``_stack``'s on the derived instance, plus ``param_tv``.

    The derived instance has source tasks ``theta_pmfs``, members
    ``candidates @ theta_pmfs`` and predictor ``p1 @ theta_pmfs``.  The rows
    are checked in the padded arrays, in ``ThetaInstance``'s order.
    """
    st = _stack([(t.theta_pmfs, t.source_weights, t.T, t.w_t, t.candidates @ t.theta_pmfs,
                  t.p1 @ t.theta_pmfs) for t in insts])
    n, j = st.w_s.shape
    candidates, p1 = np.zeros((n, st.members.shape[1], j)), np.zeros((n, j))
    for b, inst in enumerate(insts):
        _put_rows(candidates[b], inst.candidates)
        p1[b, :inst.p1.size] = inst.p1
    _check_rows(st.T)
    _check_rows(st.w_t, InvalidTaskDistribution, "task weights")
    _check_rows(st.S)
    _check_rows(candidates)
    _check_rows(st.w_s, what="source_weights")
    _check_rows(p1, what="p1")
    return SimpleNamespace(B=st.B, C=st.C, D=st.D, sup_var_target=st.sup_var_target,
                           t_weights=st.w_t, losses={"tv": st.tv_losses},
                           param_tv=_tv(p1, candidates[np.arange(n), st.best_idx])[:, None])


def _verify_thetas(insts: Sequence[ThetaInstance], alphas: np.ndarray,
                   b6_report: StatementReport, bayes_report: StatementReport) -> None:
    """Check C <= parameter TV and the Bayesian bound, one group of like sizes at a time."""
    for group in _groups([(inst.T.shape[1], inst.p1.size, inst.T.shape[0]) for inst in insts]):
        _check(_THETA_STATEMENTS, _theta_components([insts[g] for g in group]), alphas,
               np.ones((group.size, 2), dtype=bool), [b6_report, bayes_report])


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------


@dataclass
class OracleReport:
    n_instances: int
    seed: int
    alphas: tuple
    max_outcomes: int
    statements: dict  # statement_id -> StatementReport
    looseness_stats: dict
    violation_details: list

    @property
    def total_violations(self) -> int:
        return sum(r.violations for r in self.statements.values())

    def to_dict(self) -> dict:
        out = {
            "n_instances": self.n_instances,
            "seed": self.seed,
            "alphas": list(self.alphas),
            "max_outcomes": self.max_outcomes,
            "total_violations": self.total_violations,
            "statements": {},
            "looseness": self.looseness_stats,
            "violation_details": self.violation_details[:50],
        }
        for sid, rep in sorted(self.statements.items()):
            out["statements"][sid] = {
                "trials": rep.trials,
                "violations": rep.violations,
                "skips": rep.skips,
                "min_slack": None if rep.trials == 0 else rep.min_slack,
                "max_slack": None if rep.trials == 0 else rep.max_slack,
            }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary_lines(self) -> list[str]:
        lines = [f"{'statement':<16} {'trials':>8} {'violations':>10} {'skips':>7} {'min_slack':>12}"]
        for sid, rep in sorted(self.statements.items()):
            ms = "-" if rep.trials == 0 else f"{rep.min_slack:.3e}"
            lines.append(f"{sid:<16} {rep.trials:>8} {rep.violations:>10} {rep.skips:>7} {ms:>12}")
        for sid, rep in sorted(self.statements.items()):
            for reason, count in sorted(rep.skip_reasons.items()):
                lines.append(f"{sid} skipped {count}: {reason}")
        lines.append(f"total violations: {self.total_violations}")
        return lines


# for each mode, whether it attempts each statement checked on finite instances
_ATTEMPTS = {mode: [sid in sids for sid in _CHECKED] for mode, sids in _MODE_STATEMENTS.items()}


@lru_cache(maxsize=16)
def _mode_configs(config_type, max_outcomes: int) -> dict:
    """The ``config_type`` of each constraint mode on up to ``max_outcomes`` outcomes, built once
    per class and count, so that a substituted ``InstanceConfig`` takes effect."""
    return {mode: config_type(m_range=(2, max_outcomes), constraint=mode)
            for mode in CONSTRAINT_MODES}


def _run_range(args) -> dict:
    seed, start, stop, alphas, max_outcomes = args
    alphas = np.asarray(alphas)
    statements = {sid: StatementReport(sid) for sid in ALL_STATEMENTS}
    loos = np.empty(stop - start)
    violated: list[tuple] = []  # (instance index, rank in its mode's statements, id, seed)
    modes = CONSTRAINT_MODES
    configs = _mode_configs(InstanceConfig, max_outcomes)
    for lo in range(start, stop, _CHUNK):
        # the instance seeds (seed, i), hashed as (seed, i, 0), the theta seeds
        # (seed, i, 777) and the Generators of both, one hash pass each
        index = np.arange(lo, min(lo + _CHUNK, stop))
        seeds = derive_seeds(seed, np.concatenate([index, index]), np.repeat([0, 777], index.size))
        words = stream_words(seeds)
        inst_seeds, theta_seeds = seeds[:index.size].tolist(), seeds[index.size:].tolist()
        insts = [_draw_instance(s, configs[modes[i % len(modes)]], generator_from_words(w))
                 for i, s, w in zip(index.tolist(), inst_seeds, words)]
        for group in _instance_groups(insts):
            batch = [insts[g] for g in group]
            comp = _components(batch)
            loos[group + (lo - start)] = _looseness(comp)
            attempts = np.array([_ATTEMPTS[inst.constraint] for inst in batch])
            for sid, hits in zip(_CHECKED, _check(_CHECKED, comp, alphas, attempts,
                                                    [statements[sid] for sid in _CHECKED])):
                violated.extend((lo + g, _MODE_STATEMENTS[insts[g].constraint].index(sid),
                                 sid, insts[g].seed) for g in group[hits])
        thetas = [_draw_theta_instance(s, generator_from_words(w))
                  for s, w in zip(theta_seeds, words[index.size:])]
        _verify_thetas(thetas, alphas, statements["lemma_b6"], statements["cor_bayesian"])
    details = [{"statement": sid, "instance_seed": inst_seed, "mode": modes[i % len(modes)]}
               for i, _, sid, inst_seed in sorted(violated)[:50]]
    return {"statements": statements, "looseness": loos.tolist(), "details": details}


def _merge_reports(into: StatementReport, other: StatementReport) -> None:
    into.trials += other.trials
    into.violations += other.violations
    into.skips += other.skips
    into.skip_reasons.update(other.skip_reasons)
    into.min_slack = min(into.min_slack, other.min_slack)
    into.max_slack = max(into.max_slack, other.max_slack)


def run_suite(
    n_instances: int,
    seed: int = 0,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    max_outcomes: int = 6,
    threads: int = 1,
) -> OracleReport:
    """Verify every statement over ``n_instances`` seeded random instances.

    Constraint modes cycle deterministically by instance index, so every
    conditional statement sees instances satisfying its hypotheses.  Results
    are identical for any ``threads`` value: the index range is partitioned,
    one range per worker process that ``workers.worker_count`` allows, and
    partial aggregates merge in order.
    """
    n_instances = require_int("n_instances", n_instances, 1)
    if n_instances > 2**32:  # instance i's seed path (seed, i, 0) is (seed, i) while i < 2**32
        raise InvalidArgument(f"n_instances must be <= 2**32, got {n_instances}")
    max_outcomes = require_int("max_outcomes", max_outcomes, 2)
    normalize_seed(seed)  # a seed out of range fails here, before any worker starts
    alphas = tuple(_alpha_array(alphas).tolist())
    bounds = np.linspace(0, n_instances, worker_count(threads, n_instances) + 1).astype(int)
    payloads = [(seed, int(a), int(b), alphas, max_outcomes) for a, b in zip(bounds, bounds[1:])]
    chunks = map_payloads(_run_range, payloads, threads)

    statements = {sid: StatementReport(sid) for sid in ALL_STATEMENTS}
    loos: list[float] = []
    details: list[dict] = []
    for chunk in chunks:
        for sid, rep in chunk["statements"].items():
            _merge_reports(statements[sid], rep)
        loos.extend(chunk["looseness"])
        details.extend(chunk["details"])
    arr = np.asarray(loos)
    loose_stats = {
        "mean": float(arr.mean()),
        "min": float(arr.min()),
        "max": float(arr.max()),
    }
    return OracleReport(
        n_instances=n_instances,
        seed=seed,
        alphas=alphas,
        max_outcomes=max_outcomes,
        statements=statements,
        looseness_stats=loose_stats,
        violation_details=details[:50],
    )


# ---------------------------------------------------------------------------
# Negative-transfer geometry scans
# ---------------------------------------------------------------------------


def _max_feasible_extension(base: np.ndarray, direction: np.ndarray) -> float:
    """Largest mu >= 0 keeping base + mu*direction inside the simplex."""
    neg = direction < 0
    if not np.any(neg):
        return np.inf
    return float((base[neg] / -direction[neg]).min())


def negative_transfer_scan(
    seed: int = 0,
    n_instances: int = 100,
    n_points: int = 101,
) -> dict:
    """Monotonicity of epistemic error along predictor interpolation paths.

    For each instance the predictor moves linearly from a start point, drawn
    at TV >= 0.05 from the source barycenter, toward that barycenter.  In the
    positive-transfer geometry (target beyond the barycenter) error must
    strictly decrease at every step; in the negative-transfer geometry
    (target behind the start point) it must strictly increase.
    """
    n_instances = require_int("n_instances", n_instances, 1)
    n_points = require_int("n_points", n_points, 2)  # one point has no step to check
    rng_master = generator(seed)
    lambdas = np.linspace(0.0, 1.0, n_points)
    violations = {"positive": 0, "negative": 0}
    for _ in range(n_instances):
        for _attempt in range(1000):
            m = int(rng_master.integers(2, 7))
            k = int(rng_master.integers(2, 7))
            S = rng_master.dirichlet(np.ones(m), size=k)
            bary = rng_master.dirichlet(np.ones(k)) @ S
            p0 = rng_master.dirichlet(np.ones(m))
            if 0.5 * np.abs(p0 - bary).sum() >= 0.05:
                break
        else:
            raise GenerationFailure("could not separate the start predictor from the barycenter")
        path = (1.0 - lambdas)[:, None] * p0[None, :] + lambdas[:, None] * bary[None, :]

        # positive transfer: target on the far side of the barycenter
        d_pos = bary - p0
        mu = _max_feasible_extension(bary, d_pos)
        q_pos = bary + (0.0 if not np.isfinite(mu) else 0.5 * mu) * d_pos
        errs = 0.5 * np.abs(path - q_pos[None, :]).sum(axis=1)
        if not np.all(np.diff(errs) < 0.0):
            violations["positive"] += 1

        # negative transfer: target behind the start predictor
        d_neg = p0 - bary
        mu = _max_feasible_extension(p0, d_neg)
        q_neg = p0 + (0.0 if not np.isfinite(mu) else 0.5 * mu) * d_neg
        errs = 0.5 * np.abs(path - q_neg[None, :]).sum(axis=1)
        if not np.all(np.diff(errs) > 0.0):
            violations["negative"] += 1
    return {
        "instances": n_instances,
        "points": n_points,
        "violations": violations,
        "total_violations": violations["positive"] + violations["negative"],
    }
