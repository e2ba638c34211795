"""Exact verification of every bound statement on random finite instances.

Instances are small categorical worlds (2..6 outcomes, 2..6 tasks per task
distribution) where every total variation distance, variance and exceedance
probability is a finite sum, so each statement's tail probability is
computed exactly by enumeration: zero sampling noise.  Constraint modes
force the hypotheses of the conditional statements (no shift, perfect
learning, the two total-variation-neighborhood assumptions) to hold by
construction.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from .distributions import (
    PROB_TOL,
    Categorical,
    FiniteTaskDistribution,
    _check_rows,
    _event_masks,
    _freeze,
    _first_order_b,
    _matched_tv,
    _second_order_b,
)
from .bounds import STATEMENTS, ModelClass, _require_alpha
from .errors import GenerationFailure, InvalidArgument, InvalidTaskDistribution
from .seeding import derive_seed, normalize_seed

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
_THETA_STATEMENTS = ("cor_bayesian",)  # verified on finite-theta instances
PROB_STATEMENTS = tuple(
    sid for sid in STATEMENTS if sid in _INSTANCE_STATEMENTS or sid in _THETA_STATEMENTS
)
LEMMA_STATEMENTS = ("lemma_b2", "lemma_b6", "lemma_b7", "lemma_b8", "lemma_b9",
                    "lemma_b10", "prop1")
ALL_STATEMENTS = PROB_STATEMENTS + LEMMA_STATEMENTS


@dataclass(frozen=True)
class InstanceConfig:
    m_range: tuple[int, int] = (2, 6)
    tasks_range: tuple[int, int] = (2, 6)
    members_range: tuple[int, int] = (3, 20)
    constraint: str = "none"
    epsilon: Optional[float] = None  # drawn from U[0.02, 0.5] when None and constrained
    max_attempts: int = 1000

    def __post_init__(self):
        if self.constraint not in CONSTRAINT_MODES:
            raise InvalidArgument(f"unknown constraint mode {self.constraint!r}")
        if self.m_range[1] > 12:
            raise InvalidArgument("oracle instances need m <= 12 for exhaustive event families")


def _check_tasks(P: np.ndarray, w: Optional[np.ndarray], m: Optional[int]) -> None:
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
    shared: bool = field(init=False)

    def __post_init__(self):
        for name in ("S", "w_s", "T", "w_t", "members", "pred"):
            _freeze(self, name, getattr(self, name))
        object.__setattr__(self, "shared", self.T is self.S)
        if self.pred.ndim != 1 or self.pred.size == 0:
            raise InvalidArgument("probability vector must be 1-D and nonempty")
        _check_rows(self.pred)
        _check_tasks(self.S, self.w_s, self.m)
        if not (self.shared and self.w_t is self.w_s):
            _check_tasks(self.T, self.w_t, self.m)
        _check_tasks(self.members, None, self.m)

    @classmethod
    def from_distributions(
        cls,
        source: FiniteTaskDistribution,
        target: FiniteTaskDistribution,
        model: ModelClass,
        predictor: Categorical,
        seed: int = 0,
        constraint: str = "none",
        epsilon: Optional[float] = None,
    ) -> "OracleInstance":
        """An instance from categorical distribution objects, which become its views."""
        S = np.stack([t.p for t in source.tasks])  # type: ignore[union-attr]
        shared = target.tasks == source.tasks  # Categorical compares by identity
        T = S if shared else np.stack([t.p for t in target.tasks])  # type: ignore[union-attr]
        members = np.stack([mm.p for mm in model.members])  # type: ignore[union-attr]
        inst = cls(S, source.weights, T, target.weights, members, predictor.p,
                   seed, constraint, epsilon)
        inst.__dict__.update(source=source, target=target, model=model, predictor=predictor)
        return inst

    @property
    def m(self) -> int:
        return self.pred.size

    @cached_property
    def source(self) -> FiniteTaskDistribution:
        return FiniteTaskDistribution(tuple(Categorical(p) for p in self.S), self.w_s)

    @cached_property
    def target(self) -> FiniteTaskDistribution:
        if not self.shared:
            return FiniteTaskDistribution(tuple(Categorical(p) for p in self.T), self.w_t)
        if self.w_t is self.w_s:
            return self.source
        return FiniteTaskDistribution(self.source.tasks, self.w_t)

    @cached_property
    def model(self) -> ModelClass:
        return ModelClass(tuple(Categorical(p) for p in self.members))

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


def _tv_vec(P: np.ndarray, q: np.ndarray) -> np.ndarray:
    return 0.5 * np.abs(P - q[None, :]).sum(axis=1)


def _project_into_ball(t: np.ndarray, s: np.ndarray, eps: float, attempts: int) -> np.ndarray:
    """Clip t into an L-inf box around s, renormalize, shrink until TV <= eps."""
    eta = eps
    for _ in range(attempts):
        clipped = np.clip(t, np.maximum(s - eta, 0.0), np.minimum(s + eta, 1.0))
        total = clipped.sum()
        if total > 0:
            cand = clipped / total
            if 0.5 * np.abs(cand - s).sum() <= eps:
                return cand
        eta *= 0.5
    raise GenerationFailure(f"could not project a task into the TV {eps}-ball")


def generate_instance(seed: int, config: InstanceConfig = InstanceConfig()) -> OracleInstance:
    """Deterministic instance from ``seed``; flat-simplex weights and tasks."""
    rng = np.random.default_rng(normalize_seed(seed))
    m = int(rng.integers(config.m_range[0], config.m_range[1] + 1))
    k_s = int(rng.integers(config.tasks_range[0], config.tasks_range[1] + 1))
    k_t = int(rng.integers(config.tasks_range[0], config.tasks_range[1] + 1))

    flat_m, flat_s, flat_t = np.ones(m), np.ones(k_s), np.ones(k_t)  # Dirichlet parameters

    S = rng.dirichlet(flat_m, size=k_s)
    w_s = rng.dirichlet(flat_s)

    n_members = int(rng.integers(config.members_range[0], config.members_range[1] + 1))
    members = rng.dirichlet(flat_m, size=n_members)

    if config.constraint == "perfect_no_shift":
        pred = w_s @ S
    elif rng.random() < 0.5:
        pred = members[int(rng.integers(n_members))]
    else:
        pred = rng.dirichlet(flat_m)

    epsilon = config.epsilon
    if config.constraint in ("assumption1", "assumption2") and epsilon is None:
        epsilon = float(rng.uniform(0.02, 0.5))

    if config.constraint in ("no_shift", "perfect_no_shift"):
        T, w_t = S, w_s
    elif config.constraint == "assumption1":
        rows = []
        for _ in range(k_t):
            anchor = S[int(rng.integers(k_s))]
            raw = rng.dirichlet(flat_m)
            rows.append(_project_into_ball(raw, anchor, epsilon, config.max_attempts))
        T, w_t = np.stack(rows), rng.dirichlet(flat_t)
    elif config.constraint == "assumption2":
        raw = rng.dirichlet(flat_s)
        dist = 0.5 * np.abs(w_s - raw).sum()
        if dist > epsilon:
            raw = w_s + (epsilon / dist) * (1.0 - 1e-12) * (raw - w_s)
            raw = np.maximum(raw, 0.0)
            raw = raw / raw.sum()
        if 0.5 * np.abs(w_s - raw).sum() > epsilon:
            raise GenerationFailure("assumption-2 weight projection failed")
        T, w_t = S, raw
    else:
        T = rng.dirichlet(flat_m, size=k_t)
        w_t = rng.dirichlet(flat_t)

    return OracleInstance(S, w_s, T, w_t, members, pred, seed, config.constraint, epsilon)


# ---------------------------------------------------------------------------
# Exact per-instance components
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Components:
    """Exact components of one instance, under the names ``bounds.STATEMENTS`` reads."""

    B: float
    C: float
    D: float
    D_learner: float
    sup_var_target: float
    sup_var_source: float
    diam_source: float
    epsilon: float            # NaN when the instance has none
    b_S: float                # the largest b the source is first- and second-order bounded by
    b_S_first: float          # the largest b the source is first-order bounded by
    b_T: float                # the largest b the target is first-order bounded by
    b_pred: float             # the predictor's smallest positive probability
    tv_pred_bary_s: float
    tv_pred_bary_t: float
    t_weights: np.ndarray
    losses: dict              # loss name -> its value on each target support task
    var_s_events: np.ndarray  # per-event source variances (2^m,)
    var_t_events: np.ndarray
    shared_support: bool      # identical task tuples (weights may differ)
    no_shift: bool            # identical task distributions
    max_tv_to_source: float   # over target tasks: TV to the nearest source task
    dist_tv: float            # TV between the two task distributions
    support_covered: bool     # every target task inside the predictor's support
    finite_space = True  # oracle instances are categorical
    # b_S and b_T are already the largest valid values
    max_b_S = property(lambda self: self.b_S)
    max_b_T = property(lambda self: self.b_T)


def compute_components(inst: OracleInstance) -> _Components:
    S, T, w_s, w_t = inst.S, inst.T, inst.w_s, inst.w_t
    members, pred = inst.members, inst.pred
    bary_s, bary_t = w_s @ S, w_t @ T

    dists = _tv_vec(members, bary_s)
    best_idx = int(np.argmin(dists))  # np.argmin returns the first minimum
    best = members[best_idx]
    B = float(dists[best_idx])
    C = float(0.5 * np.abs(pred - best).sum())
    D = float(0.5 * np.abs(bary_s - bary_t).sum())
    D_learner = float(0.5 * np.abs(best - bary_t).sum()) - B

    masks = _event_masks(inst.m)
    var_s = w_s @ ((S @ masks.T) - bary_s @ masks.T) ** 2
    var_t = w_t @ ((T @ masks.T) - bary_t @ masks.T) ** 2
    diam = float(0.5 * np.abs(S[:, None, :] - S[None, :, :]).sum(axis=2).max())

    ers = _tv_vec(T, pred)
    hell_t = 0.5 * ((np.sqrt(T) - np.sqrt(pred)[None, :]) ** 2).sum(axis=1)

    gaps = np.abs(T[:, None, :] - S[None, :, :])  # (k_t, k_s, m)
    cross = 0.5 * gaps.sum(axis=2)
    if inst.shared:
        dist_tv = float(0.5 * np.abs(w_s - w_t).sum())
    else:
        # task_distribution_tv's matching, with source task i close to target task j
        close = (gaps.max(axis=2) <= PROB_TOL).T
        dist_tv = _matched_tv(w_s, w_t, lambda i, j: close[i, j])

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(T > 0, T / np.where(pred > 0, pred, np.nan), 1.0)
        kl_rows = np.where(T > 0, T * np.log(ratio), 0.0)
    nan = np.isnan(kl_rows)  # target mass where the predictor has none
    leaks = nan.any(axis=1)
    kl_t_pred = np.where(leaks, np.inf, np.where(nan, 0.0, kl_rows).sum(axis=1))

    b_S_first = _first_order_b(w_s)
    return _Components(
        B=B,
        C=C,
        D=D,
        D_learner=D_learner,
        sup_var_target=float(var_t.max()),
        sup_var_source=float(var_s.max()),
        diam_source=diam,
        epsilon=np.nan if inst.epsilon is None else inst.epsilon,
        b_S=min(b_S_first, _second_order_b(S)),
        b_S_first=b_S_first,
        b_T=_first_order_b(w_t),
        b_pred=float(pred[pred > 0].min()),
        tv_pred_bary_s=float(0.5 * np.abs(pred - bary_s).sum()),
        tv_pred_bary_t=float(0.5 * np.abs(pred - bary_t).sum()),
        t_weights=w_t,
        losses={"tv": ers, "l1": 2.0 * ers, "hellinger_sq": hell_t, "excess_ce": kl_t_pred},
        var_s_events=var_s,
        var_t_events=var_t,
        shared_support=inst.shared,
        no_shift=inst.shared and dist_tv <= 1e-12,
        max_tv_to_source=float(cross.min(axis=1).max()),
        dist_tv=dist_tv,
        support_covered=not leaks.any(),
    )


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
    skip_reason: Optional[str] = None
    min_slack: float = np.inf
    max_slack: float = -np.inf
    keep_outcomes: bool = False
    outcomes: list = field(default_factory=list)

    def record_batch(self, alphas: np.ndarray, exceedances: np.ndarray,
                     deltas: np.ndarray) -> None:
        """One outcome per alpha; ``AlphaOutcome``s are kept only with ``keep_outcomes``."""
        if not alphas.size:
            return
        slacks = deltas - exceedances
        violated = exceedances > deltas + VIOLATION_TOL
        self.trials += alphas.size
        self.violations += int(np.count_nonzero(violated))
        slack_list = slacks.tolist()  # Python's min over a few floats beats a numpy reduction
        self.min_slack = min(self.min_slack, *slack_list)
        self.max_slack = max(self.max_slack, *slack_list)
        if self.keep_outcomes:
            self.outcomes.extend(map(AlphaOutcome, alphas.tolist(), exceedances.tolist(),
                                     deltas.tolist(), slack_list, violated.tolist()))

    def record_slack(self, slack: float) -> None:
        self.trials += 1
        violated = slack < -SLACK_TOL
        self.violations += int(violated)
        self.min_slack = min(self.min_slack, slack)
        self.max_slack = max(self.max_slack, slack)


def _skip(report: StatementReport, reason: str) -> None:
    report.skips += 1
    report.skip_reason = reason


def _alpha_array(alphas: Sequence[float]) -> np.ndarray:
    values = [float(a) for a in alphas]
    for a in values:
        _require_alpha(a)
    return np.array(values)


def _verify_probability_statement(comp, alphas: np.ndarray, report: StatementReport) -> None:
    """Exact ``P(loss >= margin)`` against delta at every alpha, for ``report``'s statement."""
    statement = STATEMENTS[report.statement_id]
    unmet = statement.unmet(comp)
    if unmet is not None:
        _skip(report, unmet.assumption)
        return
    margins = statement.margin(comp, alphas)
    deltas = statement.delta(comp, alphas)
    losses = comp.losses[statement.loss]
    # one row per alpha; adding the zeros of the masked-out tasks in index order
    # gives the sum of the selected weights for up to 7 target tasks, bit for bit
    exceedances = np.where(losses >= margins[:, None], comp.t_weights, 0.0).sum(axis=1)
    report.record_batch(alphas, exceedances, deltas)


def _verify_lemma(comp: _Components, statement_id: str, report: StatementReport) -> None:
    if statement_id == "lemma_b2":
        report.record_slack(comp.B + comp.C - comp.tv_pred_bary_s)
    elif statement_id == "lemma_b7":
        report.record_slack(comp.B + comp.C + comp.D_learner - comp.tv_pred_bary_t)
    elif statement_id == "prop1":
        report.record_slack(comp.D - comp.D_learner)
    elif statement_id == "lemma_b9":
        if not comp.max_tv_to_source <= comp.epsilon + 1e-12:  # false for a NaN epsilon
            _skip(report, "requires a per-task TV neighborhood")
            return
        report.record_slack(comp.diam_source + comp.epsilon - comp.D)
    elif statement_id == "lemma_b10":
        if not comp.dist_tv <= comp.epsilon + 1e-12:
            _skip(report, "requires the distribution-level TV neighborhood")
            return
        report.record_slack(comp.epsilon - comp.D)
    elif statement_id == "lemma_b8":
        if not comp.shared_support:
            _skip(report, "requires target support inside the source support")
            return
        b_S, b_T = comp.b_S_first, comp.b_T
        if b_S <= 0 or b_T <= 0:
            _skip(report, "first-order boundedness fails")
            return
        bound = (1.0 - b_T) / b_S * (comp.var_s_events + comp.D**2)
        report.record_slack(float((bound - comp.var_t_events).min()))
    else:
        raise InvalidArgument(f"unknown lemma id {statement_id!r}")


def verify_statement(
    instance: OracleInstance,
    statement_id: str,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
) -> StatementReport:
    """Exactly verify one statement on one instance.

    A probability statement gets one outcome per alpha: the exceedance
    ``P(loss >= margin)`` is a weighted sum over the enumerated target
    support, compared with delta.  A deterministic lemma gets one slack.
    ``cor_bayesian`` needs a finite-theta instance (``verify_theta_instance``).
    """
    alpha_arr = _alpha_array(alphas)
    report = StatementReport(statement_id, keep_outcomes=True)
    comp = compute_components(instance)
    if statement_id in LEMMA_STATEMENTS:
        _verify_lemma(comp, statement_id, report)
    elif statement_id in _INSTANCE_STATEMENTS:
        _verify_probability_statement(comp, alpha_arr, report)
    else:
        raise InvalidArgument(f"{statement_id!r} is not verified on finite instances")
    return report


def looseness(instance: OracleInstance) -> float:
    """Mean over exact target weights of tv(pred, Q_t), minus (C + D)."""
    comp = compute_components(instance)
    return float(comp.t_weights @ comp.losses["tv"]) - (comp.C + comp.D)


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
        for name in ("T", "w_t"):
            _freeze(self, name, getattr(self, name))
        _check_tasks(self.T, self.w_t, None)

    @cached_property
    def target(self) -> FiniteTaskDistribution:
        return FiniteTaskDistribution(tuple(Categorical(p) for p in self.T), self.w_t)


def generate_theta_instance(seed: int, m_range=(2, 6), theta_range=(2, 8)) -> ThetaInstance:
    rng = np.random.default_rng(seed)
    m = int(rng.integers(m_range[0], m_range[1] + 1))
    j = int(rng.integers(theta_range[0], theta_range[1] + 1))
    r = int(rng.integers(2, 9))
    k_t = int(rng.integers(2, 7))
    theta_pmfs = rng.dirichlet(np.ones(m), size=j)
    source_weights = rng.dirichlet(np.ones(j))
    candidates = rng.dirichlet(np.ones(j), size=r)
    p1 = rng.dirichlet(np.ones(j))
    T = rng.dirichlet(np.ones(m), size=k_t)
    w_t = rng.dirichlet(np.ones(k_t))
    return ThetaInstance(theta_pmfs, source_weights, candidates, p1, T, w_t, seed)


def verify_theta_instance(
    inst: ThetaInstance, alphas: Sequence[float], b6_report: StatementReport,
    bayes_report: StatementReport,
) -> None:
    """Check mixture contraction (C <= parameter TV) and the Bayesian bound."""
    alphas = _alpha_array(alphas)
    bary_s = inst.source_weights @ inst.theta_pmfs
    predictives = inst.candidates @ inst.theta_pmfs  # (r, m)
    dists = _tv_vec(predictives, bary_s)
    star = int(np.argmin(dists))
    B = float(dists[star])
    predictor = inst.p1 @ inst.theta_pmfs
    C = float(0.5 * np.abs(predictor - predictives[star]).sum())
    param_tv = float(0.5 * np.abs(inst.p1 - inst.candidates[star]).sum())
    b6_report.record_slack(param_tv - C)

    T, w_t = inst.T, inst.w_t
    bary_t = w_t @ T
    masks = _event_masks(T.shape[1])
    comp = SimpleNamespace(
        B=B,
        param_tv=param_tv,
        D=float(0.5 * np.abs(bary_s - bary_t).sum()),
        sup_var_target=float((w_t @ ((T @ masks.T) - bary_t @ masks.T) ** 2).max()),
        t_weights=w_t,
        losses={"tv": _tv_vec(T, predictor)},
    )
    _verify_probability_statement(comp, alphas, bayes_report)


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
        lines.append(f"total violations: {self.total_violations}")
        return lines


def _run_range(args) -> dict:
    seed, start, stop, alphas, max_outcomes = args
    alphas = np.asarray(alphas)
    statements = {sid: StatementReport(sid) for sid in ALL_STATEMENTS}
    loos: list[float] = []
    details: list[dict] = []
    modes = CONSTRAINT_MODES
    configs = {mode: InstanceConfig(m_range=(2, max_outcomes), constraint=mode) for mode in modes}
    for i in range(start, stop):
        mode = modes[i % len(modes)]
        inst = generate_instance(derive_seed(seed, i), configs[mode])
        comp = compute_components(inst)
        for sid in _MODE_STATEMENTS[mode]:
            rep = statements[sid]
            before = rep.violations
            if sid in PROB_STATEMENTS:
                _verify_probability_statement(comp, alphas, rep)
            else:
                _verify_lemma(comp, sid, rep)
            if rep.violations > before and len(details) < 50:
                details.append({"statement": sid, "instance_seed": inst.seed, "mode": mode})
        loos.append(float(comp.t_weights @ comp.losses["tv"]) - (comp.C + comp.D))
        theta = generate_theta_instance(derive_seed(seed, i, 777))
        verify_theta_instance(theta, alphas, statements["lemma_b6"], statements["cor_bayesian"])
    return {"statements": statements, "looseness": loos, "details": details}


def _merge_reports(into: StatementReport, other: StatementReport) -> None:
    into.trials += other.trials
    into.violations += other.violations
    into.skips += other.skips
    into.skip_reason = into.skip_reason or other.skip_reason
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
    are identical for any ``threads`` value: the index range is partitioned
    and partial aggregates merge in order.
    """
    alphas = tuple(_alpha_array(alphas).tolist())
    if threads <= 1 or n_instances < 2 * threads:
        chunks = [_run_range((seed, 0, n_instances, alphas, max_outcomes))]
    else:
        bounds = np.linspace(0, n_instances, threads + 1).astype(int)
        payloads = [
            (seed, int(bounds[i]), int(bounds[i + 1]), alphas, max_outcomes)
            for i in range(threads)
        ]
        with ProcessPoolExecutor(max_workers=threads) as ex:
            chunks = list(ex.map(_run_range, payloads))

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
    min_separation: float = 0.05,
) -> dict:
    """Monotonicity of epistemic error along predictor interpolation paths.

    For each instance the predictor moves linearly from a start point toward
    the source barycenter.  In the positive-transfer geometry (target beyond
    the barycenter) error must strictly decrease at every step; in the
    negative-transfer geometry (target behind the start point) it must
    strictly increase.
    """
    rng_master = np.random.default_rng(normalize_seed(seed))
    lambdas = np.linspace(0.0, 1.0, n_points)
    violations = {"positive": 0, "negative": 0}
    for _ in range(n_instances):
        for _attempt in range(1000):
            m = int(rng_master.integers(2, 7))
            k = int(rng_master.integers(2, 7))
            S = rng_master.dirichlet(np.ones(m), size=k)
            bary = rng_master.dirichlet(np.ones(k)) @ S
            p0 = rng_master.dirichlet(np.ones(m))
            if 0.5 * np.abs(p0 - bary).sum() >= min_separation:
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
