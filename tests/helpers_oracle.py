"""Independent brute-force oracles shared by module and acceptance tests."""

import math
from types import SimpleNamespace

import numpy as np


def grid_posterior_moments(model, data, noise_variance, n=401, lo=-5.0, hi=5.0):
    """Grid-quadrature posterior moments: trapezoid rule on [lo, hi]^2.

    Deliberately independent of the conjugate algebra it cross-checks.
    """
    g = np.linspace(lo, hi, n)
    b1, b2 = np.meshgrid(g, g, indexing="ij")
    logp = -((b1 - model.beta0[0]) ** 2 + (b2 - model.beta0[1]) ** 2) / (2 * model.sigma0_sq)
    for xi, x in zip(data.xi, data.x):
        logp -= (x - (b1 * xi[0] + b2 * xi[1])) ** 2 / (2 * noise_variance)
    logp -= logp.max()
    w = np.exp(logp)
    t = np.ones(n)
    t[0] = t[-1] = 0.5
    w = w * t[:, None] * t[None, :]
    z = w.sum()
    m1, m2 = (w * b1).sum() / z, (w * b2).sum() / z
    cov = np.array([
        [(w * (b1 - m1) ** 2).sum() / z, (w * (b1 - m1) * (b2 - m2)).sum() / z],
        [(w * (b1 - m1) * (b2 - m2)).sum() / z, (w * (b2 - m2) ** 2).sum() / z],
    ])
    return np.array([m1, m2]), cov


def quad_posterior_mass(post, center, radius):
    """The posterior mass of a square by adaptive quadrature, one posterior at a time.

    This is the scalar path that ``bayes._posterior_mass_stack`` replays and
    falls back to, kept as the reference it must equal bit for bit, warnings
    included: ``quad`` over the outer coordinate, narrowed to its mean +-
    ``OUTER_SDS`` sds, of the inner coordinate's conditional-Gaussian probability.
    """
    from scipy.integrate import quad
    from scipy.special import ndtr

    from epibound.bayes import MASS_EPSABS, MASS_EPSREL, OUTER_SDS

    center = np.asarray(center, dtype=float)
    m1, m2 = post.mean
    s11, s12, s22 = post.covariance[0, 0], post.covariance[0, 1], post.covariance[1, 1]
    cond_sd = math.sqrt(max(s22 - s12**2 / s11, 1e-300))
    sd1 = math.sqrt(s11)
    lo = max(center[0] - radius, m1 - OUTER_SDS * sd1)
    hi = min(center[0] + radius, m1 + OUTER_SDS * sd1)
    if not lo < hi:
        return 0.0

    def integrand(u):
        cm = m2 + s12 / s11 * (u - m1)
        inner = (ndtr((center[1] + radius - cm) / cond_sd)
                 - ndtr((center[1] - radius - cm) / cond_sd))
        z = (u - m1) / sd1
        return float(inner) * math.exp(-0.5 * z * z) / (sd1 * math.sqrt(2.0 * math.pi))

    val, _ = quad(integrand, lo, hi, epsabs=MASS_EPSABS, epsrel=MASS_EPSREL, limit=200)
    return min(max(val, 0.0), 1.0)


def reference_matched_tv(w_a, w_b, close) -> float:
    """Greedy-matching TV, one ``close(i, j)`` call per pair looked at: each a-task
    takes the first unused b-task close to it, and unmatched tasks count in full."""
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


def component_instance(comp, b, inst):
    """Instance ``b`` of a batch of ``oracle._components`` alone, ``inst`` being that instance.

    Scalar components become Python scalars, per-task ones ``(k_t,)`` arrays and
    per-event variances ``(2^m,)`` arrays, cut at the instance's own counts.
    """
    k, events = inst.T.shape[0], 2**inst.m
    per_instance = {
        "t_weights": comp.t_weights[b, :k],
        "losses": {name: v[b, :k] for name, v in comp.losses.items()},
        "var_s_events": comp.var_s_events[b, :events],
        "var_t_events": comp.var_t_events[b, :events],
    }
    scalars = {name: v[b, 0].item() for name, v in vars(comp).items()
               if name not in per_instance and isinstance(v, np.ndarray)}
    return SimpleNamespace(**{**vars(comp), **scalars, **per_instance})


def reference_components(inst):
    """The exact components of one oracle instance, computed on its own arrays.

    This is the per-instance computation the batched ``oracle._components``
    replaced, kept as the reference it must equal bit for bit: scalar
    components are Python floats or bools, per-task ones ``(k_t,)`` arrays and
    per-event variances ``(2^m,)`` arrays.
    """
    from epibound.distributions import PROB_TOL, _event_masks

    def tv_vec(P, q):
        return 0.5 * np.abs(P - q[None, :]).sum(axis=1)

    def first_order_b(weights):
        w = weights[weights > 0]
        return float(min(w.min(), 1.0 - w.max()))

    def second_order_b(P):
        return 0.0 if (P <= 0).any() else min(1.0, float(P.min()))

    S, T, w_s, w_t = inst.S, inst.T, inst.w_s, inst.w_t
    members, pred = inst.members, inst.pred
    bary_s, bary_t = w_s @ S, w_t @ T

    dists = tv_vec(members, bary_s)
    best_idx = int(np.argmin(dists))
    best = members[best_idx]
    B = float(dists[best_idx])
    C = float(0.5 * np.abs(pred - best).sum())
    D = float(0.5 * np.abs(bary_s - bary_t).sum())
    D_learner = float(0.5 * np.abs(best - bary_t).sum()) - B

    masks = _event_masks(inst.m)
    var_s = w_s @ ((S @ masks.T) - bary_s @ masks.T) ** 2
    var_t = w_t @ ((T @ masks.T) - bary_t @ masks.T) ** 2
    diam = float(0.5 * np.abs(S[:, None, :] - S[None, :, :]).sum(axis=2).max())

    ers = tv_vec(T, pred)
    hell_t = 0.5 * ((np.sqrt(T) - np.sqrt(pred)[None, :]) ** 2).sum(axis=1)

    gaps = np.abs(T[:, None, :] - S[None, :, :])
    cross = 0.5 * gaps.sum(axis=2)
    if inst.shared:
        dist_tv = float(0.5 * np.abs(w_s - w_t).sum())
    else:
        close = (gaps.max(axis=2) <= PROB_TOL).T
        dist_tv = reference_matched_tv(w_s, w_t, lambda i, j: close[i, j])

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(T > 0, T / np.where(pred > 0, pred, np.nan), 1.0)
        kl_rows = np.where(T > 0, T * np.log(ratio), 0.0)
    nan = np.isnan(kl_rows)
    leaks = nan.any(axis=1)
    kl_t_pred = np.where(leaks, np.inf, np.where(nan, 0.0, kl_rows).sum(axis=1))
    live = w_t > 0

    b_S_first = first_order_b(w_s)
    return {
        "B": B,
        "C": C,
        "D": D,
        "D_learner": D_learner,
        "sup_var_target": float(var_t.max()),
        "sup_var_source": float(var_s.max()),
        "diam_source": diam,
        "epsilon": np.nan if inst.epsilon is None else inst.epsilon,
        "b_S": min(b_S_first, second_order_b(S)),
        "b_S_first": b_S_first,
        "b_T": first_order_b(w_t),
        "b_pred": float(pred[pred > 0].min()),
        "tv_pred_bary_s": float(0.5 * np.abs(pred - bary_s).sum()),
        "tv_pred_bary_t": float(0.5 * np.abs(pred - bary_t).sum()),
        "t_weights": w_t,
        "losses": {"tv": ers, "l1": 2.0 * ers, "hellinger_sq": hell_t, "excess_ce": kl_t_pred},
        "var_s_events": var_s,
        "var_t_events": var_t,
        "shared_support": inst.shared,
        "no_shift": dist_tv <= PROB_TOL,
        "max_tv_to_source": float(cross.min(axis=1)[live].max()),
        "dist_tv": dist_tv,
        "support_covered": not leaks[live].any(),
    }


def reference_project_into_ball(t, s, eps):
    """Clip t into an L-inf box around s, renormalize, shrink until TV <= eps.

    The scalar loop ``oracle._project_rows`` replaced, one row and one eta at
    a time: the reference it must equal bit for bit.
    """
    from epibound.errors import GenerationFailure

    eta = eps
    for _ in range(1000):
        clipped = np.clip(t, np.maximum(s - eta, 0.0), np.minimum(s + eta, 1.0))
        total = clipped.sum()
        if total > 0:
            cand = clipped / total
            if 0.5 * np.abs(cand - s).sum() <= eps:
                return cand
        eta *= 0.5
    raise GenerationFailure(f"could not project a task into the TV {eps}-ball")


def reference_draw_instance(seed, config, rng):
    """``oracle._draw_instance`` as it drew with one ``rng.dirichlet`` per block and
    one scalar projection per ``assumption1`` target row: the bit-for-bit reference."""
    from epibound.errors import GenerationFailure
    from epibound.oracle import OracleInstance, _unchecked

    m = int(rng.integers(config.m_range[0], config.m_range[1] + 1))
    k_s = int(rng.integers(config.tasks_range[0], config.tasks_range[1] + 1))
    k_t = int(rng.integers(config.tasks_range[0], config.tasks_range[1] + 1))

    S = rng.dirichlet(np.ones(m), size=k_s)
    w_s = rng.dirichlet(np.ones(k_s))

    n_members = int(rng.integers(config.members_range[0], config.members_range[1] + 1))
    members = rng.dirichlet(np.ones(m), size=n_members)

    if config.constraint == "perfect_no_shift":
        pred = w_s @ S
    elif rng.random() < 0.5:
        pred = members[int(rng.integers(n_members))]
    else:
        pred = rng.dirichlet(np.ones(m))

    epsilon = config.epsilon
    if config.constraint in ("assumption1", "assumption2") and epsilon is None:
        epsilon = float(rng.uniform(0.02, 0.5))

    if config.constraint in ("no_shift", "perfect_no_shift"):
        T, w_t = S, w_s
    elif config.constraint == "assumption1":
        rows = []
        for _ in range(k_t):
            anchor = S[int(rng.integers(k_s))]
            raw = rng.dirichlet(np.ones(m))
            rows.append(reference_project_into_ball(raw, anchor, epsilon))
        T, w_t = np.stack(rows), rng.dirichlet(np.ones(k_t))
    elif config.constraint == "assumption2":
        raw = rng.dirichlet(np.ones(k_s))
        dist = 0.5 * np.abs(w_s - raw).sum()
        if dist > epsilon:
            raw = w_s + (epsilon / dist) * (1.0 - 1e-12) * (raw - w_s)
            raw = np.maximum(raw, 0.0)
            raw = raw / raw.sum()
        if 0.5 * np.abs(w_s - raw).sum() > epsilon:
            raise GenerationFailure("assumption-2 weight projection failed")
        T, w_t = S, raw
    else:
        T = rng.dirichlet(np.ones(m), size=k_t)
        w_t = rng.dirichlet(np.ones(k_t))

    return _unchecked(OracleInstance, S=S, w_s=w_s, T=T, w_t=w_t, members=members, pred=pred,
                      seed=seed, constraint=config.constraint, epsilon=epsilon)


def reference_draw_theta_instance(seed, rng, m_range=(2, 6), theta_range=(2, 8)):
    """``oracle._draw_theta_instance`` as it drew with six ``rng.dirichlet`` calls."""
    from epibound.oracle import ThetaInstance, _unchecked

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
    return _unchecked(ThetaInstance, theta_pmfs=theta_pmfs, source_weights=source_weights,
                      candidates=candidates, p1=p1, T=T, w_t=w_t, seed=seed)
