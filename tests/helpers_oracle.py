"""Independent brute-force oracles shared by module and acceptance tests."""

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
