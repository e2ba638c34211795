"""The continuous TV crossing search as it stood before each distribution kept a search record.

A copy, with the leading underscores dropped, kept as the bitwise reference of
``tv_exact``, ``l1_distance`` and ``_tv_floor`` on continuous pairs: every call here
rebuilds what the library now builds once per distribution (the one-component mixture of a
Gaussian, the pooled moments, a t's tail points and the chunk step).  It shares only the
library's distributions and its error type.
"""

import math

import numpy as np
from scipy.special import ndtr, stdtrit

from epibound.distributions import Gaussian, GaussianMixture, StudentT, require_same_space
from epibound.errors import NumericalFailure

QUAD_SPAN = 10.0
CROSSING_GRID_PER_SD = 16
CROSSING_GRID_MAX = 1 << 20
CROSSING_CHUNK = 1 << 16
CROSSING_BISECTIONS = 30
TV_FLOOR_THRESHOLDS = 17
TAIL_MASS = 1e-12


def window(*dists):
    los, his = [], []
    for d in dists:
        m, s = (d.loc, d.scale) if isinstance(d, StudentT) else d.mean_std()
        s = max(s, 1e-12)
        los.append(m - QUAD_SPAN * s)
        his.append(m + QUAD_SPAN * s)
    if any(map(math.isnan, los + his)):
        return math.nan, math.nan
    return min(los), max(his)


def tv(p, q):
    """``tv_exact`` on a continuous pair."""
    require_same_space(p, q)
    if equal_stddev_gaussians(p, q):
        return float(2.0 * ndtr(abs(p.mean - q.mean) / (2.0 * p.stddev)) - 1.0)
    return crossing_tv(*centered(as_mixture(p), as_mixture(q)))


def tv_floor(p, q):
    require_same_space(p, q)
    if equal_stddev_gaussians(p, q):
        return 0.0
    p, q = as_mixture(p), as_mixture(q)
    ts = np.linspace(*crossing_grid(p, q)[:2], TV_FLOOR_THRESHOLDS)
    return float(np.abs(p.cdf(ts) - q.cdf(ts)).max())


def equal_stddev_gaussians(p, q):
    return (isinstance(p, Gaussian) and isinstance(q, Gaussian)
            and abs(p.stddev - q.stddev) <= 1e-12 * max(p.stddev, q.stddev))


def as_mixture(d):
    return GaussianMixture._of(d) if isinstance(d, Gaussian) else d


def centered(*dists):
    first = dists[0]
    c = first.loc if isinstance(first, StudentT) else first.mean_std()[0]
    smallest = min(parts(as_mixture(d))[2].min() for d in dists)
    if not np.spacing(abs(c)) * CROSSING_GRID_PER_SD > smallest:
        return dists
    return tuple(as_mixture(d)._shifted(c) for d in dists)


def parts(d):
    if isinstance(d, StudentT):
        return np.ones(1), np.array([d.loc]), np.array([d.scale])
    return d.weights, d.means, d.stddevs


def log_gap(p, q, x, out):
    step = max(1, CROSSING_CHUNK // max(parts(p)[0].size, parts(q)[0].size))
    for i in range(0, x.size, step):
        np.subtract(p.logpdf(x[i:i + step]), q.logpdf(x[i:i + step]), out=out[i:i + step])
    return out


def crossing_tv(p, q):
    lo, hi, n = crossing_grid(p, q)
    means = np.concatenate([parts(p)[1], parts(q)[1]])
    xs = np.union1d(np.linspace(lo, hi, n), np.concatenate(
        [means[(means > lo) & (means < hi)], tail_points(p, lo, hi), tail_points(q, lo, hi)]))
    side = np.sign(log_gap(p, q, xs, np.empty_like(xs)))
    i = np.flatnonzero(side[:-1] * side[1:] < 0)
    a, b = refine_crossings(p, q, xs[i].tolist(), xs[i + 1].tolist(), side[i].tolist())
    cuts = np.sort(np.concatenate([xs[side == 0], 0.5 * (np.array(a) + np.array(b))]))
    gaps = p.cdf(cuts) - q.cdf(cuts)
    return min(1.0, 0.5 * float(np.abs(np.diff(gaps, prepend=0.0, append=0.0)).sum()))


def tail_points(d, lo, hi):
    if not isinstance(d, StudentT):
        return np.empty(0)
    octaves = math.log2(min(-float(stdtrit(d.df, TAIL_MASS)), 2.0**256))
    steps = np.exp2(np.arange(1, math.ceil(octaves * CROSSING_GRID_PER_SD) + 1)
                    / CROSSING_GRID_PER_SD) * d.scale
    xs = np.concatenate([d.loc - steps, d.loc + steps])
    return xs[((xs < lo) | (xs > hi)) & np.isfinite(xs)]


def crossing_grid(p, q):
    lo, hi = window(p, q)
    smallest = min(sd[w > 0].min() for w, _, sd in map(parts, (p, q)))
    size = (hi - lo) / smallest * CROSSING_GRID_PER_SD
    if not math.isfinite(size):
        raise NumericalFailure(
            f"TV crossing search over [{lo}, {hi}] at {CROSSING_GRID_PER_SD} points per "
            f"stddev {smallest} is not finite")
    return lo, hi, min(CROSSING_GRID_MAX, math.ceil(size) + 1)


def refine_crossings(p, q, a, b, side_a):
    active = list(range(len(a)))
    for _ in range(CROSSING_BISECTIONS // 3):
        if not active:
            break
        mids = []
        for j in active:
            lo, hi = a[j], b[j]
            m = (lo + hi) * 0.5
            left, right = (lo + m) * 0.5, (m + hi) * 0.5
            mids += (m, left, right, (lo + left) * 0.5, (left + m) * 0.5, (m + right) * 0.5,
                     (right + hi) * 0.5)
        x = np.array(mids)
        signs = np.sign(log_gap(p, q, x, np.empty_like(x))).tolist()
        still = []
        for base, j in zip(range(0, len(mids), 7), active):
            k = 0
            for _ in range(3):
                mid, s = mids[base + k], signs[base + k]
                if s == side_a[j]:
                    a[j], k = mid, 2 * k + 2
                elif s == 0:
                    a[j] = b[j] = mid
                    break
                else:
                    b[j], k = mid, 2 * k + 1
            else:
                still.append(j)
        active = still
    return a, b
