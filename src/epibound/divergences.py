"""Distances and divergences between first-order distributions.

Exact paths (categorical summation, Gaussian closed forms, continuous TV
from the density crossings) are preferred wherever they exist.  Quadrature
backs the remaining continuous cases of Hellinger, KL, entropy and
cross-entropy.  The seeded Monte Carlo KL estimator ``kl_mc`` and the
synthetic experiments' Pinsker upper bounds sqrt(KL/2) share one row
kernel, ``_mc_kl``, on (rows, samples) log-ratio arrays.

``scipy.integrate`` is loaded at the first quadrature, and ``scipy.special``
at the first Gaussian TV in closed form or the first crossing search on a
Student-t, not at import (see ``_deferred``).  Only the mixture and t
fallbacks here and ``bayes.posterior_mass_near`` integrate.
A window that is not finite (overflowing or NaN moments) raises
NumericalFailure, in quadrature, the crossing search and the closed forms.
``quad``, ``ndtr`` and ``stdtrit`` rebind to scipy's at their first call.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ._deferred import Deferred
from .distributions import (
    Categorical,
    FirstOrderDistribution,
    Gaussian,
    GaussianMixture,
    StudentT,
    _gaussian_logpdf,
    require_same_space,
)
from .errors import EventMismatch, InvalidArgument, NumericalFailure, SupportViolation, require_int
from .seeding import generator

QUAD_ABS_TOL = 1e-9
QUAD_SPAN = 10.0  # integration window: each mean +- span * stddev, merged
DEFAULT_MC_SAMPLES = 400
MC_SUPPORT_GAP = "q density vanished at a sampled point"  # kl_mc's SupportViolation
CROSSING_GRID_PER_SD = 16   # crossing-search grid points per smallest component stddev
CROSSING_GRID_MAX = 1 << 20  # wider windows get a coarser grid, plus every component mean
CROSSING_CHUNK = 1 << 16     # (points x components) per density evaluation
CROSSING_BISECTIONS = 30     # halvings of each bracket, from the grid spacing; 3 per density pass
TV_FLOOR_THRESHOLDS = 17     # evenly spaced thresholds of the crossing window in ``_tv_floor``
TAIL_MASS = 1e-12            # a t's crossing grid reaches its TAIL_MASS and 1 - TAIL_MASS quantiles

ndtr = Deferred("scipy.special", "ndtr", globals())
stdtrit = Deferred("scipy.special", "stdtrit", globals())
quad = Deferred("scipy.integrate", "quad", globals())


@dataclass(frozen=True)
class DivergenceResult:
    """One computed divergence with provenance.

    ``stderr_estimate`` is present only for Monte Carlo values.  ``clamped``
    flags a negative Monte Carlo KL clamped to 0.
    """

    value: float
    method: str  # exact_discrete | monte_carlo
    mc_samples: Optional[int] = None
    stderr_estimate: Optional[float] = None
    clamped: bool = False

    def __post_init__(self):
        if self.value < 0:
            raise InvalidArgument(f"divergence value must be >= 0, got {self.value}")
        if self.mc_samples is not None and self.mc_samples < 1:
            raise InvalidArgument("mc_samples must be >= 1")


# ---------------------------------------------------------------------------
# Quadrature helpers
# ---------------------------------------------------------------------------


def _window(*dists: FirstOrderDistribution) -> tuple[float, float]:
    """Each distribution's mean +- ``QUAD_SPAN`` stddevs, merged; a t's loc +- that many scales.

    A t's window does not rely on its moments: its variance is infinite at df <= 2.
    Its mass outside is 1.9e-12 at df 40, 3.2e-9 at df 20 and 1.7e-4 at df 5;
    the crossing search adds the grid of ``_tail_points`` beyond it, and
    quadrature leaves that mass out.
    A NaN end (a mixture's overflowing moments) makes both ends NaN: Python's
    ``min`` and ``max`` would drop it when it comes second, so the window
    would depend on the argument order.
    """
    los, his = [], []
    for d in dists:
        m, s = (d.loc, d.scale) if isinstance(d, StudentT) else d.mean_std()
        s = max(s, 1e-12)
        los.append(m - QUAD_SPAN * s)
        his.append(m + QUAD_SPAN * s)
    if any(map(math.isnan, los + his)):
        return math.nan, math.nan
    return min(los), max(his)


def _quad(fn: Callable[[float], float], lo: float, hi: float) -> float:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NumericalFailure(f"quadrature window [{lo}, {hi}] is not finite")
    val, _ = quad(fn, lo, hi, epsabs=QUAD_ABS_TOL, epsrel=1e-10, limit=400)
    return val


def _pdf(d: FirstOrderDistribution) -> Callable[[float], float]:
    if isinstance(d, (Gaussian, GaussianMixture, StudentT)):
        return lambda x: float(d.pdf(np.array([x]))[0])
    raise EventMismatch(f"no density for kind {d.kind}")


def _quad_on_p_support(p: FirstOrderDistribution, q: FirstOrderDistribution,
                       term: Callable[[float, float], float]) -> float:
    """The integral of ``term(p(x), q(x))`` where p(x) > 0; SupportViolation where q vanishes."""
    p, q = _centered(p, q)
    pf, qf = _pdf(p), _pdf(q)
    lo, hi = _window(p, q)

    def integrand(x: float) -> float:
        pv = pf(x)
        if pv <= 0:
            return 0.0
        qv = qf(x)
        if qv <= 0:
            raise SupportViolation(f"q density vanished at x={x}")
        return term(pv, qv)

    return _quad(integrand, lo, hi)


@contextlib.contextmanager
def _closed_form(what: str, *dists: Gaussian):
    """NumericalFailure for a Gaussian closed form whose float arithmetic fails: an
    overflowing power, or a variance that underflows to 0 as a divisor or in a log."""
    try:
        yield
    except (OverflowError, ZeroDivisionError, ValueError):
        at = " and ".join(f"Gaussian(mean={d.mean!r}, stddev={d.stddev!r})" for d in dists)
        raise NumericalFailure(f"the closed form of {what} over- or underflows at {at}") from None


# ---------------------------------------------------------------------------
# Total variation
# ---------------------------------------------------------------------------


def tv_exact(p: FirstOrderDistribution, q: FirstOrderDistribution) -> float:
    """TV distance: sup over events of |P(a) - Q(a)|, in [0, 1].

    Categorical pairs use half the L1 distance of probability vectors;
    equal-stddev Gaussian pairs the closed form 2*Phi(|dmu|/(2*sigma)) - 1;
    other continuous pairs (Gaussians, mixtures and Student-t's) split the
    line where the densities cross and sum the CDF mass gaps of the pieces.
    """
    require_same_space(p, q)
    if isinstance(p, Categorical) and isinstance(q, Categorical):
        return float(0.5 * np.abs(p.p - q.p).sum())
    if _equal_stddev_gaussians(p, q):
        return float(2.0 * ndtr(abs(p.mean - q.mean) / (2.0 * p.stddev)) - 1.0)
    return _crossing_tv(*_centered(_as_mixture(p), _as_mixture(q)))


def _tv_floor(p: FirstOrderDistribution, q: FirstOrderDistribution) -> float:
    """A lower bound on ``tv_exact(p, q)`` for continuous p, q, raising as it raises: 0 for a
    closed form, else the largest CDF gap at ``TV_FLOOR_THRESHOLDS`` points of the window."""
    require_same_space(p, q)
    if _equal_stddev_gaussians(p, q):
        return 0.0
    p, q = _as_mixture(p), _as_mixture(q)
    ts = np.linspace(*_crossing_grid(p, q)[:2], TV_FLOOR_THRESHOLDS)
    return float(np.abs(p.cdf(ts) - q.cdf(ts)).max())


def l1_distance(p: FirstOrderDistribution, q: FirstOrderDistribution) -> float:
    """L1 distance between the densities (or pmfs): twice the TV distance."""
    return 2.0 * tv_exact(p, q)


def _equal_stddev_gaussians(p: FirstOrderDistribution, q: FirstOrderDistribution) -> bool:
    """Whether ``tv_exact`` takes the pair by its Gaussian closed form."""
    return (isinstance(p, Gaussian) and isinstance(q, Gaussian)
            and abs(p.stddev - q.stddev) <= 1e-12 * max(p.stddev, q.stddev))


# the kinds that the crossing search takes: a Gaussian enters it as a one-component mixture
_Searchable = Union[GaussianMixture, StudentT]


def _as_mixture(d: Union[Gaussian, GaussianMixture, StudentT]) -> _Searchable:
    return GaussianMixture._of(d) if isinstance(d, Gaussian) else d


def _centered(*dists: Union[Gaussian, GaussianMixture, StudentT]) -> tuple:
    """``dists`` as they are, or, where floats about the first one's mean (a t's loc) are
    coarser than a crossing-grid step of the smallest stddev or scale, moved by that mean,
    a Gaussian as a mixture.

    Every divergence, and the entropy, is shift invariant; at mean 1e200 the window
    mean +- 10 stddevs would round to the mean, and every integral to 0.
    """
    first = dists[0]
    c = first.loc if isinstance(first, StudentT) else first.mean_std()[0]
    smallest = min(_parts(_as_mixture(d))[2].min() for d in dists)
    if not np.spacing(abs(c)) * CROSSING_GRID_PER_SD > smallest:  # a NaN mean stays
        return dists
    return tuple(_as_mixture(d)._shifted(c) for d in dists)


def _parts(d: _Searchable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A mixture's component weights, means and stddevs; a t's 1, loc and scale."""
    if isinstance(d, StudentT):
        return np.ones(1), np.array([d.loc]), np.array([d.scale])
    return d.weights, d.means, d.stddevs


def _log_gap(p: _Searchable, q: _Searchable, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """log p(x) - log q(x) into ``out``, in chunks that bound the (points, components) buffers."""
    step = max(1, CROSSING_CHUNK // max(_parts(p)[0].size, _parts(q)[0].size))
    for i in range(0, x.size, step):
        np.subtract(p.logpdf(x[i:i + step]), q.logpdf(x[i:i + step]), out=out[i:i + step])
    return out


def _crossing_tv(p: _Searchable, q: _Searchable) -> float:
    """TV as (1/2) sum_i |P(I_i) - Q(I_i)| over the pieces I_i between density crossings.

    The crossings are the sign changes of log p - log q on a grid over the
    quadrature window, spaced at a fraction of the smallest component
    stddev (or t scale) and holding every component mean (or t loc), with
    each t's ``_tail_points`` beyond it, refined together by
    ``_refine_crossings``; grid points where the gap is exactly 0 are cuts
    as they are.  Any partition gives a lower bound on TV, and P(A) - Q(A)
    is stationary at the crossings, so a root error e costs O(e^2), from
    below.  A window or grid size that overflows raises NumericalFailure.
    """
    lo, hi, n = _crossing_grid(p, q)
    means = np.concatenate([_parts(p)[1], _parts(q)[1]])
    xs = np.union1d(np.linspace(lo, hi, n), np.concatenate(
        [means[(means > lo) & (means < hi)], _tail_points(p, lo, hi), _tail_points(q, lo, hi)]))
    side = np.sign(_log_gap(p, q, xs, np.empty_like(xs)))
    i = np.flatnonzero(side[:-1] * side[1:] < 0)
    a, b = _refine_crossings(p, q, xs[i].tolist(), xs[i + 1].tolist(), side[i].tolist())
    cuts = np.sort(np.concatenate([xs[side == 0], 0.5 * (np.array(a) + np.array(b))]))
    gaps = p.cdf(cuts) - q.cdf(cuts)  # P - Q on (-inf, cut]; 0 at both ends of the line
    return min(1.0, 0.5 * float(np.abs(np.diff(gaps, prepend=0.0, append=0.0)).sum()))


def _tail_points(d: _Searchable, lo: float, hi: float) -> np.ndarray:
    """Points of a t outside [lo, hi], out to its ``TAIL_MASS`` quantiles; none for a mixture.

    They step by a factor ``2 ** (1 / CROSSING_GRID_PER_SD)`` in the distance from the loc,
    up to 2**256 scales (beyond which a t of df 0.05 still holds 6.3e-5 of its mass on each
    side): outside every mixture's window only t tails are left, whose log-densities are
    smooth in the log of that distance.
    """
    if not isinstance(d, StudentT):
        return np.empty(0)
    octaves = math.log2(min(-float(stdtrit(d.df, TAIL_MASS)), 2.0**256))
    steps = np.exp2(np.arange(1, math.ceil(octaves * CROSSING_GRID_PER_SD) + 1)
                    / CROSSING_GRID_PER_SD) * d.scale
    xs = np.concatenate([d.loc - steps, d.loc + steps])
    return xs[((xs < lo) | (xs > hi)) & np.isfinite(xs)]


def _crossing_grid(p: _Searchable, q: _Searchable) -> tuple[float, float, int]:
    """The crossing search's window [lo, hi] and grid size; NumericalFailure on an overflow."""
    lo, hi = _window(p, q)
    smallest = min(sd[w > 0].min() for w, _, sd in map(_parts, (p, q)))
    size = (hi - lo) / smallest * CROSSING_GRID_PER_SD  # finite only if lo and hi are
    if not math.isfinite(size):
        raise NumericalFailure(
            f"TV crossing search over [{lo}, {hi}] at {CROSSING_GRID_PER_SD} points per "
            f"stddev {smallest} is not finite")
    return lo, hi, min(CROSSING_GRID_MAX, math.ceil(size) + 1)


def _refine_crossings(p: _Searchable, q: _Searchable, a: list, b: list,
                      side_a: list) -> tuple[list, list]:
    """Halve every bracket [a_j, b_j] ``CROSSING_BISECTIONS`` times; the refined ends.

    ``side_a[j]`` is the sign of the gap at ``a_j``.  Each halving moves
    ``a_j`` to the midpoint where the gap there has that sign, closes the
    bracket on the midpoint where the gap is exactly 0, and otherwise (NaN
    included) moves ``b_j``.  The halvings run three at a time: one density
    pass takes the 7 midpoints those three halvings can visit, and each
    bracket then walks its own path through them.  The midpoints round as
    one halving at a time would, so the ends are bit for bit those of
    ``CROSSING_BISECTIONS`` single-halving passes, from a third of the
    density calls; closed brackets drop out of later passes.
    """
    active = list(range(len(a)))
    for _ in range(CROSSING_BISECTIONS // 3):
        if not active:
            break
        mids = []
        for j in active:
            # heap order: node k halves its bracket at mids[k]; node 2k+1 then
            # halves the half with the a end, node 2k+2 the half with the b end
            lo, hi = a[j], b[j]
            m = (lo + hi) * 0.5
            left, right = (lo + m) * 0.5, (m + hi) * 0.5
            mids += (m, left, right, (lo + left) * 0.5, (left + m) * 0.5, (m + right) * 0.5,
                     (right + hi) * 0.5)
        x = np.array(mids)
        signs = np.sign(_log_gap(p, q, x, np.empty_like(x))).tolist()
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


def hellinger_sq(p: FirstOrderDistribution, q: FirstOrderDistribution) -> float:
    """Squared Hellinger distance (1/2) * int (sqrt p - sqrt q)^2, in [0, 1]."""
    require_same_space(p, q)
    if isinstance(p, Categorical) and isinstance(q, Categorical):
        return float(0.5 * ((np.sqrt(p.p) - np.sqrt(q.p)) ** 2).sum())
    if isinstance(p, Gaussian) and isinstance(q, Gaussian):
        # 1 - sqrt(2 s1 s2 / (s1^2 + s2^2)) * exp(-(m1 - m2)^2 / (4 (s1^2 + s2^2)))
        with _closed_form("the squared Hellinger distance", p, q):
            spread = p.stddev**2 + q.stddev**2
            log_bc = 0.5 * math.log(2.0 * p.stddev * q.stddev / spread) - (
                (p.mean - q.mean) ** 2 / (4.0 * spread))
        return max(0.0, -math.expm1(log_bc))  # log_bc <= 0 up to rounding
    p, q = _centered(p, q)
    pf, qf = _pdf(p), _pdf(q)
    lo, hi = _window(p, q)
    return min(1.0, 0.5 * _quad(lambda x: (math.sqrt(pf(x)) - math.sqrt(qf(x))) ** 2, lo, hi))


# ---------------------------------------------------------------------------
# Entropy family
# ---------------------------------------------------------------------------


def entropy(p: FirstOrderDistribution) -> float:
    if isinstance(p, Categorical):
        pos = p.p[p.p > 0]
        return float(-(pos * np.log(pos)).sum())
    if isinstance(p, Gaussian):
        with _closed_form("the entropy", p):
            return 0.5 * math.log(2.0 * math.pi * math.e * p.stddev**2)
    (p,) = _centered(p)
    pf = _pdf(p)
    lo, hi = _window(p)

    def integrand(x: float) -> float:
        v = pf(x)
        return 0.0 if v <= 0 else -v * math.log(v)

    return _quad(integrand, lo, hi)


def cross_entropy(p: FirstOrderDistribution, q: FirstOrderDistribution) -> float:
    """-E_p[log q]; SupportViolation where q vanishes on p's support."""
    require_same_space(p, q)
    if isinstance(p, Categorical) and isinstance(q, Categorical):
        mask = p.p > 0
        if np.any(q.p[mask] <= 0):
            raise SupportViolation("q assigns zero mass inside p's support")
        return float(-(p.p[mask] * np.log(q.p[mask])).sum())
    if isinstance(p, Gaussian) and isinstance(q, Gaussian):
        with _closed_form("the cross-entropy", p, q):
            return (
                0.5 * math.log(2.0 * math.pi * q.stddev**2)
                + (p.stddev**2 + (p.mean - q.mean) ** 2) / (2.0 * q.stddev**2)
            )
    return _quad_on_p_support(p, q, lambda pv, qv: -pv * math.log(qv))


def kl_exact(p: FirstOrderDistribution, q: FirstOrderDistribution) -> float:
    """KL divergence from p to q via the exact path for the pair's kinds."""
    require_same_space(p, q)
    if isinstance(p, Categorical) and isinstance(q, Categorical):
        mask = p.p > 0
        if np.any(q.p[mask] <= 0):
            raise SupportViolation("q assigns zero mass inside p's support")
        return float((p.p[mask] * np.log(p.p[mask] / q.p[mask])).sum())
    if isinstance(p, Gaussian) and isinstance(q, Gaussian):
        with _closed_form("the KL divergence", p, q):
            return (
                math.log(q.stddev / p.stddev)
                + (p.stddev**2 + (p.mean - q.mean) ** 2) / (2.0 * q.stddev**2)
                - 0.5
            )
    return _quad_on_p_support(p, q, lambda pv, qv: pv * math.log(pv / qv))


# ---------------------------------------------------------------------------
# Monte Carlo KL and its Pinsker rows
# ---------------------------------------------------------------------------


def kl_mc(
    p: FirstOrderDistribution,
    q: FirstOrderDistribution,
    n_samples: int = DEFAULT_MC_SAMPLES,
    seed: int | np.random.Generator = 0,
) -> DivergenceResult:
    """Monte Carlo estimate of KL(p || q) from ``n_samples`` draws of p.

    Categorical pairs short-circuit to the exact summation, clamped to 0
    where it rounds below.  Otherwise the estimate is ``_mc_kl`` on a stack
    of one log-ratio row: unbiased, but it can dip negative for
    near-identical distributions; negative estimates clamp to 0 with
    ``clamped`` set.  ``seed`` is any 64-bit integer, or a Generator to draw
    from.
    """
    require_same_space(p, q)
    if isinstance(p, Categorical) and isinstance(q, Categorical):
        return DivergenceResult(value=max(kl_exact(p, q), 0.0), method="exact_discrete")
    n_samples = require_int("n_samples", n_samples, 1)
    xs = p.sample(n_samples, generator(seed))
    log_ratio = p.logpdf(xs) - q.logpdf(xs)  # type: ignore[union-attr]
    value = float(_mc_kl(log_ratio[None])[0])
    if math.isnan(value):
        raise SupportViolation(MC_SUPPORT_GAP)
    stderr = float(log_ratio.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return DivergenceResult(
        value=max(value, 0.0),
        method="monte_carlo",
        mc_samples=n_samples,
        stderr_estimate=stderr,
        clamped=value < 0.0,
    )


def _mc_kl(log_ratio: np.ndarray) -> np.ndarray:
    """The Monte Carlo KL of each row of an (S, n) log-ratio array: its mean, NaN if not finite.

    A row's mean sums as ``np.mean`` of that row alone.  A row that is not
    finite, where ``kl_mc`` raises SupportViolation(MC_SUPPORT_GAP), is NaN;
    it is zeroed in ``log_ratio`` first, so its mean raises no warning.
    """
    finite = np.isfinite(log_ratio).all(axis=1)
    log_ratio[~finite] = 0.0
    return np.where(finite, log_ratio.mean(axis=1), np.nan)


def _pinsker_mc(log_ratio: np.ndarray) -> np.ndarray:
    """The Pinsker bound sqrt(KL/2) of each row's ``_mc_kl``, a negative KL clamped to 0.

    Row s is bit for bit ``math.sqrt(kl_mc(p_s, q_s, n, rng_s).value / 2.0)``
    when it holds that call's log-ratios; a NaN row stays NaN.
    """
    return np.sqrt(np.maximum(_mc_kl(log_ratio), 0.0) / 2.0)


def _gaussian_draws(means: np.ndarray, stddevs: np.ndarray, rngs: Sequence[np.random.Generator],
                    n_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """(S, n_samples) draws of N(means[s], stddevs[s]) from ``rngs[s]``, and their log-densities.

    Row s draws what ``Gaussian.sample`` draws, as ``kl_mc`` does, and its
    log-densities round as ``Gaussian.logpdf``'s.  The pairs are taken as
    checked.
    """
    xs = np.array([rng.normal(m, sd, size=n_samples)
                   for rng, m, sd in zip(rngs, means.tolist(), stddevs.tolist())])
    return xs, _column_logpdf(xs, means, stddevs)


def _column_logpdf(xs: np.ndarray, means: np.ndarray, stddevs: np.ndarray) -> np.ndarray:
    """Row s of ``xs`` under N(means[s], stddevs[s]), as ``Gaussian.logpdf`` rounds it."""
    log_stddevs = np.array([math.log(sd) for sd in stddevs.tolist()])
    return _gaussian_logpdf(xs, means[:, None], stddevs[:, None], log_stddevs[:, None])
