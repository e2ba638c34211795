"""Distances and divergences between first-order distributions.

Exact paths (categorical summation, Gaussian closed forms, continuous TV
from the density crossings) are preferred wherever they exist.  Quadrature
backs the remaining continuous cases of Hellinger, KL, entropy and
cross-entropy, and a seeded Monte Carlo KL estimator with the Pinsker upper
bound sqrt(KL/2) mirrors the methodology of the synthetic experiments, which
select it explicitly.

``scipy.integrate`` is loaded at the first quadrature, not at import: it
pulls in scipy.optimize, scipy.sparse.linalg and scipy.linalg, about a third
of the package's import time, and only the mixture fallbacks here and
``bayes.posterior_mass_near`` integrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy.special import ndtr

from .distributions import (
    Categorical,
    FirstOrderDistribution,
    Gaussian,
    GaussianMixture,
    require_same_space,
)
from .errors import EventMismatch, InvalidArgument, SupportViolation

QUAD_ABS_TOL = 1e-9
QUAD_SPAN = 10.0  # integration window: each mean +- span * stddev, merged
DEFAULT_MC_SAMPLES = 400
CROSSING_GRID_PER_SD = 16   # crossing-search grid points per smallest component stddev
CROSSING_GRID_MAX = 1 << 20  # wider windows get a coarser grid, plus every component mean
CROSSING_CHUNK = 1 << 16     # (points x components) per density evaluation
CROSSING_BISECTIONS = 30     # halvings of each bracket, from the grid spacing


class _LazyQuad:
    """``scipy.integrate.quad``, imported at the first call and kept.

    An object rather than a function: every quadrature calls it through the
    module global ``quad``, which perfbench's tracer replaces with a counting
    wrapper, while it wraps each public module-level function as a span of
    its own.
    """

    _quad = None

    def __call__(self, *args, **kwargs):
        if self._quad is None:
            from scipy.integrate import quad
            self._quad = quad
        return self._quad(*args, **kwargs)


quad = _LazyQuad()


@dataclass(frozen=True)
class DivergenceResult:
    """One computed divergence with provenance.

    ``stderr_estimate`` is present only for Monte Carlo values; for
    ``pinsker_upper`` results it refers to the underlying KL estimate.
    ``clamped`` flags a negative Monte Carlo KL clamped to 0 before the
    Pinsker square root.
    """

    value: float
    method: str  # exact_discrete | gaussian_closed_form | quadrature | monte_carlo | pinsker_upper
    mc_samples: Optional[int] = None
    stderr_estimate: Optional[float] = None
    clamped: bool = False

    def __post_init__(self):
        if self.value < 0:
            raise InvalidArgument(f"divergence value must be >= 0, got {self.value}")
        if self.mc_samples is not None and self.mc_samples < 1:
            raise InvalidArgument("mc_samples must be >= 1")

    def to_dict(self) -> dict:
        d = {"value": self.value, "method": self.method}
        if self.mc_samples is not None:
            d["mc_samples"] = self.mc_samples
        if self.stderr_estimate is not None:
            d["stderr_estimate"] = self.stderr_estimate
        if self.clamped:
            d["clamped"] = True
        return d


# ---------------------------------------------------------------------------
# Quadrature helpers
# ---------------------------------------------------------------------------


def _window(*dists: FirstOrderDistribution) -> tuple[float, float]:
    los, his = [], []
    for d in dists:
        m, s = d.mean_std()
        s = max(s, 1e-12)
        los.append(m - QUAD_SPAN * s)
        his.append(m + QUAD_SPAN * s)
    return min(los), max(his)


def _quad(fn: Callable[[float], float], lo: float, hi: float) -> float:
    val, _ = quad(fn, lo, hi, epsabs=QUAD_ABS_TOL, epsrel=1e-10, limit=400)
    return val


def _pdf(d: FirstOrderDistribution) -> Callable[[float], float]:
    if isinstance(d, Gaussian) or isinstance(d, GaussianMixture):
        return lambda x: float(d.pdf(np.array([x]))[0])
    raise EventMismatch(f"no density for kind {d.kind}")


# ---------------------------------------------------------------------------
# Total variation
# ---------------------------------------------------------------------------


def tv_exact(p: FirstOrderDistribution, q: FirstOrderDistribution) -> float:
    """TV distance: sup over events of |P(a) - Q(a)|, in [0, 1].

    Categorical pairs use half the L1 distance of probability vectors;
    equal-stddev Gaussian pairs the closed form 2*Phi(|dmu|/(2*sigma)) - 1;
    other continuous pairs split the line where the densities cross and sum
    the CDF mass gaps of the pieces.
    """
    require_same_space(p, q)
    if isinstance(p, Categorical) and isinstance(q, Categorical):
        return float(0.5 * np.abs(p.p - q.p).sum())
    if isinstance(p, Gaussian) and isinstance(q, Gaussian):
        if abs(p.stddev - q.stddev) <= 1e-12 * max(p.stddev, q.stddev):
            return float(2.0 * ndtr(abs(p.mean - q.mean) / (2.0 * p.stddev)) - 1.0)
    return _crossing_tv(_as_mixture(p), _as_mixture(q))


def l1_distance(p: FirstOrderDistribution, q: FirstOrderDistribution) -> float:
    """L1 distance between the densities (or pmfs): twice the TV distance."""
    return 2.0 * tv_exact(p, q)


def _as_mixture(d: Union[Gaussian, GaussianMixture]) -> GaussianMixture:
    if isinstance(d, GaussianMixture):
        return d
    return GaussianMixture(np.ones(1), np.array([d.mean]), np.array([d.stddev]))


def _log_gap(p: GaussianMixture, q: GaussianMixture, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """log p(x) - log q(x) into ``out``, in chunks that bound the (points, components) buffers."""
    step = max(1, CROSSING_CHUNK // max(p.weights.size, q.weights.size))
    for i in range(0, x.size, step):
        np.subtract(p.logpdf(x[i:i + step]), q.logpdf(x[i:i + step]), out=out[i:i + step])
    return out


def _crossing_tv(p: GaussianMixture, q: GaussianMixture) -> float:
    """TV as (1/2) sum_i |P(I_i) - Q(I_i)| over the pieces I_i between density crossings.

    The crossings are the sign changes of log p - log q on a grid over the
    quadrature window, spaced at a fraction of the smallest component
    stddev and holding every component mean, refined together by bisection;
    grid points where the gap is exactly 0 are cuts as they are.  Any
    partition gives a lower bound on TV, and P(A) - Q(A) is stationary at
    the crossings, so a root error e costs O(e^2), from below.
    """
    lo, hi = _window(p, q)
    smallest = min(p.stddevs[p.weights > 0].min(), q.stddevs[q.weights > 0].min())
    n = min(CROSSING_GRID_MAX, math.ceil((hi - lo) / smallest * CROSSING_GRID_PER_SD) + 1)
    means = np.concatenate([p.means, q.means])
    xs = np.union1d(np.linspace(lo, hi, n), means[(means > lo) & (means < hi)])
    side = np.sign(_log_gap(p, q, xs, np.empty_like(xs)))
    i = np.flatnonzero(side[:-1] * side[1:] < 0)
    a, b, side_a = xs[i], xs[i + 1], side[i]
    mid, side_mid = np.empty_like(a), np.empty_like(a)
    for _ in range(CROSSING_BISECTIONS):
        np.add(a, b, out=mid)
        mid *= 0.5
        np.sign(_log_gap(p, q, mid, side_mid), out=side_mid)
        same = side_mid == side_a
        np.copyto(a, mid, where=same | (side_mid == 0))  # an exact zero closes the bracket
        np.copyto(b, mid, where=~same)
    cuts = np.sort(np.concatenate([xs[side == 0], 0.5 * (a + b)]))
    gaps = p.cdf(cuts) - q.cdf(cuts)  # P - Q on (-inf, cut]; 0 at both ends of the line
    return min(1.0, 0.5 * float(np.abs(np.diff(gaps, prepend=0.0, append=0.0)).sum()))


def hellinger_sq(p: FirstOrderDistribution, q: FirstOrderDistribution) -> float:
    """Squared Hellinger distance (1/2) * int (sqrt p - sqrt q)^2, in [0, 1]."""
    require_same_space(p, q)
    if isinstance(p, Categorical) and isinstance(q, Categorical):
        return float(0.5 * ((np.sqrt(p.p) - np.sqrt(q.p)) ** 2).sum())
    if isinstance(p, Gaussian) and isinstance(q, Gaussian):
        # 1 - sqrt(2 s1 s2 / (s1^2 + s2^2)) * exp(-(m1 - m2)^2 / (4 (s1^2 + s2^2)))
        spread = p.stddev**2 + q.stddev**2
        log_bc = 0.5 * math.log(2.0 * p.stddev * q.stddev / spread) - (
            (p.mean - q.mean) ** 2 / (4.0 * spread))
        return max(0.0, -math.expm1(log_bc))  # log_bc <= 0 up to rounding
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
        return 0.5 * math.log(2.0 * math.pi * math.e * p.stddev**2)
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
        return (
            0.5 * math.log(2.0 * math.pi * q.stddev**2)
            + (p.stddev**2 + (p.mean - q.mean) ** 2) / (2.0 * q.stddev**2)
        )
    pf, qf = _pdf(p), _pdf(q)
    lo, hi = _window(p, q)

    def integrand(x: float) -> float:
        pv = pf(x)
        if pv <= 0:
            return 0.0
        qv = qf(x)
        if qv <= 0:
            raise SupportViolation(f"q density vanished at x={x}")
        return -pv * math.log(qv)

    return _quad(integrand, lo, hi)


def kl_exact(p: FirstOrderDistribution, q: FirstOrderDistribution) -> float:
    """KL divergence from p to q via the exact path for the pair's kinds."""
    require_same_space(p, q)
    if isinstance(p, Categorical) and isinstance(q, Categorical):
        mask = p.p > 0
        if np.any(q.p[mask] <= 0):
            raise SupportViolation("q assigns zero mass inside p's support")
        return float((p.p[mask] * np.log(p.p[mask] / q.p[mask])).sum())
    if isinstance(p, Gaussian) and isinstance(q, Gaussian):
        return (
            math.log(q.stddev / p.stddev)
            + (p.stddev**2 + (p.mean - q.mean) ** 2) / (2.0 * q.stddev**2)
            - 0.5
        )
    pf, qf = _pdf(p), _pdf(q)
    lo, hi = _window(p, q)

    def integrand(x: float) -> float:
        pv = pf(x)
        if pv <= 0:
            return 0.0
        qv = qf(x)
        if qv <= 0:
            raise SupportViolation(f"q density vanished at x={x}")
        return pv * math.log(pv / qv)

    return _quad(integrand, lo, hi)


# ---------------------------------------------------------------------------
# Monte Carlo KL and the Pinsker upper bound
# ---------------------------------------------------------------------------


def _log_density(d: FirstOrderDistribution, x: np.ndarray) -> np.ndarray:
    if isinstance(d, Categorical):
        return d.logpmf(x)
    return d.logpdf(x)  # type: ignore[union-attr]


def kl_mc(
    p: FirstOrderDistribution,
    q: FirstOrderDistribution,
    n_samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
) -> DivergenceResult:
    """Monte Carlo estimate of KL(p || q) from ``n_samples`` draws of p.

    Categorical pairs short-circuit to the exact summation.  The raw
    estimator is unbiased but can dip negative for near-identical
    distributions; negative estimates clamp to 0 with ``clamped`` set.
    """
    require_same_space(p, q)
    if isinstance(p, Categorical) and isinstance(q, Categorical):
        return DivergenceResult(value=kl_exact(p, q), method="exact_discrete")
    if n_samples < 1:
        raise InvalidArgument("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    xs = p.sample(n_samples, rng)
    log_ratio = _log_density(p, xs) - _log_density(q, xs)
    if not np.all(np.isfinite(log_ratio)):
        raise SupportViolation("q density vanished at a sampled point")
    value = float(log_ratio.mean())
    stderr = float(log_ratio.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return DivergenceResult(
        value=max(value, 0.0),
        method="monte_carlo",
        mc_samples=n_samples,
        stderr_estimate=stderr,
        clamped=value < 0.0,
    )


def tv_upper_pinsker(
    p: FirstOrderDistribution,
    q: FirstOrderDistribution,
    n_samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
    force_mc: bool = False,
) -> DivergenceResult:
    """Pinsker upper bound sqrt(KL/2) on the TV distance.

    KL comes from the exact path when one exists (categorical pairs, single
    Gaussian pairs) unless ``force_mc`` selects the sampling estimator.
    Negative Monte Carlo KL is clamped to 0 and flagged.
    """
    require_same_space(p, q)
    exact_available = (isinstance(p, Categorical) and isinstance(q, Categorical)) or (
        isinstance(p, Gaussian) and isinstance(q, Gaussian)
    )
    if exact_available and not force_mc:
        kl = kl_exact(p, q)
        return DivergenceResult(value=math.sqrt(max(kl, 0.0) / 2.0), method="pinsker_upper")
    base = kl_mc(p, q, n_samples=n_samples, seed=seed)
    return DivergenceResult(
        value=math.sqrt(base.value / 2.0),
        method="pinsker_upper",
        mc_samples=base.mc_samples,
        stderr_estimate=base.stderr_estimate,
        clamped=base.clamped,
    )
