"""Bayesian linear-regression transfer learner.

The learner fits a Normal-Inverse-Gamma model to one observation per source
task, updating only the coefficient distribution: the regression noise
variance is plugged in as the prior mean of the inverse-gamma component,
leaving the variance distribution at its prior.  The coefficient posterior
is then a closed-form bivariate Gaussian.

``scipy.special`` is loaded at the first posterior mass, not at import, and
``scipy.integrate`` only for a mass that quad's first step does not settle:
such a row of ``_posterior_mass_stack`` (``posterior_mass_near`` is its
stack of one) runs ``_quad_mass``; see ``_deferred``.  ``quad`` and
``ndtr`` rebind to scipy's at their first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._deferred import Deferred
from .distributions import Gaussian, _check_gaussians
from .errors import InvalidArgument, NumericalFailure, require_finite_pair

ndtr = Deferred("scipy.special", "ndtr", globals())
quad = Deferred("scipy.integrate", "quad", globals())

COV_SYM_TOL = 1e-12
MASS_EPSABS, MASS_EPSREL = 1e-6, 1e-9  # posterior_mass_near's quadrature tolerances
OUTER_SDS = 38.5  # Phi(-38.5), about 1.5e-324, rounds to 0: no mass lies beyond


@dataclass(frozen=True, eq=False)
class NIGModel:
    """Normal-Inverse-Gamma prior: beta | s2 ~ N(beta0, sigma0_sq I), s2 ~ IG(alpha0, delta0)."""

    beta0: np.ndarray = field(default_factory=lambda: np.zeros(2))
    sigma0_sq: float = 1.0
    alpha0: float = 20.0
    delta0: float = 10.0

    def __post_init__(self):
        b = np.asarray(self.beta0, dtype=float)
        if b.shape != (2,):
            raise InvalidArgument("beta0 must be a 2-vector")
        b.flags.writeable = False
        object.__setattr__(self, "beta0", b)
        for name in ("sigma0_sq", "alpha0", "delta0"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if v <= 0:
                raise InvalidArgument(f"{name} must be > 0, got {v}")

    @property
    def prior_noise_variance(self) -> float:
        """Mean of IG(alpha0, delta0): the plug-in regression noise variance."""
        if self.alpha0 <= 1:
            raise InvalidArgument("prior mean of the noise variance needs alpha0 > 1")
        return self.delta0 / (self.alpha0 - 1.0)


@dataclass(frozen=True, eq=False)
class GaussianParamDist:
    """Bivariate Gaussian over the regression coefficients."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=float)
        c = np.asarray(self.covariance, dtype=float)
        if m.shape != (2,) or c.shape != (2, 2):
            raise InvalidArgument("mean must be a 2-vector and covariance 2x2")
        self._set(m, _checked_covariances(m[None], c[None])[0])

    @classmethod
    def _of(cls, mean: np.ndarray, covariance: np.ndarray) -> "GaussianParamDist":
        """A mean and covariance that ``_checked_covariances`` passed, not checked again."""
        return object.__new__(cls)._set(mean, covariance)

    def _set(self, mean: np.ndarray, covariance: np.ndarray) -> "GaussianParamDist":
        mean.flags.writeable = False
        covariance.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", covariance)
        return self

    def to_dict(self) -> dict:
        return {
            "kind": "gaussian_param",
            "mean": self.mean.tolist(),
            "cov": self.covariance.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GaussianParamDist":
        return cls(np.asarray(data["mean"], dtype=float), np.asarray(data["cov"], dtype=float))


def _checked_covariances(means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """``GaussianParamDist``'s checks over (S, 2) means and (S, 2, 2) covariances.

    Returns the symmetrised covariances.  Entry by entry, as one construction
    at a time would: the first entry that fails raises its own error, a
    non-finite entry before an asymmetric one before one that is not positive
    definite.  Entries that fail an earlier check reach ``eigvalsh`` as the
    identity, so a NaN cannot stop the whole stack.
    """
    finite = np.isfinite(means).all(axis=1) & np.isfinite(covs).all(axis=(1, 2))
    covs_t = covs.transpose(0, 2, 1)
    with np.errstate(invalid="ignore"):  # only a non-finite entry makes a NaN here
        asym = np.abs(covs - covs_t).max(axis=(1, 2)) > COV_SYM_TOL
        sym = 0.5 * (covs + covs_t)
    ok = finite & ~asym
    eigvals = np.linalg.eigvalsh(np.where(ok[:, None, None], sym, np.eye(2)))
    bad = ~ok | (eigvals[:, 0] <= 0)  # ascending: column 0 is the least
    if bad.any():
        i = int(bad.argmax())
        if not finite[i]:
            raise InvalidArgument(f"mean and covariance entries must be finite, got mean "
                                  f"{means[i].tolist()} and covariance {covs[i].tolist()}")
        if asym[i]:
            raise NumericalFailure("covariance must be symmetric to 1e-12")
        raise NumericalFailure(f"covariance must be positive definite, eigenvalues {eigvals[i]}")
    return sym


@dataclass(frozen=True, eq=False)
class SourceDataset:
    """One observation per source task, in task order: covariates and response.

    ``task_variances`` optionally keeps the simulation-side noise variances
    of each task; it is not part of the learner-visible data.
    """

    xi: np.ndarray  # (n, 2)
    x: np.ndarray  # (n,)
    task_variances: Optional[np.ndarray] = None

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float).reshape(-1, 2)
        x = np.asarray(self.x, dtype=float).reshape(-1)
        if xi.shape[0] != x.size:
            raise InvalidArgument("xi and x must agree in length")
        for name, arr in (("xi", xi), ("x", x)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.task_variances is not None:
            tv = np.asarray(self.task_variances, dtype=float)
            tv.flags.writeable = False
            object.__setattr__(self, "task_variances", tv)


# ---------------------------------------------------------------------------
# Posterior update
# ---------------------------------------------------------------------------


def posterior_update(model: NIGModel, data: SourceDataset) -> GaussianParamDist:
    """Posterior over the coefficients given the source data.

    Conditions with a fixed noise variance, the prior mean of the
    inverse-gamma component; the variance distribution stays at its prior.
    This is the stacked kernel ``_posterior_stack`` on a stack of one
    dataset: the experiments fit all sims of a grid point in one call, and
    each of those posteriors is bit for bit this one.
    """
    means, covs = _posterior_stack(model, data.xi[None], data.x[None])
    return GaussianParamDist._of(means[0], covs[0])


def _posterior_stack(model: NIGModel, xi: np.ndarray,
                     x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The coefficient posteriors of S datasets of n rows: (S, 2) means, (S, 2, 2) covariances.

    ``xi`` is (S, n, 2) and ``x`` is (S, n).  The batched ``matmul``,
    ``matvec``, ``inv`` and ``eigvalsh`` run their 2-D routine on each slice,
    so entry s is bit for bit the posterior of dataset s alone.  Every entry
    passes ``GaussianParamDist``'s checks; the first that fails raises its error.
    """
    nv = model.prior_noise_variance
    xi_t = xi.transpose(0, 2, 1)
    precision = np.eye(2) / model.sigma0_sq + xi_t @ xi / nv
    try:
        cov = np.linalg.inv(precision)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - sigma0_sq finite
        raise NumericalFailure("singular posterior precision") from exc
    mean = np.matvec(cov, model.beta0 / model.sigma0_sq + np.matvec(xi_t, x) / nv)
    return mean, _checked_covariances(mean, 0.5 * (cov + cov.transpose(0, 2, 1)))


def posterior_predictive(
    post: GaussianParamDist, xi, noise_variance: float
) -> Gaussian:
    """Predictive N(xi.mean, xi.cov.xi + noise_variance) at covariates xi."""
    means, stddevs = _predictive_stack(post.mean[None], post.covariance[None], xi, noise_variance)
    return Gaussian(means[0], stddevs[0])


def _predictive_stack(means: np.ndarray, covs: np.ndarray, xi,
                      noise_variance: float) -> tuple[np.ndarray, np.ndarray]:
    """``posterior_predictive`` over (S, 2) means and (S, 2, 2) covariances: (S,) means, stddevs.

    ``np.vecdot`` sums each entry as the one-posterior dot products do.  The
    pairs pass ``Gaussian``'s checks; the first that fails raises its error.
    """
    if noise_variance <= 0:
        raise InvalidArgument(f"noise variance must be > 0, got {noise_variance}")
    xi = np.asarray(xi, dtype=float).reshape(2)
    mean = np.vecdot(means, xi)
    stddev = np.sqrt(np.vecdot(xi @ covs, xi) + noise_variance)
    _check_gaussians(mean, stddev)
    return mean, stddev


# ---------------------------------------------------------------------------
# Parameter-space distances and masses
# ---------------------------------------------------------------------------


def gaussian_param_kl(p1: GaussianParamDist, p2: GaussianParamDist) -> float:
    """KL(p1 || p2) between bivariate Gaussians."""
    try:
        inv2 = np.linalg.inv(p2.covariance)
        _, logdet1 = np.linalg.slogdet(p1.covariance)
        _, logdet2 = np.linalg.slogdet(p2.covariance)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("non-invertible covariance in parameter KL") from exc
    dm = p2.mean - p1.mean
    return 0.5 * float(np.trace(inv2 @ p1.covariance) + dm @ inv2 @ dm - 2.0 + logdet2 - logdet1)


def param_tv_upper(p1: GaussianParamDist, p2: GaussianParamDist) -> float:
    """Pinsker upper bound sqrt(KL/2) on the parameter-space TV distance."""
    return math.sqrt(max(gaussian_param_kl(p1, p2), 0.0) / 2.0)


def _checked_square(center, radius: float) -> np.ndarray:
    """The square's ``center`` as a finite 2-vector.

    A radius not > 0, or a centre that is not two finite numbers, raises
    ``InvalidArgument``.
    """
    if not radius > 0:  # also rejects NaN
        raise InvalidArgument(f"radius must be > 0, got {radius}")
    return require_finite_pair("center", center)


def _outer_limits(center: np.ndarray, radius: float, m1, sd1):
    """The outer integral's limits: the square's, narrowed to ``m1 ± OUTER_SDS * sd1``.

    The outer coordinate's mass beyond that rounds to 0, so the narrowing
    drops none; it keeps a posterior far narrower than the square from
    falling between every quadrature node.  A limit moves only where it
    narrows.
    """
    return (np.maximum(center[0] - radius, m1 - OUTER_SDS * sd1),
            np.minimum(center[0] + radius, m1 + OUTER_SDS * sd1))


def posterior_mass_near(post: GaussianParamDist, center, radius: float) -> float:
    """Probability of the axis-aligned square of half-width ``radius``.

    The outer coordinate is integrated by adaptive quadrature against the
    exact conditional-Gaussian probability of the inner coordinate (valid
    for correlated posteriors, unlike the naive product rule), over the
    square's side narrowed by ``_outer_limits``.  This is
    ``_posterior_mass_stack`` on a stack of one posterior.
    """
    return float(_posterior_mass_stack(post.mean[None], post.covariance[None], center,
                                       radius)[0])


def _quad_mass(m1, m2, s11, s12, cond_sd, sd1, lo, hi, center, radius) -> float:
    """One posterior's mass by ``quad`` over the outer limits [lo, hi], in [0, 1]."""

    def integrand(u: float) -> float:
        # u is the first coordinate; inner interval handled in closed form
        cm = m2 + s12 / s11 * (u - m1)
        inner = ndtr((center[1] + radius - cm) / cond_sd) - ndtr((center[1] - radius - cm) / cond_sd)
        z = (u - m1) / sd1
        return float(inner) * math.exp(-0.5 * z * z) / (sd1 * math.sqrt(2.0 * math.pi))

    val, _ = quad(integrand, lo, hi, epsabs=MASS_EPSABS, epsrel=MASS_EPSREL, limit=200)
    return min(max(val, 0.0), 1.0)


# QUADPACK's 21-point Gauss-Kronrod rule (dqk21, Piessens et al. 1983): the Kronrod
# abscissae descend to the centre; the 10-point Gauss rule uses every second one.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980305201, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_KRONROD_ORDER = [1, 3, 5, 7, 9, 0, 2, 4, 6, 8]  # dqk21 adds the pairs at Gauss nodes first
_EPMACH = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)


def _sum_left_to_right(terms: np.ndarray) -> np.ndarray:
    """Each row's sum, added strictly left to right as a scalar loop would (not pairwise)."""
    return np.add.accumulate(terms, axis=1)[:, -1]


def _posterior_mass_stack(means: np.ndarray, covs: np.ndarray, center,
                          radius: float) -> np.ndarray:
    """``posterior_mass_near`` of S posteriors, (S, 2) means and (S, 2, 2) covariances: (S,).

    Bit for bit ``_quad_mass`` on each row.  Each row replays ``quad``'s first
    step as arrays: the integrand at the 21 Kronrod nodes of the row's outer
    limits, then dqk21's sums in its order of additions and dqagse's first
    accuracy test.  A row that passes returns that first estimate, as ``quad``
    does.  Every other row, including one on which ``quad`` warns of roundoff
    (``ier == 2``), runs ``_quad_mass`` on its own entries.  The exponentials
    go through ``math.exp`` and ``s12**2`` is squared per row: numpy's SIMD
    ``exp`` and the array square ``x*x`` round unlike the scalar integrand's
    libm ``exp`` and ``pow``.
    """
    center = _checked_square(center, radius)
    if math.isinf(radius):
        return np.ones(len(means))
    m1, m2 = means[:, 0], means[:, 1]
    s11, s12, s22 = covs[:, 0, 0], covs[:, 0, 1], covs[:, 1, 1]
    cond_sd = np.sqrt(np.maximum(s22 - np.array([c**2 for c in s12]) / s11, 1e-300))
    sd1 = np.sqrt(s11)
    lo, hi = _outer_limits(center, radius, m1, sd1)
    # a row with no mass near the square integrates over [m1, m1]: exactly 0, which the
    # scalar path returns without integrating
    lo, hi = (np.where(lo < hi, lim, m1) for lim in (lo, hi))
    centr, hlgth = 0.5 * (lo + hi), 0.5 * (hi - lo)
    absc = hlgth[:, None] * _XGK[:10]
    u = np.concatenate([centr[:, None], centr[:, None] - absc, centr[:, None] + absc], axis=1)

    d = u - m1[:, None]  # the integrand at the (S, 21) nodes, as _quad_mass takes it
    cm = m2[:, None] + (s12 / s11)[:, None] * d
    inner = (ndtr((center[1] + radius - cm) / cond_sd[:, None])
             - ndtr((center[1] - radius - cm) / cond_sd[:, None]))
    z = d / sd1[:, None]
    w = -0.5 * z * z
    dens = np.array(list(map(math.exp, w.ravel().tolist()))).reshape(w.shape)
    f = inner * dens / (sd1 * math.sqrt(2.0 * math.pi))[:, None]

    fc, f1, f2 = f[:, :1], f[:, 1:11], f[:, 11:]  # the centre, then centr -/+ absc
    fsum = f1 + f2
    resk = _sum_left_to_right(np.concatenate(
        [_WGK[10] * fc, _WGK[_KRONROD_ORDER] * fsum[:, _KRONROD_ORDER]], axis=1))
    resg = _sum_left_to_right(_WG * fsum[:, 1::2])
    resabs = _sum_left_to_right(np.concatenate(
        [np.abs(_WGK[10] * fc),
         _WGK[_KRONROD_ORDER] * (np.abs(f1) + np.abs(f2))[:, _KRONROD_ORDER]], axis=1))
    reskh = (resk * 0.5)[:, None]
    resasc = _sum_left_to_right(np.concatenate(
        [_WGK[10] * np.abs(fc - reskh),
         _WGK[:10] * (np.abs(f1 - reskh) + np.abs(f2 - reskh))], axis=1))

    result = resk * hlgth  # hlgth >= 0: dqk21's |hlgth| is hlgth
    resabs = resabs * hlgth
    resasc = resasc * hlgth
    abserr = np.abs((resk - resg) * hlgth)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = 200.0 * abserr / resasc
    # dqk21's min(1, pow(x, 1.5)) per row, through libm's pow; pow(min(1, x), 1.5) is the
    # same number and cannot overflow
    scaled = resasc * np.array([min(1.0, x) ** 1.5 for x in ratio.tolist()])
    abserr = np.where((resasc != 0.0) & (abserr != 0.0), scaled, abserr)
    abserr = np.where(resabs > _UFLOW / (50.0 * _EPMACH),
                      np.maximum((_EPMACH * 50.0) * resabs, abserr), abserr)

    errbnd = np.maximum(MASS_EPSABS, MASS_EPSREL * np.abs(result))
    roundoff = (abserr <= (100.0 * _EPMACH) * resabs) & (abserr > errbnd)  # quad's ier == 2
    # dqagse names dqk21's resasc "resabs" in this test
    accepted = ~roundoff & (((abserr <= errbnd) & (abserr != resasc)) | (abserr == 0.0))
    out = np.minimum(np.maximum(result, 0.0), 1.0)
    for s in np.flatnonzero(~accepted).tolist():
        out[s] = _quad_mass(m1[s], m2[s], s11[s], s12[s], cond_sd[s], sd1[s], lo[s], hi[s],
                            center, radius)
    return out
