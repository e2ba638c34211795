"""Bayesian linear-regression transfer learner.

The learner fits a Normal-Inverse-Gamma model to one observation per source
task, updating only the coefficient distribution: the regression noise
variance is plugged in as the prior mean of the inverse-gamma component,
leaving the variance distribution at its prior.  The coefficient posterior
is then a closed-form bivariate Gaussian.

``scipy.integrate`` and ``scipy.special`` are loaded at the first
``posterior_mass_near``, not at import; see ``_deferred``.  Its ``quad`` is
``divergences.quad``, and ``ndtr`` rebinds to scipy's ufunc at its first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._deferred import Deferred
from .distributions import Gaussian, _check_gaussians
from .divergences import quad
from .errors import InvalidArgument, NumericalFailure

ndtr = Deferred("scipy.special", "ndtr", globals())

COV_SYM_TOL = 1e-12


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


def empty_dataset() -> SourceDataset:
    return SourceDataset(np.zeros((0, 2)), np.zeros(0))


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


def posterior_mass_near(post: GaussianParamDist, center, radius: float) -> float:
    """Probability of the axis-aligned square of half-width ``radius``.

    The outer coordinate is integrated by adaptive quadrature against the
    exact conditional-Gaussian probability of the inner coordinate (valid
    for correlated posteriors, unlike the naive product rule).
    """
    if not radius > 0:  # also rejects NaN
        raise InvalidArgument(f"radius must be > 0, got {radius}")
    center = np.asarray(center, dtype=float).reshape(2)
    if math.isinf(radius):
        return 1.0
    m1, m2 = post.mean
    s11 = post.covariance[0, 0]
    s12 = post.covariance[0, 1]
    s22 = post.covariance[1, 1]
    cond_var = s22 - s12**2 / s11
    cond_sd = math.sqrt(max(cond_var, 1e-300))
    sd1 = math.sqrt(s11)

    def integrand(u: float) -> float:
        # u is the first coordinate; inner interval handled in closed form
        cm = m2 + s12 / s11 * (u - m1)
        inner = ndtr((center[1] + radius - cm) / cond_sd) - ndtr((center[1] - radius - cm) / cond_sd)
        z = (u - m1) / sd1
        return float(inner) * math.exp(-0.5 * z * z) / (sd1 * math.sqrt(2.0 * math.pi))

    val, _ = quad(integrand, center[0] - radius, center[0] + radius, epsabs=1e-6, epsrel=1e-9, limit=200)
    return min(max(val, 0.0), 1.0)
