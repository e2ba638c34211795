"""Bayesian linear-regression transfer learner.

The learner fits a Normal-Inverse-Gamma model to one observation per source
task, updating only the coefficient distribution: the regression noise
variance is plugged in as the prior mean of the inverse-gamma component,
leaving the variance distribution at its prior.  The coefficient posterior
is then a closed-form bivariate Gaussian.

``scipy.integrate`` is loaded at the first quadrature
(``posterior_mass_near``), not at import; see ``divergences.quad``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import ndtr

from .distributions import Gaussian
from .divergences import quad
from .errors import InvalidArgument, NumericalFailure

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
        if not (np.isfinite(m).all() and np.isfinite(c).all()):
            raise InvalidArgument(f"mean and covariance entries must be finite, got mean "
                                  f"{m.tolist()} and covariance {c.tolist()}")
        if np.abs(c - c.T).max() > COV_SYM_TOL:
            raise NumericalFailure("covariance must be symmetric to 1e-12")
        c = 0.5 * (c + c.T)
        eigvals = np.linalg.eigvalsh(c)
        if eigvals.min() <= 0:
            raise NumericalFailure(f"covariance must be positive definite, eigenvalues {eigvals}")
        m.flags.writeable = False
        c.flags.writeable = False
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "covariance", c)

    def to_dict(self) -> dict:
        return {
            "kind": "gaussian_param",
            "mean": self.mean.tolist(),
            "cov": self.covariance.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GaussianParamDist":
        return cls(np.asarray(data["mean"], dtype=float), np.asarray(data["cov"], dtype=float))


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
    """
    nv = model.prior_noise_variance
    X = data.xi
    precision = np.eye(2) / model.sigma0_sq + X.T @ X / nv
    try:
        cov = np.linalg.inv(precision)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - sigma0_sq finite
        raise NumericalFailure("singular posterior precision") from exc
    mean = cov @ (model.beta0 / model.sigma0_sq + X.T @ data.x / nv)
    return GaussianParamDist(mean, 0.5 * (cov + cov.T))


def posterior_predictive(
    post: GaussianParamDist, xi, noise_variance: float
) -> Gaussian:
    """Predictive N(xi.mean, xi.cov.xi + noise_variance) at covariates xi."""
    if noise_variance <= 0:
        raise InvalidArgument(f"noise variance must be > 0, got {noise_variance}")
    xi = np.asarray(xi, dtype=float).reshape(2)
    mean = float(xi @ post.mean)
    var = float(xi @ post.covariance @ xi) + noise_variance
    return Gaussian(mean, math.sqrt(var))


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
    if radius <= 0:
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
