"""Conjugate posterior, predictive, parameter-space TV and mass queries."""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from epibound import (
    GaussianParamDist,
    InvalidArgument,
    NIGModel,
    NumericalFailure,
    SourceDataset,
    param_tv_upper,
    posterior_mass_near,
    posterior_predictive,
    posterior_update,
)
from epibound.bayes import empty_dataset, gaussian_param_kl
from helpers_oracle import grid_posterior_moments

SIGMA_BAR_SQ = 10.0 / 19.0  # prior mean of IG(20, 10)


class TestNIGModel:
    def test_defaults(self):
        m = NIGModel()
        np.testing.assert_allclose(m.beta0, [0.0, 0.0])
        assert (m.alpha0, m.delta0, m.sigma0_sq) == (20.0, 10.0, 1.0)
        assert m.prior_noise_variance == pytest.approx(SIGMA_BAR_SQ)

    def test_positivity(self):
        with pytest.raises(InvalidArgument):
            NIGModel(alpha0=-1.0)


class TestPosteriorUpdate:
    def test_empty_data_returns_prior(self):
        post = posterior_update(NIGModel(), empty_dataset())
        np.testing.assert_allclose(post.mean, [0.0, 0.0])
        np.testing.assert_allclose(post.covariance, np.eye(2))

    def test_single_row_closed_form(self):
        # one row xi=(1,0), x=1, sigma0^2=1, plug-in noise 10/19:
        # precision = diag(1 + 19/10, 1), mean = (19/29, 0)
        data = SourceDataset(np.array([[1.0, 0.0]]), np.array([1.0]))
        post = posterior_update(NIGModel(), data)
        np.testing.assert_allclose(post.mean, [19.0 / 29.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(post.covariance, np.diag([10.0 / 29.0, 1.0]), atol=1e-14)

    def test_grid_oracle_agreement(self):
        rng = np.random.default_rng(21)
        model = NIGModel()
        nv = model.prior_noise_variance
        for _ in range(10):
            n = int(rng.integers(0, 8))
            xi = rng.uniform(0.0, 1.0, size=(n, 2))
            x = rng.normal(xi @ np.array([0.0, 1.0]), 0.7)
            data = SourceDataset(xi, x)
            post = posterior_update(model, data)
            gm, gc = grid_posterior_moments(model, data, nv)
            np.testing.assert_allclose(post.mean, gm, atol=2e-3)
            np.testing.assert_allclose(post.covariance, gc, atol=2e-3)

    def test_consistency_large_n(self):
        rng = np.random.default_rng(22)
        beta = np.array([0.0, 1.0])
        n = 500
        xi = rng.uniform(0.0, 1.0, size=(n, 2))
        x = rng.normal(xi @ beta, math.sqrt(SIGMA_BAR_SQ))
        data = SourceDataset(xi, x)
        post = posterior_update(NIGModel(), data)
        assert np.abs(post.mean - beta).max() < 0.05

    def test_permutation_invariance(self):
        rng = np.random.default_rng(23)
        xi = rng.uniform(size=(6, 2))
        x = rng.normal(size=6)
        data = SourceDataset(xi, x)
        perm = rng.permutation(6)
        shuffled = SourceDataset(xi[perm], x[perm])
        a = posterior_update(NIGModel(), data)
        b = posterior_update(NIGModel(), shuffled)
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-12)
        np.testing.assert_allclose(a.covariance, b.covariance, atol=1e-12)


class TestPosteriorPredictive:
    def test_prior_predictive(self):
        prior = GaussianParamDist(np.zeros(2), np.eye(2))
        pred = posterior_predictive(prior, (1.0, 1.0), SIGMA_BAR_SQ)
        assert pred.mean == 0.0
        assert pred.stddev**2 == pytest.approx(2.0 + SIGMA_BAR_SQ, abs=1e-12)

    def test_degenerate_posterior(self):
        tight = GaussianParamDist(np.array([0.0, 1.0]), 1e-12 * np.eye(2))
        pred = posterior_predictive(tight, (1.0, 1.0), SIGMA_BAR_SQ)
        assert pred.mean == pytest.approx(1.0)
        assert pred.stddev**2 == pytest.approx(SIGMA_BAR_SQ, rel=1e-9)

    def test_linearity_in_covariates(self):
        post = GaussianParamDist(np.array([0.0, 0.7]), 0.1 * np.eye(2))
        p1 = posterior_predictive(post, (0.0, 1.0), SIGMA_BAR_SQ)
        p2 = posterior_predictive(post, (0.0, 2.0), SIGMA_BAR_SQ)
        assert p2.mean == pytest.approx(2 * p1.mean)

    def test_variance_floor(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            a = rng.normal(size=(2, 2))
            cov = a @ a.T + 1e-6 * np.eye(2)
            post = GaussianParamDist(rng.normal(size=2), cov)
            xi = rng.normal(size=2)
            pred = posterior_predictive(post, xi, SIGMA_BAR_SQ)
            assert pred.stddev**2 >= SIGMA_BAR_SQ - 1e-12


class TestParamTV:
    def test_identical(self):
        p = GaussianParamDist(np.zeros(2), np.eye(2))
        assert param_tv_upper(p, p) == 0.0

    def test_unit_mean_shift(self):
        p1 = GaussianParamDist(np.zeros(2), np.eye(2))
        p2 = GaussianParamDist(np.array([1.0, 0.0]), np.eye(2))
        assert gaussian_param_kl(p1, p2) == pytest.approx(0.5, abs=1e-14)
        assert param_tv_upper(p1, p2) == pytest.approx(0.5, abs=1e-14)

    def test_monotone_in_shrinking_covariance(self):
        p1 = GaussianParamDist(np.zeros(2), np.eye(2))
        vals = [
            param_tv_upper(p1, GaussianParamDist(np.array([0.5, 0.0]), s * np.eye(2)))
            for s in (1.0, 0.5, 0.1, 0.01)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_non_pd_covariance(self):
        with pytest.raises(NumericalFailure):
            GaussianParamDist(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("mean, cov", [
        ([math.nan, 0.0], np.eye(2)),
        ([math.inf, 0.0], np.eye(2)),
        ([0.0, 0.0], [[math.inf, 0.0], [0.0, 1.0]]),
        ([0.0, 0.0], [[1.0, math.nan], [math.nan, 1.0]]),
    ], ids=["nan-mean", "inf-mean", "inf-cov", "nan-cov"])
    def test_non_finite_parameters(self, mean, cov):
        with pytest.raises(InvalidArgument, match="mean and covariance entries must be finite"):
            GaussianParamDist(np.array(mean), np.array(cov))


class TestPosteriorMass:
    def test_huge_radius(self):
        p = GaussianParamDist(np.zeros(2), np.eye(2))
        assert posterior_mass_near(p, (0.0, 0.0), 50.0) == pytest.approx(1.0, abs=1e-9)

    def test_diagonal_product_rule(self):
        p = GaussianParamDist(np.zeros(2), np.eye(2))
        expected = (2 * ndtr(1.0) - 1) ** 2
        assert posterior_mass_near(p, (0.0, 0.0), 1.0) == pytest.approx(expected, abs=1e-6)
        assert expected == pytest.approx(0.4660, abs=1e-4)

    def test_tiny_radius(self):
        p = GaussianParamDist(np.zeros(2), np.eye(2))
        assert posterior_mass_near(p, (0.0, 0.0), 1e-6) == pytest.approx(0.0, abs=1e-6)

    def test_invalid_radius(self):
        p = GaussianParamDist(np.zeros(2), np.eye(2))
        with pytest.raises(InvalidArgument):
            posterior_mass_near(p, (0.0, 0.0), 0.0)

    def test_correlated_against_mc(self):
        cov = np.array([[1.0, 0.6], [0.6, 1.0]])
        p = GaussianParamDist(np.array([0.2, -0.1]), cov)
        val = posterior_mass_near(p, (0.0, 0.0), 0.8)
        rng = np.random.default_rng(26)
        xs = rng.multivariate_normal(p.mean, cov, size=400000)
        mc = np.mean(np.all(np.abs(xs) <= 0.8, axis=1))
        assert val == pytest.approx(mc, abs=4 * math.sqrt(mc * (1 - mc) / 400000))


class TestSourceDataset:
    def test_lengths_must_agree(self):
        with pytest.raises(InvalidArgument, match="xi and x must agree in length"):
            SourceDataset(np.zeros((2, 2)), np.zeros(3))
