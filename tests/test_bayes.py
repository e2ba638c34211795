"""Conjugate posterior, predictive, parameter-space TV and mass queries."""

import json
import math
import warnings

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
from epibound import bayes
from epibound.bayes import (
    _checked_covariances,
    _posterior_mass_stack,
    _posterior_stack,
    _predictive_stack,
    gaussian_param_kl,
)
from helpers_oracle import grid_posterior_moments, quad_posterior_mass

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
        post = posterior_update(NIGModel(), SourceDataset(np.zeros((0, 2)), np.zeros(0)))
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


class TestPosteriorStack:
    @staticmethod
    def _stack(rng, sims, n):
        xi = rng.uniform(0.0, 1.0, size=(sims, n, 2))
        return xi, rng.normal(xi @ np.array([0.0, 1.0]), 0.7)

    @pytest.mark.parametrize("n", [0, 1, 10, 50])
    def test_entries_equal_one_dataset_updates(self, n):
        rng = np.random.default_rng(n)
        xi, x = self._stack(rng, 9, n)
        means, covs = _posterior_stack(NIGModel(), xi, x)
        for s in range(9):
            post = posterior_update(NIGModel(), SourceDataset(xi[s], x[s]))
            assert means[s].tobytes() == post.mean.tobytes()
            assert covs[s].tobytes() == post.covariance.tobytes()

    def test_predictives_round_as_the_one_posterior_formula(self):
        # the dot products posterior_predictive took before it ran on a stack of one
        rng = np.random.default_rng(31)
        a = rng.normal(size=(40, 2, 2))
        covs, means = a @ a.transpose(0, 2, 1) + 1e-3 * np.eye(2), rng.normal(size=(40, 2))
        for xi in (np.array([1.0, 1.0]), rng.normal(size=2), 7.3 * rng.normal(size=2)):
            got_mean, got_sd = _predictive_stack(means, covs, xi, SIGMA_BAR_SQ)
            for s in range(40):
                assert got_mean[s] == float(xi @ means[s])
                assert got_sd[s] == math.sqrt(float(xi @ covs[s] @ xi) + SIGMA_BAR_SQ)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_response_raises_as_its_dataset_alone(self, bad):
        xi, x = self._stack(np.random.default_rng(32), 5, 10)
        x[2, 4], x[4, 0] = bad, -bad  # the third dataset is the first to fail
        with pytest.raises(InvalidArgument) as alone:
            posterior_update(NIGModel(), SourceDataset(xi[2], x[2]))
        with pytest.raises(InvalidArgument) as stacked:
            _posterior_stack(NIGModel(), xi, x)
        assert str(stacked.value) == str(alone.value)
        assert "mean and covariance entries must be finite" in str(alone.value)

    def test_checks_run_entry_by_entry(self):
        # entry 1 is not positive definite, entry 2 not finite, entry 3 not symmetric:
        # a stack of a good entry and the entries from ``first`` on raises entry
        # first's error, as one GaussianParamDist at a time would
        means = np.zeros((4, 2))
        covs = np.stack([np.eye(2), [[1.0, 2.0], [2.0, 1.0]], np.full((2, 2), math.nan),
                         [[1.0, 0.5], [0.0, 1.0]]])
        for first in range(1, 4):
            with pytest.raises((InvalidArgument, NumericalFailure)) as one:
                GaussianParamDist(means[first], covs[first])
            keep = [0, *range(first, 4)]
            with pytest.raises(type(one.value)) as stacked:
                _checked_covariances(means[keep], covs[keep])
            assert str(stacked.value) == str(one.value)
        sym = _checked_covariances(means[:1], covs[:1])
        np.testing.assert_array_equal(sym, covs[:1])


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

    def test_dict_round_trip(self):
        p = GaussianParamDist(np.array([0.2, -0.1]), np.array([[0.5, 0.2], [0.2, 0.3]]))
        data = json.loads(json.dumps(p.to_dict()))
        assert data == {"kind": "gaussian_param", "mean": [0.2, -0.1],
                        "cov": [[0.5, 0.2], [0.2, 0.3]]}
        back = GaussianParamDist.from_dict(data)
        assert back.mean.tobytes() == p.mean.tobytes()
        assert back.covariance.tobytes() == p.covariance.tobytes()

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

    @pytest.mark.filterwarnings("error")
    def test_invalid_radius(self):
        p = GaussianParamDist(np.zeros(2), np.eye(2))
        with pytest.raises(InvalidArgument):
            posterior_mass_near(p, (0.0, 0.0), 0.0)
        with pytest.raises(InvalidArgument, match="radius must be > 0, got nan"):
            posterior_mass_near(p, (0.0, 0.0), math.nan)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("center", [
        (math.nan, 0.0), (0.0, math.inf), (0.0,), (0.0, 1.0, 2.0), "ab", None,
        [[0.0], [1.0, 2.0]],
    ], ids=["nan", "inf", "one", "three", "text", "none", "ragged"])
    def test_invalid_center(self, center):
        p = GaussianParamDist(np.zeros(2), np.eye(2))
        with pytest.raises(InvalidArgument, match="center must be two finite numbers"):
            posterior_mass_near(p, center, 0.5)
        with pytest.raises(InvalidArgument, match="center must be two finite numbers"):
            _posterior_mass_stack(p.mean[None], p.covariance[None], center, 0.5)

    def test_posterior_narrower_than_the_nodes(self):
        # on [-0.25, 0.25] no Kronrod node lies within 1,000 sd of the spike: quad read 0.0
        p = GaussianParamDist(np.array([0.2499, 0.0]), np.diag([1e-12, 1.0]))
        expected = 2 * ndtr(0.25) - 1
        assert expected == pytest.approx(0.19741, abs=1e-5)
        assert posterior_mass_near(p, (0.0, 0.0), 0.25) == pytest.approx(expected, abs=1e-9)
        assert _posterior_mass_stack(p.mean[None], p.covariance[None], (0.0, 0.0),
                                     0.25)[0] == pytest.approx(expected, abs=1e-9)

    def test_independent_product_rule(self):
        rng = np.random.default_rng(44)
        count, center, radius = 400, np.array([0.3, -0.2]), 0.25
        sd = 10 ** rng.uniform(-4, 2, (count, 2))
        means = center + rng.uniform(-1.5, 1.5, (count, 2)) * np.maximum(sd, radius)
        covs = np.zeros((count, 2, 2))
        covs[:, 0, 0], covs[:, 1, 1] = sd[:, 0] ** 2, sd[:, 1] ** 2
        expected = np.prod(ndtr((center + radius - means) / sd)
                           - ndtr((center - radius - means) / sd), axis=1)
        scalar = [posterior_mass_near(GaussianParamDist(m, c), center, radius)
                  for m, c in zip(means, covs)]
        np.testing.assert_allclose(scalar, expected, rtol=0, atol=1e-9)
        np.testing.assert_allclose(_posterior_mass_stack(means, covs, center, radius), expected,
                                   rtol=0, atol=1e-9)

    def test_correlated_against_mc(self):
        cov = np.array([[1.0, 0.6], [0.6, 1.0]])
        p = GaussianParamDist(np.array([0.2, -0.1]), cov)
        val = posterior_mass_near(p, (0.0, 0.0), 0.8)
        rng = np.random.default_rng(26)
        xs = rng.multivariate_normal(p.mean, cov, size=400000)
        mc = np.mean(np.all(np.abs(xs) <= 0.8, axis=1))
        assert val == pytest.approx(mc, abs=4 * math.sqrt(mc * (1 - mc) / 400000))


class TestPosteriorMassStack:
    """The stacked first quadrature step against the scalar quad path, bit for bit."""

    @staticmethod
    def _batch(rng, count: int):
        """Posteriors with sd1 in [1e-4, 1e2], |rho| up to 0.999, and a centre up to 40 sd out."""
        sd = 10 ** rng.uniform(-4, 2, (count, 2))
        rho = rng.uniform(-0.999, 0.999, count)
        covs = np.empty((count, 2, 2))
        covs[:, 0, 0], covs[:, 1, 1] = sd[:, 0] ** 2, sd[:, 1] ** 2
        covs[:, 0, 1] = covs[:, 1, 0] = rho * sd[:, 0] * sd[:, 1]
        center = rng.normal(0.0, 2.0, 2)
        offsets = rng.normal(0.0, 1.0, (count, 2)) * rng.choice([0.5, 3.0, 8.0, 40.0], (count, 1))
        return center + offsets * sd, covs, center, float(10 ** rng.uniform(-2, 0.5))

    def test_bitwise_equal_to_the_scalar_path(self, monkeypatch):
        calls = []

        def counting(*args, _quad=bayes.quad, **kwargs):
            calls.append(1)
            return _quad(*args, **kwargs)

        monkeypatch.setattr(bayes, "quad", counting)
        rng = np.random.default_rng(45)
        rows = fallbacks = 0
        for _ in range(10):
            means, covs, center, radius = self._batch(rng, 1000)
            calls.clear()
            with warnings.catch_warnings(record=True) as stack_warnings:
                warnings.simplefilter("always")
                stack = _posterior_mass_stack(means, covs, center, radius)
            fallbacks += len(calls)
            with warnings.catch_warnings(record=True) as scalar_warnings:
                warnings.simplefilter("always")
                scalar = np.array([quad_posterior_mass(GaussianParamDist._of(m, c), center,
                                                       radius) for m, c in zip(means, covs)])
            assert stack.tobytes() == scalar.tobytes()
            # the arrays warn of nothing; a row quad warns on runs _quad_mass, warning kept
            assert ([str(w.message) for w in stack_warnings]
                    == [str(w.message) for w in scalar_warnings])
            rows += len(means)
        assert 0 < fallbacks < rows  # both the first step and the scalar path ran

    def test_a_row_quad_warns_on_keeps_its_warning(self):
        from scipy.integrate import IntegrationWarning

        mean = np.array([-5.877042553715268e-06, -125.20681740860502])
        cov = np.array([[4.401745986339243e-10, 0.01202573410681535],
                        [0.01202573410681535, 332863.2936849623]])
        radius = 0.0010935698796058714
        with pytest.warns(IntegrationWarning):
            scalar = quad_posterior_mass(GaussianParamDist(mean, cov), (0.0, 0.0), radius)
        with pytest.warns(IntegrationWarning):
            stack = _posterior_mass_stack(mean[None], cov[None], (0.0, 0.0), radius)
        assert stack.tobytes() == np.array([scalar]).tobytes()
        with pytest.warns(IntegrationWarning):  # the public stack of one
            assert posterior_mass_near(GaussianParamDist(mean, cov), (0.0, 0.0), radius) == scalar

    def test_infinite_radius_and_no_rows(self):
        means, covs = np.zeros((3, 2)), np.tile(np.eye(2), (3, 1, 1))
        np.testing.assert_array_equal(_posterior_mass_stack(means, covs, (0, 0), math.inf), 1.0)
        assert _posterior_mass_stack(means[:0], covs[:0], (0, 0), 0.5).shape == (0,)


class TestSourceDataset:
    def test_lengths_must_agree(self):
        with pytest.raises(InvalidArgument, match="xi and x must agree in length"):
            SourceDataset(np.zeros((2, 2)), np.zeros(3))
