"""Distribution types, summary functionals and their invariants."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epibound import (
    Categorical,
    FiniteTaskDistribution,
    Gaussian,
    GaussianMixture,
    InvalidArgument,
    InvalidTaskDistribution,
    InverseGammaGaussianTasks,
    ModelClass,
    NumericalFailure,
    PreconditionViolated,
    barycenter,
    diameter,
    distribution_from_dict,
    evaluate_bound,
    finite_tasks,
    sample,
    sample_task,
    sup_variance,
    task_distribution_from_dict,
    task_distribution_tv,
)
from epibound.distributions import (
    DEFAULT_THRESHOLDS,
    _event_masks,
    as_finite,
    _event_variances,
    _thresholds,
    max_first_order_b,
    max_second_order_b,
)
from epibound.experiments import _sampled_barycenter
from helpers_oracle import reference_matched_tv


def event_variance(w, q):
    """Var(Q(A)) over tasks of weights ``w``, from their probabilities ``q`` = Q(A) of one event."""
    return float(w @ (q - w @ q) ** 2)


def outcome_probabilities(P, indices):
    """Q(A) = p[A].sum() for every task row p of ``P``, on the event of outcome ``indices``."""
    return P[:, list(indices)].sum(axis=1)


def interval_probabilities(tasks, lo, hi):
    """Q((lo, hi]) = cdf(hi) - cdf(lo) for every task of ``tasks``."""
    return np.array([float(t.cdf(hi) - t.cdf(lo)) for t in tasks.tasks])


def kernel_variances(tasks):
    """The product's Var(Q(A)) of every event A of a categorical space, keyed by A's outcomes."""
    v = _event_variances(tasks.P, tasks.weights, tasks.weights @ tasks.P)
    return {tuple(np.flatnonzero(mask).tolist()): x
            for mask, x in zip(_event_masks(tasks.P.shape[1]), v.tolist())}


def two_task_binary():
    return finite_tasks([
        (Categorical([0.3, 0.7]), 0.5),
        (Categorical([0.5, 0.5]), 0.5),
    ])


class TestConstruction:
    def test_categorical_rejects_bad_sum(self):
        with pytest.raises(InvalidArgument):
            Categorical([0.5, 0.5 + 1e-6])
        with pytest.raises(InvalidArgument):
            Categorical([math.nan, math.nan])

    def test_categorical_accepts_tolerated_sum(self):
        Categorical([0.5, 0.5 + 1e-13])

    def test_categorical_rejects_negative(self):
        with pytest.raises(InvalidArgument):
            Categorical([-0.1, 1.1])

    def test_gaussian_rejects_nonpositive_stddev(self):
        with pytest.raises(InvalidArgument):
            Gaussian(0.0, 0.0)
        with pytest.raises(InvalidArgument):
            Gaussian(0.0, math.inf)
        with pytest.raises(InvalidArgument):
            Gaussian(math.nan, 1.0)

    def test_mixture_rejects_bad_weights(self):
        with pytest.raises(InvalidArgument, match="mixture weights must be nonnegative"):
            GaussianMixture([1.5, -0.5], [0.0, 1.0], [1.0, 1.0])
        with pytest.raises(InvalidArgument, match="mixture weights must sum to 1"):
            GaussianMixture([0.6, 0.6], [0.0, 1.0], [1.0, 1.0])
        with pytest.raises(InvalidArgument):
            GaussianMixture([math.nan, math.nan], [0.0, 1.0], [1.0, 1.0])
        with pytest.raises(InvalidArgument):
            GaussianMixture([0.5, 0.5], [0.0, math.inf], [1.0, 1.0])
        with pytest.raises(InvalidArgument):
            GaussianMixture([0.5, 0.5], [0.0, 1.0], [1.0, math.nan])

    def test_task_distributions_reject_non_finite_parameters(self):
        with pytest.raises(InvalidTaskDistribution):
            FiniteTaskDistribution((Categorical([1.0]),) * 2, [math.nan, math.nan])
        with pytest.raises(InvalidTaskDistribution):
            InverseGammaGaussianTasks(0.0, math.nan, 1.0)
        with pytest.raises(InvalidTaskDistribution):
            InverseGammaGaussianTasks(math.nan, 2.0, 1.0)

    def test_empty_task_list(self):
        with pytest.raises(InvalidTaskDistribution):
            finite_tasks([])

    def test_mixed_spaces_rejected(self):
        with pytest.raises(InvalidTaskDistribution):
            finite_tasks([(Categorical([1.0]), 0.5), (Gaussian(0, 1), 0.5)])

    def test_values_are_frozen(self):
        c = Categorical([0.4, 0.6])
        with pytest.raises(ValueError):
            c.p[0] = 0.9


def reference_mixture_logpdf(mix: GaussianMixture, x) -> np.ndarray:
    """The allocating log-sum-exp that GaussianMixture.logpdf must match bit for bit."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = (x[:, None] - mix.means[None, :]) / mix.stddevs[None, :]
    comp = -0.5 * z**2 - np.log(mix.stddevs)[None, :] - 0.5 * math.log(2.0 * math.pi)
    with np.errstate(divide="ignore"):
        comp = comp + np.log(mix.weights)[None, :]
    mx = comp.max(axis=1, keepdims=True)
    mx[~np.isfinite(mx)] = 0.0  # as logsumexp: a row of -inf gives -inf, not NaN
    with np.errstate(divide="ignore"):
        return mx[:, 0] + np.log(np.exp(comp - mx).sum(axis=1))


# (mixture, whether it has one common mean, whether it has one common weight)
LOGPDF_MIXTURES = {
    "common-mean-equal-weights": (
        barycenter(InverseGammaGaussianTasks(-0.4, 3.0, 2.0).reify(64)), True, True),
    "common-mean-unequal-weights": (
        GaussianMixture([0.1, 0.2, 0.3, 0.4], [0.5] * 4, [0.3, 1.0, 2.0, 4.5]), True, False),
    "distinct-means-equal-weights": (
        GaussianMixture([0.25] * 4, [-1.0, 0.0, 0.5, 3.0], [0.7, 1.0, 1.5, 0.4]), False, True),
    "distinct-means-unequal-weights": (
        GaussianMixture([0.2, 0.3, 0.5], [-1.0, 0.5, 2.0], [0.7, 1.0, 2.5]), False, False),
}


class TestMixtureLogpdf:
    @pytest.mark.parametrize("name", LOGPDF_MIXTURES)
    def test_each_path_bitwise_equal_to_reference(self, name):
        mix, common_mean, common_weight = LOGPDF_MIXTURES[name]
        assert (mix._common_mean is not None) == common_mean
        assert (mix._common_log_weight is not None) == common_weight
        x = np.concatenate([sample(mix, 300, seed=3), mix.means, np.linspace(-12.0, 12.0, 97),
                            [math.nan]])
        got = mix.logpdf(x)
        assert np.isnan(got[-1]) and np.all(np.isfinite(got[:-1]))
        assert np.array_equal(got, reference_mixture_logpdf(mix, x), equal_nan=True)

    @pytest.mark.parametrize("name", LOGPDF_MIXTURES)
    def test_non_finite_rows_are_minus_inf(self, name):
        # z**2 overflows (or x - mu is infinite) in every component; the reference's
        # -inf - -inf gives NaN there
        mix = LOGPDF_MIXTURES[name][0]
        with np.errstate(over="ignore", divide="ignore"):
            got = mix.logpdf([math.inf, -math.inf, 1e308, -1e308])
        assert np.array_equal(got, np.full(4, -np.inf))

    def test_tiny_stddev_scale_mixture(self):
        mix = GaussianMixture([0.5, 0.5], [1.0, 1.0], [1e-160, 2e-160])
        assert mix._common_mean == 1.0 and mix._common_log_weight == math.log(0.5)
        with np.errstate(over="ignore", divide="ignore"):
            got = mix.logpdf([1.2, 1.0, -3.0])
        assert got[0] == got[2] == -np.inf
        assert np.array_equal(got[1:2], reference_mixture_logpdf(mix, [1.0]))

    def test_bitwise_equal_to_reference_on_sampled_barycenter(self):
        mix = _sampled_barycenter(InverseGammaGaussianTasks(10.0 / 19.0, 3.0, 2.0), 5)
        assert mix.weights.size == 256
        x = sample(mix, 400, seed=7)
        before = x.copy()
        got = mix.logpdf(x)
        assert got.shape == (400,)
        assert np.array_equal(got, reference_mixture_logpdf(mix, x))
        assert np.array_equal(x, before)

    def test_scalar_and_list_inputs(self):
        mix = GaussianMixture([0.2, 0.3, 0.5], [-1.0, 0.5, 2.0], [0.7, 1.0, 2.5])
        for x in (0.3, [-4.0, 0.0, 1.25, 9.0]):
            assert np.array_equal(mix.logpdf(x), reference_mixture_logpdf(mix, x))
        assert mix.logpdf(0.3).shape == (1,)

    def test_zero_weight_component(self):
        mix = GaussianMixture([0.0, 0.4, 0.6], [5.0, 0.0, 1.0], [1.0, 1.0, 2.0])
        x = np.linspace(-3.0, 8.0, 23)
        got = mix.logpdf(x)
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, reference_mixture_logpdf(mix, x))

    def test_vanishing_row_is_minus_inf(self):
        # z**2 overflows at stddevs near 1e-160: every component's log-density is
        # -inf off the means, and so is the mixture's, not NaN
        mix = GaussianMixture([0.5, 0.5], [1.0, 1.0 + 1e-159], [1e-160, 2e-160])
        x = np.array([1.2, 1.0, -3.0])
        got = mix.logpdf(x)
        assert got[0] == got[2] == -np.inf
        assert np.array_equal(got[1:2], reference_mixture_logpdf(mix, x[1:2]))
        one = GaussianMixture([1.0], [1.0], [1e-160])
        assert np.array_equal(one.logpdf(x), Gaussian(1.0, 1e-160).logpdf(x))

    @pytest.mark.parametrize("w, mu, sd", [
        (1.0, 0.75, 1.3),
        (1.0 - 1e-13, -2.5, 0.3),  # a log-weight that is not 0
        (1.0, 0.0, math.exp(-0.5 * math.log(2.0 * math.pi))),  # 0 at x = 0
        (1.0, 1e300, 1e-10),  # z**2 overflows off the mean
    ])
    def test_one_component_bitwise_equal_to_log_sum_exp(self, w, mu, sd):
        mix = GaussianMixture([w], [mu], [sd])
        x = np.concatenate([sample(mix, 200, seed=4), [mu, -0.0, 0.0, math.inf, -math.inf,
                                                       math.nan, 1e308, -1e308]])
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = mix.logpdf(x), reference_mixture_logpdf(mix, x)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        # as integers, so that -0.0 and 0.0 differ
        assert np.array_equal(got[~np.isnan(want)].view(np.int64),
                              want[~np.isnan(want)].view(np.int64))

    def test_one_component_equals_gaussian(self):
        x = np.linspace(-6.0, 7.0, 41)
        mix = GaussianMixture([1.0], [0.75], [1.3])
        assert np.array_equal(mix.logpdf(x), Gaussian(0.75, 1.3).logpdf(x))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 300), st.floats(-50.0, 50.0), st.booleans(), st.integers(0, 2**31 - 1))
def test_scale_mixture_logpdf_property(k, mean, equal_weights, seed):
    rng = np.random.default_rng(seed)
    stddevs = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), k))
    weights = np.full(k, 1.0 / k) if equal_weights else rng.dirichlet(np.ones(k))
    mix = GaussianMixture(weights, np.full(k, mean), stddevs)
    x = np.append(sample(mix, 50, seed=seed), mean)
    assert np.array_equal(mix.logpdf(x), reference_mixture_logpdf(mix, x))


class TestBarycenter:
    def test_weighted_average(self):
        bary = barycenter(two_task_binary())
        np.testing.assert_allclose(bary.p, [0.4, 0.6], atol=1e-15)

    def test_point_mass(self):
        bary = barycenter(finite_tasks([(Categorical([0.2, 0.8]), 1.0)]))
        np.testing.assert_allclose(bary.p, [0.2, 0.8], atol=0)

    def test_gaussian_pair_gives_mixture(self):
        bary = barycenter(finite_tasks([(Gaussian(0, 1), 0.5), (Gaussian(2, 1), 0.5)]))
        assert isinstance(bary, GaussianMixture)
        np.testing.assert_allclose(bary.weights, [0.5, 0.5])
        np.testing.assert_allclose(bary.means, [0.0, 2.0])
        np.testing.assert_allclose(bary.stddevs, [1.0, 1.0])

    def test_convexity_over_events(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = int(rng.integers(2, 6))
            k = int(rng.integers(2, 6))
            tasks = finite_tasks([
                (Categorical(rng.dirichlet(np.ones(m))), w)
                for w in rng.dirichlet(np.ones(k))
            ])
            bary = barycenter(tasks)
            event = [i for i in range(m) if rng.random() < 0.5]
            probs = outcome_probabilities(tasks.P, event)
            assert probs.min() - 1e-12 <= bary.p[event].sum() <= probs.max() + 1e-12

    @pytest.mark.parametrize("k", [1, 16, 256])
    def test_parametric_equals_reified(self, k):
        # the equal-weight mixture of the reified columns; a family itself at 256 nodes
        fam = InverseGammaGaussianTasks(mean=2.0, shape=20.0, rate=10.0)
        fin = fam.reify(k)
        mix = barycenter(fin)
        assert np.array_equal(mix.weights, np.full(k, 1.0 / k))
        assert np.array_equal(mix.means, fin.means) and np.array_equal(mix.stddevs, fin.stddevs)
        direct, reified = barycenter(fam), barycenter(fam.reify())
        for name in ("weights", "means", "stddevs"):
            assert np.array_equal(getattr(direct, name), getattr(reified, name)), name

    def test_parametric_rejects_zero_components(self):
        fam = InverseGammaGaussianTasks(mean=0.0, shape=20.0, rate=10.0)
        for bad in (0, 2.5):
            with pytest.raises(InvalidArgument, match="component budget"):
                fam.reify(bad)


class TestVariance:
    """The per-event variances of ``_event_variances``, the kernel of every categorical
    sup-variance, against the variance of each event's probabilities."""

    def test_two_task_example(self):
        assert kernel_variances(two_task_binary())[(0,)] == pytest.approx(0.01, abs=1e-12)

    def test_point_mass_zero(self):
        tasks = finite_tasks([(Categorical([0.2, 0.8]), 1.0)])
        assert kernel_variances(tasks)[(0,)] == 0.0

    def test_full_space_zero(self):
        assert kernel_variances(two_task_binary())[(0, 1)] == pytest.approx(0.0, abs=1e-15)
        assert kernel_variances(two_task_binary())[()] == 0.0

    def test_alternative_form(self):
        # Var(Q(A)) == E[Q(A)^2] - bary(A)^2 on random instances, for every event
        rng = np.random.default_rng(1)
        for _ in range(200):
            m = int(rng.integers(2, 6))
            k = int(rng.integers(2, 6))
            weights = rng.dirichlet(np.ones(k))
            tasks = finite_tasks([
                (Categorical(rng.dirichlet(np.ones(m))), w) for w in weights
            ])
            for event, v in kernel_variances(tasks).items():
                qa = outcome_probabilities(tasks.P, event)
                alt = float(weights @ qa**2) - float(weights @ qa) ** 2
                assert v == pytest.approx(alt, abs=1e-10)
                assert v == pytest.approx(event_variance(weights, qa), abs=1e-15)
                assert v <= 0.25 + 1e-12


class TestSupVariance:
    def test_two_task_example(self):
        assert sup_variance(two_task_binary()) == pytest.approx(0.01, abs=1e-12)

    def test_point_mass(self):
        assert sup_variance(finite_tasks([(Categorical([0.2, 0.8]), 1.0)])) == 0.0

    def test_disjoint_corners(self):
        tasks = finite_tasks([(Categorical([1.0, 0.0]), 0.5), (Categorical([0.0, 1.0]), 0.5)])
        assert sup_variance(tasks) == pytest.approx(0.25, abs=1e-15)

    def test_large_space_refused(self):
        p = np.full(13, 1.0 / 13)
        tasks = finite_tasks([(Categorical(p), 1.0)])
        with pytest.raises(InvalidArgument):
            sup_variance(tasks)

    def test_continuous_threshold_grid(self):
        tasks = finite_tasks([(Gaussian(0, 1), 0.5), (Gaussian(2, 1), 0.5)])
        v = sup_variance(tasks)
        # the two CDFs separate most around the midpoint; Q(a) is 50/50 there
        assert 0.0 < v <= 0.25
        point = finite_tasks([(Gaussian(0, 1), 1.0)])
        assert sup_variance(point) == 0.0

    def test_explicit_event_family(self):
        variances = kernel_variances(two_task_binary())
        assert len(variances) == 4 and variances[(0,)] == pytest.approx(0.01, abs=1e-12)
        assert sup_variance(two_task_binary()) == max(variances.values())

    def test_threshold_events_shape(self):
        # the half-lines (-inf, t_k] on the pooled mean +- 6 pooled sd
        ts = _thresholds(finite_tasks([(Gaussian(0, 1), 1.0)]))
        assert ts.shape == (DEFAULT_THRESHOLDS,)
        assert ts[0] == -6.0 and ts[-1] == 6.0 and (np.diff(ts) > 0).all()

    def test_interval_variance_matches_hand_value(self):
        # Q((-inf, 1]) differs across the two tasks; variance by hand.  The grid is
        # centred on 1, where the half-line variance peaks.
        tasks = finite_tasks([(Gaussian(0, 1), 0.5), (Gaussian(2, 1), 0.5)])
        from scipy.special import ndtr

        qa = np.array([ndtr(1.0), ndtr(-1.0)])
        expected = 0.5 * ((qa[0] - qa.mean()) ** 2 + (qa[1] - qa.mean()) ** 2)
        got = event_variance(tasks.weights, interval_probabilities(tasks, -math.inf, 1.0))
        assert got == pytest.approx(expected, abs=1e-12)
        assert sup_variance(tasks) == pytest.approx(expected, abs=1e-12)

    def test_parametric_reified_sup_variance(self):
        fam = InverseGammaGaussianTasks(mean=0.0, shape=20.0, rate=10.0)
        v = sup_variance(fam)
        assert v == sup_variance(fam.reify())
        assert 0.0 <= v <= 0.25

    def test_event_masks_shared_and_read_only(self):
        from epibound.distributions import _event_masks

        masks = _event_masks(3)
        assert masks is _event_masks(3)
        assert not masks.flags.writeable
        assert masks.shape == (8, 3) and {tuple(r) for r in masks} == {
            (a, b, c) for a in (0.0, 1.0) for b in (0.0, 1.0) for c in (0.0, 1.0)}


def reference_sup_variance(tasks):
    """The per-event loop that the half-line sup-variance replaced: one half-line at a time."""
    return max(event_variance(tasks.weights, interval_probabilities(tasks, -math.inf, t))
               for t in _thresholds(tasks).tolist())


class TestHalfLineSupVariance:
    @pytest.mark.parametrize("components", [16, 64, 256])
    def test_bitwise_equal_to_event_loop_on_ig_reifications(self, components):
        rng = np.random.default_rng(components)
        for _ in range(8):
            family = InverseGammaGaussianTasks(rng.uniform(-2, 2), rng.uniform(1, 30),
                                               rng.uniform(0.5, 15))
            tasks = family.reify(components)
            assert sup_variance(tasks) == reference_sup_variance(tasks)

    def test_mixture_tasks_match_event_loop(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            tasks = finite_tasks([
                (GaussianMixture(rng.dirichlet(np.ones(k)), rng.uniform(-2, 2, k),
                                 rng.uniform(0.2, 2.0, k)), w)
                for k, w in zip(rng.integers(1, 6, size=5), rng.dirichlet(np.ones(5)))
            ] + [(Gaussian(0.3, 0.9), 0.0)])
            assert sup_variance(tasks) == pytest.approx(reference_sup_variance(tasks), abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 256])
    def test_bitwise_equal_to_event_loop_on_gaussian_lists(self, n):
        rng = np.random.default_rng(n)
        for _ in range(6):
            weights = rng.dirichlet(np.ones(n))
            if n > 2:
                weights[1] = 0.0
                weights /= weights.sum()
            tasks = finite_tasks(
                (Gaussian(m, s), w) for m, s, w in zip(
                    rng.uniform(-3, 3, n), np.exp(rng.uniform(math.log(0.05), math.log(3.0), n)),
                    weights))
            assert sup_variance(tasks) == reference_sup_variance(tasks)

    @pytest.mark.parametrize("components", [3, 64, 256])
    def test_bitwise_equal_to_event_loop_on_reweighted_ig_reifications(self, components):
        # one common mean, non-uniform weights, some of them zero
        rng = np.random.default_rng(100 + components)
        for _ in range(6):
            family = InverseGammaGaussianTasks(rng.uniform(-2, 2), rng.uniform(1, 30),
                                               rng.uniform(0.5, 15))
            weights = rng.dirichlet(np.full(components, 0.5))
            weights[::3] = 0.0
            weights /= weights.sum()
            tasks = FiniteTaskDistribution(family.reify(components).tasks, weights)
            assert sup_variance(tasks) == reference_sup_variance(tasks)

    @pytest.mark.parametrize("n", [2, 9, 128])
    def test_bitwise_equal_to_event_loop_on_spread_gaussian_families(self, n):
        # distinct means far apart against stddevs over four decades
        rng = np.random.default_rng(200 + n)
        for _ in range(6):
            tasks = finite_tasks((Gaussian(m, s), w) for m, s, w in zip(
                rng.uniform(-40, 40, n), np.exp(rng.uniform(math.log(0.01), math.log(100.0), n)),
                rng.dirichlet(np.full(n, 0.3))))
            assert sup_variance(tasks) == reference_sup_variance(tasks)

    @pytest.mark.parametrize("mixture", [False, True], ids=["gaussians", "with-mixture"])
    def test_nan_variance_raises(self, mixture):
        # a stddev of 1e200 makes the pooled stddev, and so the grid, infinite: its
        # thresholds and rows are NaN, which a running max() would skip
        last = (GaussianMixture([0.5, 0.5], [0.0, 1.0], [1.0, 2.0]) if mixture
                else Gaussian(1.0, 1.0))
        tasks = finite_tasks([(Gaussian(0.0, 1e200), 0.5), (last, 0.5)])
        with np.errstate(all="ignore"), pytest.raises(NumericalFailure, match="NaN"):
            sup_variance(tasks)

    def test_overflowing_pooled_mean_raises(self):
        # means 1e160 apart: the pooled variance, taken about the pooled mean, overflows
        tasks = finite_tasks([(Gaussian(1e160, 1.0), 0.5), (Gaussian(0.0, 1.0), 0.5)])
        with np.errstate(all="ignore"), pytest.raises(NumericalFailure, match="NaN"):
            sup_variance(tasks)

    def test_gaussian_and_mixture_tasks_take_the_column_loop(self, monkeypatch):
        calls = []
        cdf = Gaussian.cdf

        def counting(self, x):
            calls.append(self)
            return cdf(self, x)

        rng = np.random.default_rng(9)
        gaussians = [Gaussian(m, s) for m, s in zip(rng.uniform(-2, 2, 6), rng.uniform(0.3, 2, 6))]
        tasks = finite_tasks(zip(
            gaussians + [GaussianMixture([0.4, 0.6], [-1.0, 1.5], [0.5, 1.2])],
            rng.dirichlet(np.ones(7))))
        expected = reference_sup_variance(tasks)
        monkeypatch.setattr(Gaussian, "cdf", counting)
        assert sup_variance(tasks) == pytest.approx(expected, abs=1e-15)
        assert calls == gaussians


class TestIntervalGap:
    """The half-line family of ``CONTINUOUS_EVENT_FAMILY`` misses a factor of 4 on the
    experiments' task family.  Its tasks share one mean, so a symmetric interval
    [mu - r, mu + r] has 4 times the variance of the half-line at mu - r.  The true
    supremum lies between the interval maximum and E[TV(Q, bary)^2], since
    |Q(A) - bary(A)| <= TV(Q, bary) for every A."""

    def test_intervals_reach_four_times_the_half_lines(self):
        from epibound import tv_exact
        from epibound.distributions import as_finite

        tasks = as_finite(InverseGammaGaussianTasks(1.0, 20.0, 10.0))
        w, ts = tasks.weights, _thresholds(tasks)
        cdfs = np.stack([interval_probabilities(tasks, -math.inf, t) for t in ts.tolist()])
        best, where = 0.0, None
        for i in range(ts.size - 1):  # every interval (t_i, t_j] with i < j, a row at a time
            q = cdfs[i + 1:] - cdfs[i]
            v = ((q - (q @ w)[:, None]) ** 2) @ w
            if v.max() > best:
                best, where = float(v.max()), (i, i + 1 + int(v.argmax()))
        i, j = where
        assert event_variance(w, interval_probabilities(tasks, ts[i], ts[j])) == pytest.approx(
            best, rel=1e-12)
        assert best == pytest.approx(2.913334e-3, abs=5e-10)
        half = sup_variance(tasks)
        assert half == pytest.approx(7.283335e-4, abs=5e-11)
        assert best / half == pytest.approx(4.0, abs=1e-9)
        bary = barycenter(tasks)
        m2_tv = float(w @ np.array([tv_exact(t, bary) for t in tasks.tasks]) ** 2)
        assert m2_tv == pytest.approx(2.9519e-3, abs=5e-8)
        assert half < best < m2_tv


class TestCdf:
    DISTS = (Gaussian(0.4, 1.7), GaussianMixture([0.25, 0.0, 0.75], [-1.0, 3.0, 0.5],
                                                 [0.4, 1.0, 2.2]))

    @pytest.mark.parametrize("dist", DISTS, ids=["gaussian", "mixture"])
    def test_infinite_points(self, dist):
        # every component's ndtr gives exactly 0 and 1; a mixture sums its weights
        assert dist.cdf(math.inf) == pytest.approx(1.0, abs=1e-15)
        assert dist.cdf(-math.inf) == 0.0
        assert Gaussian(0.4, 1.7).cdf(math.inf) == 1.0
        np.testing.assert_array_equal(dist.cdf(np.array([-math.inf, math.inf])),
                                      [0.0, dist.cdf(math.inf)])

    @pytest.mark.parametrize("dist", DISTS, ids=["gaussian", "mixture"])
    def test_scalar_and_array_calls_agree(self, dist):
        xs = np.array([-7.5, -1.0, 0.0, 0.4, 2.25, 30.0])
        got = dist.cdf(xs)
        assert got.shape == xs.shape
        assert [dist.cdf(float(x)) for x in xs] == list(got)
        np.testing.assert_array_equal(dist.cdf(xs.reshape(2, 3)), got.reshape(2, 3))

    def test_mixture_cdf_is_weighted_component_cdfs(self):
        mix = self.DISTS[1]
        for x in (-2.0, 0.1, 1.7):
            parts = [w * Gaussian(m, s).cdf(x)
                     for w, m, s in zip(mix.weights, mix.means, mix.stddevs)]
            assert mix.cdf(x) == pytest.approx(sum(parts), abs=1e-16)


class TestDiameter:
    def test_two_task_example(self):
        assert diameter(two_task_binary()) == pytest.approx(0.2, abs=1e-12)

    def test_singleton(self):
        assert diameter(finite_tasks([(Categorical([0.3, 0.7]), 1.0)])) == 0.0

    def test_disjoint_supports(self):
        tasks = finite_tasks([(Categorical([1.0, 0.0]), 0.5), (Categorical([0.0, 1.0]), 0.5)])
        assert diameter(tasks) == pytest.approx(1.0, abs=0)

    def test_zero_iff_identical(self):
        same = finite_tasks([(Categorical([0.4, 0.6]), 0.5), (Categorical([0.4, 0.6]), 0.5)])
        assert diameter(same) <= 1e-12
        assert diameter(two_task_binary()) > 1e-12

    def test_gaussian_support(self):
        tasks = finite_tasks([(Gaussian(0, 1), 0.5), (Gaussian(2, 1), 0.5)])
        assert diameter(tasks) == pytest.approx(0.6826894921370859, abs=1e-9)


class TestBoundedness:
    def test_first_order_true(self):
        assert max_first_order_b(two_task_binary()) >= 0.25

    def test_first_order_impossible_b(self):
        assert max_first_order_b(two_task_binary()) < 0.6

    def test_second_order_point_mass_task(self):
        tasks = finite_tasks([(Categorical([1.0, 0.0]), 1.0)])
        assert max_second_order_b(tasks) == 0.0

    def test_second_order_full_support(self):
        assert 0.25 <= max_second_order_b(two_task_binary()) < 0.31

    def test_exact_max_b(self):
        tasks = two_task_binary()
        assert max_first_order_b(tasks) == pytest.approx(0.5)
        assert max_second_order_b(tasks) == pytest.approx(0.3)

    def test_b_out_of_domain(self):
        model = ModelClass((Categorical([0.4, 0.6]),))
        tasks = two_task_binary()
        for b_source in (1.5, 0.0, -0.2):
            with pytest.raises(PreconditionViolated, match="source_boundedness"):
                evaluate_bound("cor_eps", model, Categorical([0.4, 0.6]), tasks, tasks,
                               alpha=0.2, epsilon=0.1, b_source=b_source)


class TestSampling:
    def test_degenerate_categorical(self):
        xs = sample(Categorical([1.0, 0.0]), 3, seed=123)
        assert list(xs) == [0, 0, 0]

    def test_gaussian_clt(self):
        xs = sample(Gaussian(0, 1), 10**5, seed=7)
        assert abs(xs.mean()) < 0.02  # 5 sigma / sqrt(n)

    def test_point_mass_task_distribution(self):
        t = Categorical([0.3, 0.7])
        tasks = finite_tasks([(t, 1.0)])
        assert sample_task(tasks, seed=99) is t

    def test_bit_reproducible(self):
        a = sample(GaussianMixture([0.5, 0.5], [0.0, 3.0], [1.0, 0.5]), 1000, seed=42)
        b = sample(GaussianMixture([0.5, 0.5], [0.0, 3.0], [1.0, 0.5]), 1000, seed=42)
        assert a.tobytes() == b.tobytes()

    def test_negative_seed_accepted(self):
        sample(Gaussian(0, 1), 5, seed=-17)

    def test_count_validation(self):
        with pytest.raises(InvalidArgument):
            sample(Gaussian(0, 1), 0, seed=1)
        with pytest.raises(InvalidArgument, match=r"^count must be an integer, got 2\.5$"):
            sample(Gaussian(0, 1), 2.5, seed=1)

    def test_parametric_task_sampling(self):
        fam = InverseGammaGaussianTasks(mean=1.0, shape=20.0, rate=10.0)
        t = sample_task(fam, seed=5)
        assert isinstance(t, Gaussian) and t.mean == 1.0

    def test_reify_deterministic(self):
        fam = InverseGammaGaussianTasks(mean=0.0, shape=20.0, rate=10.0)
        a = fam.reify(64)
        b = fam.reify(64)
        assert all(x.stddev == y.stddev for x, y in zip(a.tasks, b.tasks))
        assert a.n_tasks == 64


class TestSerialization:
    @pytest.mark.parametrize("dist", [
        Categorical([0.25, 0.75]),
        Gaussian(1.5, 0.5),
        GaussianMixture([0.3, 0.7], [0.0, 2.0], [1.0, 3.0]),
    ])
    def test_first_order_roundtrip(self, dist):
        back = distribution_from_dict(dist.to_dict())
        assert back.to_dict() == dist.to_dict()

    def test_finite_tasks_roundtrip(self):
        tasks = two_task_binary()
        back = task_distribution_from_dict(tasks.to_dict())
        assert isinstance(back, FiniteTaskDistribution)
        assert back.to_dict() == tasks.to_dict()

    def test_parametric_roundtrip(self):
        fam = InverseGammaGaussianTasks(2.0, 20.0, 10.0)
        back = task_distribution_from_dict(fam.to_dict())
        assert back.to_dict() == fam.to_dict()

    def test_unknown_kind(self):
        with pytest.raises(InvalidArgument):
            distribution_from_dict({"kind": "poisson", "lam": 2})


class TestGaussianColumns:
    """All-Gaussian task families kept as parameter columns."""

    IG = InverseGammaGaussianTasks(1.0, 20.0, 10.0)

    def _as_objects(self):
        """The tasks ``reify`` made before the columns: one checked Gaussian per stddev."""
        stddevs = self.IG.reify().stddevs
        return FiniteTaskDistribution(tuple(Gaussian(self.IG.mean, sd) for sd in stddevs),
                                      np.full(256, 1.0 / 256))

    def test_reified_equals_tuple_of_gaussians(self):
        fin, objects = self.IG.reify(), self._as_objects()
        assert "tasks" not in vars(fin)
        for a, b in ((fin.means, objects.means), (fin.stddevs, objects.stddevs)):
            assert not a.flags.writeable and np.array_equal(a, b)
        bary_a, bary_b = barycenter(fin), barycenter(objects)
        for name in ("weights", "means", "stddevs"):
            assert np.array_equal(getattr(bary_a, name), getattr(bary_b, name))
        assert np.array_equal(_thresholds(fin), _thresholds(objects))
        assert sup_variance(fin) == sup_variance(objects)
        assert fin.to_dict() == objects.to_dict()

    def test_views_equal_the_checked_gaussians(self, monkeypatch):
        fin, objects = self.IG.reify(), self._as_objects()

        def refuse(self):
            raise AssertionError("view checked again")

        monkeypatch.setattr(Gaussian, "__post_init__", refuse)
        for view, task in zip(fin.tasks, objects.tasks):
            assert type(view) is Gaussian and view.kind == "gaussian"
            assert type(view.mean) is float and type(view.stddev) is float
            assert (view.mean, view.stddev) == (task.mean, task.stddev)
        assert fin.tasks is fin.tasks

    def test_sample_task_makes_one_view(self):
        fin = self.IG.reify()
        task = fin.sample_task(np.random.default_rng(3))
        assert "tasks" not in vars(fin) and list(vars(fin)["_views"].values()) == [task]
        assert fin.tasks[list(vars(fin)["_views"])[0]] is task

    @pytest.mark.parametrize("ig, got", [
        ((0.0, 1e-3, 1.0), "inf"), ((0.0, 1e-2, 1e300), "inf"), ((0.0, 5.0, 1e-323), "0.0")])
    def test_reify_rejects_bad_stddevs(self, ig, got):
        with np.errstate(divide="ignore", over="ignore"):
            with pytest.raises(InvalidArgument, match=rf"^stddev must be finite and strictly "
                                                      rf"positive, got {got}$"):
                InverseGammaGaussianTasks(*ig).reify()


class TestQuantileNodes:
    """Parametric families reified at the midpoint quantiles of their variance law."""

    def test_nodes_are_midpoint_quantiles(self):
        from scipy.stats import invgamma

        fam = InverseGammaGaussianTasks(0.7, 3.5, 2.0)
        for k in (1, 7, 256):
            fin = fam.reify(k)
            want = np.sqrt(invgamma.ppf((np.arange(k) + 0.5) / k, 3.5, scale=2.0))
            np.testing.assert_allclose(fin.stddevs, want, rtol=1e-12)
            assert np.array_equal(fin.weights, np.full(k, 1.0 / k))
            assert np.all(fin.means == 0.7) and np.all(np.diff(fin.stddevs) > 0)

    def test_no_seed_is_accepted(self):
        params = {f: list(inspect.signature(f).parameters) for f in (
            InverseGammaGaussianTasks.reify, as_finite, barycenter)}
        assert list(params.values()) == [["self", "components"], ["tasks"], ["tasks"]]
        fam = InverseGammaGaussianTasks(1.0, 20.0, 10.0)
        for call in (lambda: fam.reify(seed=0), lambda: as_finite(fam, seed=0),
                     lambda: barycenter(fam, seed=0), lambda: barycenter(fam, 256)):
            with pytest.raises(TypeError):
                call()


class TestRowMatrices:
    """Categorical tasks and members kept as one read-only matrix of rows."""

    P = np.array([[0.3, 0.7], [0.5, 0.5], [1.0, 0.0]])

    def test_loaded_tasks_are_views_built_on_first_access(self, monkeypatch):
        data = {"kind": "finite_tasks", "tasks": [
            {"w": w, "dist": {"kind": "categorical", "p": p}}
            for w, p in zip([0.2, 0.3, 0.5], self.P.tolist())]}
        tasks = task_distribution_from_dict(data)
        assert "tasks" not in vars(tasks) and not tasks.P.flags.writeable
        np.testing.assert_array_equal(tasks.P, self.P)
        assert tasks.n_tasks == 3 and not tasks.is_continuous

        def refuse(self):
            raise AssertionError("view checked again")

        monkeypatch.setattr(Categorical, "__post_init__", refuse)
        views = tasks.tasks
        assert tasks.tasks is views and len(views) == 3
        assert all(isinstance(v, Categorical) and v.kind == "categorical" for v in views)
        assert all(np.shares_memory(v.p, tasks.P) for v in views)
        assert views[2].to_dict() == {"kind": "categorical", "p": [1.0, 0.0]}
        assert tasks.to_dict() == data

    def test_model_member_view_is_kept(self):
        model = ModelClass.from_dict(
            {"members": [{"kind": "categorical", "p": p} for p in self.P.tolist()]})
        assert len(model) == 3 and "members" not in vars(model)
        best = model._item(1)
        assert "members" not in vars(model)  # the other rows have no views yet
        assert model.members[1] is best and model._item(1) is best

    def test_views_made_once_under_threads(self):
        # threads racing to make the views all get the objects that are kept
        import sys
        import threading

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                model = ModelClass(np.tile(self.P, (40, 1)))
                got, start = [], threading.Barrier(8)

                def read(i):
                    start.wait(timeout=10)
                    got.append((i, model._item(i % 3), model.members))

                threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads) and len(got) == 8
                assert all(members is model.members for _, _, members in got)
                assert all(view is model.members[i % 3] for i, view, _ in got)
        finally:
            sys.setswitchinterval(interval)

    def test_tuples_keep_their_objects(self):
        members = tuple(Categorical(p) for p in self.P)
        model = ModelClass(members)
        assert model.members is members and model._item(2) is members[2]
        np.testing.assert_array_equal(model.P, self.P)
        tasks = FiniteTaskDistribution(members, np.full(3, 1 / 3))
        assert tasks.tasks is members and not tasks.P.flags.writeable
        gaussians = finite_tasks([(Gaussian(0, 1), 0.5), (Gaussian(1, 2), 0.5)])
        assert gaussians.P is None and gaussians.is_continuous

    def test_array_input_is_checked(self):
        with pytest.raises(InvalidTaskDistribution, match="task list must be nonempty"):
            FiniteTaskDistribution(np.empty((0, 2)), np.empty(0))
        with pytest.raises(InvalidArgument, match="array of probability rows"):
            FiniteTaskDistribution(np.array([0.5, 0.5]), np.array([1.0]))
        with pytest.raises(InvalidArgument, match="nonnegative"):
            ModelClass(np.array([[0.5, 0.5], [1.5, -0.5]]))
        with pytest.raises(InvalidTaskDistribution, match="one weight per task"):
            FiniteTaskDistribution(self.P, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("rows, message", [
        ([[0.5, 0.5], [0.25, 0.5], [-0.5, 1.5]], "sum to 1 within 1e-12, got np.float64(0.75)"),
        ([[0.5, 0.5], [-0.5, 1.5], [0.3, 0.6]], "must be nonnegative"),
        ([[0.5, 0.5], [np.nan, 0.5], [-0.5, 1.5]], "got np.float64(nan)"),
    ], ids=["sum-first", "negative-first", "nan-first"])
    def test_first_bad_row_gives_the_message(self, rows, message):
        # a matrix fails as its rows, checked one at a time, would
        for build in (lambda: ModelClass(np.array(rows)),
                      lambda: ModelClass(tuple(Categorical(r) for r in rows))):
            with pytest.raises(InvalidArgument) as err:
                build()
            assert str(err.value).endswith(message)

    def test_summaries_equal_per_task_reference_loops(self):
        # the per-task loops the matrix code replaced, kept as the reference;
        # the arithmetic is the same, so the results are bit for bit equal
        from epibound import tv_exact
        from epibound.distributions import distributions_close

        rng = np.random.default_rng(3)
        for m in (2, 5, 9, 12):
            S, T = rng.dirichlet(np.ones(m), size=7), rng.dirichlet(np.ones(m), size=4)
            T[1], S[4, 0], S[4, 1] = S[2], 0.0, S[4, 0] + S[4, 1]
            w_s, w_t = rng.dirichlet(np.ones(7)), rng.dirichlet(np.ones(4))
            src, tgt = FiniteTaskDistribution(S, w_s), FiniteTaskDistribution(T, w_t)
            rows = np.stack([t.p for t in src.tasks])
            np.testing.assert_array_equal(barycenter(src).p, w_s @ rows)
            assert diameter(src) == max(tv_exact(a, b) for a in src.tasks for b in src.tasks)
            assert max_second_order_b(src) == 0.0 and max_second_order_b(tgt) == T.min()
            assert task_distribution_tv(src, tgt) == reference_matched_tv(
                w_s, w_t, lambda i, j: distributions_close(src.tasks[i], tgt.tasks[j])) < 1.0
            want = max(event_variance(w_s, outcome_probabilities(S, np.flatnonzero(mask)))
                       for mask in _event_masks(m))
            assert sup_variance(src) == pytest.approx(want, rel=1e-12, abs=1e-15)


class TestTaskDistributionTV:
    def test_shared_support_weights(self):
        a = two_task_binary()
        b = FiniteTaskDistribution(a.tasks, np.array([0.8, 0.2]))
        assert task_distribution_tv(a, b) == pytest.approx(0.3, abs=1e-12)

    def test_disjoint_supports(self):
        a = finite_tasks([(Categorical([0.3, 0.7]), 1.0)])
        b = finite_tasks([(Categorical([0.9, 0.1]), 1.0)])
        assert task_distribution_tv(a, b) == pytest.approx(1.0)

    def test_gaussian_columns_equal_per_pair_reference(self):
        # one (k_a, k_b) column comparison against one distributions_close call per pair;
        # the parameter pools hold pairs exactly PROB_TOL apart (close) and one ulp
        # further (not close), and repeat values so that the greedy order matters
        from epibound.distributions import PROB_TOL, distributions_close

        past = np.nextafter(PROB_TOL, 1.0)
        mean_pool = np.array([0.0, PROB_TOL, -PROB_TOL, 2 * PROB_TOL, past, 0.3])
        sd_pool = np.array([PROB_TOL, 2 * PROB_TOL, PROB_TOL + past, 0.5, 0.5 + 2**-40])
        assert 2 * PROB_TOL - PROB_TOL == PROB_TOL  # the pools' gaps are exact
        rng = np.random.default_rng(17)
        seen = set()
        for _ in range(300):
            fams = []
            for k in rng.integers(1, 13, size=2):
                fams.append(FiniteTaskDistribution(
                    tuple(Gaussian(m, sd) for m, sd in zip(rng.choice(mean_pool, k),
                                                           rng.choice(sd_pool, k))),
                    rng.dirichlet(np.ones(k))))
            a, b = fams
            assert a.means is not None and b.means is not None
            want = reference_matched_tv(
                a.weights, b.weights, lambda i, j: distributions_close(a.tasks[i], b.tasks[j]))
            got = task_distribution_tv(a, b)
            assert got == want
            seen.add(got == 0.0)
        assert seen == {True, False}
        ig = [InverseGammaGaussianTasks(1.0, 20.0, rate).reify(64) for rate in (10.0, 10.0, 11.0)]
        for a, b in ((ig[0], ig[1]), (ig[0], ig[2])):
            assert task_distribution_tv(a, b) == reference_matched_tv(
                a.weights, b.weights, lambda i, j: distributions_close(a.tasks[i], b.tasks[j]))

    def test_mixed_families_match_per_pair(self):
        # families without one matrix of parameters are compared one pair at a time
        from epibound.distributions import distributions_close

        mix = GaussianMixture(np.array([0.5, 0.5]), np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        a = finite_tasks([(Gaussian(0.0, 1.0), 0.3), (mix, 0.7)])
        b = finite_tasks([(mix, 0.6), (Gaussian(0.0, 1.0), 0.2), (mix, 0.2)])
        want = reference_matched_tv(
            a.weights, b.weights, lambda i, j: distributions_close(a.tasks[i], b.tasks[j]))
        assert task_distribution_tv(a, b) == want == pytest.approx(0.2)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6),
       st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6))
def test_variance_bounds_property(raw_w, raw_p):
    m = len(raw_p)
    weights = np.asarray(raw_w) / np.sum(raw_w)
    tasks = finite_tasks([
        (Categorical(np.roll(np.asarray(raw_p) / np.sum(raw_p), i)), w)
        for i, w in enumerate(weights)
    ])
    variances = kernel_variances(tasks)
    v = variances[tuple(range(m // 2))]
    assert 0.0 <= v <= 0.25 + 1e-12
    assert variances[tuple(range(m))] == pytest.approx(0.0, abs=1e-12)
