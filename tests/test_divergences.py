"""Divergence values, identities and estimator behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ndtr

from epibound import bayes, divergences
from epibound._deferred import Deferred
from epibound import (
    Categorical,
    EventMismatch,
    Gaussian,
    GaussianMixture,
    InvalidArgument,
    InverseGammaGaussianTasks,
    ModelClass,
    NumericalFailure,
    StudentT,
    SupportViolation,
    barycenter,
    cross_entropy,
    entropy,
    hellinger_sq,
    kl_exact,
    kl_mc,
    l1_distance,
    tv_exact,
)

# a zero-weight component 1e160 from the mean, and the mixture without it: 0 * inf in the
# pooled moments made the first's stddev NaN
FAR_DEAD_MIXTURE = GaussianMixture([1.0, 0.0], [0.0, 1e160], [1.0, 1.0])
ONE_COMPONENT_MIXTURE = GaussianMixture([1.0], [0.0], [1.0])
P37 = Categorical([0.3, 0.7])
P55 = Categorical([0.5, 0.5])
KL_37_55 = 0.3 * math.log(0.6) + 0.7 * math.log(1.4)  # hand formula


def trapezoid_tv(p, q, lo, hi, n=400001):
    """Independent quadrature oracle: fine trapezoid of |density gap| / 2."""
    xs = np.linspace(lo, hi, n)
    gap = np.abs(p.pdf(xs) - q.pdf(xs))
    return 0.5 * float(np.trapezoid(gap, xs))


class TestTVExact:
    def test_categorical_example(self):
        assert tv_exact(P37, P55) == pytest.approx(0.2, abs=1e-15)

    def test_identity(self):
        assert tv_exact(P37, P37) == 0.0
        g = Gaussian(1.0, 2.0)
        assert tv_exact(g, g) == 0.0

    def test_equal_variance_gaussian_closed_form(self):
        val = tv_exact(Gaussian(0, 1), Gaussian(2, 1))
        assert val == pytest.approx(2 * ndtr(1.0) - 1, abs=1e-14)
        assert val == pytest.approx(0.6827, abs=1e-4)
        # quadrature oracle agrees
        assert val == pytest.approx(trapezoid_tv(Gaussian(0, 1), Gaussian(2, 1), -12, 14), abs=1e-7)

    def test_unequal_variance_quadrature(self):
        p, q = Gaussian(0, 1), Gaussian(1, 2)
        assert tv_exact(p, q) == pytest.approx(trapezoid_tv(p, q, -25, 25), abs=1e-7)

    def test_mixture_pair(self):
        p = GaussianMixture([0.5, 0.5], [0.0, 4.0], [1.0, 1.0])
        q = Gaussian(0.0, 1.0)
        assert tv_exact(p, q) == pytest.approx(trapezoid_tv(p, q, -15, 20), abs=1e-7)

    def test_matches_event_sup_on_categoricals(self):
        # half-L1 equals the max event gap, exhaustively enumerated
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = int(rng.integers(2, 7))
            p, q = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(m))
            sup_gap = max(
                abs(p[list(ev)].sum() - q[list(ev)].sum())
                for k in range(m + 1)
                for ev in __import__("itertools").combinations(range(m), k)
            )
            assert tv_exact(Categorical(p), Categorical(q)) == pytest.approx(sup_gap, abs=1e-12)

    def test_space_mismatch(self):
        with pytest.raises(EventMismatch, match=r"categorical\(2 outcomes\) vs gaussian$"):
            tv_exact(P37, Gaussian(0, 1))
        with pytest.raises(EventMismatch,
                           match=r"categorical\(2 outcomes\) vs categorical\(3 outcomes\)$"):
            tv_exact(P37, Categorical([0.2, 0.3, 0.5]))


def _components(d):
    if isinstance(d, Gaussian):
        return np.ones(1), np.array([d.mean]), np.array([d.stddev])
    if isinstance(d, StudentT):  # its loc and scale, for the grid
        return np.ones(1), np.array([d.loc]), np.array([d.scale])
    return d.weights, d.means, d.stddevs


def reference_tv(p, q, per_sd=128, max_points=2_000_000):
    """Independent TV oracle: quad of |p - q| between crossings found on a fine grid.

    The grid spans every component's mean +- 12 stddevs, at ``per_sd``
    points per smallest component stddev (eight times the density of the
    crossing search under test), capped at ``max_points``.  Each sign change
    of log p - log q is refined by brentq, and quad integrates the density
    gap, evaluated from the component formula, over every smooth piece.  A
    Student-t enters the grid as one component of its loc and scale, the grid
    also reaches its 1e-15 and 1 - 1e-15 quantiles, its density is the power
    form scaled to scipy's density at the loc, quad also splits at loc +- 10^k scales and adds the density gap beyond the
    grid, out to infinity.
    """
    (wp, mp, sp), (wq, mq, sq) = _components(p), _components(q)
    means, sds = np.concatenate([mp, mq]), np.concatenate([sp, sq])
    lo, hi = float((means - 12 * sds).min()), float((means + 12 * sds).max())
    ts = [d for d in (p, q) if isinstance(d, StudentT)]
    decades = [t.loc + sign * t.scale * 10.0**k for t in ts for sign in (-1, 1) for k in range(-1, 16)]
    for t in ts:
        reach = -stats.t.ppf(1e-15, t.df) * t.scale
        lo, hi = min(lo, t.loc - reach), max(hi, t.loc + reach)
    xs = np.linspace(lo, hi, min(max_points, int((hi - lo) / sds.min() * per_sd) + 1))

    def gap(x):
        return p.logpdf(x) - q.logpdf(x)

    if ts:
        def density(d):
            if isinstance(d, StudentT):
                peak, power = stats.t.pdf(d.loc, d.df, d.loc, d.scale), -(d.df + 1) / 2
                return lambda x: peak * (1 + ((x - d.loc) / d.scale) ** 2 / d.df) ** power
            w, m, sd = _components(d)
            return lambda x: (w / sd) @ np.exp(-0.5 * ((x - m) / sd) ** 2) / math.sqrt(2 * math.pi)

        pf, qf = density(p), density(q)
        return _reference_pieces(gap, lambda x: abs(pf(x) - qf(x)), xs, lo, hi,
                                 [x for x in decades if lo < x < hi])

    coef = np.concatenate([wp / sp, -wq / sq]) / math.sqrt(2 * math.pi)

    def density_gap(x):
        return abs(coef @ np.exp(-0.5 * ((x - means) / sds) ** 2))

    return _reference_pieces(gap, density_gap, xs, lo, hi)


def _reference_pieces(gap, density_gap, xs, lo, hi, splits=None):
    """Half the quad of ``density_gap`` over the pieces between the brentq roots of ``gap``
    on the grid ``xs`` over [lo, hi]; given ``splits``, also between those points, and
    over (-inf, lo] and [hi, inf)."""
    sign = np.concatenate([np.sign(gap(xs[i:i + 4096])) for i in range(0, xs.size, 4096)])
    roots = [xs[i] if sign[i] == 0 else
             brentq(lambda x: float(gap(np.array([x]))[0]), xs[i], xs[i + 1],
                    xtol=1e-15, rtol=8.9e-16)
             for i in np.flatnonzero(sign[:-1] * sign[1:] <= 0) if sign[i] == 0 or sign[i + 1] != 0]
    cuts = [lo, *roots, hi] if splits is None else [
        -math.inf, *sorted([lo, *roots, *splits, hi]), math.inf]
    return 0.5 * sum(quad(density_gap, a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
                     for a, b in zip(cuts[:-1], cuts[1:]) if b > a)


def accuracy_corpus(seed=20261018, components=32):
    """82 continuous pairs: the TV pairs of six IG instances, random mixtures and Gaussians.

    The IG instances are drawn as the benchmark's bound requests draw them
    (source and target IG-Gaussian tasks, a Gaussian predictor, three model
    members); their barycenters are reified at ``components`` tasks.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(6):
        mean = float(rng.uniform(0.5, 1.5))
        source = InverseGammaGaussianTasks(mean, rng.uniform(15, 25), rng.uniform(8, 12))
        target = InverseGammaGaussianTasks(mean + rng.uniform(-0.5, 0.5), rng.uniform(15, 25),
                                           rng.uniform(8, 12))
        predictor = Gaussian(mean + rng.uniform(-0.3, 0.3), rng.uniform(0.7, 1.0))
        members = ModelClass.gaussian_mean_grid(mean - 0.5, mean + 0.5, 0.5, 0.8).members
        bary_s = barycenter(source.reify(components))
        bary_t = barycenter(target.reify(components))
        pairs += [(m, bary_s) for m in members]
        pairs += [(predictor, bary_s), (bary_s, bary_t), (predictor, members[1]),
                  (members[2], bary_t)]

    def mixture():
        k = int(rng.integers(1, 13))
        return GaussianMixture(rng.dirichlet(np.ones(k)), rng.uniform(-3, 3, k),
                               np.exp(rng.uniform(math.log(0.05), math.log(2.0), k)))

    def gaussian(smallest=0.05, largest=3.0):
        return Gaussian(rng.uniform(-3, 3), math.exp(rng.uniform(math.log(smallest),
                                                                 math.log(largest))))

    for _ in range(24):
        pairs.append((mixture(), mixture() if rng.random() < 0.7 else gaussian(largest=2.0)))
    pairs += [(gaussian(), gaussian()) for _ in range(16)]
    return pairs


class TestCrossingTV:
    # Adaptive quadrature of |p - q| returned 0.35162328404369425 here (error
    # 1.4e-7) while QUADPACK reported abserr 2e-11; this value is the exact TV
    # from the two roots of the quadratic, checked with 40-digit mpmath.
    WITNESS = (Gaussian(-0.4189969403671652, 2.426117821282459),
               Gaussian(-1.8888841132483372, 1.4794792088119122))

    def test_quadrature_witness(self):
        assert abs(tv_exact(*self.WITNESS) - 0.35162342282600906) <= 1e-12
        assert reference_tv(*self.WITNESS) == pytest.approx(0.35162342282600906, abs=1e-12)

    def test_corpus_matches_reference(self):
        pairs = accuracy_corpus()
        assert len(pairs) >= 80
        errors = [abs(tv_exact(p, q) - reference_tv(p, q)) for p, q in pairs]
        assert max(errors) <= 1e-9

    def test_l1_is_twice_tv_and_self_distance_zero(self):
        for p, q in accuracy_corpus()[::4]:
            assert l1_distance(p, q) == 2 * tv_exact(p, q)
            assert tv_exact(p, p) == 0.0 and tv_exact(q, q) == 0.0
        assert l1_distance(P37, P55) == 2 * tv_exact(P37, P55)

    def test_symmetric(self):
        for p, q in accuracy_corpus()[::3]:
            assert tv_exact(p, q) == pytest.approx(tv_exact(q, p), abs=1e-14)

    def test_narrow_against_wide_gaussian(self):
        # 16 points per 1e-6 over the window would be 3.2e8 points: the grid is
        # capped, and the narrow mean, which the grid holds, still brackets both
        # crossings at +-r, where N(0, s1) and N(0, s2) have equal densities
        s1, s2 = 1e-6, 1.0
        r = s1 * s2 * math.sqrt(2 * math.log(s2 / s1) / (s2**2 - s1**2))
        expected = (2 * ndtr(r / s1) - 1) - (2 * ndtr(r / s2) - 1)
        assert tv_exact(Gaussian(0.0, s1), Gaussian(0.0, s2)) == pytest.approx(expected, abs=1e-12)

    def test_mirrored_mixtures_closed_form(self):
        # p - q = 0.4 * (N(1, 0.5) - N(-1, 0.5)), which is positive exactly on x > 0
        p = GaussianMixture([0.3, 0.7], [-1.0, 1.0], [0.5, 0.5])
        q = GaussianMixture([0.7, 0.3], [-1.0, 1.0], [0.5, 0.5])
        assert tv_exact(p, q) == pytest.approx(0.4 * (2 * ndtr(1.0 / 0.5) - 1), abs=1e-15)

    def test_identical_densities_are_all_cuts(self):
        # a zero gap at every grid point makes every grid point a cut
        mix = GaussianMixture([0.2, 0.8], [0.0, 1.0], [0.3, 1.5])
        same = GaussianMixture([0.2, 0.8], [0.0, 1.0], [0.3, 1.5])
        assert tv_exact(mix, same) == 0.0
        assert tv_exact(Gaussian(0.5, 2.0), GaussianMixture([1.0], [0.5], [2.0])) == 0.0


def reference_crossing_tv(p, q):
    """``tv_exact`` through the crossing search with one density pass per halving.

    The loop that the three-halving passes replaced, kept as their bitwise
    reference.  Returns the TV, the number of brackets, and the number of
    midpoints where the gap was exactly 0.
    """
    p, q = divergences._as_mixture(p), divergences._as_mixture(q)
    lo, hi = divergences._window(p, q)
    smallest = min(p.stddevs[p.weights > 0].min(), q.stddevs[q.weights > 0].min())
    n = min(divergences.CROSSING_GRID_MAX,
            math.ceil((hi - lo) / smallest * divergences.CROSSING_GRID_PER_SD) + 1)
    means = np.concatenate([p.means, q.means])
    xs = np.union1d(np.linspace(lo, hi, n), means[(means > lo) & (means < hi)])
    side = np.sign(divergences._log_gap(p, q, xs, np.empty_like(xs)))
    i = np.flatnonzero(side[:-1] * side[1:] < 0)
    a, b, side_a = xs[i], xs[i + 1], side[i]
    mid, side_mid = np.empty_like(a), np.empty_like(a)
    zeros = 0
    for _ in range(divergences.CROSSING_BISECTIONS):
        np.add(a, b, out=mid)
        mid *= 0.5
        np.sign(divergences._log_gap(p, q, mid, side_mid), out=side_mid)
        zeros += int((side_mid == 0).sum())
        same = side_mid == side_a
        np.copyto(a, mid, where=same | (side_mid == 0))
        np.copyto(b, mid, where=~same)
    cuts = np.sort(np.concatenate([xs[side == 0], 0.5 * (a + b)]))
    gaps = p.cdf(cuts) - q.cdf(cuts)
    tv = min(1.0, 0.5 * float(np.abs(np.diff(gaps, prepend=0.0, append=0.0)).sum()))
    return tv, i.size, zeros


def mirrored_pair(w, c, s):
    """Mixtures of N(-c, s) and N(c, s) with swapped weights: their gap is exactly 0 at x = 0."""
    return (GaussianMixture([w, 1 - w], [-c, c], [s, s]),
            GaussianMixture([1 - w, w], [-c, c], [s, s]))


def refinement_corpus(seed=20261019):
    """402 continuous pairs for the refinement's bit identity.

    Random mixtures of up to 24 components with stddevs down to 0.05 (many
    brackets), IG barycenters against Gaussians and each other, Gaussians
    with unequal stddevs, and mirrored mixtures whose crossing at 0 is hit
    exactly by a midpoint.
    """
    rng = np.random.default_rng(seed)

    def mixture(largest):
        k = int(rng.integers(1, largest + 1))
        return GaussianMixture(rng.dirichlet(np.ones(k)), rng.uniform(-3, 3, k),
                               np.exp(rng.uniform(math.log(0.05), math.log(2.0), k)))

    def gaussian():
        return Gaussian(rng.uniform(-3, 3), math.exp(rng.uniform(math.log(0.05), math.log(3.0))))

    pairs = [(mixture(12), mixture(12)) for _ in range(180)]
    pairs += [(mixture(24), mixture(24)) for _ in range(40)]
    pairs += [(mixture(12), gaussian()) for _ in range(40)]
    for i in range(30):
        mean = float(rng.uniform(0.5, 1.5))
        source = InverseGammaGaussianTasks(mean, rng.uniform(15, 25), rng.uniform(8, 12))
        target = InverseGammaGaussianTasks(mean + rng.uniform(-0.5, 0.5), rng.uniform(15, 25),
                                           rng.uniform(8, 12))
        predictor = Gaussian(mean + rng.uniform(-0.3, 0.3), rng.uniform(0.7, 1.0))
        components = 256 if i % 3 == 0 else 64
        bary_s = barycenter(source.reify(components))
        bary_t = barycenter(target.reify(components))
        pairs += [(predictor, bary_s), (bary_s, bary_t), (bary_t, predictor)]
    pairs += [(gaussian(), gaussian()) for _ in range(50)]
    pairs += [mirrored_pair(0.3, 0.5, 0.5), mirrored_pair(0.2, 2.0, 0.25)]
    return pairs


def t_corpus(seed=20261020):
    """Continuous pairs with a Student-t: the TV pairs of six IG instances, as the
    benchmark's bound requests draw them, with their exact t barycenters; random t's
    against Gaussians, mixtures and t's; and heavy tails whose crossings lie beyond
    +- 10 scales."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(6):
        mean = float(rng.uniform(0.5, 1.5))
        source = InverseGammaGaussianTasks(mean, rng.uniform(15, 25), rng.uniform(8, 12))
        target = InverseGammaGaussianTasks(mean + rng.uniform(-0.5, 0.5), rng.uniform(15, 25),
                                           rng.uniform(8, 12))
        predictor = Gaussian(mean + rng.uniform(-0.3, 0.3), rng.uniform(0.7, 1.0))
        members = ModelClass.gaussian_mean_grid(mean - 0.5, mean + 0.5, 0.5, 0.8).members
        bary_s, bary_t = barycenter(source), barycenter(target)
        pairs += [(m, bary_s) for m in members]
        pairs += [(predictor, bary_s), (bary_s, bary_t), (members[2], bary_t)]

    def student():
        return StudentT(math.exp(rng.uniform(math.log(3.0), math.log(100.0))),
                        rng.uniform(-3, 3), math.exp(rng.uniform(math.log(0.1), math.log(3.0))))

    for _ in range(8):
        pairs.append((student(), Gaussian(rng.uniform(-3, 3), math.exp(rng.uniform(-2.0, 1.0)))))
        k = int(rng.integers(2, 6))
        pairs.append((GaussianMixture(rng.dirichlet(np.ones(k)), rng.uniform(-3, 3, k),
                                      np.exp(rng.uniform(-2.0, 0.7, k))), student()))
        pairs.append((student(), student()))
    pairs += [(StudentT(3.0, 0.0, 1.0), StudentT(5.0, 0.1, 1.1)),
              (StudentT(3.0, 0.0, 1.0), Gaussian(0.0, 1.5)),
              (StudentT(3.0, 0.0, 1.0), StudentT(4.0, 0.0, 3.0))]
    return pairs


class TestStudentTCrossing:
    def test_corpus_matches_reference(self):
        pairs = t_corpus()
        assert len(pairs) >= 60
        errors = [abs(tv_exact(p, q) - reference_tv(p, q)) for p, q in pairs]
        assert max(errors) <= 1e-9
        for p, q in pairs[::5]:
            assert tv_exact(q, p) == pytest.approx(tv_exact(p, q), abs=1e-14)
            assert tv_exact(p, p) == 0.0

    def test_tails_past_the_window_carry_crossings(self, monkeypatch):
        # the heavier tail of t(3) overtakes t(4) at scale 3 past the window [-30, 30]:
        # the window alone misses that crossing and 2.2e-8 of the TV
        p, q = StudentT(3.0, 0.0, 1.0), StudentT(4.0, 0.0, 3.0)
        assert divergences._window(p, q) == (-30.0, 30.0)
        tv = tv_exact(p, q)
        assert tv == pytest.approx(reference_tv(p, q), abs=1e-12)
        monkeypatch.setattr(divergences, "_tail_points", lambda d, lo, hi: np.empty(0))
        assert tv - tv_exact(p, q) > 1e-8

    @pytest.mark.parametrize("shape", [0.05, 0.3, 0.6, 1.0])
    def test_heavy_tails_evaluate(self, shape):
        t = barycenter(InverseGammaGaussianTasks(1.0, shape, 10.0))
        tv = tv_exact(Gaussian(1.1, 0.8), t)
        assert 0.0 < tv < 1.0 and divergences._tv_floor(Gaussian(1.1, 0.8), t) <= tv

    def test_quadrature_functionals_accept_the_ig_barycenter(self):
        t = barycenter(InverseGammaGaussianTasks(1.0, 20.0, 10.0))
        g = Gaussian(1.1, 0.8)
        assert entropy(t) == pytest.approx(stats.t(t.df, t.loc, t.scale).entropy(), abs=1e-9)
        fine = barycenter(InverseGammaGaussianTasks(1.0, 20.0, 10.0).reify(4096))
        for fn in (hellinger_sq, kl_exact, cross_entropy):
            assert fn(t, g) == pytest.approx(fn(fine, g), abs=1e-4), fn.__name__
            assert fn(g, t) == pytest.approx(fn(g, fine), abs=1e-4), fn.__name__


class TestCrossingRefinement:
    def test_bitwise_equal_to_one_pass_per_halving(self):
        pairs = refinement_corpus()
        assert len(pairs) >= 400
        brackets, zeros = [], []
        for p, q in pairs:
            tv, count, hits = reference_crossing_tv(p, q)
            assert tv_exact(p, q) == tv
            brackets.append(count)
            zeros.append(hits)
        assert max(brackets) >= 10
        assert zeros[-1] > 0 and zeros[-2] > 0  # the exact-0 rule closes the mirrored brackets

    def test_ten_density_passes(self, monkeypatch):
        calls = []

        def counting(p, q, x, out):
            calls.append(x.size)
            return log_gap(p, q, x, out)

        log_gap = divergences._log_gap
        monkeypatch.setattr(divergences, "_log_gap", counting)
        tv_exact(Gaussian(0.0, 1.0), Gaussian(0.5, 1.7))  # two crossings
        assert len(calls) == 1 + 10 and calls[1:] == [2 * 7] * 10
        calls.clear()
        tv_exact(*mirrored_pair(0.3, 0.5, 0.5))  # one bracket, closed by its first midpoint
        assert len(calls) == 1 + 1
        calls.clear()
        mix = GaussianMixture([0.2, 0.8], [0.0, 1.0], [0.3, 1.5])
        tv_exact(mix, GaussianMixture([0.2, 0.8], [0.0, 1.0], [0.3, 1.5]))  # no crossing
        assert len(calls) == 1

    def test_vanishing_density_is_not_nan(self):
        # N(1, 1e-160) has log-density -inf off its mean, where z**2 overflows; a NaN
        # gap there would hide both crossings and give TV 0
        assert tv_exact(Gaussian(1.0, 1e-160), Gaussian(1.2, 0.8)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("far", [1e200, -3e17])
    def test_far_from_zero_reads_as_at_zero(self, far):
        # at mean 1e200 the squared means overflowed the moments; there, and at -3e17,
        # mean +- 10 stddevs rounds to the mean, so the window is taken about p's mean
        assert tv_exact(Gaussian(far, 1.0), Gaussian(far, 2.0)) == tv_exact(
            Gaussian(0.0, 1.0), Gaussian(0.0, 2.0)) == pytest.approx(0.3227, abs=1e-4)
        mix = GaussianMixture([0.5, 0.5], [far, far], [1.0, 2.0])
        assert mix.mean_std() == (far, math.sqrt(2.5))
        at_zero = GaussianMixture([0.5, 0.5], [0.0, 0.0], [1.0, 2.0])
        for fn, args in ((entropy, ()), (hellinger_sq, (1.5,)), (kl_exact, (1.5,))):
            assert fn(mix, *(Gaussian(far, s) for s in args)) == fn(
                at_zero, *(Gaussian(0.0, s) for s in args)), fn.__name__

    @pytest.mark.parametrize("p, q", [
        (Gaussian(0.0, 1e200), Gaussian(0.0, 1.0)),  # the window's stddev overflows
        (Gaussian(1e308, 1.0), Gaussian(-1e308, 2.0)),  # its width overflows
        (Gaussian(0.0, 1e300), Gaussian(0.0, 1e-20)),  # its grid size overflows
    ], ids=["stddev", "width", "grid"])
    def test_non_finite_search_raises(self, p, q):
        for a, b in ((p, q), (q, p)):
            with np.errstate(all="ignore"), pytest.raises(
                    NumericalFailure, match=r"^TV crossing search over .* is not finite$"):
                tv_exact(a, b)

    def test_far_zero_weight_component_changes_nothing(self):
        # its moments were NaN, and the search over [nan, nan] raised; logpdf still
        # squares the component's z-score past overflow, to a density of 0
        assert FAR_DEAD_MIXTURE.mean_std() == ONE_COMPONENT_MIXTURE.mean_std() == (0.0, 1.0)
        p = Gaussian(0.0, 1.0)
        with np.errstate(over="ignore"):
            assert tv_exact(p, FAR_DEAD_MIXTURE) == tv_exact(p, ONE_COMPONENT_MIXTURE)
            assert tv_exact(FAR_DEAD_MIXTURE, p) == tv_exact(ONE_COMPONENT_MIXTURE, p)


class TestKL:
    def test_exact_categorical_example(self):
        assert kl_exact(P37, P55) == pytest.approx(KL_37_55, abs=1e-15)
        assert kl_exact(P37, P55) == pytest.approx(0.082282, abs=1e-6)

    def test_exact_identity(self):
        assert kl_exact(P37, P37) == 0.0

    def test_gaussian_closed_form(self):
        assert kl_exact(Gaussian(0, 1), Gaussian(1, 1)) == pytest.approx(0.5, abs=1e-15)
        # generic parameters against the hand formula
        p, q = Gaussian(0.3, 0.8), Gaussian(-0.5, 1.7)
        expected = math.log(1.7 / 0.8) + (0.8**2 + 0.8**2) / (2 * 1.7**2) - 0.5
        assert kl_exact(p, q) == pytest.approx(expected, abs=1e-14)

    def test_support_violation(self):
        with pytest.raises(SupportViolation):
            kl_exact(Categorical([0.5, 0.5]), Categorical([1.0, 0.0]))

    def test_mc_path_within_stderr(self):
        p, q = Gaussian(0, 1), Gaussian(1, 1)
        res = kl_mc(p, q, n_samples=400, seed=11)
        assert res.method == "monte_carlo"
        assert res.mc_samples == 400
        assert abs(res.value - 0.5) <= 3 * res.stderr_estimate

    def test_mc_exact_path_for_categoricals(self):
        res = kl_mc(P37, P55, n_samples=400, seed=1)
        assert res.method == "exact_discrete"
        assert res.stderr_estimate is None
        assert res.value == pytest.approx(KL_37_55, abs=1e-15)

    def test_mc_exact_path_clamps_rounding_below_zero(self):
        # the exact sum of a near-identical pair rounds below 0; it raised InvalidArgument
        p = np.array([0.08613363399126246, 0.38470834467826415, 0.5291580213304734])
        q = p + np.array([1e-13, -1e-13, 0.0])
        assert kl_exact(Categorical(p), Categorical(q)) < 0.0
        assert kl_mc(Categorical(p), Categorical(q)).value == 0.0

    @pytest.mark.parametrize("bad", [2.5, "7", True, 0])
    def test_mc_rejects_sample_counts_that_are_not_positive_integers(self, bad):
        with pytest.raises(InvalidArgument, match="^n_samples must be"):
            kl_mc(Gaussian(0, 1), Gaussian(1, 1), n_samples=bad)

    def test_mc_calibration_many_seeds(self):
        p, q = Gaussian(0.0, 1.0), Gaussian(0.8, 1.3)
        truth = kl_exact(p, q)
        hits = sum(
            abs((r := kl_mc(p, q, 400, seed=s)).value - truth) <= 4 * r.stderr_estimate
            for s in range(100)
        )
        assert hits >= 95

    def test_negative_estimate_clamped(self):
        p, q = Gaussian(0.0, 1.0), Gaussian(1e-9, 1.0)
        clamped = [kl_mc(p, q, 50, seed=s) for s in range(40)]
        assert any(r.clamped and r.value == 0.0 for r in clamped)


class TestPinsker:
    """The Pinsker bound sqrt(KL/2) on TV, from ``kl_exact`` or ``kl_mc``."""

    def test_categorical_example(self):
        res = kl_mc(P37, P55)
        bound = math.sqrt(res.value / 2)
        assert bound == pytest.approx(math.sqrt(KL_37_55 / 2), abs=1e-15)
        assert bound == pytest.approx(0.2028, abs=1e-4)
        assert bound >= tv_exact(P37, P55)
        assert res.method == "exact_discrete"
        assert res.mc_samples is None

    def test_identity(self):
        assert math.sqrt(kl_mc(P37, P37).value / 2) == 0.0
        assert math.sqrt(kl_exact(Gaussian(0, 1), Gaussian(0, 1)) / 2) == 0.0

    def test_gaussian_closed_forms(self):
        bound = math.sqrt(kl_exact(Gaussian(0, 1), Gaussian(1, 1)) / 2)
        assert bound == pytest.approx(0.5, abs=1e-15)
        assert bound >= tv_exact(Gaussian(0, 1), Gaussian(1, 1)) == pytest.approx(0.3829, abs=1e-4)

    def test_forced_mc_records_samples(self):
        # the sampling estimate on a pair with a closed form
        res = kl_mc(Gaussian(0, 1), Gaussian(1, 1), n_samples=400, seed=2)
        assert res.mc_samples == 400
        assert res.stderr_estimate is not None
        assert math.sqrt(res.value / 2.0) == pytest.approx(0.5, abs=0.1)

    def test_mixture_uses_mc(self):
        mix = GaussianMixture([0.5, 0.5], [0.0, 2.0], [1.0, 1.0])
        res = kl_mc(Gaussian(0, 1), mix, n_samples=400, seed=4)
        assert res.method == "monte_carlo" and res.mc_samples == 400
        assert math.sqrt(res.value / 2) >= tv_exact(Gaussian(0, 1), mix)


class TestMonteCarloRows:
    """The row kernel behind kl_mc and the experiments' Pinsker bounds, against kl_mc."""

    BARY = barycenter(InverseGammaGaussianTasks(1.0, 20.0, 10.0))
    PAIRS = {
        "gaussian-gaussian": (Gaussian(0.3, 0.8), Gaussian(-0.5, 1.7)),
        "gaussian-mixture": (Gaussian(1.2, 0.9), BARY),
        "mixture-mixture": (BARY, GaussianMixture([0.2, 0.8], [0.0, 2.0], [1.0, 0.5])),
    }

    @staticmethod
    def _log_ratio(p, q, n, seed):
        xs = p.sample(n, np.random.default_rng(seed))
        return p.logpdf(xs) - q.logpdf(xs)

    @pytest.mark.parametrize("n", [1, 7, 400])
    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_rows_equal_kl_mc_bit_for_bit(self, pair, n):
        p, q = self.PAIRS[pair]
        seeds = [5, 6, 2**64 - 1]
        stack = np.array([self._log_ratio(p, q, n, seed) for seed in seeds])
        kl = divergences._mc_kl(stack.copy())
        bounds = divergences._pinsker_mc(stack)
        for i, seed in enumerate(seeds):
            res = kl_mc(p, q, n, seed)
            assert max(float(kl[i]), 0.0) == res.value
            assert (kl[i] < 0.0) == res.clamped
            assert float(bounds[i]) == math.sqrt(res.value / 2.0)
            one = divergences._pinsker_mc(self._log_ratio(p, q, n, seed)[None])
            assert one.tolist() == [bounds[i]]

    @pytest.mark.filterwarnings("ignore:overflow encountered in square:RuntimeWarning",
                                "ignore:invalid value encountered in subtract:RuntimeWarning")
    def test_row_that_is_not_finite_is_nan(self):
        # a stddev of 1e-160 underflows the log-density to -inf at every sample
        p, q = Gaussian(0.0, 1.0), Gaussian(0.0, 1e-160)
        with pytest.raises(SupportViolation, match=divergences.MC_SUPPORT_GAP):
            kl_mc(p, q, 7, seed=5)
        good = self._log_ratio(p, Gaussian(0.5, 1.0), 7, 6)
        stack = np.array([good, self._log_ratio(p, q, 7, 5), good])
        with np.errstate(all="raise"):  # the bad row's mean raises no warning
            bounds = divergences._pinsker_mc(stack)
        assert math.isnan(bounds[1])
        assert bounds[0] == bounds[2] == math.sqrt(kl_mc(p, Gaussian(0.5, 1.0), 7, 6).value / 2)


class TestEntropyFamily:
    def test_entropy_uniform(self):
        assert entropy(P55) == pytest.approx(math.log(2), abs=1e-15)

    def test_entropy_gaussian(self):
        assert entropy(Gaussian(3.0, 2.0)) == pytest.approx(0.5 * math.log(2 * math.pi * math.e * 4.0), abs=1e-14)

    def test_entropy_mixture_quadrature(self):
        # a one-component mixture must match the Gaussian closed form
        mix = GaussianMixture([1.0], [3.0], [2.0])
        assert entropy(mix) == pytest.approx(entropy(Gaussian(3.0, 2.0)), abs=1e-8)

    def test_l1_is_twice_tv(self):
        assert l1_distance(P37, P55) == pytest.approx(0.4, abs=1e-15)

    def test_hellinger_example(self):
        expected = 0.5 * ((math.sqrt(0.3) - math.sqrt(0.5)) ** 2 + (math.sqrt(0.7) - math.sqrt(0.5)) ** 2)
        v = hellinger_sq(P37, P55)
        assert v == pytest.approx(expected, abs=1e-15)
        assert v == pytest.approx(0.0211, abs=1e-4)
        assert v <= tv_exact(P37, P55)

    def test_hellinger_gaussians_closed_form(self):
        # against quadrature of (sqrt p - sqrt q)^2 over both means +- 40 stddevs
        rng = np.random.default_rng(41)
        for _ in range(24):
            p = Gaussian(float(rng.uniform(-3, 3)), float(rng.uniform(0.05, 4)))
            q = Gaussian(float(rng.uniform(-3, 3)), float(rng.uniform(0.05, 4)))
            width = 40 * max(p.stddev, q.stddev)
            cuts = sorted([p.mean, q.mean, min(p.mean, q.mean) - width, max(p.mean, q.mean) + width])
            want = 0.5 * sum(quad(lambda x: (math.sqrt(p.pdf(x)) - math.sqrt(q.pdf(x))) ** 2,
                                  lo, hi, epsabs=1e-14, epsrel=1e-12, limit=500)[0]
                             for lo, hi in zip(cuts, cuts[1:]))
            assert hellinger_sq(p, q) == pytest.approx(want, abs=1e-9)
        assert hellinger_sq(Gaussian(0.3, 1.7), Gaussian(0.3, 1.7)) == 0.0
        assert hellinger_sq(Gaussian(0.0, 1.0), Gaussian(50.0, 1.0)) == 1.0

    def test_cross_entropy_identity(self):
        assert cross_entropy(P37, P55) - entropy(P37) - kl_exact(P37, P55) == pytest.approx(0.0, abs=1e-10)
        p, q = Gaussian(0.2, 1.1), Gaussian(-0.3, 0.9)
        assert cross_entropy(p, q) - entropy(p) - kl_exact(p, q) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("fn", [hellinger_sq, kl_exact, cross_entropy])
    def test_far_zero_weight_component_changes_nothing(self, fn):
        # its NaN moments made a [nan, nan] quadrature window, in either order
        p = Gaussian(0.0, 1.0)
        with np.errstate(over="ignore"):
            assert fn(p, FAR_DEAD_MIXTURE) == fn(p, ONE_COMPONENT_MIXTURE)
            assert fn(FAR_DEAD_MIXTURE, p) == fn(ONE_COMPONENT_MIXTURE, p)

    def test_infinite_window_raises(self):
        wide = GaussianMixture([0.5, 0.5], [0.0, 1.0], [1e200, 1.0])  # its variance overflows
        with np.errstate(all="ignore"), pytest.raises(NumericalFailure, match="not finite"):
            entropy(wide)

    def test_cross_entropy_support_violation(self):
        with pytest.raises(SupportViolation):
            cross_entropy(P55, Categorical([1.0, 0.0]))

    @pytest.mark.parametrize("fn, dists", [
        (hellinger_sq, (Gaussian(0.0, 1e200), Gaussian(0.0, 1.0))),  # stddev**2 overflows
        (hellinger_sq, (Gaussian(1.5e154, 1.0), Gaussian(0.0, 1.0))),  # the mean gap squared
        (entropy, (Gaussian(0.0, 1e200),)),
        (entropy, (Gaussian(0.0, 1e-200),)),  # stddev**2 underflows: log(0)
        (kl_exact, (Gaussian(0.0, 1.0), Gaussian(0.0, 1e-200))),  # divides by 0
        (cross_entropy, (Gaussian(0.0, 1.0), Gaussian(0.0, 1e-200))),
    ], ids=["hellinger-stddev", "hellinger-mean", "entropy-wide", "entropy-narrow", "kl",
            "cross-entropy"])
    def test_gaussian_closed_form_failure_is_typed(self, fn, dists):
        with pytest.raises(NumericalFailure, match=r"^the closed form of .* over- or underflows"
                           r" at Gaussian\(mean="):
            fn(*dists)

    def test_gaussian_closed_forms_keep_their_bits(self):
        # the guarded expressions are the unguarded ones: x ** 2 stays libm pow
        p, q = Gaussian(0.3, 1.7), Gaussian(-1.1, 0.45)
        spread = p.stddev**2 + q.stddev**2
        log_bc = 0.5 * math.log(2.0 * p.stddev * q.stddev / spread) - (
            (p.mean - q.mean) ** 2 / (4.0 * spread))
        assert hellinger_sq(p, q) == max(0.0, -math.expm1(log_bc))
        assert entropy(p) == 0.5 * math.log(2.0 * math.pi * math.e * p.stddev**2)
        gap = (p.stddev**2 + (p.mean - q.mean) ** 2) / (2.0 * q.stddev**2)
        assert kl_exact(p, q) == math.log(q.stddev / p.stddev) + gap - 0.5
        assert cross_entropy(p, q) == 0.5 * math.log(2.0 * math.pi * q.stddev**2) + gap

    def test_quadrature_fallbacks_keep_their_bits(self):
        # KL and cross-entropy share one integrand; a narrow p underflows to 0
        # over most of the window of a wide q, where the integrand is 0
        p = GaussianMixture([1.0], [0.0], [0.05])
        q = GaussianMixture([0.3, 0.7], [0.0, 1.0], [5.0, 2.0])
        pf, qf = divergences._pdf(p), divergences._pdf(q)
        lo, hi = divergences._window(p, q)
        assert pf(lo) == 0.0 and pf(hi) == 0.0

        def reference(term):
            return divergences._quad(lambda x: 0.0 if pf(x) <= 0 else term(pf(x), qf(x)), lo, hi)

        assert kl_exact(p, q) == reference(lambda pv, qv: pv * math.log(pv / qv))
        assert cross_entropy(p, q) == reference(lambda pv, qv: -pv * math.log(qv))


class TestMetricProperties:
    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(8)
        for _ in range(2000):
            m = int(rng.integers(2, 7))
            p, q, r = (Categorical(rng.dirichlet(np.ones(m))) for _ in range(3))
            assert tv_exact(p, q) == pytest.approx(tv_exact(q, p), abs=1e-12)
            assert tv_exact(p, r) <= tv_exact(p, q) + tv_exact(q, r) + 1e-12

    def test_zero_iff_equal(self):
        assert tv_exact(P37, Categorical([0.3, 0.7])) == 0.0
        assert tv_exact(P37, Categorical([0.3 + 1e-13, 0.7 - 1e-13])) < 1e-12
        assert tv_exact(P37, P55) > 0


class TestLazyQuadrature:
    def test_every_quadrature_calls_the_module_binding(self, monkeypatch):
        calls = []
        for module in (divergences, bayes):
            # a Deferred until the module's first quadrature, scipy's own quad after it
            assert module.quad is quad or isinstance(module.quad, Deferred)

            def counting(*args, _quad=module.quad, _name=module.__name__, **kwargs):
                calls.append(_name)
                return _quad(*args, **kwargs)

            monkeypatch.setattr(module, "quad", counting)
        p = GaussianMixture([0.3, 0.7], [-1.0, 1.5], [0.6, 1.2])
        q = GaussianMixture([0.5, 0.5], [0.0, 2.0], [1.0, 0.4])
        for fn, args in ((hellinger_sq, (p, q)), (kl_exact, (p, q)), (entropy, (p,)),
                         (cross_entropy, (p, q))):
            calls.clear()
            fn(*args)
            assert calls and set(calls) == {"epibound.divergences"}, fn.__name__
        calls.clear()
        post = bayes.GaussianParamDist(np.array([0.2, -0.1]), np.array([[0.5, 0.2], [0.2, 0.3]]))
        bayes.posterior_mass_near(post, [0.1, 0.0], 0.6)
        assert calls and set(calls) == {"epibound.bayes"}


@settings(deadline=None, max_examples=80)
@given(st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_divergence_sandwiches_property(m, seed):
    rng = np.random.default_rng(seed)
    p = Categorical(rng.dirichlet(np.ones(m)))
    q = Categorical(rng.dirichlet(np.ones(m)))
    tv = tv_exact(p, q)
    assert l1_distance(p, q) == pytest.approx(2 * tv, abs=1e-12)
    assert hellinger_sq(p, q) <= tv + 1e-12
    kl = kl_exact(p, q)
    assert tv <= math.sqrt(kl / 2) + 1e-12  # Pinsker
    b = float(q.p.min())
    if b > 0:
        assert kl <= (2.0 / b) * tv**2 + 1e-12  # reverse Pinsker for bounded q
