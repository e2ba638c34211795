"""Decomposition components and bound-statement evaluation."""

import hashlib
import json
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import ndtr

from epibound import (
    Categorical,
    EventMismatch,
    FiniteTaskDistribution,
    Gaussian,
    GaussianMixture,
    GaussianParamDist,
    InvalidArgument,
    InvalidModelClass,
    InverseGammaGaussianTasks,
    ModelClass,
    NumericalFailure,
    PreconditionViolated,
    StudentT,
    barycenter,
    best_approximation,
    convergence_gap,
    distribution_shift_learner,
    evaluate_bound,
    finite_tasks,
    sup_variance,
    tv_exact,
)
from epibound import bounds, divergences
from epibound.bounds import CSV_HEADER, STATEMENT_IDS, STATEMENTS
from epibound.oracle import CONSTRAINT_MODES, InstanceConfig, generate_instance


def shift(source, target) -> float:
    """D: the TV between the source and target barycenters."""
    return tv_exact(barycenter(source), barycenter(target))


class TestBestApproximation:
    def test_grid_argmin(self, binary_model):
        best, bias = best_approximation(binary_model, Categorical([0.4, 0.6]))
        np.testing.assert_allclose(best.p, [0.5, 0.5])
        assert bias == pytest.approx(0.1, abs=1e-12)

    def test_target_in_class(self, binary_model):
        target = Categorical([0.25, 0.75])
        best, bias = best_approximation(binary_model, target)
        assert bias == 0.0
        np.testing.assert_allclose(best.p, target.p)

    def test_forced_singleton(self):
        model = ModelClass((Categorical([0.0, 1.0]),))
        best, bias = best_approximation(model, Categorical([1.0, 0.0]))
        assert bias == pytest.approx(1.0)

    def test_tie_breaks_to_lowest_index(self):
        # two members exactly equidistant from the target (dyadic values)
        model = ModelClass((Categorical([0.25, 0.75]), Categorical([0.75, 0.25])))
        best, bias = best_approximation(model, Categorical([0.5, 0.5]))
        assert bias == pytest.approx(0.25)
        np.testing.assert_allclose(best.p, [0.25, 0.75])

    def test_matrix_components_equal_per_task_reference_loops(self):
        # evaluate_bound's categorical components against the per-task loops
        # they replaced, bit for bit
        rng = np.random.default_rng(8)
        for mode in CONSTRAINT_MODES:
            for seed in range(6):
                inst = generate_instance(int(rng.integers(2**31)), InstanceConfig(
                    m_range=(2, 10), tasks_range=(2, 9), members_range=(1, 30),
                    constraint=mode))
                model, src, tgt = inst.model, inst.source, inst.target
                if seed % 2:  # a zero-weight point mass, never drawn, far from the source
                    tgt = FiniteTaskDistribution(np.vstack([inst.T, np.eye(inst.m)[0]]),
                                                 np.r_[inst.w_t, 0.0])
                bary = barycenter(src)
                dists = [tv_exact(member, bary) for member in model.members]
                best, bias = best_approximation(model, bary)
                assert bias == min(dists) and best is model.members[dists.index(min(dists))]
                live = [t for w, t in zip(tgt.weights, tgt.tasks) if w > 0]
                # cor_eps holds exactly while max_tv_to_source <= epsilon + 1e-12
                far = max(min(tv_exact(t, s) for s in src.tasks) for t in live)
                for eps, holds in ((far, True), (far - 2e-12, False)):
                    try:
                        rep = evaluate_bound("cor_eps", model, inst.predictor, src, tgt,
                                             alpha=0.2, epsilon=min(max(eps, 1e-3), 0.999),
                                             b_source=1e-9, b_target=1e-9)
                    except PreconditionViolated as exc:
                        assert exc.assumption == "eps_neighborhood" and not holds
                    else:
                        assert holds or not 1e-3 < eps < 0.999
                        assert rep.B == bias
                gap = np.r_[0.0, inst.pred[1:] / inst.pred[1:].sum()]
                for pred in (inst.predictor, Categorical(gap)):
                    covered = not any(np.any((t.p > 0) & (pred.p <= 0)) for t in live)
                    try:
                        evaluate_bound("cor_ce", model, pred, src, tgt, alpha=0.2)
                    except PreconditionViolated as exc:
                        assert exc.assumption == "predictor_boundedness" and not covered
                    else:
                        assert covered

    def test_branch_and_bound_equals_full_loop(self):
        # the best index and the B bits of a full tv_exact loop, on 2,000 classes of 1
        # to 20 members drawn with repeats (exact ties) from per-target pools, which
        # hold closed-form pairs (floor 0) and small mixtures
        rng = np.random.default_rng(22)
        targets, pools = [], []
        for t in range(36):
            mean = rng.normal()
            if t % 3 == 0:
                target = Gaussian(mean, rng.uniform(0.5, 2.0))
            elif t % 3 == 1:
                target = barycenter(InverseGammaGaussianTasks(mean, rng.uniform(3.0, 20.0),
                                                              rng.uniform(2.0, 10.0)).reify(8))
            else:
                k = int(rng.integers(2, 4))
                target = GaussianMixture(rng.dirichlet(np.ones(k)), mean + rng.normal(size=k),
                                         rng.uniform(0.5, 2.0, k))
            pool = [Gaussian(mean + rng.normal(), rng.uniform(0.5, 2.0)) for _ in range(32)]
            pool += [GaussianMixture([0.5, 0.5], mean + rng.normal(size=2),
                                     rng.uniform(0.5, 2.0, 2)) for _ in range(4)]
            if isinstance(target, Gaussian):
                pool += [Gaussian(mean + rng.normal(), target.stddev) for _ in range(4)]
            targets.append(target)
            pools.append(pool)
        exact = {}

        def cached_tv(p, q):  # the reference loop's values, computed once per pair
            key = (id(p), id(q))
            if key not in exact:
                exact[key] = tv_exact(p, q)
            return exact[key]

        skipped = 0
        for _ in range(2000):
            t = int(rng.integers(len(targets)))
            target, pool = targets[t], pools[t]
            members = [pool[i] for i in rng.integers(len(pool), size=rng.integers(1, 21))]
            dists = [cached_tv(m, target) for m in members]
            want = int(np.argmin(dists))
            calls = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(bounds, "tv_exact", lambda p, q: calls.append(1) or cached_tv(p, q))
                best, bias = best_approximation(ModelClass(tuple(members)), target)
            assert best is members[want]
            assert np.float64(bias).view(np.int64) == np.float64(dists[want]).view(np.int64)
            skipped += len(members) - len(calls)
        assert skipped > 10_000  # the floors do prune

    @pytest.mark.parametrize("members, error", [
        # the first member that fails raises, in index order, as the full loop did
        ((Gaussian(0.0, 2.0), Gaussian(0.0, 0.5)), "stddev 1.0"),
        ((Gaussian(1e308, 1.0), Gaussian(0.0, 0.5)), "stddev 0.5"),
        # closed forms need no window, so an overflowing one raises nothing
        ((Gaussian(1e308, 1.0),), None),
        ((Gaussian(1e308, 1.0), Gaussian(-1e308, 1.0)), None),
    ])
    def test_overflowing_windows_raise_as_the_full_loop(self, members, error):
        model, target = ModelClass(members), Gaussian(-1e308, 1.0)
        if error is None:
            best, bias = best_approximation(model, target)
            assert (best, bias) == (members[-1], 1.0 if len(members) == 1 else 0.0)
        else:
            with pytest.raises(NumericalFailure, match=rf"^TV crossing search over \[-1e\+308, "
                                                       rf"\S+\] at 16 points per {error} is not "
                                                       rf"finite$"):
                best_approximation(model, target)

    def test_categorical_class_against_continuous_target(self, binary_model):
        with pytest.raises(EventMismatch, match=r"^distributions on different spaces: "
                           r"categorical\(2 outcomes\) vs gaussian$"):
            best_approximation(binary_model, Gaussian(0.0, 1.0))

    def test_empty_class(self):
        with pytest.raises(InvalidModelClass):
            ModelClass(())

    def test_serialization_preserves_order(self, binary_model):
        back = ModelClass.from_dict(binary_model.to_dict())
        assert [m.to_dict() for m in back.members] == [m.to_dict() for m in binary_model.members]


class TestComponents:
    def test_convergence_gap_zero(self):
        p = Categorical([0.5, 0.5])
        assert convergence_gap(p, p) == 0.0

    def test_convergence_gap_categorical(self):
        assert convergence_gap(Categorical([0.25, 0.75]), Categorical([0.5, 0.5])) == pytest.approx(0.25)

    def test_convergence_gap_gaussian(self):
        v = convergence_gap(Gaussian(0, 1), Gaussian(0.5, 1))
        assert v == pytest.approx(2 * ndtr(0.25) - 1, abs=1e-12)
        assert v == pytest.approx(0.1974, abs=1e-4)

    def test_distribution_shift(self, binary_source, binary_target):
        assert shift(binary_source, binary_source) == 0.0
        assert shift(binary_source, binary_target) == pytest.approx(0.2, abs=1e-12)
        a = finite_tasks([(Categorical([1.0, 0.0]), 1.0)])
        b = finite_tasks([(Categorical([0.0, 1.0]), 1.0)])
        assert shift(a, b) == pytest.approx(1.0)

    def test_distribution_shift_is_the_reported_d(self, binary_source, binary_target):
        # D as evaluate_bound computes it, between the families' exact t barycenters
        ig_s = InverseGammaGaussianTasks(1.0, 20.0, 10.0)
        ig_t = InverseGammaGaussianTasks(1.3, 17.0, 9.0)
        model = ModelClass.gaussian_mean_grid(0.5, 1.5, 0.5, 0.8)
        binary_model = ModelClass((Categorical([0.3, 0.7]), Categorical([0.5, 0.5])))
        for source, target, model, predictor in (
            (ig_s, ig_t, model, Gaussian(1.1, 0.8)),
            (ig_s, ig_s, model, Gaussian(1.1, 0.8)),
            (binary_source, binary_target, binary_model, Categorical([0.4, 0.6])),
        ):
            report = evaluate_bound("thm1", model, predictor, source, target, alpha=0.2)
            assert shift(source, target) == report.D
        assert shift(ig_s, ig_s) == 0.0
        # an equal family, as a file read in twice gives it, has the same t
        assert shift(ig_s, InverseGammaGaussianTasks(1.0, 20.0, 10.0)) == 0.0
        d = shift(ig_s, ig_t)
        assert d == tv_exact(StudentT(40.0, 1.0, math.sqrt(0.5)), StudentT(34.0, 1.3, math.sqrt(9 / 17)))

    def test_learner_shift(self):
        v = distribution_shift_learner(Categorical([0.5, 0.5]), Categorical([0.6, 0.4]), bias=0.1)
        assert v == pytest.approx(0.0, abs=1e-12)
        assert distribution_shift_learner(Categorical([0.5, 0.5]), Categorical([0.5, 0.5]), 0.0) == 0.0
        # best much closer to the target barycenter than the bias
        v = distribution_shift_learner(Categorical([0.55, 0.45]), Categorical([0.6, 0.4]), bias=0.1)
        assert v == pytest.approx(-0.05, abs=1e-12)

    def test_epistemic_error(self, binary_predictor):
        # the epistemic error is the TV from the predictor to the realized target task
        assert tv_exact(binary_predictor, binary_predictor) == 0.0
        er = tv_exact(Categorical([0.25, 0.75]), Categorical([0.6, 0.4]))
        assert er == pytest.approx(0.35, abs=1e-12)
        assert er <= 0.15 + 0.1 + 0.25 + 0.2  # bound sanity on the worked instance

    def test_chebyshev_delta(self, binary_source, binary_model, binary_predictor):
        # thm1's delta: the target's sup-variance over alpha^2, unclipped
        def delta(target, alpha):
            return evaluate_bound("thm1", binary_model, binary_predictor, binary_source,
                                  target, alpha).delta

        assert delta(binary_source, 0.15) == pytest.approx(0.01 / 0.0225, abs=1e-10)
        assert delta(binary_source, 0.15) == sup_variance(binary_source) / (0.15 * 0.15)
        point = finite_tasks([(Categorical([0.2, 0.8]), 1.0)])
        assert delta(point, 0.3) == 0.0
        assert delta(binary_source, 0.05) == pytest.approx(4.0, abs=1e-10)  # vacuous
        for bad in (0.0, -0.1, float("nan"), float("inf"), 1e-200):
            with pytest.raises(InvalidArgument, match="^alpha "):
                delta(binary_source, bad)


class TestEvaluateBound:
    def test_thm1_worked_instance(self, binary_model, binary_predictor, binary_source, binary_target):
        rep = evaluate_bound("thm1", model=binary_model, predictor=binary_predictor,
                             source=binary_source, target=binary_target, alpha=0.15)
        assert rep.margin == pytest.approx(0.70, abs=1e-12)
        assert rep.delta == 0.0  # point-mass target
        assert (rep.B, rep.C, rep.D) == (pytest.approx(0.1), pytest.approx(0.25), pytest.approx(0.2))

    def test_lemma1_worked_instance(self, binary_model, binary_source):
        bary = Categorical([0.4, 0.6])
        rep = evaluate_bound("lemma1", model=binary_model, predictor=bary,
                             source=binary_source, target=binary_source, alpha=0.15)
        assert rep.margin == pytest.approx(0.15)
        assert rep.delta == pytest.approx(0.4444, abs=1e-4)

    def test_cor_l1_doubles(self, binary_model, binary_predictor, binary_source, binary_target):
        rep = evaluate_bound("cor_l1", model=binary_model, predictor=binary_predictor,
                             source=binary_source, target=binary_target, alpha=0.15)
        assert rep.margin == pytest.approx(1.40, abs=1e-12)

    def test_lemma1_requires_perfect_learning(self, binary_model, binary_predictor, binary_source):
        with pytest.raises(PreconditionViolated) as exc:
            evaluate_bound("lemma1", model=binary_model, predictor=binary_predictor,
                           source=binary_source, target=binary_source, alpha=0.15)
        assert exc.value.assumption == "perfect_learning"

    def test_lemma2_requires_no_shift(self, binary_model, binary_predictor, binary_source, binary_target):
        with pytest.raises(PreconditionViolated) as exc:
            evaluate_bound("lemma2", model=binary_model, predictor=binary_predictor,
                           source=binary_source, target=binary_target, alpha=0.15)
        assert exc.value.assumption == "no_shift"

    def test_cor_eps_delta(self, binary_model, binary_predictor, binary_source):
        # target tasks inside the source's TV 0.1-neighborhood, bounded weights
        target = finite_tasks([
            (Categorical([0.35, 0.65]), 0.5),
            (Categorical([0.45, 0.55]), 0.5),
        ])
        rep = evaluate_bound("cor_eps", model=binary_model, predictor=binary_predictor,
                             source=binary_source, target=target, alpha=0.2, epsilon=0.1)
        b_S = min(0.5, 0.3)  # first-order 0.5, second-order 0.3
        expected = (1 - 0.5) / (b_S * 0.04) * (0.01 + (0.2 + 0.1) ** 2)
        assert rep.delta == pytest.approx(expected, abs=1e-10)
        assert rep.extras["diam_source"] == pytest.approx(0.2)

    def test_cor_eps_neighborhood_violation(self, binary_model, binary_predictor, binary_source):
        far = finite_tasks([(Categorical([0.9, 0.1]), 0.5), (Categorical([0.8, 0.2]), 0.5)])
        with pytest.raises(PreconditionViolated) as exc:
            evaluate_bound("cor_eps", model=binary_model, predictor=binary_predictor,
                           source=binary_source, target=far, alpha=0.2, epsilon=0.1)
        assert exc.value.assumption == "eps_neighborhood"

    def test_cor_eps_dist_delta(self, binary_model, binary_predictor, binary_source):
        target = FiniteTaskDistribution(binary_source.tasks, np.array([0.6, 0.4]))
        rep = evaluate_bound("cor_eps_dist", model=binary_model, predictor=binary_predictor,
                             source=binary_source, target=target, alpha=0.2, epsilon=0.15)
        expected = (1 - 0.4) / (0.3 * 0.04) * (0.01 + 0.15**2)
        assert rep.delta == pytest.approx(expected, abs=1e-10)

    def test_cor_eps_dist_assumption_violated(self, binary_model, binary_predictor, binary_source):
        target = FiniteTaskDistribution(binary_source.tasks, np.array([0.9, 0.1]))
        with pytest.raises(PreconditionViolated) as exc:
            evaluate_bound("cor_eps_dist", model=binary_model, predictor=binary_predictor,
                           source=binary_source, target=target, alpha=0.2, epsilon=0.1)
        assert exc.value.assumption == "eps_distribution_distance"

    def test_cor_ce_default_b_pred(self, binary_model, binary_predictor, binary_source, binary_target):
        rep = evaluate_bound("cor_ce", model=binary_model, predictor=binary_predictor,
                             source=binary_source, target=binary_target, alpha=0.15)
        assert rep.extras["b_pred"] == pytest.approx(0.25)
        # the loss is the excess cross-entropy KL(Q || pred): no entropy term in the margin
        assert "entropy_E" not in rep.extras
        assert rep.margin == pytest.approx((2 / 0.25) * 0.70**2, abs=1e-10)

    def test_cor_ce_margin_holds_on_witness(self):
        # perfect learning, no shift: the cross-entropy paired with a margin
        # carrying E[H(Q)] is exceeded with probability 0.151 > delta here;
        # the statement's loss, the excess cross-entropy, stays within delta
        from epibound.bounds import LOSSES, STATEMENTS
        from epibound.divergences import cross_entropy, entropy
        from epibound.oracle import InstanceConfig, generate_instance

        inst = generate_instance(414947387446761141, InstanceConfig(constraint="perfect_no_shift"))
        rep = evaluate_bound("cor_ce", model=inst.model, predictor=inst.predictor,
                             source=inst.source, target=inst.target, alpha=0.1)
        w, tasks = inst.target.weights, inst.target.tasks
        loss = LOSSES[STATEMENTS["cor_ce"].loss]
        values = np.array([loss(inst.predictor, t) for t in tasks])
        ce = np.array([cross_entropy(t, inst.predictor) for t in tasks])
        ent = np.array([entropy(t) for t in tasks])
        np.testing.assert_allclose(values, ce - ent, atol=1e-12)
        assert w[values >= rep.margin].sum() <= rep.delta
        ce_exceedance = w[ce >= rep.margin + w @ ent].sum()
        assert ce_exceedance == pytest.approx(0.151, abs=1e-3) and ce_exceedance > rep.delta

    def test_cor_bayesian_with_gaussian_params(self, binary_model, binary_predictor,
                                               binary_source, binary_target):
        p1 = GaussianParamDist(np.array([0.0, 0.0]), np.eye(2))
        pstar = GaussianParamDist(np.array([1.0, 0.0]), np.eye(2))
        rep = evaluate_bound("cor_bayesian", model=binary_model, predictor=binary_predictor,
                             source=binary_source, target=binary_target, alpha=0.15,
                             param_posterior=p1, param_best=pstar)
        assert rep.extras["param_tv"] == pytest.approx(0.5, abs=1e-12)
        assert rep.margin == pytest.approx(0.15 + 0.1 + 0.5 + 0.2, abs=1e-12)

    def test_cor_bayes_eps_variant(self, binary_model, binary_predictor, binary_source):
        target = finite_tasks([
            (Categorical([0.35, 0.65]), 0.5),
            (Categorical([0.45, 0.55]), 0.5),
        ])
        p1 = Categorical([0.6, 0.4])
        pstar = Categorical([0.5, 0.5])
        rep = evaluate_bound("cor_bayes_eps", model=binary_model, predictor=binary_predictor,
                             source=binary_source, target=target, alpha=0.2, epsilon=0.1,
                             param_posterior=p1, param_best=pstar)
        assert rep.extras["param_tv"] == pytest.approx(0.1, abs=1e-12)
        m, d = rep.rederive()
        assert rep.margin == pytest.approx(m, abs=1e-12)
        assert rep.delta == pytest.approx(d, abs=1e-12)

    def test_unknown_statement(self, binary_model, binary_predictor, binary_source, binary_target):
        with pytest.raises(InvalidArgument):
            evaluate_bound("thm3", model=binary_model, predictor=binary_predictor,
                           source=binary_source, target=binary_target, alpha=0.1)

    def test_csv_row_shape(self, binary_model, binary_predictor, binary_source, binary_target):
        rep = evaluate_bound("thm1", model=binary_model, predictor=binary_predictor,
                             source=binary_source, target=binary_target, alpha=0.15)
        row = rep.to_csv_row()
        assert row.startswith("thm1,0.15,")
        assert len(row.split(",")) == len(CSV_HEADER.split(","))

    def test_to_dict_roundtrip_fields(self, binary_model, binary_predictor, binary_source, binary_target):
        rep = evaluate_bound("thm2", model=binary_model, predictor=binary_predictor,
                             source=binary_source, target=binary_target, alpha=0.15)
        d = rep.to_dict()
        assert d["statement_id"] == "thm2"
        assert d["margin"] == rep.margin


class TestInvariants:
    @staticmethod
    def _random_instance(rng):
        m = int(rng.integers(2, 6))
        k = int(rng.integers(2, 6))
        source = finite_tasks([
            (Categorical(rng.dirichlet(np.ones(m))), w) for w in rng.dirichlet(np.ones(k))
        ])
        target = finite_tasks([
            (Categorical(rng.dirichlet(np.ones(m))), w) for w in rng.dirichlet(np.ones(k))
        ])
        model = ModelClass(tuple(
            Categorical(rng.dirichlet(np.ones(m))) for _ in range(int(rng.integers(3, 10)))
        ))
        predictor = Categorical(rng.dirichlet(np.ones(m)))
        return model, predictor, source, target

    def test_rederivability(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            model, predictor, source, target = self._random_instance(rng)
            for sid in ("thm1", "thm2", "cor_l1", "cor_hellinger", "cor_ce"):
                rep = evaluate_bound(sid, model=model, predictor=predictor,
                                     source=source, target=target, alpha=0.2)
                m, d = rep.rederive()
                assert rep.margin == pytest.approx(m, abs=1e-12)
                assert rep.delta == pytest.approx(d, abs=1e-12)

    def test_rederivability_no_shift_statements(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            model, predictor, source, _ = self._random_instance(rng)
            bary = Categorical(source.weights @ np.stack([t.p for t in source.tasks]))
            for sid, pred in (("lemma1", bary), ("lemma2", predictor)):
                rep = evaluate_bound(sid, model=model, predictor=pred,
                                     source=source, target=source, alpha=0.3)
                m, d = rep.rederive()
                assert rep.margin == pytest.approx(m, abs=1e-12)
                assert rep.delta == pytest.approx(d, abs=1e-12)
                assert rep.D == 0.0

    def test_delta_monotone_in_alpha(self, binary_model, binary_predictor, binary_source):
        target = finite_tasks([
            (Categorical([0.35, 0.65]), 0.5),
            (Categorical([0.45, 0.55]), 0.5),
        ])
        deltas = [
            evaluate_bound("thm1", model=binary_model, predictor=binary_predictor,
                           source=binary_source, target=target, alpha=a).delta
            for a in (0.05, 0.1, 0.2, 0.4)
        ]
        assert all(d1 > d2 for d1, d2 in zip(deltas, deltas[1:]))

    def test_cor_eps_delta_nondecreasing_in_epsilon(self, binary_model, binary_predictor, binary_source):
        target = finite_tasks([
            (Categorical([0.35, 0.65]), 0.5),
            (Categorical([0.45, 0.55]), 0.5),
        ])
        deltas = [
            evaluate_bound("cor_eps", model=binary_model, predictor=binary_predictor,
                           source=binary_source, target=target, alpha=0.2, epsilon=e).delta
            for e in (0.1, 0.2, 0.4)
        ]
        assert all(d1 <= d2 for d1, d2 in zip(deltas, deltas[1:]))

    def test_learner_shift_never_exceeds_d(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            model, predictor, source, target = self._random_instance(rng)
            rep = evaluate_bound("thm2", model=model, predictor=predictor,
                                 source=source, target=target, alpha=0.2)
            assert rep.D >= rep.D_learner - 1e-10
            thm1 = evaluate_bound("thm1", model=model, predictor=predictor,
                                  source=source, target=target, alpha=0.2)
            assert rep.margin <= thm1.margin + 1e-10

    def test_all_statement_ids_known(self):
        assert len(STATEMENT_IDS) == 12

    def test_array_alphas_round_like_scalar_alphas(self):
        # the oracle evaluates margins and deltas on an array of alphas,
        # evaluate_bound on one float: both must give the same bits
        rng = np.random.default_rng(81)
        comp = SimpleNamespace(
            B=0.13, C=0.07, D=0.21, D_learner=0.05, param_tv=0.11, sup_var_target=0.031,
            sup_var_source=0.027, diam_source=0.43, epsilon=0.17, b_S=0.09, b_T=0.2, b_pred=0.04)
        alphas = rng.uniform(1e-3, 1.0, size=10_000)
        for sid, statement in STATEMENTS.items():
            for part in (statement.margin, statement.delta):
                batch = part(comp, alphas)
                one_by_one = np.array([part(comp, a) for a in alphas.tolist()])
                assert np.array_equal(batch.view(np.int64), one_by_one.view(np.int64)), sid

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), 0.0])
    def test_evaluate_bound_rejects_bad_alpha(self, binary_model, binary_predictor, binary_source,
                                              binary_target, alpha):
        with pytest.raises(InvalidArgument):
            evaluate_bound("thm1", binary_model, binary_predictor, binary_source, binary_target,
                           alpha=alpha)


class TestQuantileNodeConvergence:
    @pytest.mark.parametrize("source, target", [
        (InverseGammaGaussianTasks(1.0, 20.0, 10.0), InverseGammaGaussianTasks(1.3, 17.0, 9.0)),
        (InverseGammaGaussianTasks(1.0, 3.0, 2.0), InverseGammaGaussianTasks(0.8, 5.0, 2.0)),
    ], ids=["experiments-like", "heavy-tailed"])
    def test_256_and_4096_nodes_agree(self, source, target):
        model = ModelClass.gaussian_mean_grid(0.5, 1.5, 0.5, 0.8)

        def report(src, tgt):
            return evaluate_bound("thm1", model, Gaussian(1.1, 0.8), src, tgt, alpha=0.2)

        coarse, fine = (report(source.reify(k), target.reify(k)) for k in (256, 4096))
        default = report(source, target)  # exact t barycenters, the tasks at 256 nodes
        assert default.extras == coarse.extras
        for name in ("B", "C", "D"):
            assert abs(getattr(default, name) - getattr(fine, name)) <= 1e-3, name
            assert abs(getattr(coarse, name) - getattr(fine, name)) <= 1e-3, name
        assert abs(coarse.extras["sup_var_target"] - fine.extras["sup_var_target"]) <= 1e-3

    @pytest.mark.parametrize("family", [
        InverseGammaGaussianTasks(1.0, 20.0, 10.0), InverseGammaGaussianTasks(1.3, 17.0, 9.0),
        InverseGammaGaussianTasks(1.0, 3.0, 2.0), InverseGammaGaussianTasks(0.8, 5.0, 2.0),
    ])
    def test_t_barycenter_is_the_4096_node_limit(self, family):
        assert tv_exact(barycenter(family), barycenter(family.reify(4096))) <= 1e-4

    @pytest.mark.parametrize("shape", [0.6, 1.0])
    def test_infinite_variance_families_evaluate(self, shape):
        # df 2 shape <= 2: the t barycenters have no variance, and no mean at shape 0.6
        model = ModelClass.gaussian_mean_grid(0.5, 1.5, 0.5, 0.8)
        source = InverseGammaGaussianTasks(1.0, shape, 10.0)
        target = InverseGammaGaussianTasks(1.3, shape, 9.0)
        exact = evaluate_bound("thm1", model, Gaussian(1.1, 0.8), source, target, alpha=0.2)
        fine = evaluate_bound("thm1", model, Gaussian(1.1, 0.8), source.reify(4096),
                              target.reify(4096), alpha=0.2)
        for name in ("B", "D", "D_learner"):
            assert abs(getattr(exact, name) - getattr(fine, name)) <= 1e-3, name


class TestParametricReification:
    MODEL = ModelClass.gaussian_mean_grid(0.5, 1.5, 0.5, 0.8)

    @staticmethod
    def _count_reifications(monkeypatch) -> list:
        calls = []
        reify = InverseGammaGaussianTasks.reify
        monkeypatch.setattr(InverseGammaGaussianTasks, "reify",
                            lambda self, *a: calls.append(self) or reify(self, *a))
        return calls

    @pytest.mark.parametrize("sid", ["thm1", "thm2", "cor_l1", "cor_hellinger"])
    def test_only_the_target_is_reified(self, sid, monkeypatch):
        calls = self._count_reifications(monkeypatch)
        ig_s = InverseGammaGaussianTasks(1.0, 20.0, 10.0)
        ig_t = InverseGammaGaussianTasks(1.3, 17.0, 9.0)
        evaluate_bound(sid, self.MODEL, Gaussian(1.1, 0.8), ig_s, ig_t, alpha=0.2)
        assert calls == [ig_t]

    def test_equal_families_share_one_reification(self, monkeypatch):
        calls = self._count_reifications(monkeypatch)
        ig_s = InverseGammaGaussianTasks(1.0, 20.0, 10.0)
        report = evaluate_bound("lemma2", self.MODEL, Gaussian(1.1, 0.8), ig_s,
                                InverseGammaGaussianTasks(1.0, 20.0, 10.0), alpha=0.2)
        assert len(calls) == 1 and report.D == 0.0

    def test_no_mixture_density_of_many_components(self, monkeypatch):
        # the barycenters are t's: no crossing search, floor or density evaluates a mixture
        # of more than one component (a Gaussian enters the search as a one-component one)
        sizes = []
        logpdf = GaussianMixture.logpdf
        monkeypatch.setattr(GaussianMixture, "logpdf",
                            lambda self, x: sizes.append(self.weights.size) or logpdf(self, x))
        for sid in ("thm1", "thm2", "cor_l1", "cor_hellinger"):
            evaluate_bound(sid, self.MODEL, Gaussian(1.1, 0.8),
                           InverseGammaGaussianTasks(1.0, 20.0, 10.0),
                           InverseGammaGaussianTasks(1.3, 17.0, 9.0), alpha=0.2)
        assert sizes and set(sizes) == {1}


class TestReportBytes:
    @staticmethod
    def _finite_reports() -> list:
        """Reports (or the unmet hypothesis) over finite instances."""
        sids = [s for s in STATEMENT_IDS if not s.startswith("cor_bayes")]
        out = []
        for mode in CONSTRAINT_MODES:
            for seed in range(4):
                inst = generate_instance(7_000 + seed, InstanceConfig(constraint=mode))
                for i, sid in enumerate(sids):
                    try:
                        rep = evaluate_bound(
                            sid, model=inst.model, predictor=inst.predictor, source=inst.source,
                            target=inst.target, alpha=(0.05, 0.2, 0.4)[i % 3],
                            epsilon=inst.epsilon)
                    except PreconditionViolated as exc:
                        out.append({"skip": exc.assumption, "statement_id": sid})
                    except InvalidArgument as exc:  # no epsilon outside the assumption modes
                        out.append({"error": str(exc), "statement_id": sid})
                    else:
                        out.append(rep.to_dict())
        return out

    @staticmethod
    def _ig_reports() -> list:
        """Reports on an inverse-gamma source against itself and against another family."""
        ig_s = InverseGammaGaussianTasks(1.0, 20.0, 10.0)
        ig_t = InverseGammaGaussianTasks(1.3, 17.0, 9.0)
        model = ModelClass.gaussian_mean_grid(0.5, 1.5, 0.5, 0.8)
        return [evaluate_bound(sid, model, Gaussian(1.1, 0.8), ig_s, target, alpha=0.2).to_dict()
                for target in (ig_s, ig_t) for sid in ("thm1", "thm2", "cor_hellinger")]

    def test_ig_bound_crossing_searches(self, monkeypatch):
        # B's floors leave one of the three members to the crossing search, and C is a
        # closed form: B, D and D_learner make 3 crossing searches (5 with every member).
        # Each distribution builds its search record once: a quantile for the tail points
        # of each barycenter, and a one-component mixture for each member (4 and 5 before)
        calls = []
        crossing_tv = divergences._crossing_tv
        monkeypatch.setattr(divergences, "_crossing_tv",
                            lambda p, q: calls.append("search") or crossing_tv(p, q))
        stdtrit, of = divergences.stdtrit, GaussianMixture._of.__func__
        monkeypatch.setattr(divergences, "stdtrit",
                            lambda *args: calls.append("stdtrit") or stdtrit(*args))
        monkeypatch.setattr(GaussianMixture, "_of",
                            classmethod(lambda cls, g: calls.append("_of") or of(cls, g)))
        evaluate_bound("thm1", ModelClass.gaussian_mean_grid(0.5, 1.5, 0.5, 0.8),
                       Gaussian(1.1, 0.8), InverseGammaGaussianTasks(1.0, 20.0, 10.0),
                       InverseGammaGaussianTasks(1.3, 17.0, 9.0), alpha=0.2)
        assert Counter(calls) == {"search": 3, "stdtrit": 2, "_of": 3}

    # SHA-256 of the reports' JSON; any change to a component, margin, delta, extra or
    # precondition verdict changes it
    def test_evaluate_bound_bytes_pinned(self):
        text = json.dumps(self._finite_reports(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "3c0cda657fbc679211ae44d73751814d818345453937cd9fe48d1586c41cff93")

    def test_ig_evaluate_bound_bytes_pinned(self):
        text = json.dumps(self._ig_reports(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "61b6b5f754ccb42fc8d780cae452955d9c8d19d0f0f56d2f2395141423aead15")
