"""Instance generation, exact statement verification and the suite runner."""

import collections
import dataclasses
import functools
import hashlib
import json

import numpy as np
import pytest

from epibound import (
    Categorical,
    FiniteTaskDistribution,
    InstanceConfig,
    InvalidArgument,
    ModelClass,
    OracleInstance,
    PreconditionViolated,
    barycenter,
    best_approximation,
    evaluate_bound,
    finite_tasks,
    generate_instance,
    monte_carlo_verify,
    negative_transfer_scan,
    run_suite,
    verify_statement,
)
from epibound.bounds import LOSSES, STATEMENT_IDS, STATEMENTS
from epibound.errors import GenerationFailure, InvalidTaskDistribution
from epibound.divergences import cross_entropy, entropy, hellinger_sq, l1_distance, tv_exact
from epibound import oracle
from epibound.oracle import (
    CONSTRAINT_MODES,
    DEFAULT_ALPHAS,
    ThetaInstance,
    generate_theta_instance,
    StatementReport,
)
from epibound.seeding import generator
from helpers_oracle import (
    component_instance,
    reference_components,
    reference_draw_instance,
    reference_draw_theta_instance,
    reference_project_into_ball,
)


def make_instance(source, target, model, predictor, constraint="none", epsilon=None, seed=0):
    """An instance from the arrays of hand-made distributions.

    A target on the source's task tuple reuses its rows (``T is S``), and a
    target that is the source reuses its weights too, as ``generate_instance``'s do.
    """
    shared = target.tasks == source.tasks  # Categorical compares by identity
    return OracleInstance(source.P, source.weights, source.P if shared else target.P,
                          target.weights, model.P, predictor.p, seed, constraint, epsilon)


def compute_components(inst):
    """Exact components of one instance: a batch of one."""
    return component_instance(oracle._components([inst]), 0, inst)


def looseness(inst):
    """The suite's looseness of one instance: a batch of one."""
    return float(oracle._looseness(oracle._components([inst]))[0])


def verify_theta(theta, alphas, b6_report, bayes_report):
    """The finite-theta checks on one instance: a batch of one."""
    oracle._verify_thetas([theta], np.array(alphas), b6_report, bayes_report)


class TestGeneration:
    def test_deterministic(self):
        a = generate_instance(42)
        b = generate_instance(42)
        assert a.to_dict() == b.to_dict()

    def test_smoke_small(self):
        inst = generate_instance(1, InstanceConfig(m_range=(2, 2)))
        assert inst.m == 2
        assert inst.source.n_tasks >= 2

    def test_no_shift_constraint(self):
        inst = generate_instance(5, InstanceConfig(constraint="no_shift"))
        assert inst.target is inst.source

    def test_perfect_no_shift_predictor(self):
        inst = generate_instance(6, InstanceConfig(constraint="perfect_no_shift"))
        bary = inst.source.weights @ np.stack([t.p for t in inst.source.tasks])
        np.testing.assert_allclose(inst.predictor.p, bary, atol=1e-15)

    def test_assumption1_exact(self):
        for seed in range(30):
            inst = generate_instance(seed, InstanceConfig(constraint="assumption1", epsilon=0.05))
            for t in inst.target.tasks:
                best = min(tv_exact(t, s) for s in inst.source.tasks)
                assert best <= 0.05 + 1e-12

    def test_assumption2_exact(self):
        from epibound.distributions import task_distribution_tv

        for seed in range(30):
            inst = generate_instance(seed, InstanceConfig(constraint="assumption2", epsilon=0.05))
            assert inst.target.tasks == inst.source.tasks
            assert task_distribution_tv(inst.source, inst.target) <= 0.05 + 1e-12

    def test_epsilon_drawn_when_unspecified(self):
        inst = generate_instance(7, InstanceConfig(constraint="assumption1"))
        assert inst.epsilon is not None and 0.02 <= inst.epsilon <= 0.5

    def test_instance_dicts_pinned(self):
        # bound files are written from to_dict; these are the bytes of the
        # object-backed generator this one replaced
        dicts = [generate_instance(seed, InstanceConfig(constraint=mode)).to_dict()
                 for mode in CONSTRAINT_MODES for seed in range(5)]
        digest = hashlib.sha256(json.dumps(dicts, sort_keys=True).encode()).hexdigest()
        assert digest == "49a93d0e2ecb1fa581f58772db31a04b2e2a46f7bb186633d8e2fd51b600d6a3"


class TestArrayInstances:
    def test_views_built_on_first_access(self):
        inst = generate_instance(11, InstanceConfig(constraint="assumption2"))
        compute_components(inst)
        verify_statement(inst, "thm1")
        assert not {"source", "target", "model", "predictor"} & set(vars(inst))
        assert inst.shared and inst.T is inst.S
        assert inst.target.tasks is inst.source.tasks  # shared task tuple
        assert inst.target.weights is inst.w_t
        assert inst.source is inst.source  # cached
        np.testing.assert_array_equal(inst.model.members[3].p, inst.members[3])
        assert inst.predictor.p is inst.pred

    def test_arrays_read_only(self):
        inst = generate_instance(12)
        for arr in (inst.S, inst.w_s, inst.T, inst.w_t, inst.members, inst.pred):
            assert not arr.flags.writeable
        assert not generate_theta_instance(12).T.flags.writeable

    @pytest.mark.parametrize("mode", CONSTRAINT_MODES)
    def test_from_distributions_matches_generated(self, mode):
        for seed in range(20):
            inst = generate_instance(seed, InstanceConfig(constraint=mode))
            rebuilt = make_instance(inst.source, inst.target, inst.model, inst.predictor,
                                    seed=inst.seed, constraint=inst.constraint,
                                    epsilon=inst.epsilon)
            assert rebuilt.shared == inst.shared
            assert rebuilt.to_dict() == inst.to_dict()
            got, want = compute_components(rebuilt), compute_components(inst)
            assert vars(got).keys() == vars(want).keys()
            for name, b in vars(want).items():
                a = getattr(got, name)
                if isinstance(b, dict):
                    assert a.keys() == b.keys(), name
                    for key in b:
                        np.testing.assert_array_equal(a[key], b[key], err_msg=key, strict=True)
                else:
                    np.testing.assert_array_equal(a, b, err_msg=name, strict=True)

    @pytest.mark.parametrize("field", ["S", "T", "members", "pred", "w_s", "w_t"])
    def test_bulk_checks_reject_bad_rows(self, field):
        inst = generate_instance(13)  # unconstrained: T is not S
        arrays = {f: np.array(getattr(inst, f)) for f in ("S", "w_s", "T", "w_t", "members", "pred")}
        for corrupt in ("negative", "off_sum", "nan"):
            bad = arrays[field].copy()
            row = bad[0] if bad.ndim == 2 else bad
            if corrupt == "negative":
                row[0], row[1] = -row[1], row[0] + 2 * row[1]  # still sums to 1
            elif corrupt == "off_sum":
                row[0] += 1e-9
            else:
                row[:] = np.nan
            with pytest.raises(InvalidArgument if field[0] != "w" else InvalidTaskDistribution):
                OracleInstance(**dict(arrays, **{field: bad}), seed=0, constraint="none",
                               epsilon=None)

    def test_bulk_checks_reject_shape_mismatch(self):
        inst = generate_instance(14, InstanceConfig(m_range=(3, 3)))
        with pytest.raises(InvalidArgument):
            OracleInstance(inst.S, inst.w_s, inst.T, inst.w_t, inst.members[:, :2],
                           inst.pred, 0, "none", None)
        with pytest.raises(InvalidTaskDistribution):
            OracleInstance(inst.S, inst.w_s[:-1], inst.T, inst.w_t, inst.members,
                           inst.pred, 0, "none", None)
        theta = generate_theta_instance(14)
        with pytest.raises(InvalidArgument):
            ThetaInstance(theta.theta_pmfs, theta.source_weights, theta.candidates, theta.p1,
                          -theta.T, theta.w_t, 0)


INSTANCE_ARRAYS = ("S", "w_s", "T", "w_t", "members", "pred")
THETA_ARRAYS = ("theta_pmfs", "source_weights", "candidates", "p1", "T", "w_t")


def assert_same_arrays(checked, drawn, names):
    for name in names:
        got, want = getattr(checked, name), getattr(drawn, name)
        np.testing.assert_array_equal(got, want, err_msg=name, strict=True)
        assert got.tobytes() == want.tobytes(), name
        assert not got.flags.writeable, name


class TestOneRecord:
    """The drawers return the public records, unchecked; ``generate_*`` checks them."""

    @pytest.mark.parametrize("mode", CONSTRAINT_MODES)
    def test_drawer_returns_the_public_record(self, mode):
        config = InstanceConfig(constraint=mode)
        for seed in range(10):
            drawn = oracle._draw_instance(seed, config, generator(seed))
            assert type(drawn) is OracleInstance
            assert drawn.S.flags.writeable  # __post_init__ never ran
            checked = generate_instance(seed, config)
            assert type(checked) is OracleInstance
            assert_same_arrays(checked, drawn, INSTANCE_ARRAYS)
            assert (checked.seed, checked.constraint, checked.epsilon) == (
                drawn.seed, drawn.constraint, drawn.epsilon)
            shared = mode in ("no_shift", "perfect_no_shift", "assumption2")
            assert checked.shared is drawn.shared is shared
            assert (checked.w_t is checked.w_s) is (drawn.w_t is drawn.w_s)

    @pytest.mark.parametrize("ranges", [{}, {"m_range": (7, 9), "theta_range": (7, 10)}])
    def test_theta_drawer_returns_the_public_record(self, ranges):
        for seed in range(10):
            drawn = oracle._draw_theta_instance(seed, generator(seed), **ranges)
            assert type(drawn) is ThetaInstance
            assert drawn.T.flags.writeable
            checked = generate_theta_instance(seed, **ranges)
            assert type(checked) is ThetaInstance
            assert_same_arrays(checked, drawn, THETA_ARRAYS)
            assert checked.seed == drawn.seed == seed


def assert_same_draw(got, want, names):
    """Bit-equal, C-contiguous arrays, as the reference drawer's."""
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.shape, a.dtype) == (b.shape, b.dtype), name
        assert a.tobytes() == b.tobytes(), name
        assert a.flags.c_contiguous, name


class TestFlatDirichlet:
    """``_flat_dirichlet`` against ``Generator.dirichlet`` on flat parameters."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_generator_dirichlet(self, n):
        for size in (None, *range(1, 21)):
            shape = (n,) if size is None else (size, n)
            a, b = generator(100 * n + (size or 0)), generator(100 * n + (size or 0))
            got, = oracle._flat_dirichlet(a, shape)
            want = b.dirichlet(np.ones(n), size)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (n, size)
            assert got.flags.c_contiguous
            assert a.random() == b.random()

    def test_merged_blocks_match_separate_calls(self):
        rng = np.random.default_rng(11)
        for trial in range(600):
            shapes = []
            for _ in range(int(rng.integers(1, 7))):
                n = int(rng.integers(1, 13))
                shapes.append((n,) if rng.random() < 0.3 else (int(rng.integers(1, 21)), n))
            a, b = generator(trial), generator(trial)
            got = oracle._flat_dirichlet(a, *shapes)
            for shape, block in zip(shapes, got):
                want = b.dirichlet(np.ones(shape[-1]), shape[:-1] or None)
                assert block.shape == want.shape and block.tobytes() == want.tobytes(), shapes
                assert block.flags.c_contiguous
            assert a.random() == b.random()

    def test_a_blocked_sum_would_differ(self):
        # the sequential row sum is what numpy's dirichlet does: from 8 entries on,
        # np.sum adds in blocks and scales some rows differently
        e = generator(3).standard_exponential((2000, 12))
        want = np.add.accumulate(e, axis=1)[:, -1:]
        assert not np.array_equal(e * (1.0 / e.sum(axis=1, keepdims=True)), e * (1.0 / want))


class TestProjectRows:
    """The one-pass ``_project_rows`` against the scalar halving loop it replaced."""

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(12)
        rows = 0
        while rows < 6000:
            m, k = int(rng.integers(2, 13)), int(rng.integers(1, 13))
            eps = float(rng.uniform(0.02, 0.5))
            raw, anchors = rng.dirichlet(np.ones(m), k), rng.dirichlet(np.ones(m), k)
            got = oracle._project_rows(raw, anchors, eps)
            want = np.stack([reference_project_into_ball(t, s, eps) for t, s in zip(raw, anchors)])
            assert got.tobytes() == want.tobytes(), (m, k, eps)
            rows += k

    def test_rows_past_the_first_pass(self):
        # a flat raw row against a vertex anchor at m = 12 takes 4 halvings at
        # eps 0.02 and 0.1, one past the first pass; the other rows settle sooner
        m = 12
        vertex, flat = np.eye(m)[1], np.full(m, 1.0 / m)
        raw = np.stack([flat, np.eye(m)[0], flat, generator(1).dirichlet(np.ones(m))])
        anchors = np.stack([vertex, vertex, generator(2).dirichlet(np.full(m, 0.05)), vertex])
        for eps in (0.02, 0.1, 0.5):
            got = oracle._project_rows(raw, anchors, eps)
            want = np.stack([reference_project_into_ball(t, s, eps) for t, s in zip(raw, anchors)])
            assert got.tobytes() == want.tobytes(), eps
        assert oracle._HALVINGS == 4  # what the rows above were picked against

    @pytest.mark.parametrize("eps", [-1.0, float("nan")])
    def test_no_eta_fits(self, eps):
        raw, anchors = np.full((1, 3), 1.0 / 3), np.eye(3)[:1]
        with pytest.raises(GenerationFailure, match="could not project"):
            reference_project_into_ball(raw[0], anchors[0], eps)
        with pytest.raises(GenerationFailure, match="could not project"):
            oracle._project_rows(raw, anchors, eps)


class TestDrawersMatchReferences:
    """The drawers against the ``rng.dirichlet`` drawers they replaced, bit for bit."""

    @pytest.mark.parametrize("mode", CONSTRAINT_MODES)
    def test_instances(self, mode):
        configs = [
            InstanceConfig(constraint=mode),
            InstanceConfig(m_range=(2, 12), tasks_range=(2, 12), constraint=mode),
            InstanceConfig(m_range=(2, 12), tasks_range=(1, 1), constraint=mode),
            InstanceConfig(m_range=(2, 12), tasks_range=(2, 12), members_range=(1, 3),
                           constraint=mode, epsilon=0.02),
        ]
        for seed in range(2000):
            config = configs[seed % len(configs)]
            a, b = generator(seed), generator(seed)
            got = oracle._draw_instance(seed, config, a)
            want = reference_draw_instance(seed, config, b)
            assert_same_draw(got, want, INSTANCE_ARRAYS)
            assert (got.seed, got.constraint, got.epsilon) == (
                want.seed, want.constraint, want.epsilon)
            assert got.shared is want.shared and (got.w_t is got.w_s) is (want.w_t is want.w_s)
            assert a.random() == b.random(), seed

    @pytest.mark.parametrize("ranges", [{}, {"m_range": (2, 12), "theta_range": (1, 12)}])
    def test_theta_instances(self, ranges):
        for seed in range(2000):
            a, b = generator(seed), generator(seed)
            got = oracle._draw_theta_instance(seed, a, **ranges)
            want = reference_draw_theta_instance(seed, b, **ranges)
            assert_same_draw(got, want, THETA_ARRAYS)
            assert got.seed == want.seed
            assert a.random() == b.random(), seed


class TestVerifyStatement:
    @pytest.fixture
    def worked(self, binary_source, binary_model):
        bary = Categorical([0.4, 0.6])
        return make_instance(binary_source, binary_source, binary_model, bary,
                             constraint="perfect_no_shift")

    def test_lemma1_worked_instance(self, worked):
        rep = verify_statement(worked, "lemma1", alphas=[0.15])
        out = rep.outcomes[0]
        # both tasks sit at TV 0.1 from the barycenter: no exceedance at 0.15
        assert out.exceedance == 0.0
        assert out.delta == pytest.approx(0.4444, abs=1e-4)
        assert out.slack == pytest.approx(out.delta)
        assert rep.violations == 0

    def test_margin_past_one_never_exceeds(self, worked):
        rep = verify_statement(worked, "thm1", alphas=[1.2])
        out = rep.outcomes[0]
        assert out.exceedance == 0.0
        assert out.slack == out.delta

    def test_thm2_tighter_than_thm1(self):
        rng = np.random.default_rng(31)
        for seed in rng.integers(0, 10**6, size=50):
            inst = generate_instance(int(seed))
            r1 = verify_statement(inst, "thm1", alphas=[0.2]).outcomes[0]
            r2 = verify_statement(inst, "thm2", alphas=[0.2]).outcomes[0]
            assert r2.exceedance >= r1.exceedance - 1e-15
            assert r1.delta == r2.delta

    def test_lemma1_skips_without_preconditions(self):
        inst = generate_instance(3)  # unconstrained: shifted target, random predictor
        rep = verify_statement(inst, "lemma1", alphas=[0.2])
        assert rep.skips == 1 and rep.trials == 0

    def test_deterministic_lemmas(self, worked):
        for sid in ("lemma_b2", "lemma_b7", "prop1"):
            rep = verify_statement(worked, sid)
            assert rep.violations == 0
            assert rep.min_slack >= -1e-10

    def test_lemma_b8_requires_shared_support(self, binary_source, binary_target, binary_model,
                                              binary_predictor):
        inst = make_instance(binary_source, binary_target, binary_model, binary_predictor)
        rep = verify_statement(inst, "lemma_b8")
        assert rep.skips == 1

    # the finite-theta statements are checked only on run_suite's finite-theta instances
    @pytest.mark.parametrize("sid", ["lemma99", "lemma_b6", "cor_bayesian"])
    def test_unknown_statement(self, worked, sid):
        with pytest.raises(InvalidArgument, match="is not verified on finite instances"):
            verify_statement(worked, sid)


class TestLooseness:
    def test_all_coincide_gives_zero(self, binary_model):
        point = Categorical([0.4, 0.6])
        tasks = FiniteTaskDistribution((point,), np.array([1.0]))
        model = ModelClass((point,))
        inst = make_instance(tasks, tasks, model, point)
        assert looseness(inst) == pytest.approx(0.0, abs=1e-12)

    def test_worked_binary_instance(self, binary_source, binary_target, binary_model,
                                    binary_predictor):
        inst = make_instance(binary_source, binary_target, binary_model, binary_predictor)
        # er = 0.35, C = 0.25, D = 0.2 -> looseness = -0.10
        assert looseness(inst) == pytest.approx(-0.10, abs=1e-12)

    def test_collinear_predictor_maximizes_overshoot(self):
        # with the model pinned at the source barycenter, the bound overshoot
        # (C + D) - er equals 2C exactly on the segment toward the target and
        # dominates off-segment predictors of equal C
        rng = np.random.default_rng(32)
        bary = Categorical([0.2, 0.3, 0.5])
        tasks = FiniteTaskDistribution((bary,), np.array([1.0]))
        model = ModelClass((bary,))
        qt = Categorical([0.5, 0.3, 0.2])
        target = FiniteTaskDistribution((qt,), np.array([1.0]))
        d = tv_exact(bary, qt)
        overshoots = []
        for lam in np.linspace(0.0, 1.0, 101):
            pred = Categorical((1 - lam) * bary.p + lam * qt.p)
            inst = make_instance(tasks, target, model, pred)
            c = tv_exact(pred, bary)
            overshoot = -looseness(inst)
            assert overshoot == pytest.approx(2 * c, abs=1e-12)
            overshoots.append(overshoot)
        assert overshoots[-1] == max(overshoots)
        for _ in range(50):
            pred = Categorical(rng.dirichlet(np.ones(3)))
            inst = make_instance(tasks, target, model, pred)
            c = tv_exact(pred, bary)
            assert -looseness(inst) <= 2 * c + 1e-12


# the constraint mode whose instances meet each statement's preconditions
STATEMENT_MODES = {"lemma1": "perfect_no_shift", "lemma2": "no_shift",
                   "cor_eps": "assumption1", "cor_eps_dist": "assumption2",
                   "cor_bayes_eps": "assumption1", "cor_bayes_eps_dist": "assumption2"}

# each statement's per-task loss, computed without the statement table
EXACT_LOSSES = {
    "tv": tv_exact,
    "l1": l1_distance,
    "hellinger_sq": hellinger_sq,
    "excess_ce": lambda pred, q: cross_entropy(q, pred) - entropy(q),
}


def exact_exceedance(statement_id, predictor, target, margin):
    loss = EXACT_LOSSES[STATEMENTS[statement_id].loss]
    values = np.array([loss(predictor, t) for t in target.tasks])
    return float(target.weights[values >= margin].sum())


def check_verify_agrees(rep, setup):
    res = monte_carlo_verify(dict(setup, statement_id=rep.statement_id, alpha=rep.alpha),
                             trials=20, seed=0)
    assert (res["margin"], res["delta"]) == (rep.margin, rep.delta)


class TestAgreementWithEvaluateBound:
    def test_margins_and_deltas_match_public_path(self):
        # evaluate_bound, rederive, the oracle and monte_carlo_verify agree on
        # every statement the oracle verifies on finite instances, at every alpha
        sids = [s for s in STATEMENT_IDS if not s.startswith("cor_bayes")]
        rng = np.random.default_rng(77)
        exceeded = dict.fromkeys(EXACT_LOSSES, 0)  # outcomes with a positive exceedance
        for sid in sids:
            modes = [STATEMENT_MODES[sid]] if sid in STATEMENT_MODES else [
                "none", "no_shift", "perfect_no_shift"]
            trials = 0
            for i, seed in enumerate(rng.integers(0, 10**6, size=12)):
                inst = generate_instance(int(seed), InstanceConfig(constraint=modes[i % len(modes)]))
                setup = {"model": inst.model, "predictor": inst.predictor,
                         "source": inst.source, "target": inst.target, "epsilon": inst.epsilon}
                out = verify_statement(inst, sid, alphas=DEFAULT_ALPHAS)
                try:
                    reps = [evaluate_bound(sid, alpha=a, **setup) for a in DEFAULT_ALPHAS]
                except PreconditionViolated:
                    assert out.skips == 1 and out.trials == 0, sid
                    continue
                trials += out.trials
                comp = compute_components(inst)
                # both paths compute B, C and D with the same arithmetic, bit for bit
                assert (comp.B, comp.C, comp.D) == (reps[0].B, reps[0].C, reps[0].D), sid
                # verify scores the table's loss on objects, the oracle its exact array
                loss = STATEMENTS[sid].loss
                values = [LOSSES[loss](inst.predictor, t) for t in inst.target.tasks]
                np.testing.assert_allclose(values, comp.losses[loss], rtol=0, atol=1e-12)
                for rep, outcome in zip(reps, out.outcomes):
                    assert (rep.margin, rep.delta) == rep.rederive(), sid
                    assert outcome.delta == pytest.approx(rep.delta, rel=1e-12, abs=1e-15), sid
                    assert outcome.exceedance == exact_exceedance(
                        sid, inst.predictor, inst.target, rep.margin), sid
                    exceeded[STATEMENTS[sid].loss] += outcome.exceedance > 0
                check_verify_agrees(reps[0], setup)
            assert trials > 0, f"{sid} never met its preconditions"
        assert all(exceeded.values()), exceeded

    def test_copied_target_rows_are_no_shift(self, binary_source):
        # a target holding copies of the source rows is the same task distribution
        target = finite_tasks([(Categorical([0.3, 0.7]), 0.5), (Categorical([0.5, 0.5]), 0.5)])
        model = ModelClass((Categorical([0.4, 0.6]), Categorical([0.1, 0.9])))
        pred = Categorical([0.4, 0.6])
        rep = evaluate_bound("lemma1", model=model, predictor=pred, source=binary_source,
                             target=target, alpha=0.05)
        assert rep.delta == pytest.approx(4.0, rel=1e-12)
        out = verify_statement(make_instance(binary_source, target, model, pred),
                               "lemma1", alphas=[0.05])
        assert out.skips == 0 and out.trials == 1
        assert out.outcomes[0].delta == pytest.approx(rep.delta, rel=1e-12)
        assert out.outcomes[0].exceedance == exact_exceedance("lemma1", pred, target, rep.margin)

    def test_zero_weight_target_rows_are_never_drawn(self):
        # the zero-weight task leaks outside the predictor's support and lies
        # far from every source task; neither may block a statement
        pred = Categorical([0.0, 1.0])
        target = finite_tasks([(pred, 1.0), (Categorical([0.5, 0.5]), 0.0)])
        source = finite_tasks([(pred, 1.0)])
        model = ModelClass((pred,))
        inst = make_instance(source, target, model, pred, constraint="assumption1", epsilon=0.1)
        comp = compute_components(inst)
        assert comp.support_covered and comp.max_tv_to_source == 0.0
        rep = evaluate_bound("cor_ce", model=model, predictor=pred, source=source,
                             target=target, alpha=1.0)
        assert rep.margin == pytest.approx(2.0, rel=1e-12)
        out = verify_statement(inst, "cor_ce", alphas=[1.0])
        assert out.skips == 0 and out.trials == 1
        assert out.outcomes[0].delta == pytest.approx(rep.delta, rel=1e-12, abs=1e-15)
        assert out.outcomes[0].exceedance == 0.0  # the one drawable task is the predictor

    def test_sup_variances_and_chebyshev_deltas_agree_exactly(self):
        # evaluate_bound and the oracle share one per-event variance kernel, so
        # sup_var_target, sup_var_source and every Chebyshev delta agree bit for bit
        chebyshev = [sid for sid, st in STATEMENTS.items()
                     if st.delta is STATEMENTS["thm1"].delta and not sid.startswith("cor_bayes")]
        checked = dict.fromkeys(chebyshev, 0)
        eps_checked = 0
        for i in range(2000):
            inst = generate_instance(i, InstanceConfig(constraint=CONSTRAINT_MODES[i % 5]))
            setup = {"model": inst.model, "predictor": inst.predictor, "source": inst.source,
                     "target": inst.target, "epsilon": inst.epsilon}
            comp = compute_components(inst)
            sid, alpha = chebyshev[i % len(chebyshev)], DEFAULT_ALPHAS[i % len(DEFAULT_ALPHAS)]
            try:
                rep = evaluate_bound(sid, alpha=alpha, **setup)
            except PreconditionViolated:
                rep = evaluate_bound("thm1", alpha=alpha, **setup)
            else:
                assert verify_statement(inst, sid, [alpha]).outcomes[0].delta == rep.delta, i
                checked[sid] += 1
            assert rep.extras["sup_var_target"] == comp.sup_var_target, i
            if inst.epsilon is not None:
                for eps_sid in ("cor_eps_dist", "cor_eps"):
                    try:
                        rep = evaluate_bound(eps_sid, alpha=alpha, **setup)
                    except PreconditionViolated:
                        continue
                    assert rep.extras["sup_var_source"] == comp.sup_var_source, i
                    eps_checked += 1
                    break
        assert all(checked.values()) and eps_checked > 0, (checked, eps_checked)

    def test_eps_delta_matches_public_path(self):
        rng = np.random.default_rng(78)
        for seed in rng.integers(0, 10**6, size=15):
            inst = generate_instance(int(seed), InstanceConfig(constraint="assumption1"))
            rep = evaluate_bound("cor_eps", model=inst.model, predictor=inst.predictor,
                                 source=inst.source, target=inst.target, alpha=0.25,
                                 epsilon=inst.epsilon)
            out = verify_statement(inst, "cor_eps", alphas=[0.25]).outcomes[0]
            assert out.delta == pytest.approx(rep.delta, rel=1e-12)

    def test_bayesian_statements_match_public_path(self):
        # cor_bayesian: the oracle's finite-theta check against evaluate_bound on
        # the same world, with the categorical posterior and best parameter
        for seed in range(20):
            theta = generate_theta_instance(seed)
            source = FiniteTaskDistribution(
                tuple(Categorical(p) for p in theta.theta_pmfs), theta.source_weights)
            model = ModelClass(tuple(Categorical(c @ theta.theta_pmfs) for c in theta.candidates))
            setup = {"model": model, "predictor": Categorical(theta.p1 @ theta.theta_pmfs),
                     "source": source, "target": theta.target,
                     "param_posterior": Categorical(theta.p1)}
            best, _ = best_approximation(model, barycenter(source))
            setup["param_best"] = Categorical(theta.candidates[model.members.index(best)])
            rep = evaluate_bound("cor_bayesian", alpha=0.3, **setup)
            assert (rep.margin, rep.delta) == rep.rederive()
            report = StatementReport("cor_bayesian", keep_outcomes=True)
            verify_theta(theta, [0.3], StatementReport("lemma_b6"), report)
            outcome = report.outcomes[0]
            assert outcome.delta == pytest.approx(rep.delta, rel=1e-12, abs=1e-15)
            assert outcome.exceedance == exact_exceedance(
                "cor_bayesian", setup["predictor"], theta.target, rep.margin)
            check_verify_agrees(rep, setup)

        # the epsilon variants, which the oracle does not verify
        rng = np.random.default_rng(79)
        for sid in ("cor_bayes_eps", "cor_bayes_eps_dist"):
            for seed in rng.integers(0, 10**6, size=10):
                inst = generate_instance(int(seed), InstanceConfig(constraint=STATEMENT_MODES[sid]))
                p1, pstar = (Categorical(rng.dirichlet(np.ones(4))) for _ in range(2))
                setup = {"model": inst.model, "predictor": inst.predictor,
                         "source": inst.source, "target": inst.target, "epsilon": inst.epsilon,
                         "param_posterior": p1, "param_best": pstar}
                rep = evaluate_bound(sid, alpha=0.2, **setup)
                assert rep.extras["param_tv"] == tv_exact(p1, pstar)
                assert (rep.margin, rep.delta) == rep.rederive()
                check_verify_agrees(rep, setup)


def handmade_instances():
    """Instances with copied, zero-weight and out-of-support target rows.

    One target reuses the source's weights array with other tasks.
    """
    p = [Categorical(v) for v in ([0.3, 0.7], [0.5, 0.5], [0.0, 1.0], [1.0, 0.0])]
    source = finite_tasks([(p[0], 0.5), (p[1], 0.5)])
    model = ModelClass((Categorical([0.4, 0.6]), p[2], Categorical([0.4, 0.6])))
    targets = [
        finite_tasks([(Categorical([0.3, 0.7]), 0.5), (Categorical([0.5, 0.5]), 0.5)]),
        finite_tasks([(p[2], 1.0), (p[3], 0.0)]),
        finite_tasks([(p[0], 0.25), (p[0], 0.25), (p[1], 0.5)]),
        finite_tasks([(p[3], 1.0)]),
        source,
        FiniteTaskDistribution(source.tasks, np.array([0.0, 1.0])),
        FiniteTaskDistribution((p[2], p[3]), source.weights),  # other tasks, same weights array
    ]
    insts = [make_instance(source, t, model, pred, constraint=mode, epsilon=eps)
             for t in targets for pred in (p[0], p[2])
             for mode, eps in (("none", None), ("assumption1", 0.1))]
    one = finite_tasks([(p[2], 1.0)])
    insts.append(make_instance(one, one, ModelClass((p[2],)), p[2]))
    rng = np.random.default_rng(5)
    for m in (3, 8, 9):
        tasks = finite_tasks([(Categorical(rng.dirichlet(np.ones(m))), w)
                              for w in rng.dirichlet(np.ones(9))])
        model = ModelClass(tuple(Categorical(rng.dirichlet(np.ones(m))) for _ in range(4)))
        insts.append(make_instance(tasks, tasks, model, model.members[2],
                                   constraint="assumption2", epsilon=0.3))
    return insts


def component_instances():
    insts = handmade_instances()
    configs = [InstanceConfig(), InstanceConfig(m_range=(2, 7)), InstanceConfig(m_range=(2, 8)),
               InstanceConfig(m_range=(2, 12)), InstanceConfig(tasks_range=(2, 12)),
               InstanceConfig(tasks_range=(1, 3), members_range=(1, 4))]
    for c, config in enumerate(configs):
        for mode in CONSTRAINT_MODES:
            insts += [generate_instance(1000 * c + seed, dataclasses.replace(config, constraint=mode))
                      for seed in range(12)]
    return insts


def assert_matches_reference(got, want, where):
    for name, value in want.items():
        if name == "losses":
            assert got.losses.keys() == value.keys(), where
            for key in value:
                np.testing.assert_array_equal(got.losses[key], value[key], strict=True,
                                              err_msg=f"{where}: {key}")
        else:
            np.testing.assert_array_equal(getattr(got, name), value, strict=True,
                                          err_msg=f"{where}: {name}")


class TestBatchedComponents:
    """The batched pass against the per-instance computation it replaced."""

    def test_mixed_batches_match_reference(self):
        insts = component_instances()
        wants = [reference_components(inst) for inst in insts]
        rng = np.random.default_rng(3)
        order = rng.permutation(len(insts))
        start = 0
        while start < len(order):
            chunk = order[start:start + int(rng.integers(1, 40))]
            start += chunk.size
            for group in oracle._instance_groups([insts[i] for i in chunk]):
                comp = oracle._components([insts[i] for i in chunk[group]])
                for b, i in enumerate(chunk[group]):
                    assert_matches_reference(component_instance(comp, b, insts[i]), wants[i],
                                             f"instance {i}")
        for i in range(0, len(insts), 7):
            assert_matches_reference(compute_components(insts[i]), wants[i], f"single {i}")

    def test_margins_and_deltas_match_single_instance(self):
        # the table on (batch, 1) columns and an alpha row, against the table on
        # one instance's Python floats and one alpha, as the old oracle called it
        insts = component_instances()
        alphas = np.array(DEFAULT_ALPHAS)
        for group in oracle._instance_groups(insts):
            comp = oracle._components([insts[g] for g in group])
            for sid in oracle._INSTANCE_STATEMENTS:
                statement = STATEMENTS[sid]
                with np.errstate(divide="ignore", invalid="ignore"):
                    margins = np.broadcast_to(statement.margin(comp, alphas), (group.size, 10))
                    deltas = statement.delta(comp, alphas)
                for b in range(group.size):
                    one = component_instance(comp, b, insts[group[b]])
                    if statement.unmet(one) is not None:
                        continue
                    for a, alpha in enumerate(DEFAULT_ALPHAS):
                        assert margins[b, a] == statement.margin(one, alpha), sid
                        assert deltas[b, a] == statement.delta(one, alpha), sid

    def test_squares_keep_python_rounding(self):
        from epibound.bounds import _pow2

        x = np.random.default_rng(8).random(100_000) * 2.0
        want = np.array([v ** 2 for v in x.tolist()])
        assert not np.array_equal(x * x, want)  # numpy's square rounds differently
        np.testing.assert_array_equal(_pow2(x), want, strict=True)
        np.testing.assert_array_equal(_pow2(x.reshape(-1, 1)), want.reshape(-1, 1), strict=True)
        assert _pow2(0.3) == 0.3 ** 2

    def test_looseness_matches_reference(self):
        insts = component_instances()
        for group in oracle._instance_groups(insts):
            batch = [insts[g] for g in group]
            got = oracle._looseness(oracle._components(batch))
            for inst, value in zip(batch, got.tolist()):
                want = reference_components(inst)
                assert value == float(want["t_weights"] @ want["losses"]["tv"]) - (
                    want["C"] + want["D"])
                assert looseness(inst) == value

    def test_chunk_equals_batches_of_one(self):
        insts = component_instances()
        alphas = np.array(DEFAULT_ALPHAS)
        for group in oracle._instance_groups(insts):
            batch = [insts[g] for g in group]
            comp = oracle._components(batch)
            # every statement in one call, sharing exceedances and deltas
            reports = [StatementReport(sid, keep_outcomes=True) for sid in oracle._CHECKED]
            attempts = np.ones((len(batch), len(oracle._CHECKED)), dtype=bool)
            all_hits = oracle._check(oracle._CHECKED, comp, alphas, attempts, reports)
            for sid, hits, together in zip(oracle._CHECKED, all_hits, reports):
                alone = StatementReport(sid, keep_outcomes=True)
                hit_alone = []
                for b, inst in enumerate(batch):
                    rep = verify_statement(inst, sid, alphas)
                    oracle._merge_reports(alone, rep)
                    alone.outcomes += rep.outcomes
                    if rep.violations:
                        hit_alone.append(b)
                assert hits.tolist() == hit_alone, sid
                assert dataclasses.asdict(together) == dataclasses.asdict(alone), sid

    def test_shared_exceedances_and_deltas_computed_once(self):
        # under assumption2, thm1, cor_eps and cor_eps_dist share one tv exceedance
        # (5 distinct loss and margin pairs for 7 probability statements), and the
        # five statements with the Chebyshev delta read sup_var_target once
        insts = [generate_instance(seed, InstanceConfig(constraint="assumption2"))
                 for seed in range(6)]
        comp, reads = oracle._components(insts), collections.Counter()

        class Counting:
            def __getattr__(self, name):
                reads[name] += 1
                return getattr(comp, name)

        attempts = np.array([oracle._ATTEMPTS["assumption2"]] * len(insts))
        reports = [StatementReport(sid) for sid in oracle._CHECKED]
        oracle._check(oracle._CHECKED, Counting(), np.array(DEFAULT_ALPHAS), attempts, reports)
        assert reads["losses"] == 5
        assert reads["sup_var_target"] == 1
        assert sum(r.trials for r in reports) > 0

    def test_theta_chunk_equals_batches_of_one(self):
        thetas = [generate_theta_instance(seed) for seed in range(40)]
        thetas += [generate_theta_instance(seed, m_range=(7, 9), theta_range=(7, 10))
                   for seed in range(40)]
        order = np.random.default_rng(4).permutation(len(thetas))
        b6, cb = StatementReport("lemma_b6"), StatementReport("cor_bayesian", keep_outcomes=True)
        oracle._verify_thetas([thetas[i] for i in order], np.array(DEFAULT_ALPHAS), b6, cb)
        b6_alone = StatementReport("lemma_b6")
        cb_alone = StatementReport("cor_bayesian", keep_outcomes=True)
        for i in order:
            verify_theta(thetas[i], DEFAULT_ALPHAS, b6_alone, cb_alone)
        assert dataclasses.asdict(b6) == dataclasses.asdict(b6_alone)
        # the batch checks each group of like-sized instances in turn
        cb.outcomes.sort(key=dataclasses.astuple)
        cb_alone.outcomes.sort(key=dataclasses.astuple)
        assert dataclasses.asdict(cb) == dataclasses.asdict(cb_alone)
        assert cb.trials == len(thetas) * len(DEFAULT_ALPHAS)


def derived_instance(theta):
    """The oracle instance a finite-theta instance stands for: source tasks the
    theta pmfs, members and predictor their mixtures."""
    return OracleInstance(theta.theta_pmfs, theta.source_weights, theta.T, theta.w_t,
                          theta.candidates @ theta.theta_pmfs, theta.p1 @ theta.theta_pmfs,
                          theta.seed, "none", None)


class TestOneEngine:
    def test_theta_components_are_the_derived_instances(self):
        thetas = [generate_theta_instance(seed) for seed in range(700)]
        thetas += [generate_theta_instance(seed, m_range=(7, 9), theta_range=(7, 10))
                   for seed in range(300)]
        order = np.random.default_rng(5).permutation(len(thetas))
        for start in range(0, len(order), 256):  # the suite's chunk size
            chunk = [thetas[i] for i in order[start:start + 256]]
            keys = [(t.T.shape[1], t.p1.size, t.T.shape[0]) for t in chunk]
            for group in oracle._groups(keys):
                batch = [chunk[g] for g in group]
                derived = [derived_instance(t) for t in batch]
                assert [g.tolist() for g in oracle._instance_groups(derived)] == [
                    list(range(len(batch)))]
                got, want = oracle._theta_components(batch), oracle._components(derived)
                for name in ("B", "C", "D", "sup_var_target", "t_weights"):
                    np.testing.assert_array_equal(getattr(got, name), getattr(want, name),
                                                  strict=True, err_msg=name)
                np.testing.assert_array_equal(got.losses["tv"], want.losses["tv"], strict=True)


class TestThetaInstances:
    def test_b6_and_bayesian_bound(self):
        b6 = StatementReport("lemma_b6")
        cb = StatementReport("cor_bayesian")
        for seed in range(300):
            verify_theta(generate_theta_instance(seed), DEFAULT_ALPHAS, b6, cb)
        assert b6.violations == 0
        assert b6.min_slack >= -1e-10
        assert cb.violations == 0

    def test_arrays_read_only(self):
        theta = generate_theta_instance(12)
        for name in ("theta_pmfs", "source_weights", "candidates", "p1", "T", "w_t"):
            assert not getattr(theta, name).flags.writeable, name

    @pytest.mark.parametrize("name", ["theta_pmfs", "source_weights", "candidates", "p1"])
    def test_rejects_bad_rows(self, name):
        theta = generate_theta_instance(3)
        arrays = {f: np.array(getattr(theta, f))
                  for f in ("theta_pmfs", "source_weights", "candidates", "p1", "T", "w_t")}
        for corrupt in ("negative", "off_sum", "nan"):
            bad = arrays[name].copy()
            row = bad[0] if bad.ndim == 2 else bad
            if corrupt == "negative":
                row[0], row[1] = -row[1], row[0] + 2 * row[1]  # still sums to 1
            elif corrupt == "off_sum":
                row[0] += 1e-9
            else:
                row[:] = np.nan
            with pytest.raises(InvalidArgument):
                ThetaInstance(**dict(arrays, **{name: bad}), seed=0)

    def test_rejects_shape_mismatch(self):
        theta = generate_theta_instance(3)
        j, m = theta.theta_pmfs.shape
        rng = np.random.default_rng(0)
        arrays = {f: getattr(theta, f)
                  for f in ("theta_pmfs", "source_weights", "candidates", "p1", "T", "w_t")}
        for name, bad in [
            ("T", rng.dirichlet(np.ones(m + 1), size=theta.T.shape[0])),  # 7 outcomes, not 6
            ("theta_pmfs", rng.dirichlet(np.ones(m), size=j + 1)),
            ("candidates", rng.dirichlet(np.ones(j + 1), size=3)),
            ("source_weights", rng.dirichlet(np.ones(j + 1))),
            ("p1", rng.dirichlet(np.ones(j - 1))),
            ("p1", rng.dirichlet(np.ones(j), size=2)),
        ]:
            with pytest.raises(InvalidArgument):
                ThetaInstance(**dict(arrays, **{name: bad}), seed=0)

    def test_instance_bytes_pinned(self):
        # recorded with the generator that built and checked each ThetaInstance
        # from its own draws, before the raw-array drawer split off from it
        h = hashlib.sha256()
        for ranges in ({}, {"m_range": (7, 9), "theta_range": (7, 10)}):
            for seed in range(50):
                theta = generate_theta_instance(seed, **ranges)
                for name in ("theta_pmfs", "source_weights", "candidates", "p1", "T", "w_t"):
                    arr = getattr(theta, name)
                    h.update(str(arr.shape).encode())
                    h.update(arr.tobytes())
        assert h.hexdigest() == "62033a71d87bee100448a9e978709a6c4c02d692369ca9027328ca4588b76557"

    def test_negative_seed_normalized(self):
        # like generate_instance, any 64-bit seed maps onto SeedSequence's domain
        a, b = generate_theta_instance(-1), generate_theta_instance(2**64 - 1)
        for name in ("theta_pmfs", "source_weights", "candidates", "p1", "T", "w_t"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -0.1])
    def test_rejects_bad_alphas(self, bad, monkeypatch):
        # the suite rejects the alphas before any finite-theta instance is checked
        checked = []
        monkeypatch.setattr(oracle, "_verify_thetas", lambda *args: checked.append(args))
        with pytest.raises(InvalidArgument):
            run_suite(1, alphas=[0.3, bad])
        assert checked == []

    @pytest.mark.parametrize("ranges, message", [
        ({"m_range": (5, 2)}, r"m_range must be an ordered pair from 2, got \(5, 2\)"),
        ({"m_range": (1, 3)}, r"m_range must be an ordered pair from 2, got \(1, 3\)"),
        ({"m_range": (13, 13)}, "m <= 12"),
        ({"theta_range": (3, 1)}, r"theta_range must be an ordered pair from 1, got \(3, 1\)"),
        ({"theta_range": (0, 2)}, r"theta_range must be an ordered pair from 1, got \(0, 2\)"),
        ({"m_range": (2, 2.5)}, r"each end of m_range must be an integer, got 2\.5"),
        ({"theta_range": (1.5, 3)}, r"each end of theta_range must be an integer, got 1\.5"),
    ], ids=["m-reversed", "m-below-2", "m-above-12", "theta-reversed", "theta-below-1",
            "m-not-integer", "theta-not-integer"])
    def test_rejects_bad_ranges(self, ranges, message):
        # InstanceConfig's rules, with its error type and message
        with pytest.raises(InvalidArgument, match=message):
            generate_theta_instance(0, **ranges)
        if "m_range" in ranges:
            with pytest.raises(InvalidArgument, match=message):
                InstanceConfig(**ranges)


class TestSuite:
    @pytest.mark.parametrize("bad", [2.5, 2.0, "2", True])
    def test_rejects_instance_counts_that_are_not_integers(self, bad, monkeypatch):
        # 2.5 ran 2 instances and reported n_instances 2.5
        monkeypatch.setattr(oracle, "map_payloads", lambda *args: pytest.fail("suite ran"))
        message = rf"^n_instances must be an integer, got {bad!r}$"
        with pytest.raises(InvalidArgument, match=message):
            run_suite(bad)

    def test_rejects_more_instances_than_one_seed_word_indexes(self, monkeypatch):
        # instance i's seed path (seed, i, 0) hashes as (seed, i) only while i < 2**32
        monkeypatch.setattr(oracle, "map_payloads", lambda *args: pytest.fail("suite ran"))
        with pytest.raises(InvalidArgument,
                           match=r"^n_instances must be <= 2\*\*32, got 4294967297$"):
            run_suite(2**32 + 1)

    def test_rejects_max_outcomes_that_is_not_an_integer(self, monkeypatch):
        # 2.5 ran instances on up to 2 outcomes and reported max_outcomes 2.5
        monkeypatch.setattr(oracle, "map_payloads", lambda *args: pytest.fail("suite ran"))
        with pytest.raises(InvalidArgument, match=r"^max_outcomes must be an integer, got 2\.5$"):
            run_suite(3, max_outcomes=2.5)

    def test_small_suite_statements_clean(self):
        report = run_suite(400, seed=2024)
        for sid, rep in report.statements.items():
            if sid == "lemma1":
                continue  # documented defect: the stated inequality is falsifiable
            assert rep.violations == 0, f"{sid}: {rep.violations} violations"
        assert report.statements["thm1"].trials == 400 * len(DEFAULT_ALPHAS)
        assert report.looseness_stats["min"] <= report.looseness_stats["max"]

    def test_parallel_matches_serial(self):
        a = run_suite(60, seed=9, threads=1)
        b = run_suite(60, seed=9, threads=2)
        assert a.to_dict() == b.to_dict()

    def test_report_bytes_pinned(self):
        # the report of the object-backed oracle this one replaced
        digest = hashlib.sha256(run_suite(200, seed=2024).to_json().encode()).hexdigest()
        assert digest == "d08a5a32d516fcd56db3d82afcf6e402c9e74f2deccaf466c95b43f26edd9756"

    def test_report_bytes_pinned_up_to_12_outcomes(self):
        # recorded with the per-instance oracle; instances with 8 or more
        # outcomes sum over that axis in blocks, so the batch groups them by m
        digest = hashlib.sha256(run_suite(100, seed=7, max_outcomes=12).to_json().encode())
        assert digest.hexdigest() == (
            "7e46ad7cf3e89fd776050c9e601aff71685f966dcb53b1908931e2a813cd6afa")

    def test_report_bytes_pinned_up_to_12_tasks(self, monkeypatch):
        # recorded with the per-instance oracle, every instance drawn with 2 to
        # 12 source and target tasks: the long sums over target tasks
        monkeypatch.setattr(oracle, "InstanceConfig",
                            functools.partial(InstanceConfig, tasks_range=(2, 12)))
        digest = hashlib.sha256(run_suite(100, seed=7).to_json().encode()).hexdigest()
        assert digest == "01788854cd54b4f570e463026df223676ecce7d71bd65ffc14e8aec8a26b6b11"

    def test_report_bytes_pinned_across_chunks(self):
        # 300 instances: a full 256-instance chunk, then a partial one; recorded
        # with one derive_seed and one default_rng per drawn instance
        digest = hashlib.sha256(run_suite(300, seed=7).to_json().encode()).hexdigest()
        assert digest == "1e310ca9135a18fc4a039eb04ad8dbd71a475849d56094f801594ffe6622e834"

    def test_chunks_of_one_match(self, monkeypatch):
        want = run_suite(60, seed=9, max_outcomes=9).to_dict()
        monkeypatch.setattr(oracle, "_CHUNK", 1)
        assert run_suite(60, seed=9, max_outcomes=9).to_dict() == want

    @staticmethod
    def _corrupt_eighth(monkeypatch, drawer, corrupts, calls):
        """Corrupt, in the 8th record ``drawer`` returns, the last row of each field of
        ``corrupts`` (field -> how): the last row, which padding never copies."""
        draw = getattr(oracle, drawer)

        def corrupted(*args, **kwargs):
            out = draw(*args, **kwargs)
            calls.append(None)
            if len(calls) != 8:
                return out
            bad = {}
            for field, corrupt in corrupts.items():
                bad[field] = getattr(out, field).copy()
                row = bad[field][-1] if bad[field].ndim == 2 else bad[field]
                if corrupt == "negative":
                    row[0], row[1] = -row[1], row[0] + 2 * row[1]  # still sums to 1
                elif corrupt == "off_sum":
                    row[0] += 1e-9
                else:
                    row[:] = np.nan
            return oracle._unchecked(type(out), **dict(vars(out), **bad))

        monkeypatch.setattr(oracle, drawer, corrupted)

    # each field's name in the messages, and its bad row's sum after "off_sum"
    ROW_MESSAGES = {
        ("_draw_instance", "members"): ("probabilities", "1.000000001"),
        ("_draw_instance", "w_t"): ("task weights", "1.000000001"),
        ("_draw_theta_instance", "T"): ("probabilities", "1.0000000010000003"),
        ("_draw_theta_instance", "w_t"): ("task weights", "1.000000001"),
        ("_draw_theta_instance", "theta_pmfs"): ("probabilities", "1.0000000009999999"),
        ("_draw_theta_instance", "candidates"): ("probabilities", "1.0000000009999999"),
        ("_draw_theta_instance", "source_weights"): ("source_weights", "1.000000001"),
        ("_draw_theta_instance", "p1"): ("p1", "1.0000000009999999"),
    }

    @pytest.mark.parametrize("drawer, field, error", [
        ("_draw_instance", "members", InvalidArgument),
        ("_draw_instance", "w_t", InvalidTaskDistribution),
        ("_draw_theta_instance", "theta_pmfs", InvalidArgument),
        ("_draw_theta_instance", "source_weights", InvalidArgument),
        ("_draw_theta_instance", "T", InvalidArgument),
        ("_draw_theta_instance", "w_t", InvalidTaskDistribution),
        ("_draw_theta_instance", "candidates", InvalidArgument),
        ("_draw_theta_instance", "p1", InvalidArgument),
    ])
    @pytest.mark.parametrize("corrupt", ["negative", "off_sum", "nan"])
    def test_every_drawn_row_checked(self, monkeypatch, drawer, field, error, corrupt):
        # one bad row in one of the 20 instances, rejected with the type the instance
        # constructors raise and the message of the row itself, as recorded when each
        # instance kind had its own component pass
        calls = []
        self._corrupt_eighth(monkeypatch, drawer, {field: corrupt}, calls)
        what, total = self.ROW_MESSAGES[drawer, field]
        with pytest.raises(error) as raised:
            run_suite(20)
        assert str(raised.value) == {
            "negative": f"{what} must be nonnegative",
            "off_sum": f"{what} must sum to 1 within 1e-12, got np.float64({total})",
            "nan": f"{what} must sum to 1 within 1e-12, got np.float64(nan)",
        }[corrupt]
        assert len(calls) == 20

    @pytest.mark.parametrize("first, then", [
        ("T", "w_t"), ("w_t", "theta_pmfs"), ("theta_pmfs", "candidates"),
        ("candidates", "source_weights"), ("source_weights", "p1"),
    ])
    def test_theta_rows_checked_in_order(self, monkeypatch, first, then):
        # the first bad field in ThetaInstance's order gives the message, not a row
        # derived from it: a NaN row in ``first``, a negative one in ``then``
        self._corrupt_eighth(monkeypatch, "_draw_theta_instance",
                             {first: "nan", then: "negative"}, [])
        what, _ = self.ROW_MESSAGES["_draw_theta_instance", first]
        with pytest.raises((InvalidArgument, InvalidTaskDistribution),
                           match=rf"^{what} must sum to 1 within 1e-12, got np.float64\(nan\)$"):
            run_suite(20)

    def test_suite_builds_no_instance_objects(self, monkeypatch):
        def refuse(self):
            raise AssertionError(f"{type(self).__name__} built")

        monkeypatch.setattr(OracleInstance, "__post_init__", refuse)
        monkeypatch.setattr(ThetaInstance, "__post_init__", refuse)
        # recorded with the suite that built both objects for every index
        digest = hashlib.sha256(run_suite(20, seed=5).to_json().encode()).hexdigest()
        assert digest == "38960e303269153ba3b59c10ea5b6c08db14e2cce80b4b53b82da5ca571843dd"

    def test_workers_capped_at_cpu_count(self, serial_pools):
        want = run_suite(60, seed=9).to_dict()
        assert run_suite(60, seed=9, threads=5000).to_dict() == want
        assert run_suite(60, seed=9, threads=2).to_dict() == want
        assert serial_pools == [3, 2]

    def test_skip_reasons_counted(self):
        rep = StatementReport("cor_eps")
        for inst in handmade_instances():
            oracle._merge_reports(rep, verify_statement(inst, "cor_eps"))
        assert len(rep.skip_reasons) >= 2 and sum(rep.skip_reasons.values()) == rep.skips
        report = run_suite(20, seed=5)
        text = report.to_json()
        assert not any(r.skips for r in report.statements.values())  # modes meet hypotheses
        oracle._merge_reports(report.statements["cor_eps"], rep)
        lines = report.summary_lines()
        for reason, count in rep.skip_reasons.items():
            assert f"cor_eps skipped {count}: {reason}" in lines
        assert sum(" skipped " in line for line in lines) == len(rep.skip_reasons)
        assert "skip_reasons" not in report.to_json() and "skip_reasons" not in text

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -0.1])
    def test_rejects_bad_alphas(self, bad):
        with pytest.raises(InvalidArgument):
            run_suite(5, alphas=(0.1, bad))
        with pytest.raises(InvalidArgument):
            verify_statement(generate_instance(1), "thm1", alphas=[bad])

    def test_report_serializes(self):
        report = run_suite(20, seed=5)
        text = report.to_json()
        assert '"statements"' in text
        assert len(report.summary_lines()) >= 10


class TestNegativeTransferScan:
    def test_zero_violations(self):
        res = negative_transfer_scan(seed=0, n_instances=25, n_points=101)
        assert res["total_violations"] == 0

    @pytest.mark.parametrize("counts, message", [
        ({"n_instances": 2.5}, r"^n_instances must be an integer, got 2\.5$"),
        ({"n_points": 0}, r"^n_points must be >= 2, got 0$"),
        ({"n_points": 1}, r"^n_points must be >= 2, got 1$"),
    ], ids=["instances-not-integer", "no-points", "one-point"])
    def test_rejects_bad_counts(self, counts, message):
        # one point has no step, so its monotonicity check passed on nothing
        with pytest.raises(InvalidArgument, match=message):
            negative_transfer_scan(**counts)

    def test_deterministic(self):
        assert negative_transfer_scan(seed=3, n_instances=5) == negative_transfer_scan(
            seed=3, n_instances=5
        )
