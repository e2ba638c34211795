"""Acceptance suite: every criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (uncaptured, so it is visible in
any pytest run).  Criterion 1 is split per statement: the suite runs once
and every statement's zero-violation claim asserts separately.

Known red: the perfect-learning/no-shift statement (lemma1) is falsifiable
as stated.  With the sup-attaining event varying across tasks, the exact
exceedance probability can exceed sup-variance/alpha^2; random flat-simplex
instances hit this at roughly 0.4% of (instance, alpha) pairs.  The
verification is implemented faithfully and the assertion is allowed to
fail; see the minimal counterexample in
TestCounterexample::test_lemma1_sup_swap_counterexample below.
TestCounterexample also pins a cor_eps_dist violation on a hand-built
instance, which the suite's sampled instances do not reach.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from epibound import (
    Categorical,
    Gaussian,
    NIGModel,
    SourceDataset,
    evaluate_bound,
    kl_exact,
    kl_mc,
    hellinger_sq,
    l1_distance,
    negative_transfer_scan,
    posterior_update,
    run_suite,
    tv_exact,
    verify_statement,
)
from epibound.cli import main
from epibound.experiments import (
    ExperimentConfig,
    records_to_csv,
    run_negative_transfer_experiment,
    run_neighborhood_experiment,
)
from epibound.oracle import (
    DEFAULT_ALPHAS,
    InstanceConfig,
    OracleInstance,
    generate_instance,
)
from helpers_oracle import grid_posterior_moments

ORACLE_INSTANCES = 10_000
SIMS = 500
MASTER_SEED = 20260810

ACCEPTANCE_STATEMENTS = (
    "lemma1", "lemma2", "thm1", "thm2", "cor_bayesian", "cor_eps", "cor_eps_dist",
    "cor_ce", "cor_l1", "cor_hellinger",
    "lemma_b2", "lemma_b6", "lemma_b7", "lemma_b8", "lemma_b9", "lemma_b10", "prop1",
)


def announce(capsys, line: str) -> None:
    with capsys.disabled():
        print(line)


# ---------------------------------------------------------------------------
# Criterion 1: oracle zero-violation suite
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def oracle_report():
    t0 = time.time()
    report = run_suite(ORACLE_INSTANCES, seed=MASTER_SEED, alphas=DEFAULT_ALPHAS)
    report.runtime_s = time.time() - t0
    return report


class TestCriterion1OracleSuite:
    def test_report_line(self, oracle_report, capsys):
        bad = {s: r.violations for s, r in oracle_report.statements.items() if r.violations}
        status = "PASS" if not bad else f"FAIL ({bad})"
        announce(capsys, f"ACCEPTANCE 1 (oracle zero-violation suite, "
                         f"{ORACLE_INSTANCES} instances x {len(DEFAULT_ALPHAS)} alphas, "
                         f"{oracle_report.runtime_s:.1f}s): {status}")
        assert oracle_report.runtime_s < 300.0

    @pytest.mark.parametrize("statement", ACCEPTANCE_STATEMENTS)
    def test_zero_violations(self, oracle_report, statement):
        rep = oracle_report.statements[statement]
        assert rep.trials > 0, f"{statement} never exercised"
        assert rep.violations == 0, (
            f"{statement}: {rep.violations} violations over {rep.trials} trials "
            f"(min slack {rep.min_slack:.3e})"
        )

    @pytest.mark.parametrize("statement", [s for s in ACCEPTANCE_STATEMENTS if s.startswith(("lemma_", "prop"))])
    def test_lemma_slack_floor(self, oracle_report, statement):
        rep = oracle_report.statements[statement]
        assert rep.min_slack >= -1e-10


class TestCounterexample:
    def test_lemma1_sup_swap_counterexample(self):
        """Three near-corner tasks whose TV-attaining events differ.

        Perfect learning, no shift, second-order 0.05-bounded; exact
        exceedance 1 at alpha=0.55 while delta ~ 0.53.  This documents why
        the zero-violation claim for the perfect-learning statement fails.
        """
        b = 0.05
        rows = [
            [1 - 2 * b, b, b],
            [b, 1 - 2 * b, b],
            [b, b, 1 - 2 * b],
        ]
        P, w = np.array(rows), np.full(3, 1.0 / 3.0)
        inst = OracleInstance(P, w, P, w, np.full((1, 3), 1.0 / 3.0), w @ P, 0,
                              "perfect_no_shift", None)
        rep = verify_statement(inst, "lemma1", alphas=[0.55])
        out = rep.outcomes[0]
        assert out.exceedance == 1.0
        assert out.delta < 1.0
        assert rep.violations == 1

    def test_cor_eps_dist_variance_transfer_counterexample(self):
        """A far target task at weight epsilon breaks the epsilon-distance corollary.

        The target keeps the two source tasks at weight 0.45 each and adds
        [1, 0] at weight 0.1, so the task distributions lie at TV 0.1 =
        epsilon.  B = C = 0 and D = 0.051.  At alpha 0.44 only the far task
        reaches the margin: exact exceedance 0.1 against delta 0.0978.  The
        delta transfers the source sup-variance to the target as lemma_b8
        does, but lemma_b8 needs a shared support, which fails here.  thm1,
        thm2 and cor_l1 hold on the same instance.
        """
        S = np.array([[0.5, 0.5], [0.48, 0.52]])
        pred = np.array([0.49, 0.51])
        inst = OracleInstance(S, np.array([0.5, 0.5]), np.vstack([S, [[1.0, 0.0]]]),
                              np.array([0.45, 0.45, 0.1]), pred[None, :], pred, 0,
                              "assumption2", 0.1)
        rep = verify_statement(inst, "cor_eps_dist", alphas=[0.44])
        out = rep.outcomes[0]
        assert out.exceedance == pytest.approx(0.1, abs=1e-15)
        assert out.delta == pytest.approx(0.0978177, abs=5e-8)
        assert rep.violations == 1
        public = evaluate_bound("cor_eps_dist", model=inst.model, predictor=inst.predictor,
                                source=inst.source, target=inst.target, alpha=0.44, epsilon=0.1)
        assert (public.B, public.C, public.D) == (0.0, 0.0, pytest.approx(0.051, abs=1e-15))
        assert public.delta == out.delta
        for sid in ("thm1", "thm2", "cor_l1"):
            held = verify_statement(inst, sid, alphas=[0.44])
            assert held.violations == 0 and held.trials == 1, sid
            assert held.outcomes[0].delta == pytest.approx(0.121379, abs=5e-7), sid
        b8 = verify_statement(inst, "lemma_b8")
        assert b8.trials == 0 and dict(b8.skip_reasons) == {"shared_support": 1}


# ---------------------------------------------------------------------------
# Criterion 2: divergence identities
# ---------------------------------------------------------------------------


class TestCriterion2DivergenceIdentities:
    def test_identities_on_random_pairs(self, capsys):
        t0 = time.time()
        rng = np.random.default_rng(MASTER_SEED + 2)
        n_pairs = 10_000
        bad_l1 = bad_hell = bad_pinsker = bad_reverse = 0
        for _ in range(n_pairs):
            m = int(rng.integers(2, 7))
            p = Categorical(rng.dirichlet(np.ones(m)))
            q = Categorical(rng.dirichlet(np.ones(m)))
            tv = tv_exact(p, q)
            if abs(l1_distance(p, q) - 2 * tv) > 1e-12:
                bad_l1 += 1
            if hellinger_sq(p, q) > tv + 1e-12:
                bad_hell += 1
            kl = kl_exact(p, q)
            if tv > math.sqrt(kl / 2) + 1e-12:
                bad_pinsker += 1
            if kl > (2.0 / float(q.p.min())) * tv**2 + 1e-12:
                bad_reverse += 1
        dt = time.time() - t0
        total = bad_l1 + bad_hell + bad_pinsker + bad_reverse
        detail = f"FAIL (l1={bad_l1} hell={bad_hell} pinsker={bad_pinsker} reverse={bad_reverse})"
        announce(capsys, f"ACCEPTANCE 2 (divergence identities, {n_pairs} pairs, {dt:.1f}s): "
                         f"{'PASS' if total == 0 else detail}")
        assert total == 0
        assert dt < 30.0


# ---------------------------------------------------------------------------
# Criterion 3: Monte Carlo KL calibration
# ---------------------------------------------------------------------------


class TestCriterion3KLCalibration:
    def test_calibration_1000_runs(self, capsys):
        t0 = time.time()
        rng = np.random.default_rng(MASTER_SEED + 3)
        hits = 0
        runs = 1000
        for i in range(runs):
            p = Gaussian(float(rng.normal()), float(rng.uniform(0.5, 2.0)))
            q = Gaussian(float(rng.normal()), float(rng.uniform(0.5, 2.0)))
            truth = kl_exact(p, q)
            res = kl_mc(p, q, n_samples=400, seed=int(rng.integers(2**63)))
            if abs(res.value - truth) <= 4 * res.stderr_estimate:
                hits += 1
        dt = time.time() - t0
        rate = hits / runs
        announce(capsys, f"ACCEPTANCE 3 (MC KL calibration, {runs} runs, {dt:.1f}s): "
                         f"{'PASS' if rate >= 0.99 else 'FAIL'} (rate {rate:.3f})")
        assert rate >= 0.99
        assert dt < 30.0


# ---------------------------------------------------------------------------
# Criterion 4: Bayesian grid oracle
# ---------------------------------------------------------------------------


class TestCriterion4BayesianGridOracle:
    def test_conjugate_vs_grid(self, capsys):
        t0 = time.time()
        rng = np.random.default_rng(MASTER_SEED + 4)
        model = NIGModel()
        nv = model.prior_noise_variance
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(0, 9))
            xi = rng.uniform(0.0, 1.0, size=(n, 2))
            x = rng.normal(xi @ np.array([0.0, 1.0]), 0.8)
            data = SourceDataset(xi, x)
            post = posterior_update(model, data)
            gm, gc = grid_posterior_moments(model, data, nv)
            worst = max(worst, float(np.abs(post.mean - gm).max()),
                        float(np.abs(post.covariance - gc).max()))
        dt = time.time() - t0
        announce(capsys, f"ACCEPTANCE 4 (conjugate vs 401^2 grid, 100 datasets, {dt:.1f}s): "
                         f"{'PASS' if worst <= 2e-3 else 'FAIL'} (worst dev {worst:.2e})")
        assert worst <= 2e-3
        assert dt < 120.0


# ---------------------------------------------------------------------------
# Criterion 5: error grows with the neighborhood size
# ---------------------------------------------------------------------------


class TestCriterion5NeighborhoodTrend:
    def test_grid_means_strictly_increase(self, capsys):
        t0 = time.time()
        grid = (0.05, 0.15, 0.3, 0.5)
        config = ExperimentConfig.neighborhood(grid, sims=SIMS, master_seed=MASTER_SEED + 5)
        records = run_neighborhood_experiment(config)
        means = [float(np.mean([r.epistemic_error for r in records if r.epsilon == e]))
                 for e in grid]
        rho = float(spearmanr(grid, means).statistic)
        strictly_up = all(a < b for a, b in zip(means, means[1:]))
        dt = time.time() - t0
        announce(capsys, f"ACCEPTANCE 5 (neighborhood trend, {SIMS} sims/eps, {dt:.1f}s): "
                         f"{'PASS' if strictly_up else 'FAIL'} "
                         f"(means {[round(m, 4) for m in means]}, spearman {rho:.2f})")
        assert strictly_up and rho == 1.0
        assert dt < 600.0
        assert len(records) == len(grid) * SIMS


# ---------------------------------------------------------------------------
# Criterion 6: negative-transfer trends over source-task counts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def negative_transfer_runs():
    t0 = time.time()
    n_grid = (1, 2, 5, 10, 20, 50)
    out = {}
    for scenario in ("pos", "neg", "posneg"):
        config = ExperimentConfig.negative_transfer(
            scenario, n_grid=n_grid, sims=SIMS, master_seed=MASTER_SEED + 6
        )
        out[scenario] = run_negative_transfer_experiment(config)
    out["runtime_s"] = time.time() - t0
    return out


def _mean_se(records, n, field):
    vals = np.array([getattr(r, field) for r in records if r.n == n])
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(vals.size))


class TestCriterion6NegativeTransfer:
    def test_trends(self, negative_transfer_runs, capsys):
        runs = negative_transfer_runs
        m1, s1 = _mean_se(runs["pos"], 1, "epistemic_error")
        m50, s50 = _mean_se(runs["pos"], 50, "epistemic_error")
        pos_gap = (m1 - m50) / math.sqrt(s1**2 + s50**2)
        n1, t1 = _mean_se(runs["neg"], 1, "epistemic_error")
        n50, t50 = _mean_se(runs["neg"], 50, "epistemic_error")
        neg_gap = (n50 - n1) / math.sqrt(t1**2 + t50**2)
        c_down = all(
            _mean_se(runs[s], 50, "C")[0] < _mean_se(runs[s], 1, "C")[0]
            for s in ("pos", "neg", "posneg")
        )
        worst_identity = max(
            abs(r.looseness + (r.C + r.D) - r.epistemic_error)
            for s in ("pos", "neg", "posneg") for r in runs[s]
        )
        ok = pos_gap >= 3.0 and neg_gap >= 3.0 and c_down and worst_identity <= 1e-12
        announce(capsys, f"ACCEPTANCE 6 (negative transfer, 3 scenarios x {SIMS} sims, "
                         f"{runs['runtime_s']:.1f}s): {'PASS' if ok else 'FAIL'} "
                         f"(pos drop {pos_gap:.1f} se, neg rise {neg_gap:.1f} se, "
                         f"C declines {c_down}, identity dev {worst_identity:.1e})")
        assert pos_gap >= 3.0
        assert neg_gap >= 3.0
        assert c_down
        assert worst_identity <= 1e-12
        assert runs["runtime_s"] < 900.0


# ---------------------------------------------------------------------------
# Criterion 7: monotone error along interpolation paths
# ---------------------------------------------------------------------------


class TestCriterion7Monotonicity:
    def test_scan(self, capsys):
        t0 = time.time()
        res = negative_transfer_scan(seed=MASTER_SEED + 7, n_instances=100, n_points=101)
        dt = time.time() - t0
        ok = res["total_violations"] == 0
        announce(capsys, f"ACCEPTANCE 7 (interpolation monotonicity, 100 x 101, {dt:.1f}s): "
                         f"{'PASS' if ok else 'FAIL'} ({res['violations']})")
        assert ok


# ---------------------------------------------------------------------------
# Criterion 8: byte-identical reruns
# ---------------------------------------------------------------------------


class TestCriterion8Determinism:
    def test_cli_reruns_byte_identical(self, tmp_path, capsys):
        outputs = []
        for tag in ("a", "b"):
            d = tmp_path / tag
            main(["oracle", "--instances", "30", "--seed", "8", "--out", str(d / "oracle.json")])
            main(["experiment", "neighborhood", "--epsilons", "0.1,0.3", "--sims", "4",
                  "--seed", "8", "--out", str(d)])
            main(["experiment", "negative-transfer", "--scenario", "pos", "--n-grid", "1,5",
                  "--sims", "3", "--seed", "8", "--out", str(d)])
            outputs.append({
                p.name: p.read_bytes()
                for p in sorted(d.iterdir())
            })
        ok = outputs[0] == outputs[1]
        announce(capsys, f"ACCEPTANCE 8 (byte-identical CLI reruns): {'PASS' if ok else 'FAIL'}")
        assert set(outputs[0]) == {
            "oracle.json", "oracle.manifest.json", "neighborhood.csv",
            "neighborhood_manifest.json", "negative_transfer_pos.csv",
            "negative_transfer_pos_manifest.json",
        }
        assert ok

    def test_serial_parallel_identical_suite(self):
        a = run_suite(40, seed=12, threads=1)
        b = run_suite(40, seed=12, threads=2)
        assert a.to_dict() == b.to_dict()

    def test_experiment_threads_identical(self):
        config = ExperimentConfig.negative_transfer("neg", n_grid=(1, 4), sims=3, master_seed=13)
        a = records_to_csv(run_negative_transfer_experiment(config, threads=1))
        b = records_to_csv(run_negative_transfer_experiment(config, threads=2))
        assert a == b
