"""Synthetic experiment runners, records, and the Monte Carlo verifier."""

import hashlib
import json
import logging
import math

import numpy as np
import pytest

from epibound import (
    Categorical,
    Gaussian,
    InvalidArgument,
    InverseGammaGaussianTasks,
    ModelClass,
    barycenter,
    finite_tasks,
    l1_distance,
    monte_carlo_verify,
    neighborhood_target,
    run_negative_transfer_experiment,
    run_neighborhood_experiment,
    sample_source_data,
    target_task,
)
from epibound import experiments
from epibound.divergences import tv_exact, tv_upper_pinsker
from epibound.errors import SupportViolation
from epibound.experiments import (
    _EXP_NEGATIVE_TRANSFER,
    _EXP_NEIGHBORHOOD,
    CSV_HEADER,
    ExperimentConfig,
    build_manifest,
    records_to_csv,
    setup_from_dict,
    write_experiment_output,
)
from epibound.seeding import derive_seed, generator

IG_MEAN = 10.0 / 19.0


class TestSourceData:
    def test_empty(self):
        data = sample_source_data(ExperimentConfig(), 0, seed=1)
        assert data.x.size == 0

    def test_inverse_gamma_mean(self):
        data = sample_source_data(ExperimentConfig(), 10**4, seed=2)
        v = data.task_variances
        stderr = v.std(ddof=1) / math.sqrt(v.size)
        assert abs(v.mean() - IG_MEAN) <= 3 * stderr

    def test_deterministic_csv(self):
        cfg = ExperimentConfig()
        a = sample_source_data(cfg, 50, seed=3)
        b = sample_source_data(cfg, 50, seed=3)
        for name in ("xi", "x", "task_variances"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_covariates_in_unit_square(self):
        data = sample_source_data(ExperimentConfig(), 100, seed=4)
        assert np.all((data.xi >= 0) & (data.xi <= 1))

    @pytest.mark.parametrize("seed", [5, -1])
    def test_generator_seed_draws_as_its_int(self, seed):
        cfg = ExperimentConfig()
        a, b = sample_source_data(cfg, 20, seed), sample_source_data(cfg, 20, generator(seed))
        for name in ("xi", "x", "task_variances"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class TestTargetTask:
    def test_mean_is_coefficient_sum(self):
        cfg = ExperimentConfig(beta_target=np.array([1.0, 1.0]))
        means = {target_task(cfg, seed=s).mean for s in range(100)}
        assert means == {2.0}  # only the scale varies across seeds

    def test_zero_coefficients(self):
        cfg = ExperimentConfig(beta_target=np.array([0.0, 0.0]))
        assert target_task(cfg, seed=1).mean == 0.0

    def test_generator_seed_draws_as_its_int(self):
        cfg = ExperimentConfig()
        a, b = target_task(cfg, generator(-7)), target_task(cfg, 2**64 - 7)
        assert (a.mean, a.stddev) == (b.mean, b.stddev)


class TestNeighborhoodTarget:
    def test_zero_distance(self):
        g = Gaussian(1.0, 0.8)
        assert neighborhood_target(g, 0.0) is g

    def test_unit_sigma_inversion(self):
        eps = 0.6826894921370859  # 2*Phi(1) - 1
        t = neighborhood_target(Gaussian(0.0, 1.0), eps)
        assert t.mean == pytest.approx(2.0, abs=1e-12)
        assert t.stddev == 1.0

    def test_construction_hits_exact_tv(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = Gaussian(rng.normal(), float(rng.uniform(0.3, 2.0)))
            eps = float(rng.uniform(0.0, 0.95))
            t = neighborhood_target(g, eps)
            assert tv_exact(g, t) == pytest.approx(eps, abs=1e-9)

    def test_domain(self):
        with pytest.raises(InvalidArgument):
            neighborhood_target(Gaussian(0, 1), 1.0)


class TestNeighborhoodExperiment:
    def test_error_grows_with_epsilon(self):
        cfg = ExperimentConfig.neighborhood([0.0, 0.4], sims=60, master_seed=13)
        recs = run_neighborhood_experiment(cfg)
        mean = {
            e: np.mean([r.epistemic_error for r in recs if r.epsilon == e]) for e in (0.0, 0.4)
        }
        assert mean[0.0] < mean[0.4]

    def test_epsilon_zero_is_no_shift_baseline(self):
        cfg = ExperimentConfig.neighborhood([0.0], sims=5, master_seed=13)
        recs = run_neighborhood_experiment(cfg)
        assert all(r.epsilon == 0.0 and r.C is None and r.looseness is None for r in recs)
        assert all(0.0 <= r.posterior_mass <= 1.0 for r in recs)

    def test_deterministic_csv(self):
        cfg = ExperimentConfig.neighborhood([0.1, 0.3], sims=6, master_seed=21)
        a = records_to_csv(run_neighborhood_experiment(cfg))
        b = records_to_csv(run_neighborhood_experiment(cfg))
        assert a == b

    def test_parallel_matches_serial(self):
        cfg = ExperimentConfig.neighborhood([0.1, 0.3], sims=5, master_seed=22)
        a = records_to_csv(run_neighborhood_experiment(cfg, threads=1))
        b = records_to_csv(run_neighborhood_experiment(cfg, threads=2))
        assert a == b

    def test_workers_capped_at_cpu_count_and_grid(self, serial_pools):
        cfg = ExperimentConfig.neighborhood([0.0, 0.1, 0.2, 0.3], sims=2, master_seed=22)
        want = records_to_csv(run_neighborhood_experiment(cfg))
        assert records_to_csv(run_neighborhood_experiment(cfg, threads=5000)) == want
        small = ExperimentConfig.neighborhood([0.1, 0.3], sims=2, master_seed=22)
        run_neighborhood_experiment(small, threads=5000)
        assert serial_pools == [3, 2]

    def test_csv_bytes_pinned(self):
        # Guards the source-data and target draws, the neighborhood target's
        # mean shift and posterior_mass_near. Recorded with numpy 2.4 on x86-64.
        cfg = ExperimentConfig.neighborhood([0.0, 0.2, 0.6], sims=3, master_seed=13)
        csv = records_to_csv(run_neighborhood_experiment(cfg))
        assert hashlib.sha256(csv.encode()).hexdigest() == (
            "11127135bccd081ed3e7da3ac8d0350f1f32070a837e6439708eb38f399b97b4"
        )

    @pytest.mark.parametrize("threads", [1, 2])
    def test_run_seeded_in_one_pass_pinned(self, threads):
        # recorded with every row seeding itself one derive_seed at a time; a
        # master seed above 2**32 makes each row path five words, past the pool
        cfg = ExperimentConfig.neighborhood([0.05, 0.2, 0.45], sims=7, master_seed=2**40 + 3)
        csv = records_to_csv(run_neighborhood_experiment(cfg, threads=threads))
        assert hashlib.sha256(csv.encode()).hexdigest() == (
            "4105e692025ad3bde60e75348c9b7dffd1103820d0ddedfdd6adca8f7cc743c0"
        )


class TestPosteriorMassAssociation:
    def test_association_recorded_not_asserted(self, capsys):
        # the sign of the (posterior mass near the true coefficients) vs
        # (epistemic error) association is reported, not pinned: the
        # correct direction is ambiguous, so only computability is checked
        from scipy.stats import spearmanr

        cfg = ExperimentConfig.neighborhood([0.1, 0.4], sims=80, master_seed=51)
        recs = run_neighborhood_experiment(cfg)
        for eps in (0.1, 0.4):
            sub = [r for r in recs if r.epsilon == eps]
            rho = spearmanr([r.posterior_mass for r in sub],
                            [r.epistemic_error for r in sub]).statistic
            assert -1.0 <= rho <= 1.0
            with capsys.disabled():
                print(f"posterior-mass/error association at eps={eps}: spearman {rho:+.3f}")


class TestNegativeTransferExperiment:
    def test_pos_scenario_error_declines(self):
        cfg = ExperimentConfig.negative_transfer("pos", n_grid=[1, 50], sims=60, master_seed=31)
        recs = run_negative_transfer_experiment(cfg)
        mean = {n: np.mean([r.epistemic_error for r in recs if r.n == n]) for n in (1, 50)}
        assert mean[50] < mean[1]

    def test_c_declines_with_n(self):
        cfg = ExperimentConfig.negative_transfer("neg", n_grid=[1, 50], sims=60, master_seed=32)
        recs = run_negative_transfer_experiment(cfg)
        mean_c = {n: np.mean([r.C for r in recs if r.n == n]) for n in (1, 50)}
        assert mean_c[50] < mean_c[1]

    def test_looseness_identity_exact(self):
        cfg = ExperimentConfig.negative_transfer("posneg", n_grid=[2, 8], sims=10, master_seed=33)
        for r in run_negative_transfer_experiment(cfg):
            assert r.looseness + (r.C + r.D) - r.epistemic_error == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_csv(self):
        cfg = ExperimentConfig.negative_transfer("neg", n_grid=[1, 5], sims=4, master_seed=34)
        a = records_to_csv(run_negative_transfer_experiment(cfg))
        b = records_to_csv(run_negative_transfer_experiment(cfg))
        assert a == b

    def test_csv_bytes_pinned(self):
        # Any change to the arithmetic behind the fitted predictors, kl_mc or
        # the mixture log-density changes these bytes. Recorded with numpy 2.4
        # on x86-64; a numpy build whose exp/log round differently changes them too.
        cfg = ExperimentConfig.negative_transfer("neg", n_grid=(1, 4), sims=3, master_seed=13)
        csv = records_to_csv(run_negative_transfer_experiment(cfg))
        assert hashlib.sha256(csv.encode()).hexdigest() == (
            "75c16ca027506bb233c1d3ccfa84c329fc40f88a3d5cd8324d9d294041cd95b4"
        )

    def test_one_row_run_pinned(self):
        # a batch of one row, recorded with per-row scalar seeding
        cfg = ExperimentConfig.negative_transfer("posneg", n_grid=(3,), sims=1, master_seed=19)
        csv = records_to_csv(run_negative_transfer_experiment(cfg))
        assert hashlib.sha256(csv.encode()).hexdigest() == (
            "c0afd16efc57a7d1b6c7964ec7f587f093dd960d34c5ee62f7f6950282fa2464"
        )

    def test_pinsker_upper_bounds_exact_tv(self):
        # the Pinsker proxy with exact KL dominates the exact TV on the same
        # pairs; the MC realization can undershoot only within sampling noise
        cfg = ExperimentConfig.negative_transfer("pos", n_grid=[1, 20], sims=25, master_seed=35)
        from epibound.bayes import posterior_update, posterior_predictive
        from epibound.experiments import PRIOR, TARGET_COVARIATES, _EXP_NEGATIVE_TRANSFER
        from epibound.seeding import derive_seed

        mc_undershoots = 0
        rows = 0
        for g in range(2):
            for s in range(cfg.sims):
                row_seed = derive_seed(cfg.master_seed, _EXP_NEGATIVE_TRANSFER, g, s)
                data = sample_source_data(cfg, cfg.n_grid[g], derive_seed(row_seed, 0))
                post = posterior_update(PRIOR, data)
                pred = posterior_predictive(post, TARGET_COVARIATES, PRIOR.prior_noise_variance)
                tgt = target_task(cfg, derive_seed(row_seed, 1))
                exact_tv = tv_exact(pred, tgt)
                assert tv_upper_pinsker(pred, tgt).value >= exact_tv - 1e-12
                er_mc = tv_upper_pinsker(pred, tgt, n_samples=cfg.kl_samples,
                                         seed=derive_seed(row_seed, 2), force_mc=True).value
                mc_undershoots += int(er_mc < exact_tv)
                rows += 1
        assert mc_undershoots <= 0.1 * rows

    def test_unknown_scenario(self):
        with pytest.raises(InvalidArgument):
            ExperimentConfig.negative_transfer("sideways", n_grid=[1])


class TestDroppedRows:
    @pytest.mark.parametrize("kind", ["neighborhood", "negative_transfer"])
    def test_support_violation_drops_only_its_row(self, kind, monkeypatch, caplog):
        if kind == "neighborhood":
            cfg = ExperimentConfig.neighborhood([0.1, 0.3], sims=3, master_seed=61)
            run, exp_id, point = run_neighborhood_experiment, _EXP_NEIGHBORHOOD, "eps=0.3"
        else:
            cfg = ExperimentConfig.negative_transfer("pos", n_grid=[1, 4], sims=3, master_seed=62)
            run, exp_id, point = run_negative_transfer_experiment, _EXP_NEGATIVE_TRANSFER, "n=4"
        clean = run(cfg)
        bad_row = derive_seed(cfg.master_seed, exp_id, 1, 2)  # grid point 1, sim 2
        # rows hand kl_mc the Generator of their stream 2; this is that row's, undrawn
        bad_state = generator(derive_seed(bad_row, 2)).bit_generator.state
        real = experiments.tv_upper_pinsker

        def flaky(*args, seed, **kw):
            if seed.bit_generator.state == bad_state:
                raise SupportViolation("injected")
            return real(*args, seed=seed, **kw)

        monkeypatch.setattr(experiments, "tv_upper_pinsker", flaky)
        with caplog.at_level(logging.WARNING, logger=experiments.__name__):
            kept = run(cfg)
        assert len(kept) == len(clean) - 1
        assert kept == [r for r in clean if r.seed != bad_row]
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [f"{cfg.scenario} row ({point}, sim=2) dropped: injected"]


class TestRecordsAndManifest:
    def test_csv_header_exact(self):
        assert CSV_HEADER == "sim,seed,n,epsilon,epistemic_error,C,D,looseness,posterior_mass,runtime_ms"

    def test_blank_fields(self):
        cfg = ExperimentConfig.neighborhood([0.2], sims=2, master_seed=41)
        csv = records_to_csv(run_neighborhood_experiment(cfg))
        line = csv.splitlines()[1].split(",")
        assert line[5] == line[6] == line[7] == ""  # C, D, looseness blank
        assert line[9] == ""  # runtime_ms blank: wall time would break determinism

    def test_write_output_and_manifest(self, tmp_path):
        cfg = ExperimentConfig.neighborhood([0.2], sims=2, master_seed=42)
        recs = run_neighborhood_experiment(cfg)
        paths = write_experiment_output(recs, cfg, tmp_path, "neighborhood")
        manifest = json.loads(paths[1].read_text())
        assert manifest["master_seed"] == 42
        assert manifest["config"]["scenario"] == "neighborhood"
        assert manifest["outputs"] == ["neighborhood.csv"]
        back = ExperimentConfig.from_dict(manifest["config"])
        assert back.to_dict() == cfg.to_dict()

    def test_from_dict_names_unknown_keys(self):
        # manifests written before the prior, the inverse-gamma task law, the
        # barycenter size and the mass radius became constants carry them
        data = ExperimentConfig.neighborhood([0.2], sims=2).to_dict()
        data.update(ig_source=[20.0, 10.0], prior={"alpha0": 20.0})
        with pytest.raises(InvalidArgument, match="unknown experiment config keys: ig_source, prior"):
            ExperimentConfig.from_dict(data)

    def test_manifest_has_versions(self):
        cfg = ExperimentConfig.neighborhood([0.1], sims=1)
        m = build_manifest(cfg, ["x.csv"])
        assert "numpy_version" in m and "artifact_version" in m


class TestMonteCarloVerify:
    def test_matches_exact_enumeration(self, binary_model, binary_predictor, binary_source):
        target = finite_tasks([
            (Categorical([0.35, 0.65]), 0.5),
            (Categorical([0.45, 0.55]), 0.5),
        ])
        setup = {
            "predictor": binary_predictor,
            "source": binary_source,
            "target": target,
            "model": binary_model,
            "statement_id": "thm1",
            "alpha": 0.05,
        }
        res = monte_carlo_verify(setup, trials=10**4, seed=7)
        # exact exceedance by enumeration
        from epibound import evaluate_bound

        rep = evaluate_bound("thm1", model=binary_model, predictor=binary_predictor,
                             source=binary_source, target=target, alpha=0.05)
        ers = np.array([tv_exact(binary_predictor, t) for t in target.tasks])
        exact = float(target.weights[ers >= rep.margin].sum())
        stderr = math.sqrt(max(exact * (1 - exact), 1e-12) / 10**4)
        assert abs(res["empirical_freq"] - exact) <= 3 * stderr + 1e-9
        assert res["pass"]

    def test_cor_l1_scores_l1(self):
        # perfect learner, no shift: margin = 2 * alpha, and one task in three
        # sits at TV 0.15 > alpha from the predictor, so P(L1 >= margin) = 0.3
        # while P(TV >= margin) = 0
        source = finite_tasks([
            (Categorical([0.45, 0.55]), 0.5),
            (Categorical([0.65, 0.35]), 0.3),
            (Categorical([0.4, 0.6]), 0.2),
        ])
        bary = barycenter(source)
        setup = {
            "predictor": bary,
            "source": source,
            "target": source,
            "model": ModelClass((bary,)),
            "statement_id": "cor_l1",
            "alpha": 0.12,
        }
        trials = 10**4
        res = monte_carlo_verify(setup, trials=trials, seed=12)
        assert res["margin"] == pytest.approx(0.24, abs=1e-12)
        l1 = np.array([l1_distance(bary, t) for t in source.tasks])
        exact = float(source.weights[l1 >= res["margin"]].sum())
        assert exact == pytest.approx(0.3)
        stderr = math.sqrt(exact * (1 - exact) / trials)
        assert abs(res["empirical_freq"] - exact) <= 3 * stderr

    def test_margin_past_one(self, binary_model, binary_predictor, binary_source, binary_target):
        setup = {
            "predictor": binary_predictor,
            "source": binary_source,
            "target": binary_target,
            "model": binary_model,
            "statement_id": "thm1",
            "alpha": 1.5,
        }
        res = monte_carlo_verify(setup, trials=2000, seed=8)
        assert res["empirical_freq"] == 0.0
        assert res["pass"]

    def test_vacuous_delta_passes(self, binary_model, binary_source):
        # perfect learner, tiny alpha: delta > 1 is vacuous
        setup = {
            "predictor": Categorical([0.4, 0.6]),
            "source": binary_source,
            "target": binary_source,
            "model": binary_model,
            "statement_id": "lemma1",
            "alpha": 0.05,
        }
        res = monte_carlo_verify(setup, trials=500, seed=9)
        assert res["delta"] >= 1.0 and res["pass"]

    def test_parametric_target(self):
        pred = Gaussian(1.0, 1.0)
        source = InverseGammaGaussianTasks(1.0, 20.0, 10.0)
        setup = {
            "predictor": pred,
            "source": source,
            "target": source,
            "statement_id": "thm1",
            "alpha": 0.9,
        }
        res = monte_carlo_verify(setup, trials=50, seed=10)
        assert 0.0 <= res["empirical_freq"] <= 1.0

    def test_setup_roundtrip(self, binary_model, binary_predictor, binary_source, binary_target):
        raw = {
            "predictor": binary_predictor.to_dict(),
            "source": binary_source.to_dict(),
            "target": binary_target.to_dict(),
            "model": binary_model.to_dict(),
            "statement_id": "thm1",
            "alpha": 0.15,
        }
        setup = setup_from_dict(raw)
        res = monte_carlo_verify(setup, trials=100, seed=11)
        assert res["margin"] == pytest.approx(0.70, abs=1e-12)
