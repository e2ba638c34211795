"""The per-row experiment code the grid-point arrays replaced, kept as their reference.

Each row fits its own posterior and predictor, builds its own ``Gaussian``
target and takes each divergence's Pinsker bound sqrt(KL/2) from one
``kl_mc`` call.  ``reference_run`` seeds every row one ``derive_seed`` at a time, and reads
``sample_source_data`` and ``target_task`` off the module, so a test's
monkeypatch of ``target_task``, or of ``_source_draw`` (the one-sim draw that
``sample_source_data`` and the blocks share), reaches both paths.  The array
path must write the same CSV bytes.
"""

import logging
import math

from epibound import experiments
from epibound.bayes import posterior_mass_near, posterior_predictive, posterior_update
from epibound.distributions import Gaussian
from epibound.divergences import kl_mc
from epibound.errors import SupportViolation
from epibound.experiments import (
    _EXP_BARYCENTER,
    _EXP_NEGATIVE_TRANSFER,
    _EXP_NEIGHBORHOOD,
    POSTERIOR_MASS_RADIUS,
    PRIOR,
    TARGET_COVARIATES,
    _sampled_barycenter,
    _task_distribution_at_target,
    neighborhood_target,
)
from epibound.seeding import derive_seed, generator

log = logging.getLogger("epibound.experiments")


def _fit_predictor(data):
    post = posterior_update(PRIOR, data)
    return post, posterior_predictive(post, TARGET_COVARIATES, PRIOR.prior_noise_variance)


def _pinsker(p, q, config, rng):
    return math.sqrt(kl_mc(p, q, n_samples=config.kl_samples, seed=rng).value / 2.0)


def _neighborhood_row(config, g, s, rngs):
    data_rng, pick_rng, kl_rng = rngs
    eps = config.epsilon_grid[g]
    data = experiments.sample_source_data(config, config.n_source_tasks, data_rng)
    post, predictor = _fit_predictor(data)

    i = int(pick_rng.integers(config.n_source_tasks))
    eps_tilde = float(pick_rng.uniform(0.0, eps))
    source_task_i = Gaussian(
        float(config.beta_source @ TARGET_COVARIATES),
        math.sqrt(float(data.task_variances[i])),
    )
    target = neighborhood_target(source_task_i, eps_tilde)

    er = _pinsker(predictor, target, config, kl_rng)
    mass = posterior_mass_near(post, config.beta_source, POSTERIOR_MASS_RADIUS)
    return dict(n=config.n_source_tasks, epsilon=eps, epistemic_error=er, C=None, D=None,
                looseness=None, posterior_mass=mass)


def _negative_transfer_row(config, g, s, rngs, bary_s, bary_t):
    data_rng, target_rng, er_rng, c_rng, d_rng = rngs
    n = config.n_grid[g]
    data = experiments.sample_source_data(config, n, data_rng)
    _, predictor = _fit_predictor(data)
    target = experiments.target_task(config, target_rng)

    er = _pinsker(predictor, target, config, er_rng)
    c = _pinsker(predictor, bary_s, config, c_rng)
    d = _pinsker(bary_s, bary_t, config, d_rng)
    return dict(n=n, epsilon=None, epistemic_error=er, C=c, D=d, looseness=er - (c + d),
                posterior_mass=None)


def reference_run(kind: str, config) -> list:
    """``run_<kind>_experiment(config)`` one row at a time, as ``ExperimentRecord``s."""
    from epibound.experiments import ExperimentRecord

    if kind == "neighborhood":
        exp_id, streams, row = _EXP_NEIGHBORHOOD, 3, _neighborhood_row
        points = [f"eps={e}" for e in config.epsilon_grid]
    else:
        exp_id, streams = _EXP_NEGATIVE_TRANSFER, 5
        bary_s, bary_t = (
            _sampled_barycenter(_task_distribution_at_target(config, which),
                                derive_seed(config.master_seed, _EXP_BARYCENTER, stream))
            for stream, which in enumerate(("source", "target"))
        )

        def row(config, g, s, rngs):
            return _negative_transfer_row(config, g, s, rngs, bary_s, bary_t)

        points = [f"n={n}" for n in config.n_grid]
    records = []
    for g, point in enumerate(points):
        for s in range(config.sims):
            row_seed = derive_seed(config.master_seed, exp_id, g, s)
            rngs = [generator(derive_seed(row_seed, k)) for k in range(streams)]
            try:
                fields = row(config, g, s, rngs)
            except SupportViolation as exc:
                log.warning("%s row (%s, sim=%d) dropped: %s", config.scenario, point, s, exc)
                continue
            records.append(ExperimentRecord(sim=s, seed=row_seed, **fields))
    return records
