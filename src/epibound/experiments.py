"""Synthetic Bayesian-transfer-learning experiments and Monte Carlo checks.

Two experiment families over a two-covariate Bayesian linear regression:

* neighborhood: target tasks constructed a uniformly drawn TV distance away
  from one of the observed source tasks; epistemic error recorded against
  the neighborhood size and the posterior mass near the true coefficients.
* negative transfer: fixed source/target coefficient scenarios; epistemic
  error, lack of convergence C, distribution shift D and the bound
  looseness er - (C + D) recorded against the number of source tasks.

All TV-distance proxies use the Pinsker upper bound on a seeded Monte Carlo
KL estimate, selected explicitly to mirror the reference methodology.  Rows
derive their random streams from (master seed, experiment id, grid index,
sim index): a run derives every row's seed, the child seeds (row seed, k)
of its streams and their Generators' words in three hash passes before any
row runs, so serial and parallel schedules write identical CSV bytes.

``ndtri`` loads ``scipy.special`` at the first neighborhood target and then
rebinds to scipy's ufunc; ``build_manifest`` imports ``scipy`` for its
version.  Negative-transfer rows load neither.  See ``_deferred``.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import stat
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__ as _pkg_version
from ._deferred import Deferred
from .bayes import (
    GaussianParamDist,
    NIGModel,
    SourceDataset,
    empty_dataset,
    posterior_mass_near,
    posterior_predictive,
    posterior_update,
)
from .bounds import LOSSES, STATEMENTS, ModelClass, evaluate_bound
from .distributions import (
    FiniteTaskDistribution,
    Gaussian,
    GaussianMixture,
    InverseGammaGaussianTasks,
    TaskDistribution,
    barycenter,
    distribution_from_dict,
    task_distribution_from_dict,
)
from .divergences import tv_upper_pinsker
from .errors import InvalidArgument, SupportViolation
from .seeding import derive_seed, derive_seeds, generator, generator_from_words, stream_words
from .workers import map_payloads

ndtri = Deferred("scipy.special", "ndtri", globals())

log = logging.getLogger(__name__)

CSV_HEADER = "sim,seed,n,epsilon,epistemic_error,C,D,looseness,posterior_mass,runtime_ms"
TARGET_COVARIATES = np.array([1.0, 1.0])

SCENARIO_BETAS = {
    "negative_transfer_pos": (np.array([0.0, 1.0]), np.array([1.0, 1.0])),
    "negative_transfer_neg": (np.array([-1.0, 0.0]), np.array([1.0, 0.0])),
    "negative_transfer_posneg": (np.array([0.0, 2.0]), np.array([0.0, 1.0])),
}

IG_TASKS = (20.0, 10.0)  # (concentration, rate) of the source and target task variances
PRIOR = NIGModel()
POSTERIOR_MASS_RADIUS = 0.25

_EXP_NEIGHBORHOOD = 1
_EXP_NEGATIVE_TRANSFER = 2
_EXP_BARYCENTER = 3


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    scenario: str = "custom"
    beta_source: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0]))
    beta_target: np.ndarray = field(default_factory=lambda: np.array([1.0, 1.0]))
    epsilon_grid: tuple[float, ...] = ()
    n_grid: tuple[int, ...] = ()
    sims: int = 500
    kl_samples: int = 400
    master_seed: int = 0
    n_source_tasks: int = 10  # neighborhood experiment

    def __post_init__(self):
        for name in ("beta_source", "beta_target"):
            v = np.asarray(getattr(self, name), dtype=float).reshape(2)
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        object.__setattr__(self, "epsilon_grid", tuple(float(e) for e in self.epsilon_grid))
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        for name in ("sims", "n_source_tasks", "kl_samples"):
            if getattr(self, name) < 1:
                raise InvalidArgument(f"{name} must be >= 1")
        if not all(0.0 <= e <= 1.0 for e in self.epsilon_grid):  # false for a NaN
            raise InvalidArgument(f"epsilons must lie in [0, 1], got {self.epsilon_grid}")
        if any(n < 0 for n in self.n_grid):
            raise InvalidArgument(f"n grid entries must be >= 0, got {self.n_grid}")

    @classmethod
    def neighborhood(
        cls, epsilons: Sequence[float], sims: int = 500, master_seed: int = 0, **kw
    ) -> "ExperimentConfig":
        if not epsilons:
            raise InvalidArgument("epsilon grid must be nonempty")
        return cls(scenario="neighborhood", epsilon_grid=tuple(epsilons), sims=sims,
                   master_seed=master_seed, **kw)

    @classmethod
    def negative_transfer(
        cls, scenario: str, n_grid: Sequence[int], sims: int = 500, master_seed: int = 0, **kw
    ) -> "ExperimentConfig":
        key = f"negative_transfer_{scenario}" if not scenario.startswith("negative") else scenario
        if key not in SCENARIO_BETAS:
            raise InvalidArgument(f"unknown negative-transfer scenario {scenario!r}")
        if not n_grid:
            raise InvalidArgument("n grid must be nonempty")
        beta_s, beta_t = SCENARIO_BETAS[key]
        return cls(scenario=key, beta_source=beta_s, beta_target=beta_t,
                   n_grid=tuple(n_grid), sims=sims, master_seed=master_seed, **kw)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "beta_source": self.beta_source.tolist(),
            "beta_target": self.beta_target.tolist(),
            "epsilon_grid": list(self.epsilon_grid),
            "n_grid": list(self.n_grid),
            "sims": self.sims,
            "kl_samples": self.kl_samples,
            "master_seed": self.master_seed,
            "n_source_tasks": self.n_source_tasks,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise InvalidArgument(f"unknown experiment config keys: {', '.join(unknown)}")
        kw = dict(data)
        for key in ("beta_source", "beta_target"):
            if key in kw:
                kw[key] = np.asarray(kw[key], dtype=float)
        return cls(**kw)


@dataclass(frozen=True)
class ExperimentRecord:
    sim: int
    seed: int
    n: int
    epsilon: Optional[float]
    epistemic_error: float
    C: Optional[float]
    D: Optional[float]
    looseness: Optional[float]
    posterior_mass: Optional[float]

    def to_csv_row(self) -> str:
        def fmt(v) -> str:
            return "" if v is None else repr(float(v))

        return ",".join([
            str(self.sim), str(self.seed), str(self.n), fmt(self.epsilon),
            fmt(self.epistemic_error), fmt(self.C), fmt(self.D),
            fmt(self.looseness), fmt(self.posterior_mass),
            "",  # runtime_ms stays blank: wall time would break determinism
        ])


def records_to_csv(records: Sequence[ExperimentRecord]) -> str:
    return "\n".join([CSV_HEADER, *(r.to_csv_row() for r in records)]) + "\n"


# ---------------------------------------------------------------------------
# Data generation
# ---------------------------------------------------------------------------


def _task_distribution_at_target(
    config: ExperimentConfig, which: str
) -> InverseGammaGaussianTasks:
    """Source/target task distribution evaluated at the target covariates."""
    beta = config.beta_source if which == "source" else config.beta_target
    return InverseGammaGaussianTasks(float(beta @ TARGET_COVARIATES), *IG_TASKS)


def sample_source_data(config: ExperimentConfig, n: int,
                       seed: int | np.random.Generator) -> SourceDataset:
    """n source tasks, one observation each: xi ~ U(0,1)^2, x ~ N(beta.xi, sd_i).

    Task noise variances draw i.i.d. from IG(IG_TASKS); they ride along in
    ``task_variances`` for target construction but are not learner-visible.
    ``seed`` is an int or a Generator to draw from.
    """
    rng = generator(seed)
    if n == 0:
        return empty_dataset()
    variances = _task_distribution_at_target(config, "source").sample_variances(n, rng)
    xi = rng.uniform(0.0, 1.0, size=(n, 2))
    x = rng.normal(xi @ config.beta_source, np.sqrt(variances))
    return SourceDataset(xi, x, task_variances=variances)


def target_task(config: ExperimentConfig, seed: int | np.random.Generator) -> Gaussian:
    """One realized target task at the fixed covariates xi = (1, 1); ``seed`` may be a Generator."""
    return _task_distribution_at_target(config, "target").sample_task(generator(seed))


def neighborhood_target(source_task: Gaussian, eps_tilde: float) -> Gaussian:
    """Gaussian at exact TV distance ``eps_tilde`` from ``source_task``.

    Same scale; the mean shifts up by the closed-form inverse of the
    equal-variance Gaussian TV formula 2*Phi(dmu / (2 sigma)) - 1.
    """
    if not 0.0 <= eps_tilde < 1.0:
        raise InvalidArgument(f"eps_tilde must lie in [0, 1), got {eps_tilde}")
    if eps_tilde == 0.0:
        return source_task
    dmu = 2.0 * source_task.stddev * float(ndtri((1.0 + eps_tilde) / 2.0))
    return Gaussian(source_task.mean + dmu, source_task.stddev)


def _fit_predictor(data: SourceDataset) -> tuple[GaussianParamDist, Gaussian]:
    post = posterior_update(PRIOR, data)
    return post, posterior_predictive(post, TARGET_COVARIATES, PRIOR.prior_noise_variance)


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------


def _neighborhood_row(config: ExperimentConfig, g: int, s: int, row_seed: int,
                      rngs: Sequence[np.random.Generator]) -> ExperimentRecord:
    data_rng, pick_rng, kl_rng = rngs
    eps = config.epsilon_grid[g]
    data = sample_source_data(config, config.n_source_tasks, data_rng)
    post, predictor = _fit_predictor(data)

    i = int(pick_rng.integers(config.n_source_tasks))
    eps_tilde = float(pick_rng.uniform(0.0, eps))
    source_task_i = Gaussian(
        float(config.beta_source @ TARGET_COVARIATES),
        math.sqrt(float(data.task_variances[i])),
    )
    target = neighborhood_target(source_task_i, eps_tilde)

    er = tv_upper_pinsker(predictor, target, n_samples=config.kl_samples,
                          seed=kl_rng, force_mc=True).value
    mass = posterior_mass_near(post, config.beta_source, POSTERIOR_MASS_RADIUS)
    return ExperimentRecord(
        sim=s, seed=row_seed, n=config.n_source_tasks, epsilon=eps,
        epistemic_error=er, C=None, D=None, looseness=None, posterior_mass=mass,
    )


def _negative_transfer_row(config: ExperimentConfig, g: int, s: int, row_seed: int,
                           rngs: Sequence[np.random.Generator], bary_s: GaussianMixture,
                           bary_t: GaussianMixture) -> ExperimentRecord:
    data_rng, target_rng, er_rng, c_rng, d_rng = rngs
    n = config.n_grid[g]
    data = sample_source_data(config, n, data_rng)
    _, predictor = _fit_predictor(data)
    target = target_task(config, target_rng)

    er = tv_upper_pinsker(predictor, target, n_samples=config.kl_samples,
                          seed=er_rng, force_mc=True).value
    c = tv_upper_pinsker(predictor, bary_s, n_samples=config.kl_samples,
                         seed=c_rng, force_mc=True).value
    d = tv_upper_pinsker(bary_s, bary_t, n_samples=config.kl_samples,
                         seed=d_rng, force_mc=True).value
    return ExperimentRecord(
        sim=s, seed=row_seed, n=n, epsilon=None, epistemic_error=er,
        C=c, D=d, looseness=er - (c + d), posterior_mass=None,
    )


def _run_grid_point(payload) -> list:
    """Every sim of one grid point; a row whose divergence hits a support gap is dropped."""
    row, config, g, point, row_seeds, words = payload
    records = []
    for s, (row_seed, streams) in enumerate(zip(row_seeds, words)):
        try:
            records.append(row(config, g, s, row_seed, list(map(generator_from_words, streams))))
        except SupportViolation as exc:
            log.warning("%s row (%s, sim=%d) dropped: %s", config.scenario, point, s, exc)
    return records


def _run_grid(row, config: ExperimentConfig, exp_id: int, streams: int,
              points: Sequence[str], threads: int) -> list:
    """``row(config, g, s, row_seed, rngs)`` over the grid points, named by ``points``, and the sims.

    Row (g, s) has the seed ``derive_seed(master_seed, exp_id, g, s)`` and
    ``streams`` Generators, stream k seeded with ``derive_seed(row_seed, k)``.
    All of them are derived here, before dispatch; rows build their
    Generators from the words.  One payload per grid point, in the
    processes ``workers.worker_count`` allows.
    """
    grid, sim = np.divmod(np.arange(len(points) * config.sims), config.sims)
    row_seeds = derive_seeds(config.master_seed, exp_id, grid, sim)
    children = derive_seeds(np.repeat(row_seeds, streams), np.tile(np.arange(streams), grid.size))
    words = stream_words(children).reshape(len(points), config.sims, streams, 4)
    row_seeds = row_seeds.reshape(len(points), config.sims).tolist()
    payloads = [(row, config, g, point, row_seeds[g], words[g]) for g, point in enumerate(points)]
    chunks = map_payloads(_run_grid_point, payloads, threads)
    return [rec for chunk in chunks for rec in chunk]


def run_neighborhood_experiment(config: ExperimentConfig, threads: int = 1) -> list:
    """Sweep over neighborhood sizes; one record per simulation."""
    if not config.epsilon_grid:
        raise InvalidArgument("neighborhood experiment needs an epsilon grid")
    points = [f"eps={e}" for e in config.epsilon_grid]
    # streams: source data, the source task and eps-tilde pick, the kl_mc draws
    return _run_grid(_neighborhood_row, config, _EXP_NEIGHBORHOOD, 3, points, threads)


def run_negative_transfer_experiment(config: ExperimentConfig, threads: int = 1) -> list:
    """Sweep over source-task counts; one record per simulation."""
    if not config.n_grid:
        raise InvalidArgument("negative-transfer experiment needs an n grid")
    bary_s, bary_t = (
        barycenter(_task_distribution_at_target(config, which),
                   seed=derive_seed(config.master_seed, _EXP_BARYCENTER, stream))
        for stream, which in enumerate(("source", "target"))
    )
    row = functools.partial(_negative_transfer_row, bary_s=bary_s, bary_t=bary_t)
    points = [f"n={n}" for n in config.n_grid]
    # streams: source data, target task, the kl_mc draws of er, C and D
    return _run_grid(row, config, _EXP_NEGATIVE_TRANSFER, 5, points, threads)


# ---------------------------------------------------------------------------
# Monte Carlo bound verification (continuous settings included)
# ---------------------------------------------------------------------------


def monte_carlo_verify(setup: dict, trials: int, seed: int) -> dict:
    """Empirical exceedance check of one bound statement.

    ``setup`` carries predictor, source/target task distributions, a
    statement id, alpha, and optionally a model class and the statement's
    extra inputs.  Each trial draws a target task Q and scores the
    statement's own loss (TV, L1, squared Hellinger or excess cross-entropy,
    from ``bounds.STATEMENTS``) against its margin.  Passes when the
    exceedance frequency stays within two binomial standard errors of delta
    (vacuously when delta >= 1).
    """
    if trials < 1:
        raise InvalidArgument("trials must be >= 1")
    rng = generator(seed)  # a seed out of range fails before the bound is evaluated
    predictor = setup["predictor"]
    source: TaskDistribution = setup["source"]
    target: TaskDistribution = setup["target"]
    model = setup.get("model") or ModelClass((predictor,))
    report = evaluate_bound(
        setup["statement_id"],
        model=model,
        predictor=predictor,
        source=source,
        target=target,
        alpha=float(setup["alpha"]),
        epsilon=setup.get("epsilon"),
        b_source=setup.get("b_source"),
        b_target=setup.get("b_target"),
        param_posterior=setup.get("param_posterior"),
        param_best=setup.get("param_best"),
        b_pred=setup.get("b_pred"),
    )
    loss = LOSSES[STATEMENTS[report.statement_id].loss]
    if isinstance(target, FiniteTaskDistribution):
        # zero-weight tasks are never drawn, and may lie outside the loss's domain
        values = np.array([loss(predictor, t) if w > 0 else 0.0
                           for w, t in zip(target.weights, target.tasks)])
        idx = rng.choice(target.n_tasks, size=trials, p=target.weights)
        exceed = values[idx] >= report.margin
    else:
        exceed = np.empty(trials, dtype=bool)
        for t in range(trials):
            task = target.sample_task(rng)
            exceed[t] = loss(predictor, task) >= report.margin
    freq = float(exceed.mean())
    stderr = math.sqrt(freq * (1.0 - freq) / trials)
    passed = report.delta >= 1.0 or freq <= report.delta + 2.0 * stderr
    return {
        "empirical_freq": freq,
        "delta": report.delta,
        "margin": report.margin,
        "trials": trials,
        "seed": int(seed),
        "stderr": stderr,
        "pass": bool(passed),
    }


def setup_from_dict(data: dict) -> dict:
    """Deserialize a bound instance or a monte_carlo_verify setup from its JSON form.

    Raises KeyError when the predictor, source or target is missing.
    """
    out = dict(data)
    out["predictor"] = distribution_from_dict(data["predictor"])
    out["source"] = task_distribution_from_dict(data["source"])
    out["target"] = task_distribution_from_dict(data["target"])
    if data.get("model") is not None:
        out["model"] = ModelClass.from_dict(data["model"])
    for key in ("param_posterior", "param_best"):
        if data.get(key) is not None:
            raw = data[key]
            if raw.get("kind") == "gaussian_param":
                out[key] = GaussianParamDist.from_dict(raw)
            else:
                out[key] = distribution_from_dict(raw)
    return out


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def write_output(path, text: str) -> None:
    """Write ``text`` to ``path`` in place, creating its parent directories.

    Every output file of the library goes through here.  The file is opened
    without truncation and cut to the new length after the write: on ext4,
    truncating a non-empty file to zero makes ``close()`` start a writeback
    (``auto_da_alloc``), which costs far more than the write itself.  New
    files get mode ``0o666 & ~umask``, symlinks are followed and an existing
    file keeps its inode.  A crash mid-write can leave old and new bytes
    mixed; every output can be rebuilt from its manifest.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        if stat.S_ISREG(os.fstat(fd).st_mode):  # devices such as /dev/null cannot be cut
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def build_manifest(config: ExperimentConfig, outputs: Sequence[str]) -> dict:
    import scipy  # for its version only: every experiment row runs without it

    return {
        "config": config.to_dict(),
        "master_seed": config.master_seed,
        "artifact_version": _pkg_version,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "tv_method": f"pinsker_upper(mc_samples={config.kl_samples})",
        "outputs": list(outputs),
    }


def write_experiment_output(records: Sequence[ExperimentRecord], config: ExperimentConfig,
                            out_dir, name: str) -> list:
    """Write <name>.csv plus a reproduction manifest; returns written paths."""
    out = Path(out_dir)
    csv_path = out / f"{name}.csv"
    write_output(csv_path, records_to_csv(records))
    manifest_path = out / f"{name}_manifest.json"
    manifest = build_manifest(config, [csv_path.name])
    write_output(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return [csv_path, manifest_path]
