"""Synthetic Bayesian-transfer-learning experiments and Monte Carlo checks.

Two experiment families over a two-covariate Bayesian linear regression:

* neighborhood: target tasks constructed a uniformly drawn TV distance away
  from one of the observed source tasks; epistemic error recorded against
  the neighborhood size and the posterior mass near the true coefficients.
* negative transfer: fixed source/target coefficient scenarios; epistemic
  error, lack of convergence C, distribution shift D and the bound
  looseness er - (C + D) recorded against the number of source tasks.

All TV-distance proxies use the Pinsker upper bound on a seeded Monte Carlo
KL estimate, as the reference methodology does, Gaussian pairs included.  Rows
derive their random streams from (master seed, experiment id, grid index,
sim index): a run derives every row's seed, the child seeds (row seed, k)
of its streams and their Generators' words in three hash passes before any
row runs, so serial and parallel schedules write identical CSV bytes.

A run's rows go in contiguous blocks, which may straddle grid points:
one block per worker, more for a run with many Monte Carlo samples.  Each
row draws its source data, picks and Monte Carlo samples from its own
streams, in the per-sim order, and the source data go straight into
(rows, n, ...) arrays.  A block's posteriors are one stacked fit
(``bayes._posterior_stack``; per grid point of a negative-transfer block,
whose n differ), the predictives are (rows,) arrays, every Pinsker bound
(er, and the negative-transfer C and D) comes from a (rows, kl_samples)
log-ratio array through ``divergences._pinsker_mc``, and the neighborhood
posterior masses are one ``bayes._posterior_mass_stack``, which replays
quad's first step as arrays and integrates only a row that step does not
settle.  A sampled mixture's log-density takes one row at a time.  Every
value rounds as one sim at a time would, so the CSV bytes are those of
fitting and scoring each row alone with ``kl_mc`` and ``posterior_mass_near``.

``ndtri`` loads ``scipy.special`` at the first neighborhood target and then
rebinds to scipy's ufunc; ``build_manifest`` imports ``scipy`` for its
version.  Negative-transfer rows load neither, and neighborhood rows load
``scipy.integrate`` only for a mass that needs quadrature.  See ``_deferred``.
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
    _posterior_mass_stack,
    _posterior_stack,
    _predictive_stack,
)
from .bounds import LOSSES, STATEMENTS, ModelClass, _csv_field, evaluate_bound
from .distributions import (
    DEFAULT_REIFY_COMPONENTS,
    FiniteTaskDistribution,
    Gaussian,
    GaussianMixture,
    InverseGammaGaussianTasks,
    TaskDistribution,
    _check_gaussians,
    distribution_from_dict,
    task_distribution_from_dict,
)
from .divergences import MC_SUPPORT_GAP, _column_logpdf, _gaussian_draws, _pinsker_mc
from .errors import InvalidArgument, require_finite_pair, require_int
from .seeding import derive_seed, derive_seeds, generator, generator_from_words, stream_words
from .workers import map_payloads, worker_count

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
# the most Monte Carlo samples (rows x kl_samples) a block holds: 2 MiB per float array,
# about a 500-sim grid point at 400 samples
BLOCK_ELEMENTS = 1 << 18

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
            v = require_finite_pair(name, getattr(self, name))
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        object.__setattr__(self, "epsilon_grid", tuple(float(e) for e in self.epsilon_grid))
        object.__setattr__(self, "n_grid",
                           tuple(require_int("n grid entry", n, 0) for n in self.n_grid))
        for name in ("sims", "n_source_tasks", "kl_samples"):
            object.__setattr__(self, name, require_int(name, getattr(self, name), 1))
        object.__setattr__(self, "master_seed", require_int("master_seed", self.master_seed))
        if not all(0.0 <= e <= 1.0 for e in self.epsilon_grid):  # false for a NaN
            raise InvalidArgument(f"epsilons must lie in [0, 1], got {self.epsilon_grid}")

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
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        for name in ("beta_source", "beta_target", "epsilon_grid", "n_grid"):
            out[name] = np.asarray(out[name]).tolist()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise InvalidArgument(f"unknown experiment config keys: {', '.join(unknown)}")
        return cls(**data)


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
        return ",".join([
            str(self.sim), str(self.seed), str(self.n), *map(_csv_field, (
                self.epsilon, self.epistemic_error, self.C, self.D, self.looseness,
                self.posterior_mass)),
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


def _sampled_barycenter(tasks: InverseGammaGaussianTasks, seed: int) -> GaussianMixture:
    """The negative-transfer barycenter: the equal-weight mixture of 256 tasks drawn on ``seed``."""
    k = DEFAULT_REIFY_COMPONENTS
    stddevs = np.sqrt(tasks.sample_variances(k, generator(seed)))
    return GaussianMixture(np.full(k, 1.0 / k), np.full(k, tasks.mean), stddevs)


def sample_source_data(config: ExperimentConfig, n: int,
                       seed: int | np.random.Generator) -> SourceDataset:
    """n source tasks, one observation each: xi ~ U(0,1)^2, x ~ N(beta.xi, sd_i).

    Task noise variances draw i.i.d. from IG(IG_TASKS); they ride along in
    ``task_variances`` for target construction but are not learner-visible.
    ``seed`` is an int or a Generator to draw from.  This is ``_source_draws``
    on a stack of one sim: the experiments draw a block's sims in one call.
    """
    variances, xi, x = _source_draws(config, n, [generator(seed)])
    return SourceDataset(xi[0], x[0], task_variances=variances[0])


def _source_draw(tasks: InverseGammaGaussianTasks, beta: np.ndarray, n: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One sim's source data from ``rng``, in its order: the n task variances, xi, then x."""
    variances = tasks.sample_variances(n, rng)
    xi = rng.uniform(0.0, 1.0, size=(n, 2))
    return variances, xi, rng.normal(xi @ beta, np.sqrt(variances))


def _source_draws(config: ExperimentConfig, n: int, rngs: Sequence[np.random.Generator]):
    """The source data of R sims, sim r from ``rngs[r]``: (R, n) variances, (R, n, 2) xi, (R, n) x.

    Each row is drawn by ``_source_draw`` alone, so it is bit for bit that
    sim's ``sample_source_data``.
    """
    tasks = _task_distribution_at_target(config, "source")
    shape = (len(rngs), n)
    variances, xi, x = np.empty(shape), np.empty((*shape, 2)), np.empty(shape)
    for r, rng in enumerate(rngs):
        variances[r], xi[r], x[r] = _source_draw(tasks, config.beta_source, n, rng)
    return variances, xi, x


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
    return Gaussian(_shifted_mean(source_task.mean, source_task.stddev, eps_tilde),
                    source_task.stddev)


def _shifted_mean(mean, stddev, eps_tilde):
    """``neighborhood_target``'s mean for eps_tilde in (0, 1); floats or arrays."""
    return mean + 2.0 * stddev * ndtri((1.0 + eps_tilde) / 2.0)


def _fit_predictors(xi: np.ndarray, x: np.ndarray):
    """The posteriors of (R, n, 2) covariates and (R, n) responses, and their predictives.

    (R, 2) posterior means, (R, 2, 2) covariances, and the (R,) means and
    stddevs of the predictives at ``TARGET_COVARIATES``: each entry is bit
    for bit ``posterior_update`` and ``posterior_predictive`` of its dataset.
    """
    means, covs = _posterior_stack(PRIOR, xi, x)
    return (means, covs,
            *_predictive_stack(means, covs, TARGET_COVARIATES, PRIOR.prior_noise_variance))


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------


def _kept(config: ExperimentConfig, points: Sequence[str], g: list, s: list,
          *bounds: np.ndarray) -> np.ndarray:
    """The rows with no NaN Pinsker bound; each other row is dropped, with ``kl_mc``'s warning."""
    dropped = np.isnan(bounds).any(axis=0)
    for r in np.flatnonzero(dropped).tolist():
        log.warning("%s row (%s, sim=%d) dropped: %s", config.scenario, points[g[r]], s[r],
                    MC_SUPPORT_GAP)
    return np.flatnonzero(~dropped)


def _neighborhood_block(config: ExperimentConfig, points: Sequence[str], g: list, s: list,
                        seeds: list, rngs: list) -> list:
    """The records of a block of neighborhood rows; ``rngs[r]`` holds row r's three streams.

    The rows' source data, source-task and eps-tilde picks and kl_mc draws
    come from their own streams in the per-sim order; eps-tilde is drawn
    below the row's own epsilon.  The posteriors, predictives, targets,
    Pinsker bounds and posterior masses are (R, ...) arrays.  A row whose
    KL log-ratio is not finite is dropped.
    """
    n, eps = config.n_source_tasks, [config.epsilon_grid[point] for point in g]
    variances, xi, x = _source_draws(config, n, [r[0] for r in rngs])
    means, covs, pred_means, pred_stddevs = _fit_predictors(xi, x)

    picks = [int(r[1].integers(n)) for r in rngs]  # each row's pick, then its eps-tilde
    eps_tilde = np.array([float(r[1].uniform(0.0, e)) for r, e in zip(rngs, eps)])
    source_mean = float(config.beta_source @ TARGET_COVARIATES)
    stddevs = np.sqrt(variances[np.arange(len(rngs)), picks])
    target_means = np.where(eps_tilde == 0.0, source_mean,
                            _shifted_mean(source_mean, stddevs, eps_tilde))
    _check_gaussians(target_means, stddevs)

    xs, log_p = _gaussian_draws(pred_means, pred_stddevs, [r[2] for r in rngs],
                                config.kl_samples)
    er = _pinsker_mc(log_p - _column_logpdf(xs, target_means, stddevs))
    kept = _kept(config, points, g, s, er)
    masses = _posterior_mass_stack(means[kept], covs[kept], config.beta_source,
                                   POSTERIOR_MASS_RADIUS)
    return [ExperimentRecord(sim=s[r], seed=seeds[r], n=n, epsilon=eps[r],
                             epistemic_error=float(er[r]), C=None, D=None, looseness=None,
                             posterior_mass=m)
            for r, m in zip(kept.tolist(), masses.tolist())]


def _negative_transfer_block(config: ExperimentConfig, points: Sequence[str], g: list, s: list,
                             seeds: list, rngs: list, bary_s: GaussianMixture,
                             bary_t: GaussianMixture) -> list:
    """The records of a block of negative-transfer rows; ``rngs[r]`` holds row r's five streams.

    The source data and the fit are drawn per grid-point segment of the
    block, as its rows' n differ.  The Pinsker bounds are arrays over the
    block: ``er`` of the predictor against the target on stream 2, C of the
    predictor against the source barycenter on stream 3, and D of the source
    against the target barycenter on stream 4.  A mixture's log-density
    takes one row at a time.  A row whose log-ratio is not finite in any of
    the three is dropped.
    """
    k = config.kl_samples
    pred_means, pred_stddevs = np.empty(len(rngs)), np.empty(len(rngs))
    for point in sorted(set(g)):
        seg = np.flatnonzero(np.equal(g, point))
        _, xi, x = _source_draws(config, config.n_grid[point], [rngs[r][0] for r in seg])
        _, _, pred_means[seg], pred_stddevs[seg] = _fit_predictors(xi, x)
    targets = [target_task(config, r[1]) for r in rngs]
    xs, log_p = _gaussian_draws(pred_means, pred_stddevs, [r[2] for r in rngs], k)
    er = _pinsker_mc(log_p - _column_logpdf(xs, np.array([t.mean for t in targets]),
                                            np.array([t.stddev for t in targets])))
    xs, log_p = _gaussian_draws(pred_means, pred_stddevs, [r[3] for r in rngs], k)
    c = _pinsker_mc(log_p - np.array([bary_s.logpdf(x) for x in xs]))
    xs = np.array([bary_s.sample(k, r[4]) for r in rngs])
    d = _pinsker_mc(np.array([bary_s.logpdf(x) - bary_t.logpdf(x) for x in xs]))
    looseness = er - (c + d)
    return [ExperimentRecord(
        sim=s[r], seed=seeds[r], n=config.n_grid[g[r]], epsilon=None,
        epistemic_error=float(er[r]), C=float(c[r]), D=float(d[r]),
        looseness=float(looseness[r]), posterior_mass=None,
    ) for r in _kept(config, points, g, s, er, c, d).tolist()]


def _run_block(payload) -> list:
    """One block's records, from its rows' seeds and stream words."""
    block_fn, config, points, g, s, seeds, words = payload
    rngs = [list(map(generator_from_words, streams)) for streams in words]
    return block_fn(config, points, g, s, seeds, rngs)


def _run_grid(block_fn, config: ExperimentConfig, exp_id: int, streams: int,
              points: Sequence[str], threads: int) -> list:
    """``block_fn(config, points, g, s, seeds, rngs)`` over blocks of rows; their records in order.

    Row (g, s), sim s of the grid point named ``points[g]``, has the seed
    ``derive_seed(master_seed, exp_id, g, s)`` and ``streams`` Generators,
    stream k seeded with ``derive_seed(row_seed, k)``.  All of them are
    derived here, before dispatch.  The rows, in grid-major order, are cut
    into ``workers.worker_count`` contiguous blocks, or more where a block
    would hold over ``BLOCK_ELEMENTS`` Monte Carlo samples; a block may
    straddle grid points.  Row r of a block is sim ``s[r]`` of grid point
    ``g[r]``, and builds its Generators ``rngs[r]`` from the words.  The
    blocks run in the processes ``workers.map_payloads`` allows.
    """
    rows = len(points) * config.sims
    grid, sim = np.divmod(np.arange(rows), config.sims)
    row_seeds = derive_seeds(config.master_seed, exp_id, grid, sim)
    children = derive_seeds(np.repeat(row_seeds, streams), np.tile(np.arange(streams), rows))
    words = stream_words(children).reshape(rows, streams, 4)
    blocks = max(worker_count(threads, len(points)),
                 -(-rows * config.kl_samples // BLOCK_ELEMENTS))
    cuts = np.linspace(0, rows, min(blocks, rows) + 1).astype(int).tolist()
    grid, sim, row_seeds = grid.tolist(), sim.tolist(), row_seeds.tolist()
    payloads = [(block_fn, config, points, grid[a:b], sim[a:b], row_seeds[a:b], words[a:b])
                for a, b in zip(cuts, cuts[1:])]
    return [rec for block in map_payloads(_run_block, payloads, threads) for rec in block]


def run_neighborhood_experiment(config: ExperimentConfig, threads: int = 1) -> list:
    """Sweep over neighborhood sizes; one record per simulation.

    The rows run in the blocks ``_run_grid`` schedules, each block with its
    posterior masses, so a mass that needs quadrature integrates in the
    block's worker.
    """
    if not config.epsilon_grid:
        raise InvalidArgument("neighborhood experiment needs an epsilon grid")
    points = [f"eps={e}" for e in config.epsilon_grid]
    # streams: source data, the source task and eps-tilde pick, the kl_mc draws
    return _run_grid(_neighborhood_block, config, _EXP_NEIGHBORHOOD, 3, points, threads)


def run_negative_transfer_experiment(config: ExperimentConfig, threads: int = 1) -> list:
    """Sweep over source-task counts; one record per simulation."""
    if not config.n_grid:
        raise InvalidArgument("negative-transfer experiment needs an n grid")
    bary_s, bary_t = (
        _sampled_barycenter(_task_distribution_at_target(config, which),
                            derive_seed(config.master_seed, _EXP_BARYCENTER, stream))
        for stream, which in enumerate(("source", "target"))
    )
    block_fn = functools.partial(_negative_transfer_block, bary_s=bary_s, bary_t=bary_t)
    points = [f"n={n}" for n in config.n_grid]
    # streams: source data, target task, the kl_mc draws of er, C and D
    return _run_grid(block_fn, config, _EXP_NEGATIVE_TRANSFER, 5, points, threads)


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
    trials = require_int("trials", trials, 1)
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
    """Write ``text`` to ``path`` in place, creating its missing parent directories.

    Every output file of the library goes through here.  The file is opened
    without truncation and cut to the new length after the write: on ext4,
    truncating a non-empty file to zero makes ``close()`` start a writeback
    (``auto_da_alloc``), which costs far more than the write itself.  New
    files get mode ``0o666 & ~umask``, symlinks are followed and an existing
    file keeps its inode.  A crash mid-write can leave old and new bytes
    mixed; every output can be rebuilt from its manifest.
    """
    data = memoryview(text.encode("utf-8"))
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except FileNotFoundError:  # a missing parent, made only now: rewrites pay no mkdir
        Path(path).parent.mkdir(parents=True, exist_ok=True)
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
