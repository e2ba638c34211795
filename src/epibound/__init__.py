"""Decompositional epistemic error bounds for multitask learning under shift.

Exact finite-space verification of the bound statements, divergence
utilities (TV, KL, Pinsker proxies, entropy family), a conjugate Bayesian
linear-regression transfer learner, and seeded synthetic experiments.
"""

__version__ = "0.1.0"

from .errors import (
    EpiboundError,
    EventMismatch,
    GenerationFailure,
    InvalidArgument,
    InvalidModelClass,
    InvalidTaskDistribution,
    NumericalFailure,
    PreconditionViolated,
    SupportViolation,
)
from .distributions import (
    Categorical,
    FiniteTaskDistribution,
    FirstOrderDistribution,
    Gaussian,
    GaussianMixture,
    InverseGammaGaussianTasks,
    StudentT,
    barycenter,
    distribution_from_dict,
    finite_tasks,
    sample,
    sample_task,
    sup_variance,
    task_distribution_from_dict,
    task_distribution_tv,
)
from .divergences import (
    DivergenceResult,
    cross_entropy,
    entropy,
    hellinger_sq,
    kl_exact,
    kl_mc,
    l1_distance,
    tv_exact,
)
from .bounds import (
    BoundReport,
    ModelClass,
    best_approximation,
    convergence_gap,
    distribution_shift_learner,
    evaluate_bound,
)
from .bayes import (
    GaussianParamDist,
    NIGModel,
    SourceDataset,
    param_tv_upper,
    posterior_mass_near,
    posterior_predictive,
    posterior_update,
)
from .oracle import (
    InstanceConfig,
    OracleInstance,
    generate_instance,
    negative_transfer_scan,
    run_suite,
    verify_statement,
)
from .experiments import (
    ExperimentConfig,
    ExperimentRecord,
    monte_carlo_verify,
    neighborhood_target,
    run_negative_transfer_experiment,
    run_neighborhood_experiment,
    sample_source_data,
    target_task,
)

__all__ = [
    "__version__",
    # errors
    "EpiboundError", "EventMismatch", "GenerationFailure", "InvalidArgument",
    "InvalidModelClass", "InvalidTaskDistribution", "NumericalFailure",
    "PreconditionViolated", "SupportViolation",
    # distributions
    "Categorical", "FiniteTaskDistribution", "FirstOrderDistribution",
    "Gaussian", "GaussianMixture", "InverseGammaGaussianTasks", "StudentT", "barycenter",
    "distribution_from_dict", "finite_tasks", "sample",
    "sample_task", "sup_variance", "task_distribution_from_dict",
    "task_distribution_tv",
    # divergences
    "DivergenceResult", "cross_entropy", "entropy", "hellinger_sq", "kl_exact",
    "kl_mc", "l1_distance", "tv_exact",
    # bounds
    "BoundReport", "ModelClass", "best_approximation", "convergence_gap",
    "distribution_shift_learner", "evaluate_bound",
    # bayes
    "GaussianParamDist", "NIGModel", "SourceDataset", "param_tv_upper",
    "posterior_mass_near", "posterior_predictive", "posterior_update",
    # oracle
    "InstanceConfig", "OracleInstance", "generate_instance",
    "negative_transfer_scan", "run_suite", "verify_statement",
    # experiments
    "ExperimentConfig", "ExperimentRecord", "monte_carlo_verify",
    "neighborhood_target", "run_negative_transfer_experiment",
    "run_neighborhood_experiment", "sample_source_data", "target_task",
]
