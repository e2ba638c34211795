"""The package's public surface: every export exists, and removed names stay removed."""

import ast
import dataclasses
import inspect
from pathlib import Path

import epibound
from epibound import bayes, bounds, cli, distributions, divergences, oracle
from epibound._deferred import Deferred

# public functions that no module of the package calls, each with why it stays public
UNREFERENCED_EXPORTS = {
    "cross_entropy": "reference for cor_ce's excess loss CE(Q, pred) - H(Q) = KL(Q || pred)",
    "entropy": "reference for cor_ce's excess loss CE(Q, pred) - H(Q) = KL(Q || pred)",
    "finite_tasks": "constructor of a finite task distribution from (task, weight) pairs",
    "generate_instance": "one checked oracle instance from a seed; perfbench draws them",
    "kl_mc": "criterion 3 estimator; kernel reference for _mc_kl",
    "negative_transfer_scan": "criterion 7 scan",
    "neighborhood_target": "kernel reference for the stacked neighborhood targets",
    "posterior_predictive": "kernel reference for _predictive_stack",
    "posterior_update": "criterion 4 posterior; kernel reference for _posterior_stack",
    "sample_source_data": "kernel reference for the stacked source draws",
    "verify_statement": "one statement on one instance; criterion 1's counterexamples",
}


def test_every_export_is_an_attribute():
    assert [name for name in epibound.__all__ if not hasattr(epibound, name)] == []
    assert epibound.StudentT is distributions.StudentT and "StudentT" in epibound.__all__


def test_removed_names_are_gone():
    removed = [
        (epibound, "check_boundedness"),
        (distributions, "check_boundedness"),
        (distributions, "BoundednessReport"),
        (distributions.Categorical, "logpmf"),
        (distributions.Categorical, "mean_std"),  # FirstOrderDistribution's stays abstract
        (divergences, "_log_density"),
        (divergences.DivergenceResult, "to_dict"),
        (bounds.ModelClass, "binary_grid"),
        (cli, "_out_dir"),
        # the event objects: an event is a 0/1 mask row or a threshold
        *((owner, name) for owner in (epibound, distributions)
          for name in ("DiscreteEvent", "Interval", "variance_at")),
        (distributions, "EventSet"),
        (distributions, "threshold_events"),
        (distributions, "_interval_probability"),
        *((cls, "event_probability") for cls in (
            distributions.FirstOrderDistribution, distributions.Categorical,
            distributions.Gaussian, distributions.GaussianMixture)),
        (distributions.FiniteTaskDistribution, "event_probabilities"),
        # the oracle's batch-of-one wrappers
        (oracle.OracleInstance, "from_distributions"),
        (oracle, "compute_components"),
        (oracle, "verify_theta_instance"),
        # test-only oracle code, now in the tests' helpers
        (oracle._Components, "instance"),
        (oracle, "_SCALARS"),
        # recomputations of what the statement table and the row kernels compute
        *((owner, name) for owner in (epibound, bounds)
          for name in ("chebyshev_delta", "distribution_shift")),
        (epibound, "tv_upper_pinsker"),
        (divergences, "tv_upper_pinsker"),
        (bayes, "empty_dataset"),
    ]
    assert [(owner.__name__, name) for owner, name in removed if name in vars(owner)] == []
    assert not {"DiscreteEvent", "Interval", "variance_at"} & set(epibound.__all__)
    assert [f.name for f in dataclasses.fields(bayes.SourceDataset)] == [
        "xi", "x", "task_variances"]
    assert not {"k_t", "m"} & {f.name for f in dataclasses.fields(oracle._Components)}
    # every Deferred rebinds the module global it is bound to
    namespace = inspect.signature(Deferred).parameters["namespace"]
    assert namespace.default is inspect.Parameter.empty


def test_every_unreferenced_export_is_justified():
    """Public functions that only their definition and the re-export name are dead API,
    unless ``UNREFERENCED_EXPORTS`` says why they stay."""
    referenced = set()
    for path in Path(epibound.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for statement in ast.parse(path.read_text()).body:
            names = {node.id for node in ast.walk(statement) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(statement) if isinstance(node, ast.Attribute)}
            if isinstance(statement, ast.FunctionDef):
                names.discard(statement.name)
            referenced |= names
    unreferenced = sorted(name for name in epibound.__all__
                          if inspect.isfunction(getattr(epibound, name)) and name not in referenced)
    assert unreferenced == sorted(UNREFERENCED_EXPORTS)
