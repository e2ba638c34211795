"""The package's public surface: every export exists, and removed names stay removed."""

import dataclasses

import epibound
from epibound import bayes, bounds, cli, distributions, divergences, oracle


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
    ]
    assert [(owner.__name__, name) for owner, name in removed if name in vars(owner)] == []
    assert not {"DiscreteEvent", "Interval", "variance_at"} & set(epibound.__all__)
    assert [f.name for f in dataclasses.fields(bayes.SourceDataset)] == [
        "xi", "x", "task_variances"]
    assert not {"k_t", "m"} & {f.name for f in dataclasses.fields(oracle._Components)}
