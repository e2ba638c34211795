"""The package's public surface: every export exists, and removed names stay removed."""

import dataclasses

import epibound
from epibound import bayes, bounds, cli, distributions, divergences


def test_every_export_is_an_attribute():
    assert [name for name in epibound.__all__ if not hasattr(epibound, name)] == []


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
    ]
    assert [(owner.__name__, name) for owner, name in removed if name in vars(owner)] == []
    assert [f.name for f in dataclasses.fields(bayes.SourceDataset)] == [
        "xi", "x", "task_variances"]
