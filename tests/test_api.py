"""The package's public names: what `__init__` imports is what it exports."""

import ast
import importlib
import inspect

import pytest

import slicedp

DELETED = ["embed", "EmbeddedList", "subtree_weight", "gamma_sensitivity_check",
           "leftmost_leaf", "rightmost_leaf"]


def _imported_names():
    tree = ast.parse(inspect.getsource(slicedp))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_exported_name_resolves():
    missing = [name for name in slicedp.__all__ if not hasattr(slicedp, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(slicedp.__all__) == len(set(slicedp.__all__))


def test_exports_are_the_imported_names():
    assert set(slicedp.__all__) == _imported_names()


def test_trial_streams_is_exported():
    # every `run_trials` caller keys its parts with it
    assert "trial_streams" in slicedp.__all__
    assert slicedp.trial_streams is importlib.import_module("slicedp.sync").trial_streams


def test_simulation_is_exported():
    # audit loops build one simulator per run of trials from the package
    assert "Simulation" in slicedp.__all__
    assert slicedp.Simulation is importlib.import_module("slicedp.sync").Simulation


@pytest.mark.parametrize("name", DELETED)
def test_test_only_names_are_not_shipped(name):
    assert not hasattr(slicedp, name)
    assert not hasattr(importlib.import_module("slicedp.treelog"), name)


def test_dataset_class_is_gone():
    # callers convert data with `slicedp.engine.as_elements(data, bit_length)`
    assert not hasattr(slicedp, "Dataset")
    assert not hasattr(importlib.import_module("slicedp.engine"), "Dataset")
