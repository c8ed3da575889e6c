"""The public api contract, frozen as a golden file.

``repro.api`` is the supported surface of the reproduction; this test
is the tripwire that turns an accidental rename/removal into a red
diff against ``golden_api_surface.json``. Changing the surface is
allowed — it just has to be *deliberate*: regenerate the golden file
(``repro info --api``) in the same commit and say so.
"""

import importlib
import json
import os
import warnings

import pytest

import repro.api as api

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_api_surface.json")


def test_surface_matches_golden_file():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    assert api.surface() == golden, (
        "the public api surface changed; if deliberate, regenerate "
        "tests/api/golden_api_surface.json with `repro info --api`")


def test_every_public_name_importable_flat():
    # The flat-module compatibility contract: everything that was ever
    # public on repro.api still resolves there.
    missing = [name for name in api.surface()["names"]
               if not hasattr(api, name)]
    assert missing == []


def test_every_layer_exports_exactly_its_contract():
    for layer, names in api.surface()["layers"].items():
        module = importlib.import_module(f"repro.api.{layer}")
        assert sorted(module.__all__) == names, layer
        for name in names:
            assert getattr(module, name) is getattr(api, name), name


def test_each_name_has_one_home_layer():
    layers = api.surface()["layers"]
    flat = [n for names in layers.values() for n in names]
    assert len(flat) == len(set(flat))
    assert sorted(set(flat)) == api.surface()["names"]


def test_layer_modules_reachable_as_attributes():
    for layer in api.surface()["layers"]:
        module = getattr(api, layer)
        assert module.__name__ == f"repro.api.{layer}"


def test_moved_internal_warns_but_resolves():
    # (Name kept for the test floor.) The DeprecationWarning fallback is
    # gone: a non-public name that lives in a layer module is no longer
    # reachable through the flat namespace at all.
    api_core = importlib.import_module("repro.api.core")
    api_core.moved_probe_for_test = object()
    try:
        with pytest.raises(AttributeError):
            api.moved_probe_for_test
        assert "moved_probe_for_test" not in vars(api)
    finally:
        del api_core.moved_probe_for_test


def test_unknown_name_raises_attribute_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AttributeError):
            api.definitely_not_an_api_name
    with pytest.raises(AttributeError):
        api._private_probe


def test_star_import_covers_the_surface():
    namespace = {}
    exec("from repro.api import *", namespace)
    missing = [n for n in api.surface()["names"] if n not in namespace]
    assert missing == []


def test_dir_lists_surface_and_layers():
    listing = dir(api)
    for name in ("Component", "run_serve", "core", "control", "surface"):
        assert name in listing
