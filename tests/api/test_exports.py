"""Every package re-export is complete and resolves to its home's object.

Package ``__init__`` modules and the ``repro.api`` layers declare their
public names as ``{home module: names}`` and resolve them on first use
(``repro._exports``); these checks hold the declarations to the modules
they point at.
"""

import importlib
import re

import pytest

import repro.core.services.kinds
import repro.ramsey.client

LAZY = [
    "repro.core", "repro.core.linguafranca", "repro.core.services",
    "repro.core.forecasting", "repro.core.gossip", "repro.control",
    "repro.obs", "repro.explore", "repro.live", "repro.ramsey",
    "repro.simgrid", "repro.parallel", "repro.infra", "repro.experiments",
    "repro.apps", "repro.api", "repro.api.core", "repro.api.sim",
    "repro.api.net", "repro.api.live", "repro.api.control", "repro.api.obs",
    "repro.api.explore",
]


def home_binding(module, name):
    """Follow export tables down to the module that binds ``name``."""
    while True:
        table = vars(module).get("_EXPORTS", {})
        home = next((h for h, names in table.items() if name in names), None)
        if home is None:
            return vars(module)[name]
        if home == ".":
            return importlib.import_module(f".{name}", module.__package__)
        module = importlib.import_module(home, module.__package__)


@pytest.mark.parametrize("path", LAZY)
def test_every_export_is_its_home_modules_object(path):
    module = importlib.import_module(path)
    assert module.__all__ and len(module.__all__) == len(set(module.__all__))
    for name in module.__all__:
        assert getattr(module, name) is home_binding(module, name), name


@pytest.mark.parametrize("path", LAZY)
def test_dir_lists_every_export(path):
    module = importlib.import_module(path)
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("path", LAZY)
def test_star_import_binds_every_export(path):
    namespace = {}
    exec(f"from {path} import *", namespace)
    assert [n for n in importlib.import_module(path).__all__
            if n not in namespace] == []


@pytest.mark.parametrize("path", LAZY)
def test_unknown_attribute_names_the_package(path):
    module = importlib.import_module(path)
    with pytest.raises(AttributeError, match=re.escape(repr(path))):
        module.no_such_export_anywhere


def test_engine_status_has_one_identity():
    assert (repro.ramsey.client.EngineStatus
            is repro.core.services.kinds.EngineStatus)
