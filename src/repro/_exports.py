"""Lazy package exports: the one resolver behind every package ``__init__``.

A package declares its public names as data — ``{home module: names}``,
each home written as the relative import that reaches it — and never
imports them::

    _EXPORTS = {
        ".workqueue": ("FileJournal", "WorkQueue"),
        ".": ("sim",),              # a submodule, exported as itself
    }
    __all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

The first access to a name (attribute, ``from pkg import name`` or
``from pkg import *``) imports its home module and caches the value in
the package's globals, so later accesses never reach ``__getattr__``
(PEP 562). A process therefore loads only the planes it touches: a
gateway does not import the simulator, and a live node does not import
the experiment harnesses.
"""

from __future__ import annotations

import importlib
from typing import Sequence

__all__ = ["lazy_exports"]


def lazy_exports(namespace: dict, table: dict[str, Sequence[str]]):
    """``(__all__, __getattr__, __dir__)`` for the module whose globals
    are ``namespace``, exporting ``table``'s names (each has one home)."""
    module, package = namespace["__name__"], namespace["__package__"]
    homes: dict[str, str] = {}
    for home, names in table.items():
        for name in names:
            if name in homes:
                raise RuntimeError(f"{module}: {name!r} exported from both "
                                   f"{homes[name]!r} and {home!r}")
            homes[name] = home

    def __getattr__(name: str):
        home = homes.get(name)
        if home is None:
            raise AttributeError(
                f"module {module!r} has no attribute {name!r}")
        if home == ".":
            value = importlib.import_module(f".{name}", package)
        else:
            value = getattr(importlib.import_module(home, package), name)
        namespace[name] = value  # cache: the next access skips this hook
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(homes))

    return list(homes), __getattr__, __dir__
