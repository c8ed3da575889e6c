"""The supported public surface of the EveryWare reproduction.

Everything an application, experiment, or example needs is re-exported
here under one roof::

    from repro.api import Component, Send, RetryPolicy, FaultPlan, ...

and the surface is *layered* — each layer is its own importable module
for callers that want exactly one plane:

* :mod:`repro.api.core` — the plane-agnostic programming model:
  components and effects, retry/time-out policies, observability,
  forecasting, the lingua-franca :class:`Message`, the EveryWare
  services, and the Ramsey application.
* :mod:`repro.api.sim` — the simulated grid: :class:`SimDriver`, the
  simgrid fabric and fault injectors, the compute plane, and the
  prebuilt experiment worlds (SC98, chaos, observe).
* :mod:`repro.api.net` — real sockets: the :class:`EventLoop` reactor,
  TCP endpoints, and :class:`NetDriver`.
* :mod:`repro.api.live` — the deployment plane: topologies, manifests,
  the supervisor/collector, and :func:`run_live`.
* :mod:`repro.api.control` — the workload-management control plane: the
  HTTP/JSON job gateway, its durable :class:`WorkQueue`, the synthetic
  user storm, and the one harness, :class:`Scenario`, run on either the
  simulated twin or real processes.
* :mod:`repro.api.obs` — the observability plane: end-to-end job
  tracing, the per-node flight recorder, Prometheus text exposition,
  and the ``repro top`` dashboard.
* :mod:`repro.api.explore` — the model-exploration plane: the
  EMEWS-style :class:`ExploreQueue` and the ME algorithms, which the
  simulated twin runs over the same HTTP (:class:`HttpUser`).

Importing a name from ``repro.api`` directly keeps working for every
previously public name (the flat-module compatibility contract, frozen
by ``tests/api/test_surface.py``). Every layer module is a declaration
table and imports nothing, so pulling one ``core`` name does not import
the live or control planes. Anything *not* listed in :func:`surface` is
an internal detail that may move between releases and is not reachable
through ``repro.api``.
"""

from __future__ import annotations

from .._exports import lazy_exports
from . import control, core, explore, live, net, obs, sim

#: The public contract, by layer: each layer module's ``__all__``.
#: ``repro info --api`` dumps exactly this structure and the
#: golden-surface test freezes it; adding a name to a layer is an API
#: addition, removing one is a compatibility break.
_LAYERS: dict[str, list[str]] = {
    layer.__name__.rpartition(".")[2]: layer.__all__
    for layer in (core, sim, net, live, control, obs, explore)}

# The flat namespace: each public name resolves through its one layer
# (a name claimed by two layers is an import-time error).
_EXPORTS = {".": tuple(_LAYERS),
            **{f".{layer}": names for layer, names in _LAYERS.items()}}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)


def surface() -> dict:
    """The public contract as data: ``{layer: sorted names}`` plus the
    flattened name list. ``repro info --api`` prints this and the golden
    test freezes it."""
    return {
        "layers": {layer: sorted(names) for layer, names in _LAYERS.items()},
        "names": sorted(name for names in _LAYERS.values() for name in names),
    }
