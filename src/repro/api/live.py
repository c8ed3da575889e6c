"""``repro.api.live`` — the deployment plane: worlds as real OS processes.

Declarative :class:`Topology` specs become supervised localhost worlds:
:func:`build_manifest` preallocates every node's contact,
:class:`Supervisor` spawns and restarts ``repro live-node`` processes,
:class:`Collector` merges their shipped telemetry, and :func:`run_live`
runs the whole experiment and returns a :class:`LiveReport`.
"""

from __future__ import annotations

from .._exports import lazy_exports

_EXPORTS = {
    "..live.collector": ("Collector",),
    "..live.harness": ("LiveReport", "check_invariants", "run_live"),
    "..live.supervisor": ("RestartPolicy", "Supervisor"),
    "..live.topology": ("Manifest", "NodeSpec", "Topology", "build_manifest",
                        "sc98_topology", "serve_topology"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
