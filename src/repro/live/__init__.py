"""The live deployment plane: the EveryWare world as real OS processes.

The paper's headline result was not a simulation — EveryWare ran the
Ramsey Number Search *live* at SC98 across seven infrastructures
(§3–4). This package is the subsystem that stands up, supervises, and
observes a complete EveryWare world on real sockets:

* :mod:`.topology` — declarative world specs (:class:`NodeSpec`,
  :class:`Topology`, :func:`sc98_topology`) and the bootstrap/discovery
  **manifest** every node reads at startup;
* :mod:`.ports` — localhost port allocation for the manifest;
* :mod:`.node` — the ``repro live-node`` entrypoint: build the node's
  sans-IO component from the manifest, run it under
  :class:`~repro.core.netdriver.NetDriver`, send heartbeats and spool
  spans and logs to the flight recorder;
* :mod:`.collector` — the heartbeat wire protocol (metrics snapshots,
  stats) and the supervisor-side :class:`Collector`, a component the
  harness runs under :class:`~repro.core.netdriver.NetDriver`, that
  merges heartbeats and recovered flight spools into the same
  Chrome-trace/metrics/report formats the simulation already emits;
* :mod:`.supervisor` — process spawning, forecast-driven health checks,
  restart policies with backoff, chaos kills, graceful drain;
* :mod:`.harness` — ``run_live``: topology in, merged report out.

The sim-vs-live contract: components are byte-for-byte the same code
that runs under :class:`~repro.core.simdriver.SimDriver`; only the
driver, the clock, and the addressing (``host:port`` instead of
``host/port``) change. See DESIGN.md §11.
"""

from .._exports import lazy_exports

_EXPORTS = {
    ".collector": ("Collector", "NodeRecord"),
    ".harness": ("LiveReport", "check_invariants", "run_live"),
    ".node": ("build_component", "run_node"),
    ".ports": ("PortAllocator",),
    ".supervisor": ("RestartPolicy", "Supervisor"),
    ".topology": ("Manifest", "NodeSpec", "Topology", "build_manifest",
                  "sc98_topology", "serve_topology"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
