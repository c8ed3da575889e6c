"""Legion adapter (§5.3): object-based meta-system with a translator.

Two Legion behaviors from the paper are modeled:

* **Message translation** — Legion components did not load the lingua
  franca directly; a single *translator object* carried messages between
  Legion and the rest of the application, giving "a single monitoring
  point" (and a potential bottleneck — the paper notes their design
  would have supported per-object libraries had it become one). Here the
  translator is a real component on the Legion gateway host: clients
  send their service traffic (scheduler, persistent state, logging) to
  it, and it forwards to the right service with added hop latency.
  Replies travel directly back to the client (our messages carry the
  originator's contact), and Gossip polls — inbound by nature — also go
  direct; the translator models the outbound funnel.
* **Stateless-object migration** — "Legion implements automatic resource
  discovery and process migration for stateless objects": when a client
  dies with its host, the adapter restarts a fresh (stateless) client on
  another live Legion host.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..core.component import Component, Effect, Send
from ..core.linguafranca.messages import Message
from ..core.simdriver import SimDriver
from ..simgrid.host import Host
from ..simgrid.load import MeanRevertingLoad
from .base import InfraAdapter
from .speeds import speed_for

__all__ = ["LegionNet", "LegionTranslator"]


class LegionTranslator(Component):
    """Forwards lingua-franca messages out of the Legion world.

    Routing is by message-type prefix: ``SCH_*`` to the scheduler,
    ``PST_*`` to the persistent manager, ``LOG_*`` to the logger.
    """

    def __init__(self, name: str, routes: dict[str, str]) -> None:
        super().__init__(name)
        self.routes = dict(routes)
        self.translated = 0
        self.unroutable = 0

    def on_message(self, message: Message, now: float) -> list[Effect]:
        prefix = message.mtype.split("_", 1)[0]
        dst = self.routes.get(prefix)
        if dst is None:
            self.unroutable += 1
            return []
        self.translated += 1
        # Forward verbatim: the original sender's contact rides along, so
        # the service replies directly to the Legion object.
        return [Send(dst, message)]


class LegionNet(InfraAdapter):
    name = "legion"

    def __init__(
        self,
        *args,
        n_hosts: int = 20,
        translator_routes: Optional[dict[str, str]] = None,
        mtbf: float = 4 * 3600.0,
        mttr: float = 1800.0,
        migrate_delay: float = 45.0,
        spare_fraction: float = 0.2,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.n_hosts = n_hosts
        #: Fraction of hosts kept object-free as migration targets (Legion
        #: discovers resources automatically; a pool has more hosts than
        #: our objects).
        self.spare_fraction = spare_fraction
        self.translator_routes = translator_routes or {}
        self.mtbf = mtbf
        self.mttr = mttr
        self.migrate_delay = migrate_delay
        self.translator: Optional[LegionTranslator] = None
        self.gateway: Optional[Host] = None
        self.migrations = 0

    def deploy(self) -> None:
        rng = self._rng
        self.gateway = self._add_host(
            "legion-gateway",
            speed=speed_for("legion_node"),
            load_model=MeanRevertingLoad(mean=0.9, sigma=0.002),
        )
        self.translator = LegionTranslator("legion-xlate", self.translator_routes)
        SimDriver(self.env, self.network, self.gateway, "xlate",
                  self.translator, self.streams).start()
        n_active = max(self.n_hosts - int(self.n_hosts * self.spare_fraction), 1)
        for i in range(self.n_hosts):
            host = self._add_host(
                f"legion-{i}",
                speed=speed_for("legion_node", jitter=0.25, rng=rng),
                load_model=MeanRevertingLoad(mean=0.7, sigma=0.006),
            )
            self._start_failure_process(host)
            if i < n_active:
                self.launch_client(host)

    def _start_failure_process(self, host: Host) -> None:
        rng = self.streams.get(f"fail:{host.name}")

        def cycle() -> Generator:
            while True:
                yield self.env.timeout(float(rng.exponential(self.mtbf)))
                host.go_down("failure")
                yield self.env.timeout(float(rng.exponential(self.mttr)))
                host.go_up()

        self.env.process(cycle())

    def on_client_exit(self, host: Host) -> None:
        """Automatic migration of the stateless object to a live host.

        Legion's resource discovery keeps looking until a host is free —
        an object outlives any particular machine."""

        def migrate() -> Generator:
            yield self.env.timeout(self.migrate_delay)
            while True:
                candidates = [
                    h for h in self.hosts
                    if h.up and h.name not in self.drivers and h is not self.gateway
                ]
                if candidates:
                    idx = int(self._rng.integers(len(candidates)))
                    self.migrations += 1
                    self.launch_client(candidates[idx])
                    return
                yield self.env.timeout(60.0)

        self.env.process(migrate())
