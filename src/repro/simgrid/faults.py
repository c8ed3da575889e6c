"""Fault injection: schedulable attacks on the simulated Grid.

The SC98 run survived precisely the failures this module lets a scenario
*provoke on purpose* (PAPER §2.2, §3, §5):

* **host crash / reboot** (:class:`HostCrash`) — Condor reclamations and
  plain machine failures killed guest processes without warning;
* **site partition / heal** (:class:`SitePartition`) — SCInet was
  reconfigured on the fly and whole sites dropped off the network; the
  Gossip pool split into subcliques and re-merged afterwards;
* **message drop / duplicate / delay / reorder**
  (:class:`MessageChaos`) — the exhibit-floor network lost and delayed
  datagrams; EveryWare's lingua franca never trusts the transport;
* **infrastructure outage** (:class:`InfraOutage`) — entire
  infrastructures went dark mid-run (the paper's Legion anecdote: the
  net.Legion testbed was lost and later restored while the application
  kept running on everything else).

A :class:`FaultPlan` is a deterministic schedule of such injectors.
``install`` arms it against a world (environment + network + adapters);
every action is recorded in ``plan.log`` and counted in ``plan.stats``
so experiments can assert exactly what was injected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Iterable, Optional, Sequence

from .engine import Environment
from .network import Network

if TYPE_CHECKING:  # pragma: no cover
    from ..infra.base import InfraAdapter

__all__ = [
    "FaultPlan",
    "FaultStats",
    "HostCrash",
    "SitePartition",
    "InfraOutage",
    "MessageChaos",
]


@dataclass(frozen=True)
class HostCrash:
    """Take one host down at ``at``; optionally reboot it later.

    A reboot only brings the *machine* back — guest processes stay dead
    until an infrastructure adapter (or the plan's ``adapters`` hook)
    relaunches a client, exactly like an SC98 machine coming back."""

    at: float
    host: str
    reboot_after: Optional[float] = None
    reason: str = "fault:crash"


@dataclass(frozen=True)
class SitePartition:
    """Split the network into isolated site groups at ``at``.

    ``groups`` follows :meth:`Network.set_partitions`; sites not listed
    form an implicit extra group. ``heal_after`` seconds later the
    partition is healed (all groups cleared)."""

    at: float
    groups: tuple[tuple[str, ...], ...]
    heal_after: Optional[float] = None


@dataclass(frozen=True)
class InfraOutage:
    """An entire infrastructure goes dark at ``at`` (every host down),
    optionally restored ``restore_after`` seconds later — the Legion
    story of §5.3 writ as an injector. ``infra`` names the adapter."""

    at: float
    infra: str
    restore_after: Optional[float] = None


@dataclass(frozen=True)
class MessageChaos:
    """A window of Byzantine transport behavior on every datagram.

    While active (``at`` .. ``at + duration``), each send independently:

    * is dropped with probability ``drop``;
    * otherwise is duplicated with probability ``duplicate`` (the copy
      gets an extra uniform(0, delay_max) delay);
    * and/or is delayed by uniform(0, delay_max) with probability
      ``delay`` — delaying a random subset of traffic is what *reorders*
      it relative to program order.
    """

    at: float
    duration: float
    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    delay_max: float = 5.0

    def fates(self, rng) -> list[float]:
        """Map one send to its delivery fates: a list of extra delays,
        empty for a drop. Randomness comes from the network's own
        deterministic stream."""
        if self.drop > 0.0 and float(rng.random()) < self.drop:
            return []
        extra = 0.0
        if self.delay > 0.0 and float(rng.random()) < self.delay:
            extra = float(rng.random()) * self.delay_max
        fates = [extra]
        if self.duplicate > 0.0 and float(rng.random()) < self.duplicate:
            fates.append(float(rng.random()) * self.delay_max)
        return fates


Injector = HostCrash | SitePartition | InfraOutage | MessageChaos


@dataclass
class FaultStats:
    """What actually fired (a skipped injector, e.g. an unknown host,
    counts in ``skipped`` rather than failing the run)."""

    crashes: int = 0
    reboots: int = 0
    partitions: int = 0
    heals: int = 0
    outages: int = 0
    restores: int = 0
    chaos_windows: int = 0
    skipped: int = 0


class FaultPlan:
    """A deterministic, inspectable schedule of fault injectors."""

    def __init__(self) -> None:
        self.injectors: list[Injector] = []
        self.stats = FaultStats()
        #: Chronological record of every action taken: (time, event).
        self.log: list[tuple[float, str]] = []
        self._installed = False
        self._adapters: dict[str, "InfraAdapter"] = {}
        #: World telemetry passed to :meth:`install`: every firing bumps a
        #: ``fault.*`` counter (so chaos reports and metric scrapes agree)
        #: and, when tracing, opens a root span that victim-side drop spans
        #: point back to.
        self.telemetry = None

    # -- construction (chainable) ------------------------------------------
    def add(self, injector: Injector) -> "FaultPlan":
        self.injectors.append(injector)
        return self

    def crash(self, at: float, host: str, reboot_after: Optional[float] = None,
              reason: str = "fault:crash") -> "FaultPlan":
        return self.add(HostCrash(at=at, host=host, reboot_after=reboot_after,
                                  reason=reason))

    def partition(self, at: float, groups: Sequence[Sequence[str]],
                  heal_after: Optional[float] = None) -> "FaultPlan":
        frozen = tuple(tuple(g) for g in groups)
        return self.add(SitePartition(at=at, groups=frozen, heal_after=heal_after))

    def outage(self, at: float, infra: str,
               restore_after: Optional[float] = None) -> "FaultPlan":
        return self.add(InfraOutage(at=at, infra=infra,
                                    restore_after=restore_after))

    def chaos(self, at: float, duration: float, drop: float = 0.0,
              duplicate: float = 0.0, delay: float = 0.0,
              delay_max: float = 5.0) -> "FaultPlan":
        return self.add(MessageChaos(at=at, duration=duration, drop=drop,
                                     duplicate=duplicate, delay=delay,
                                     delay_max=delay_max))

    # -- introspection ------------------------------------------------------
    def last_heal_time(self) -> Optional[float]:
        """When the final scheduled disturbance ends (partition heal,
        host reboot, infra restore, chaos window close) — the moment
        from which recovery metrics should be measured."""
        ends: list[float] = []
        for inj in self.injectors:
            if isinstance(inj, SitePartition) and inj.heal_after is not None:
                ends.append(inj.at + inj.heal_after)
            elif isinstance(inj, HostCrash) and inj.reboot_after is not None:
                ends.append(inj.at + inj.reboot_after)
            elif isinstance(inj, InfraOutage) and inj.restore_after is not None:
                ends.append(inj.at + inj.restore_after)
            elif isinstance(inj, MessageChaos):
                ends.append(inj.at + inj.duration)
        return max(ends) if ends else None

    # -- installation --------------------------------------------------------
    def install(
        self,
        env: Environment,
        network: Network,
        adapters: Iterable["InfraAdapter"] = (),
        telemetry=None,
    ) -> None:
        """Arm every injector as a simulation process. Idempotent per
        plan instance (a plan installs once)."""
        if self._installed:
            raise RuntimeError("fault plan already installed")
        self._installed = True
        self.telemetry = telemetry if telemetry is not None else network.telemetry
        adapter_by_name = {a.name: a for a in adapters}
        self._adapters = adapter_by_name
        for injector in self.injectors:
            if isinstance(injector, HostCrash):
                env.process(self._run_crash(env, network, injector))
            elif isinstance(injector, SitePartition):
                env.process(self._run_partition(env, network, injector))
            elif isinstance(injector, InfraOutage):
                env.process(self._run_outage(env, adapter_by_name, injector))
            elif isinstance(injector, MessageChaos):
                env.process(self._run_chaos(env, network, injector))
            else:  # pragma: no cover - construction guards against this
                raise TypeError(f"unknown injector {injector!r}")

    def _note(self, now: float, event: str) -> None:
        self.log.append((now, event))

    def _fire(self, now: float, kind: str, detail: str):
        """Mirror one injector firing onto the metrics registry and, when
        tracing, emit a root fault span. Returns the span's context so the
        caller can park it where victims will find it (host.down_ctx,
        network.partition_ctx, ...)."""
        telemetry = self.telemetry
        if telemetry is None:
            return None
        telemetry.metrics.counter(f"fault.{kind}").inc()
        tracer = telemetry.tracer
        if not tracer.enabled:
            return None
        span = tracer.instant(f"fault {kind} {detail}", now,
                              component="faults", outcome="fault")
        return span.ctx

    def _run_crash(self, env: Environment, network: Network,
                   inj: HostCrash) -> Generator:
        yield env.timeout(inj.at)
        try:
            host = network.host(inj.host)
        except KeyError:
            self.stats.skipped += 1
            self._fire(env.now, "skipped", inj.host)
            self._note(env.now, f"skip crash {inj.host} (unknown host)")
            return
        host.go_down(inj.reason)
        host.down_ctx = self._fire(env.now, "crashes", inj.host)
        self.stats.crashes += 1
        self._note(env.now, f"crash {inj.host}")
        if inj.reboot_after is not None:
            yield env.timeout(inj.reboot_after)
            host.go_up()
            self._fire(env.now, "reboots", inj.host)
            self.stats.reboots += 1
            self._note(env.now, f"reboot {inj.host}")
            # The machine is back but its guest processes are not; if an
            # adapter owns the host, have it relaunch a client (the
            # adapter's own failure cycle only handles its own downs).
            adapter = self._adapters.get(host.infra)
            if adapter is not None:
                adapter.respawn_later(host, 0.0)

    def _run_partition(self, env: Environment, network: Network,
                       inj: SitePartition) -> Generator:
        yield env.timeout(inj.at)
        network.set_partitions([list(g) for g in inj.groups])
        network.partition_ctx = self._fire(
            env.now, "partitions", "|".join(",".join(g) for g in inj.groups))
        self.stats.partitions += 1
        self._note(env.now, f"partition {inj.groups!r}")
        if inj.heal_after is not None:
            yield env.timeout(inj.heal_after)
            network.set_partitions([])
            network.partition_ctx = None
            self._fire(env.now, "heals", "partition")
            self.stats.heals += 1
            self._note(env.now, "heal partition")

    def _run_outage(self, env: Environment, adapters: dict,
                    inj: InfraOutage) -> Generator:
        yield env.timeout(inj.at)
        adapter = adapters.get(inj.infra)
        if adapter is None:
            self.stats.skipped += 1
            self._note(env.now, f"skip outage {inj.infra} (unknown adapter)")
            return
        downed = adapter.go_dark(reason=f"fault:outage:{inj.infra}")
        ctx = self._fire(env.now, "outages", inj.infra)
        if ctx is not None:
            for host in adapter.hosts:
                if not host.up:
                    host.down_ctx = ctx
        self.stats.outages += 1
        self._note(env.now, f"outage {inj.infra} ({downed} hosts)")
        if inj.restore_after is not None:
            yield env.timeout(inj.restore_after)
            restored = adapter.relight()
            self._fire(env.now, "restores", inj.infra)
            self.stats.restores += 1
            self._note(env.now, f"restore {inj.infra} ({restored} hosts)")

    def _run_chaos(self, env: Environment, network: Network,
                   inj: MessageChaos) -> Generator:
        yield env.timeout(inj.at)
        network.chaos = inj
        self.stats.chaos_windows += 1
        span = None
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.metrics.counter("fault.chaos_windows").inc()
            tracer = telemetry.tracer
            if tracer.enabled:
                # The chaos window is a *duration* span: every drop during
                # it points back here via network.chaos_ctx.
                span = tracer.begin("fault chaos_window", component="faults",
                                    start=env.now)
                network.chaos_ctx = span.ctx
        self._note(env.now, f"chaos on (drop={inj.drop} dup={inj.duplicate} "
                            f"delay={inj.delay})")
        yield env.timeout(inj.duration)
        if network.chaos is inj:
            network.chaos = None
        if span is not None:
            telemetry.tracer.finish(span, env.now, "fault")
            if network.chaos_ctx == span.ctx:
                network.chaos_ctx = None
        self._note(env.now, "chaos off")
