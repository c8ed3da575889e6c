"""Simulated wide-area network.

Routes datagram-style deliveries between named endpoints
(``"host/port"``). Delivery latency is ``site-pair latency x congestion +
size/bandwidth``; deliveries are silently dropped when either endpoint's
host is down, the destination is not listening, or a partition separates
the two sites. Senders recover through time-outs, exactly as the paper's
lingua franca does over TCP (§2.1): EveryWare deliberately avoids relying
on connection-failure signals.

The global congestion factor is how scenarios express SCInet-style
network-wide disturbance (§2.2: "network performance on the exhibit floor
varied dramatically").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Iterable, Optional

from .engine import Environment
from .host import Host
from .load import EventSchedule, LoadModel
from .rand import PrefixedStreams, RngStreams
from .resources import Store

__all__ = ["Address", "AddressError", "Network", "NetworkStats", "Delivery"]


class AddressError(ValueError):
    """Canonical error for malformed endpoint addresses.

    Subclasses :class:`ValueError` so pre-existing ``except ValueError``
    callers keep working.
    """


@dataclass(frozen=True, order=True)
class Address:
    """Endpoint address: a host name and a named port."""

    host: str
    port: str

    def __str__(self) -> str:
        return f"{self.host}/{self.port}"

    @classmethod
    def parse(cls, text: str) -> "Address":
        host, sep, port = text.partition("/")
        if not sep or not host or not port or "/" in port:
            raise AddressError(f"bad address {text!r} (want 'host/port')")
        return cls(host, port)


@dataclass
class NetworkStats:
    sent: int = 0
    delivered: int = 0
    dropped_down: int = 0
    dropped_partition: int = 0
    dropped_unbound: int = 0
    dropped_loss: int = 0
    bytes_delivered: int = 0
    # Fault-injection accounting (see repro.simgrid.faults.MessageChaos).
    dropped_fault: int = 0
    duplicated_fault: int = 0
    delayed_fault: int = 0


@dataclass(slots=True)
class Delivery:
    """What a listener's sink is handed (a mailbox queues it)."""

    src: Address
    dst: Address
    payload: bytes
    sent_at: float
    delivered_at: float
    #: Sender's trace context, carried out-of-band so delivery-time drops
    #: can be attributed to their cause without decoding the payload.
    trace: Optional[tuple[int, int]] = None
    #: The typed record ``payload`` was encoded from, when the sender had
    #: one: opaque here, it spares the receiver a parse. ``None`` for raw
    #: bytes. Lengths and delays are always taken from ``payload``.
    record: object = None


class Network:
    """Message fabric connecting simulated hosts."""

    def __init__(
        self,
        env: Environment,
        streams: RngStreams | PrefixedStreams,
        base_latency: float = 0.05,
        intra_site_latency: float = 0.002,
        bandwidth: float = 1.0e6,  # bytes/second end-to-end
        jitter: float = 0.2,
        congestion_model: Optional[LoadModel] = None,
        congestion_period: float = 30.0,
        loss_rate: float = 0.0,
    ) -> None:
        self.env = env
        self.base_latency = base_latency
        self.intra_site_latency = intra_site_latency
        self.bandwidth = bandwidth
        self.jitter = jitter
        #: Probability an individual datagram is silently lost in transit
        #: (flaky exhibit-floor networking; senders recover via time-outs).
        self.loss_rate = loss_rate
        self._rng = streams.get("network")
        self._hosts: dict[str, Host] = {}
        self._sinks: dict[Address, Callable[[Delivery], object]] = {}
        # Bound once: it is the callback of every in-flight message.
        self._arrival = self._on_arrival
        self._site_latency: dict[tuple[str, str], float] = {}
        self._partition_groups: list[frozenset[str]] = []
        #: Active message-chaos injector (duck-typed: anything with a
        #: ``fates(rng) -> Optional[list[float]]`` method; installed and
        #: removed by :class:`repro.simgrid.faults.FaultPlan`). ``None``
        #: keeps the send path on its zero-overhead fast path.
        self.chaos = None
        self.stats = NetworkStats()
        #: Optional world telemetry (see :meth:`attach_telemetry`); the
        #: fault plan also parks its active injector span contexts here so
        #: drops can name the fault that caused them.
        self.telemetry = None
        self.chaos_ctx: Optional[tuple[int, int]] = None
        self.partition_ctx: Optional[tuple[int, int]] = None
        self._drop_counters: dict = {}
        self._c_delivered = None
        # Congestion >= 1 multiplies latency and divides bandwidth.
        self._congestion = 1.0
        self._congestion_model = congestion_model or EventSchedule()
        self._congestion_period = congestion_period
        self._started = False

    # -- topology ---------------------------------------------------------
    def add_host(self, host: Host) -> None:
        if host.name in self._hosts:
            raise ValueError(f"duplicate host {host.name!r}")
        self._hosts[host.name] = host

    def host(self, name: str) -> Host:
        return self._hosts[name]

    def hosts(self) -> Iterable[Host]:
        return self._hosts.values()

    def set_site_latency(self, a: str, b: str, latency: float) -> None:
        """Override the one-way latency between two sites (symmetric)."""
        self._site_latency[(a, b)] = latency
        self._site_latency[(b, a)] = latency

    def start(self) -> None:
        """Begin the congestion process. Idempotent."""
        if self._started:
            return
        self._started = True
        self.env.process(self._congestion_loop())

    def _congestion_loop(self) -> Generator:
        while True:
            avail = self._congestion_model.advance(
                self.env.now, self._congestion_period, self._rng
            )
            # availability 1.0 -> congestion 1.0; availability 0.1 -> 10x.
            self._congestion = 1.0 / max(avail, 0.05)
            yield self.env.timeout(self._congestion_period)

    @property
    def congestion(self) -> float:
        return self._congestion

    # -- observability -----------------------------------------------------
    def attach_telemetry(self, telemetry) -> None:
        """Wire the fabric into a world's metrics registry + tracer."""
        self.telemetry = telemetry
        self._drop_counters = {}
        self._c_delivered = telemetry.metrics.counter("net.delivered")

    def _note_drop(
        self,
        reason: str,
        trace: Optional[tuple[int, int]],
        cause: Optional[tuple[int, int]] = None,
    ) -> None:
        """Mirror a drop onto the metrics registry and, for traced
        messages, emit a drop span naming the causing fault (if any)."""
        telemetry = self.telemetry
        if telemetry is None:
            return
        counter = self._drop_counters.get(reason)
        if counter is None:
            counter = self._drop_counters[reason] = (
                telemetry.metrics.counter(f"net.{reason}"))
        counter.inc()
        tracer = telemetry.tracer
        if tracer.enabled and trace is not None:
            args = None
            if cause is not None:
                args = {"fault_trace": cause[0], "fault_span": cause[1]}
            tracer.instant(
                f"drop {reason}",
                self.env.now,
                component="network",
                parent=trace,
                outcome="dropped-by-fault" if cause is not None else "dropped",
                args=args,
            )

    # -- partitions ----------------------------------------------------------
    def set_partitions(self, groups: Iterable[Iterable[str]]) -> None:
        """Partition sites into isolated groups. Sites not listed form an
        implicit extra group. Pass ``[]`` to heal all partitions."""
        self._partition_groups = [frozenset(g) for g in groups]

    def _same_partition(self, site_a: str, site_b: str) -> bool:
        if not self._partition_groups:
            return True
        ga = gb = None
        for group in self._partition_groups:
            if site_a in group:
                ga = group
            if site_b in group:
                gb = group
        return ga is gb

    # -- endpoints ---------------------------------------------------------
    def bind(self, address: Address,
             sink: Optional[Callable[[Delivery], object]] = None
             ) -> Optional[Store]:
        """Start listening at ``address``. Each arriving :class:`Delivery`
        is handed to ``sink`` from the arrival event itself; without one
        the sink is a fresh :class:`Store` mailbox's ``put``, and that
        mailbox is returned for process-style ``get`` callers."""
        if address.host not in self._hosts:
            raise ValueError(f"unknown host {address.host!r}")
        if address in self._sinks:
            raise ValueError(f"address {address} already bound")
        box = None
        if sink is None:
            box = Store(self.env)
            sink = box.put
        self._sinks[address] = sink
        return box

    def unbind(self, address: Address) -> None:
        self._sinks.pop(address, None)

    def is_bound(self, address: Address) -> bool:
        return address in self._sinks

    # -- transmission ---------------------------------------------------------
    def delay(self, src_host: str, dst_host: str, nbytes: int) -> float:
        """Transmission delay for ``nbytes`` between two hosts, now."""
        a = self._hosts[src_host].site
        b = self._hosts[dst_host].site
        if a == b:
            latency = self._site_latency.get((a, b), self.intra_site_latency)
        else:
            latency = self._site_latency.get((a, b), self.base_latency)
        latency *= self._congestion
        if self.jitter > 0:
            latency *= 1.0 + self.jitter * float(self._rng.random())
        xfer = nbytes / (self.bandwidth / self._congestion)
        return latency + xfer

    def send(self, src: Address, dst: Address, payload: bytes,
             trace: Optional[tuple[int, int]] = None,
             record: object = None) -> None:
        """Fire-and-forget datagram send; loss is silent by design."""
        self.stats.sent += 1
        src_host = self._hosts.get(src.host)
        dst_host = self._hosts.get(dst.host)
        if src_host is None or not src_host.up:
            self.stats.dropped_down += 1
            self._note_drop("dropped_down", trace,
                            src_host.down_ctx if src_host is not None else None)
            return
        if dst_host is None:
            self.stats.dropped_unbound += 1
            self._note_drop("dropped_unbound", trace)
            return
        if not self._same_partition(src_host.site, dst_host.site):
            self.stats.dropped_partition += 1
            self._note_drop("dropped_partition", trace, self.partition_ctx)
            return
        if self.loss_rate > 0.0 and float(self._rng.random()) < self.loss_rate:
            self.stats.dropped_loss += 1
            self._note_drop("dropped_loss", trace)
            return
        delay = self.delay(src.host, dst.host, len(payload))
        if self.chaos is not None:
            self._send_chaotic(src, dst, payload, delay, trace, record)
            return
        now = self.env.now
        # Plain timeout + callback: cheaper than a process per message.
        # The delivery rides as the timeout's value.
        self.env.timeout(
            delay, Delivery(src, dst, payload, now, now + delay, trace, record)
        ).callbacks.append(self._arrival)

    def _send_chaotic(self, src: Address, dst: Address, payload: bytes,
                      delay: float, trace: Optional[tuple[int, int]],
                      record: object) -> None:
        """Slow path behind an active fault injector: the chaos hook maps
        one logical send to zero (drop), one, or several (duplicate)
        physical deliveries, each with an optional extra delay — extra
        delays on a subset of traffic are what reorder messages."""
        fates = self.chaos.fates(self._rng)
        if not fates:
            self.stats.dropped_fault += 1
            self._note_drop("dropped_fault", trace, self.chaos_ctx)
            return
        if len(fates) > 1:
            self.stats.duplicated_fault += len(fates) - 1
            if self.telemetry is not None:
                self.telemetry.metrics.counter(
                    "net.duplicated_fault").inc(len(fates) - 1)
        for extra in fates:
            if extra > 0.0:
                self.stats.delayed_fault += 1
            now = self.env.now
            self.env.timeout(
                delay + extra,
                Delivery(src, dst, payload, now, now + delay + extra, trace,
                         record),
            ).callbacks.append(self._arrival)

    def _on_arrival(self, timer) -> None:
        delivery: Delivery = timer._value
        dst_host = self._hosts.get(delivery.dst.host)
        if dst_host is None or not dst_host.up:
            self.stats.dropped_down += 1
            self._note_drop("dropped_down", delivery.trace,
                            dst_host.down_ctx if dst_host is not None else None)
            return
        sink = self._sinks.get(delivery.dst)
        if sink is None:
            self.stats.dropped_unbound += 1
            self._note_drop("dropped_unbound", delivery.trace)
            return
        self.stats.delivered += 1
        self.stats.bytes_delivered += len(delivery.payload)
        if self._c_delivered is not None:
            self._c_delivered.inc()
        sink(delivery)
