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
from heapq import heappush
from typing import Callable, Iterable, NamedTuple, Optional

from .engine import Environment
from .host import Host
from .load import EventSchedule, LoadModel
from .rand import PrefixedStreams, RngStreams
from .resources import Store

__all__ = ["Address", "AddressError", "Network", "NetworkStats", "Delivery"]

#: Contacts :meth:`Network.route` keeps parsed before starting over.
_ROUTES_MAX = 4096


class AddressError(ValueError):
    """Canonical error for malformed endpoint addresses.

    Subclasses :class:`ValueError` so pre-existing ``except ValueError``
    callers keep working.
    """


class Address(NamedTuple):
    """Endpoint address: a host name and a named port (hashed in C)."""

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
    #: Bytes on the wire: what the delay and ``bytes_delivered`` count.
    size: int
    sent_at: float
    delivered_at: float
    #: Sender's trace context, carried out-of-band so delivery-time drops
    #: can be attributed to their cause without decoding the payload.
    trace: Optional[tuple[int, int]] = None
    #: The typed record a sender sent, opaque here: the receiver uses it
    #: as is. ``None`` for raw bytes.
    record: object = None
    #: The bytes of a raw send, parsed on arrival; ``None`` for a record.
    payload: Optional[bytes] = None


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
        self._routes: dict[str, Address] = {}
        # Every in-flight message is its own queue entry, handed here.
        env.on_arrival(Delivery, self._on_arrival)
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
        """Begin the congestion updates: one engine entry per period, the
        first urgent at this instant. Idempotent."""
        if self._started:
            return
        self._started = True
        self.env.call(self._congestion_step, urgent=True)

    def _congestion_step(self, _tag: int) -> None:
        avail = self._congestion_model.advance(
            self.env.now, self._congestion_period, self._rng
        )
        # availability 1.0 -> congestion 1.0; availability 0.1 -> 10x.
        self._congestion = 1.0 / max(avail, 0.05)
        self.env.call(self._congestion_step, self._congestion_period)

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
        is handed to ``sink`` from its own queue entry; without one
        the sink is a fresh :class:`Store` mailbox's ``put``, and that
        mailbox is returned for process-style ``get`` callers (the
        benchmark ladder's only)."""
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

    def route(self, contact: str) -> Address:
        """The one :class:`Address` for ``contact`` in this world, parsed
        on first use: a world sends to a few hundred contacts over and
        over. The table is cleared when full, so contacts a hostile peer
        makes up cannot grow it; a malformed contact raises
        :class:`AddressError` and is never cached."""
        route = self._routes.get(contact)
        if route is None:
            route = Address.parse(contact)
            if len(self._routes) >= _ROUTES_MAX:
                self._routes.clear()
            self._routes[contact] = route
        return route

    # -- transmission ---------------------------------------------------------
    def delay(self, src_host: str, dst_host: str, nbytes: int) -> float:
        """Transmission delay for ``nbytes`` between two hosts, now."""
        return self._delay(self._hosts[src_host], self._hosts[dst_host],
                           nbytes)

    def _delay(self, src_host: Host, dst_host: Host, nbytes: int) -> float:
        a = src_host.site
        b = dst_host.site
        if a == b:
            latency = self._site_latency.get((a, b), self.intra_site_latency)
        else:
            latency = self._site_latency.get((a, b), self.base_latency)
        latency *= self._congestion
        if self.jitter > 0:
            latency *= 1.0 + self.jitter * float(self._rng.random())
        xfer = nbytes / (self.bandwidth / self._congestion)
        return latency + xfer

    def send(self, src: Address, dst: Address,
             payload: Optional[bytes] = None,
             trace: Optional[tuple[int, int]] = None,
             record: object = None, size: int = 0) -> None:
        """Fire-and-forget datagram send; loss is silent by design.

        Raw ``payload`` bytes travel, are sized by their length and are
        parsed on arrival (fuzzers, hostile peers). A typed sender passes
        its ``record`` and the ``size`` of the frame it stands for
        instead: no bytes are built for it."""
        if record is None:
            size = len(payload)
        stats = self.stats
        stats.sent += 1
        hosts = self._hosts
        src_host = hosts.get(src.host)
        dst_host = hosts.get(dst.host)
        if src_host is None or not src_host.up:
            stats.dropped_down += 1
            self._note_drop("dropped_down", trace,
                            src_host.down_ctx if src_host is not None else None)
            return
        if dst_host is None:
            stats.dropped_unbound += 1
            self._note_drop("dropped_unbound", trace)
            return
        if self._partition_groups and not self._same_partition(
                src_host.site, dst_host.site):
            stats.dropped_partition += 1
            self._note_drop("dropped_partition", trace, self.partition_ctx)
            return
        if self.loss_rate > 0.0 and float(self._rng.random()) < self.loss_rate:
            stats.dropped_loss += 1
            self._note_drop("dropped_loss", trace)
            return
        delay = self._delay(src_host, dst_host, size)
        if self.chaos is not None:
            self._send_chaotic(src, dst, size, delay, trace, record, payload)
            return
        # The delivery is its own queue entry, under the sequence number
        # a Timeout carrying it would take (see Environment.on_arrival).
        env = self.env
        now = env._now
        at = now + delay
        seq = env._seq = env._seq + 1
        heappush(env._queue, (at, seq, Delivery(src, dst, size, now, at,
                                                 trace, record, payload)))

    def _send_chaotic(self, src: Address, dst: Address, size: int,
                      delay: float, trace: Optional[tuple[int, int]],
                      record: object, payload: Optional[bytes]) -> None:
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
        env = self.env
        for extra in fates:
            if extra > 0.0:
                self.stats.delayed_fault += 1
            now = env._now
            # As when a Timeout of delay + extra carried it: the queue
            # time groups (delay + extra), the stamp adds left to right.
            seq = env._seq = env._seq + 1
            heappush(env._queue, (
                now + (delay + extra), seq,
                Delivery(src, dst, size, now, now + delay + extra, trace,
                         record, payload)))

    def _on_arrival(self, delivery: Delivery) -> None:
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
        stats = self.stats
        stats.delivered += 1
        stats.bytes_delivered += delivery.size
        if self._c_delivered is not None:
            self._c_delivered.value += 1
        sink(delivery)
