"""NWS-style network sensors (the "NWS" box in Figure 1).

The Network Weather Service the paper leans on [39, 38] runs sensor
processes that periodically measure network performance between Grid
sites and serve short-term forecasts of it. :class:`NWSSensor` is that
process as an EveryWare component: it probes its peers on a period,
feeds round-trip measurements into the forecaster bank, answers
``NWS_QUERY`` with the current forecast, and — true to the NWS clique
heritage — keeps measuring whatever subset of peers remains reachable.

Application components (e.g. schedulers choosing where to migrate work)
can either embed their own :class:`~.benchmarking.ForecastRegistry`
(EveryWare's *dynamic benchmarking*, used by the Gossip/scheduler code)
or query a sensor mesh like this one for resource-level forecasts.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..component import Component, Effect, Send, SetTimer
from ..linguafranca.messages import Message
from .benchmarking import ForecastRegistry, event_tag
from .selector import Forecast

__all__ = ["NWSSensor", "NWS_PING", "NWS_PONG", "NWS_QUERY", "NWS_FORECAST"]

NWS_PING = "NWS_PING"
NWS_PONG = "NWS_PONG"
NWS_QUERY = "NWS_QUERY"
NWS_FORECAST = "NWS_FORECAST"

T_PROBE = "nws:probe"


class NWSSensor(Component):
    """One sensor in a mesh measuring peer-to-peer response times."""

    def __init__(self, name: str, peers: list[str], probe_period: float = 30.0) -> None:
        super().__init__(name)
        self.peers = list(peers)
        self.probe_period = probe_period
        self.registry = ForecastRegistry()
        self._seq = itertools.count(1)
        #: peer -> (seq, sent_at) of its outstanding probe.
        self.outstanding: dict[str, tuple[int, float]] = {}
        self.probes_sent = 0
        self.pongs_received = 0
        self.queries_served = 0

    # -- measurement ------------------------------------------------------------
    def on_start(self, now: float) -> list[Effect]:
        return [SetTimer(T_PROBE, self.probe_period)]

    def on_timer(self, key: str, now: float) -> list[Effect]:
        if key != T_PROBE:
            return []
        effects: list[Effect] = [SetTimer(T_PROBE, self.probe_period)]
        for peer in self.peers:
            if peer == self.contact:
                continue
            seq = next(self._seq)
            # One outstanding probe per peer: a lost probe is replaced,
            # never recorded (losses surface as missing samples, as in NWS),
            # and its late PONG no longer matches.
            self.outstanding[peer] = (seq, now)
            self.probes_sent += 1
            effects.append(Send(peer, Message(
                mtype=NWS_PING, sender=self.contact, body={"seq": seq})))
        return effects

    def on_message(self, message: Message, now: float) -> list[Effect]:
        if message.mtype == NWS_PING:
            return [Send(message.sender, Message(
                mtype=NWS_PONG, sender=self.contact,
                body={"seq": message.body.get("seq")}))]
        if message.mtype == NWS_PONG:
            seq = message.body.get("seq")
            probe = self.outstanding.get(message.sender)
            if type(seq) is int and probe is not None and probe[0] == seq:
                del self.outstanding[message.sender]
                self.registry.record(event_tag(message.sender, "RTT"),
                                     now - probe[1])
                self.pongs_received += 1
            return []
        if message.mtype == NWS_QUERY:
            return self._serve_query(message, now)
        return []

    # -- forecast service ------------------------------------------------------
    def forecast_for(self, peer: str) -> Optional[Forecast]:
        """Local accessor: current RTT forecast toward ``peer``."""
        return self.registry.forecast(event_tag(peer, "RTT"))

    def _serve_query(self, message: Message, now: float) -> list[Effect]:
        self.queries_served += 1
        peer = message.body.get("peer")
        fc = self.forecast_for(peer) if isinstance(peer, str) else None
        body: dict = {"peer": peer}
        if fc is None:
            body["value"] = None
        else:
            body.update(value=fc.value, method=fc.method,
                        mae=fc.mae, samples=fc.samples)
        return [Send(message.sender, message.reply(
            NWS_FORECAST, sender=self.contact, body=body))]
