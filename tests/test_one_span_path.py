"""A live node's spans and logs have one path: its incarnation's flight
spool (DESIGN §14). ``COL_REPORT`` is only the heartbeat, the collector
keeps no cross-path dedup state, and neither the spool nor the topology
has a setting that caps or switches the path off."""

import dataclasses
import inspect
from types import SimpleNamespace

from repro.core.component import Component
from repro.core.telemetry import Telemetry
from repro.live.collector import COL_HELLO, COL_REPORT, NodeRecord
from repro.live.node import _Shipper
from repro.live.topology import Topology
from repro.obs.flight import FlightRecorder


class _Driver:
    """What the shipper reads off a NetDriver, with ``post`` captured."""

    contact = "127.0.0.1:2"
    send_errors = handler_errors = reconnects = 0
    stop_reason = "signal:SIGTERM"

    def __init__(self):
        self.telemetry = Telemetry(trace=True)
        self.component = Component("n1")
        self.posted = []

    def now(self):
        return 1.0

    def post(self, contact, message, timeout=None):
        self.posted.append(message)


def test_col_report_is_only_the_heartbeat():
    driver = _Driver()
    tracer = driver.telemetry.tracer
    tracer.finish(tracer.begin("work", component="n1", start=0.0), 0.5)
    shipper = _Shipper(driver, SimpleNamespace(collector="127.0.0.1:9"),
                       "n1", 0)
    shipper.hello()
    shipper.ship()
    shipper.ship(final=True)
    hello, *reports = driver.posted
    assert hello.mtype == COL_HELLO
    assert sorted(hello.body) == ["incarnation", "node", "pid"]
    assert [m.mtype for m in reports] == [COL_REPORT, COL_REPORT]
    for message in reports:
        assert "spans" not in message.body and "logs" not in message.body
    assert reports[-1].body["final"] is True
    assert reports[-1].body["stop_reason"] == "signal:SIGTERM"


def test_the_collector_keeps_no_cross_path_dedup_state():
    names = {f.name for f in dataclasses.fields(NodeRecord)}
    assert not names & {"span_ids", "log_keys", "epochs"}


def test_the_spool_has_no_capacity():
    assert "capacity" not in inspect.signature(FlightRecorder).parameters


def test_the_topology_cannot_switch_the_path_off():
    names = {f.name for f in dataclasses.fields(Topology)}
    assert not names & {"trace", "flight_capacity"}
    assert not {"trace", "flight_capacity"} & set(Topology().to_dict()["params"])
