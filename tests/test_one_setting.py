"""Every setting has a caller (DESIGN §11, §15).

A constructor setting that no program sets always holds one value, so it
is a constant; a helper that only its own test called is gone. Each check
below names one removed setting or helper and shows it stays gone.
"""

import dataclasses
import inspect

import pytest

from repro.control.gateway import GatewayCore
from repro.control.http import HttpServer
from repro.control.workqueue import WorkQueue
from repro.core.gossip.server import GossipServer
from repro.core.linguafranca import messages
from repro.core.linguafranca.tcp import TcpServer
from repro.core.telemetry import Telemetry, Tracer
from repro.experiments.metrics import SeriesBundle
from repro.explore.queue import ExploreQueue
from repro.infra.base import InfraAdapter
from repro.infra.legion import LegionNet
from repro.live import topology
from repro.live.collector import Collector
from repro.live.node import _Shipper, build_component
from repro.live.supervisor import Supervisor
from repro.obs.events import EventLog
from repro.simgrid.faults import FaultPlan
from repro.simgrid.host import Host
from repro.simgrid.load import TraceLoad
from repro.simgrid.resources import Store


def _params(fn) -> set:
    return set(inspect.signature(fn).parameters)


def test_a_topology_carries_only_what_its_callers_set():
    names = {f.name for f in dataclasses.fields(topology.Topology)}
    assert names == {"nodes", "k", "n", "speed", "seed"}
    assert set(topology.Topology().to_dict()["params"]) == {
        "k", "n", "speed", "seed"}
    assert (topology.WORK_PERIOD, topology.REPORT_PERIOD,
            topology.HELLO_RETRY, topology.SHIP_PERIOD) == (0.25, 0.5, 2.0, 0.5)
    assert "ship_period" not in _params(_Shipper)


def test_a_scheduler_node_has_no_dead_factor_option():
    topo = topology.sc98_topology(clients=1)
    topo.named("sched0").options["dead_factor"] = 9.0
    manifest = topology.build_manifest(topo, collector="127.0.0.1:9")
    sched = build_component(manifest, "sched0")
    assert sched.dead_factor == 4.0
    assert sched.report_period == topology.REPORT_PERIOD


@pytest.mark.parametrize("fn, gone", [
    (Collector, {"port"}),
    (Supervisor, {"python"}),
    (Supervisor.check_health, {"restart_silent", "forecast_kw"}),
    (GossipServer, {"rumor_rounds", "suspicion_factor", "tombstone_ttl"}),
    (TcpServer, {"backlog"}),
    (HttpServer, {"backlog"}),
    (FaultPlan, {"injectors"}),
    (GatewayCore, {"events"}),
    (ExploreQueue, {"probe_limit"}),
    (HttpServer, {"loop"}),
    (HttpServer, {"max_body"}),
    (TcpServer, {"decoder_factory"}),
])
def test_removed_settings_stay_removed(fn, gone):
    assert not _params(fn) & gone


@pytest.mark.parametrize("owner, name", [
    (messages, "TypeRegistry"),
    (Tracer, "with_outcome"),
    (Tracer, "to_dicts"),
    (Tracer, "children"),
    (Store, "try_get"),
    (Host, "uptime_fraction"),
    (TraceLoad, "from_csv"),
    (InfraAdapter, "up_host_count"),
    (InfraAdapter, "potential_speed"),
    (LegionNet, "translator_contact"),
    (SeriesBundle, "infra_names"),
])
def test_helpers_only_their_tests_called_stay_gone(owner, name):
    assert not hasattr(owner, name)


def test_the_queue_owns_its_feed_and_telemetry_from_construction():
    work = WorkQueue()
    assert isinstance(work.events, EventLog)
    assert isinstance(work.telemetry, Telemetry)
    core = GatewayCore("gw", work)
    assert core.events is work.events and core.telemetry is work.telemetry
    mine = Telemetry()
    core = GatewayCore("gw", WorkQueue(), telemetry=mine)
    assert core.work.telemetry is mine
