"""Tests for the infrastructure adapters' §5 semantics."""

import numpy as np
import pytest

from repro.core.services.scheduler import QueueWorkSource, SchedulerServer
from repro.core.services.logging import LoggingServer
from repro.core.simdriver import SimDriver
from repro.infra.condor import CondorPool
from repro.infra.globus import GlobusSites
from repro.infra.java import JavaApplets
from repro.infra.legion import LegionNet
from repro.infra.netsolve import NetSolveFarm
from repro.infra.nt import NTSupercluster
from repro.infra.speeds import JAVA_INTERP_IOPS, JAVA_JIT_IOPS
from repro.infra.unixpool import UnixPool
from repro.ramsey.client import ModelEngine, RamseyClient
from repro.ramsey.tasks import unit_generator
from repro.simgrid.engine import Environment
from repro.simgrid.host import Host, HostSpec
from repro.simgrid.load import ConstantLoad
from repro.simgrid.network import Network
from repro.simgrid.rand import RngStreams


class Rig:
    """Scheduler + logger plus a client factory for adapter tests."""

    def __init__(self, seed=13):
        self.env = Environment()
        self.streams = RngStreams(seed=seed)
        self.net = Network(self.env, self.streams, jitter=0.0)
        sh = Host(self.env, HostSpec(name="svc", speed=1e7,
                                     load_model=ConstantLoad(1.0)), self.streams)
        self.net.add_host(sh)
        self.work = QueueWorkSource(generator=unit_generator(43, 5, ops_budget=1e12))
        self.sched = SchedulerServer("sched", self.work, report_period=30)
        SimDriver(self.env, self.net, sh, "sched", self.sched, self.streams).start()
        self.logsrv = LoggingServer("log")
        SimDriver(self.env, self.net, sh, "log", self.logsrv, self.streams).start()
        self.clients = []

    def factory(self, host, infra, idx):
        client = RamseyClient(
            f"{infra}-{idx}",
            schedulers=["svc/sched"],
            engine=ModelEngine(),
            infra=infra,
            loggers=["svc/log"],
            work_period=20,
            report_period=30,
            hello_retry=20,
            seed=idx,
        )
        self.clients.append(client)
        return client


def test_unix_pool_deploys_and_delivers():
    rig = Rig()
    pool = UnixPool(rig.env, rig.net, rig.streams, rig.factory,
                    n_workstations=3, n_mpp_nodes=2, with_tera_mta=True,
                    mtbf=1e9)  # no failures in this test
    pool.deploy()
    rig.env.run(until=300)
    assert len(pool.hosts) == 6
    assert pool.active_host_count() == 6
    perf = rig.logsrv.by_kind("perf")
    assert perf and all(r.data["infra"] == "unix" for r in perf)
    # The Tera MTA stand-in is the fastest host in the pool.
    tera = next(h for h in pool.hosts if "tera" in h.name)
    assert tera.spec.speed == max(h.spec.speed for h in pool.hosts)


def test_unix_failure_and_recovery_relaunches_client():
    rig = Rig()
    pool = UnixPool(rig.env, rig.net, rig.streams, rig.factory,
                    n_workstations=1, n_mpp_nodes=0, with_tera_mta=False,
                    mtbf=600.0, mttr=120.0, restart_delay=30.0)
    pool.deploy()
    rig.env.run(until=6 * 3600)
    host = pool.hosts[0]
    assert pool.clients_lost >= 1  # at least one failure happened
    assert pool.clients_started >= 2  # and the client was relaunched


def test_condor_reclamation_kills_and_idle_restarts():
    rig = Rig()
    pool = CondorPool(rig.env, rig.net, rig.streams, rig.factory,
                      n_hosts=5, idle_mean=600, busy_mean=300, start_delay=10)
    pool.deploy()
    rig.env.run(until=2 * 3600)
    assert pool.reclamations >= 3
    assert pool.clients_lost >= 3
    assert pool.clients_started >= pool.clients_lost
    # The pool keeps delivering overall.
    assert rig.logsrv.by_kind("perf")


def test_condor_host_count_fluctuates():
    rig = Rig()
    pool = CondorPool(rig.env, rig.net, rig.streams, rig.factory,
                      n_hosts=10, idle_mean=600, busy_mean=600, start_delay=5)
    pool.deploy()
    counts = []

    def sampler(env):
        while True:
            counts.append(pool.active_host_count())
            yield env.timeout(120)

    rig.env.process(sampler(rig.env))
    rig.env.run(until=2 * 3600)
    assert min(counts) < max(counts)  # churn is visible
    assert max(counts) <= 10


def test_nt_lsf_kills_long_sleepers():
    rig = Rig()
    nt = NTSupercluster(rig.env, rig.net, rig.streams, rig.factory,
                        clusters={"ncsa": 8},
                        startup_sleep_max=120.0, lsf_kill_threshold=30.0,
                        mtbf=1e9)
    nt.deploy()
    rig.env.run(until=1200)
    # With sleeps uniform on [0,120] and a 30s threshold, most first
    # attempts are killed; all workers eventually start anyway.
    assert nt.lsf_kills >= 4
    assert nt.active_host_count() == 8


def test_nt_short_sleep_avoids_lsf_kills():
    rig = Rig()
    nt = NTSupercluster(rig.env, rig.net, rig.streams, rig.factory,
                        clusters={"ncsa": 8},
                        startup_sleep_max=20.0, lsf_kill_threshold=30.0,
                        mtbf=1e9)
    nt.deploy()
    rig.env.run(until=600)
    assert nt.lsf_kills == 0
    assert nt.active_host_count() == 8


def test_nt_dns_delays_all_starts():
    rig = Rig()
    nt = NTSupercluster(rig.env, rig.net, rig.streams, rig.factory,
                        clusters={"ncsa": 4}, startup_sleep_max=10.0,
                        lsf_kill_threshold=30.0, dns_fix_time=900.0, mtbf=1e9)
    nt.deploy()
    rig.env.run(until=600)
    assert nt.active_host_count() == 0  # DNS not fixed yet
    rig.env.run(until=1500)
    assert nt.active_host_count() == 4


def test_globus_gram_gass_mds_accounting():
    rig = Rig()
    gl = GlobusSites(rig.env, rig.net, rig.streams, rig.factory,
                     sites={"isi": 3}, mds_latency=2, gram_latency=5,
                     gass_fetch=10, mtbf=1e9)
    gl.deploy()
    rig.env.run(until=300)
    assert gl.mds_queries == 3
    assert gl.gram_launches == 3
    assert gl.gass_fetches == 3  # first launch per host pulls the binary
    assert gl.active_host_count() == 3
    # No client starts before MDS+GRAM+GASS latency.
    assert all(c._last_directive >= 17 for c in rig.clients)


def test_globus_refetch_not_needed_after_failure():
    rig = Rig()
    gl = GlobusSites(rig.env, rig.net, rig.streams, rig.factory,
                     sites={"isi": 1}, mds_latency=1, gram_latency=2,
                     gass_fetch=50, mtbf=1e9)
    gl.deploy()
    rig.env.run(until=100)
    gl.hosts[0].go_down("failure")
    rig.env.run(until=130)
    gl.hosts[0].go_up()
    gl.relaunch(gl.hosts[0])
    rig.env.run(until=200)
    assert gl.gass_fetches == 1  # binary cached on the host
    assert gl.active_host_count() == 1


def test_legion_translator_routes_and_migrates():
    rig = Rig()
    lg = LegionNet(rig.env, rig.net, rig.streams,
                   lambda host, infra, idx: _legion_client(rig, infra, idx),
                   n_hosts=5, spare_fraction=0.2,
                   translator_routes={"SCH": "svc/sched", "LOG": "svc/log"},
                   mtbf=1e9, migrate_delay=20)
    lg.deploy()
    rig.env.run(until=300)
    assert lg.translator.translated > 0
    assert lg.translator.unroutable == 0
    # Scheduler sees the individual Legion clients (sender rides along).
    legion_clients = [c for c in lg.drivers.values()]
    assert rig.sched.stats.hellos >= 4
    # Kill a host: the stateless object migrates elsewhere.
    victims = [h for h in lg.hosts if h.name in lg.drivers and h is not lg.gateway]
    victims[0].go_down("failure")
    rig.env.run(until=600)
    assert lg.migrations >= 1


def _legion_client(rig, infra, idx):
    client = RamseyClient(
        f"legion-{idx}",
        schedulers=["legion-gateway/xlate"],
        engine=ModelEngine(),
        infra=infra,
        loggers=["legion-gateway/xlate"],
        work_period=20,
        report_period=30,
        seed=idx,
    )
    rig.clients.append(client)
    return client


def test_netsolve_brokered_launch_and_reassign():
    rig = Rig()
    ns = NetSolveFarm(rig.env, rig.net, rig.streams, rig.factory,
                      n_servers=3, agent_latency=5, mtbf=1e9)
    ns.deploy()
    rig.env.run(until=120)
    assert ns.brokered == 3
    assert ns.active_host_count() == 3
    ns.hosts[0].go_down("failure")
    rig.env.run(until=180)
    ns.hosts[0].go_up()
    ns.relaunch(ns.hosts[0])
    rig.env.run(until=300)
    assert ns.active_host_count() == 3


def test_java_browsers_arrive_and_leave_forever():
    rig = Rig()
    ja = JavaApplets(rig.env, rig.net, rig.streams, rig.factory,
                     arrival_rate=1 / 120.0, session_mean=600.0,
                     jit_fraction=0.5, max_arrivals=40)
    ja.deploy()
    rig.env.run(until=2 * 3600)
    assert ja.arrivals >= 20
    # Some browsers are gone for good; no host ever comes back up.
    departed = [h for h in ja.hosts if not h.up]
    assert departed
    assert all(h.name not in ja.drivers for h in departed)
    # Speeds are exactly the paper's two classes.
    speeds = {h.spec.speed for h in ja.hosts}
    assert speeds <= {JAVA_INTERP_IOPS, JAVA_JIT_IOPS}
    assert 0 < ja.jit_count < ja.arrivals


def test_java_jit_interp_ratio_is_papers():
    assert JAVA_JIT_IOPS / JAVA_INTERP_IOPS == pytest.approx(108.5, rel=0.01)


def test_java_time_varying_rate():
    rig = Rig()
    ja = JavaApplets(rig.env, rig.net, rig.streams, rig.factory,
                     rate_fn=lambda t: (1 / 60.0 if t > 1800 else 1e-9),
                     session_mean=600.0, max_arrivals=50)
    ja.deploy()
    rig.env.run(until=1800)
    early = ja.arrivals
    rig.env.run(until=3600)
    assert early == 0
    assert ja.arrivals > 5


def test_globus_light_switch():
    """Fig. 5: one switch activates/deactivates the whole Globus side."""
    rig = Rig()
    gl = GlobusSites(rig.env, rig.net, rig.streams, rig.factory,
                     sites={"isi": 4}, mds_latency=1, gram_latency=2,
                     gass_fetch=3, mtbf=1e9)
    gl.deploy()
    rig.env.run(until=60)
    assert gl.active_host_count() == 4

    killed = gl.switch_off()
    assert killed == 4
    rig.env.run(until=120)
    assert gl.active_host_count() == 0
    assert gl.gram_kills == 4
    # Off means off: nothing relaunches on its own.
    rig.env.run(until=300)
    assert gl.active_host_count() == 0

    gl.switch_on()
    rig.env.run(until=400)
    assert gl.active_host_count() == 4
    # Binaries were cached: no second round of GASS fetches.
    assert gl.gass_fetches == 4


def test_condor_universe_validation():
    rig = Rig()
    with pytest.raises(ValueError):
        CondorPool(rig.env, rig.net, rig.streams, rig.factory, universe="mtv")


def test_condor_standard_universe_checkpoints_and_migrates():
    """§5.4: standard universe preserves a reclaimed guest's progress by
    migrating its image to an idle same-type workstation."""
    rig = Rig()
    pool = CondorPool(rig.env, rig.net, rig.streams, rig.factory,
                      n_hosts=8, idle_mean=900, busy_mean=900,
                      start_delay=10, universe="standard", n_types=2)
    pool.deploy()
    rig.env.run(until=4 * 3600)
    assert pool.reclamations >= 4
    assert pool.checkpoint_migrations >= 1
    # Migrated clients resumed mid-unit: their engines carry prior ops.
    resumed = [c for c in rig.clients
               if c.unit is not None and isinstance(c.unit.get("resume"), dict)]
    assert resumed, "at least one client restored from a checkpoint"
    # Same-type rule was respected: every migration target had a type.
    assert set(pool.host_type.values()) == {0, 1}


def test_condor_vanilla_never_checkpoints():
    rig = Rig()
    pool = CondorPool(rig.env, rig.net, rig.streams, rig.factory,
                      n_hosts=6, idle_mean=600, busy_mean=600,
                      start_delay=10, universe="vanilla")
    pool.deploy()
    rig.env.run(until=2 * 3600)
    assert pool.reclamations >= 3
    assert pool.checkpoint_migrations == 0
