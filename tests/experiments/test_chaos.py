"""Tests for the chaos scenario matrix: determinism and recovery.

These are the acceptance checks for the fault-injection subsystem — the
matrix must be reproducible under a fixed seed, and the persistent
counter-example storage must survive every profile intact.
"""

import hashlib
import json

import pytest

from repro.core.linguafranca.endpoint import SimEndpoint
from repro.core.linguafranca.messages import Message
from repro.core.services.persistent import PST_STORE, PersistentStateServer
from repro.core.simdriver import SimDriver
from repro.experiments.chaos import ChaosConfig, build_plan, run_chaos
from repro.experiments.chaos import main as chaos_main
from repro.ramsey.known import paley_coloring
from repro.ramsey.verify import counter_example_validator, verify_counter_example_object
from repro.simgrid.engine import Environment
from repro.simgrid.faults import FaultPlan
from repro.simgrid.host import Host, HostSpec
from repro.simgrid.network import Address, Network
from repro.simgrid.rand import RngStreams


def cfg(**kw):
    kw.setdefault("duration", 1500.0)
    return ChaosConfig(**kw)


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        build_plan("meteor-strike", cfg())


def test_same_seed_reruns_are_byte_identical():
    a = run_chaos("crash-heavy", cfg(duration=1200.0)).to_dict()
    b = run_chaos("crash-heavy", cfg(duration=1200.0)).to_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_ci_crash_heavy_report_is_pinned_byte_for_byte(capsys):
    """``python -m repro.experiments.chaos --profile crash-heavy --seed 4242
    --duration 1200`` — what CI's chaos-smoke job ran twice and diffed.
    471 give-ups and 974 retransmissions ride the driver's reliable-send
    ladder here, so the digest pins that ladder as well as determinism."""
    chaos_main(["--profile", "crash-heavy", "--seed", "4242",
                "--duration", "1200"])
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == (
        "f12e72eeec3786df886e75c7ac18816b02171a82f8bdf1634e03949a452dd61f")
    report = json.loads(stdout)["crash-heavy"]
    assert report["faults"]["crashes"] >= 5
    assert report["counter_examples_corrupted"] == 0
    assert report["counter_examples_preserved"] == len(
        report["counter_example_keys"]) > 0


def test_crash_heavy_preserves_counter_examples():
    report = run_chaos("crash-heavy", cfg(duration=1200.0))
    assert report.faults["crashes"] >= 5
    assert report.faults["reboots"] >= 5
    # Work was interrupted and recovered...
    assert report.work_lost > 0
    assert report.units_completed > 0
    # ...but nothing persistent was lost or corrupted.
    assert report.counter_example_keys
    assert report.counter_examples_corrupted == 0
    assert report.counter_examples_preserved == len(report.counter_example_keys)


def test_partition_heavy_heals_and_resyncs():
    report = run_chaos("partition-heavy", cfg())
    assert report.faults["partitions"] == 2
    assert report.faults["heals"] == 2
    assert report.network["dropped_partition"] > 0
    # The gossip pool re-merged after the last heal.
    assert report.resync_time is not None
    assert report.resync_time >= 0.0
    assert report.counter_examples_corrupted == 0


def test_infra_loss_recovers():
    report = run_chaos("infra-loss", cfg())
    assert report.faults["outages"] == 2
    assert report.faults["restores"] == 2
    # The chaos window duplicated live traffic.
    assert report.network["duplicated_fault"] > 0
    # Clients were lost with their infrastructures and came back.
    assert report.clients_lost > 0
    assert report.active_hosts_end > 0
    assert report.counter_examples_corrupted == 0


def test_duplicated_and_reordered_stores_never_corrupt_storage():
    """A chaos window that duplicates and reorders every datagram, plus a
    rogue corrupt store request, must leave only valid objects behind."""
    env = Environment()
    streams = RngStreams(seed=31)
    net = Network(env, streams, jitter=0.0)
    hosts = []
    for name in ("pst", "cli"):
        h = Host(env, HostSpec(name=name, site="x"), streams)
        net.add_host(h)
        h.start()
        hosts.append(h)

    server = PersistentStateServer("pst")
    server.add_validator(counter_example_validator)
    SimDriver(env, net, hosts[0], "p", server, streams).start()
    sender = SimEndpoint(env, net, Address("cli", "c"))

    FaultPlan().chaos(0.0, 500.0, duplicate=0.9, delay=0.8,
                      delay_max=20.0).install(env, net)

    good = paley_coloring(17)
    valid_obj = {"k": 17, "n": 4, "coloring": good.to_hex()}

    def drive(env):
        for i in range(10):
            sender.send("pst/p", Message(
                mtype=PST_STORE, sender="cli/c",
                body={"key": "ramsey/r4/k17", "object": valid_obj}))
            yield env.timeout(3.0)
        sender.send("pst/p", Message(
            mtype=PST_STORE, sender="cli/c",
            body={"key": "ramsey/bogus", "object": {"k": 17, "n": 4,
                                                    "coloring": "zz"}}))

    env.process(drive(env))
    env.run(until=600.0)

    assert net.stats.duplicated_fault > 0
    assert net.stats.delayed_fault > 0
    # The rogue object was rejected; every surviving key verifies.
    assert server.stats.denials >= 1
    keys = server.backend.keys()
    assert keys == ["ramsey/r4/k17"]
    for key in keys:
        verify_counter_example_object(server.backend.get(key))
