"""Fuzz tests: servers must survive arbitrary hostile/malformed messages.

Robustness is a first-class EveryWare requirement (§2): any guest on a
shared machine can send anything to a well-known port, and at SC98 the
pool was reachable from the open exhibit floor. The driver's robustness
boundary converts handler explosions into dropped messages; these tests
fuzz every server type and then verify it still functions.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.forecasting import event_tag
from repro.core.gossip import (ComparatorRegistry, GossipServer, StateDigest,
                               StateRecord)
from repro.core.gossip.clique import CLIQUE_MTYPES, CliqueState
from repro.core.linguafranca.messages import Message
from repro.core.services import (
    LoggingServer,
    PersistentStateServer,
    QueueWorkSource,
    SchedulerServer,
)
from repro.core.services.scheduler import RATE
from repro.core.simdriver import SimDriver
from repro.obs.flight import load_flight
from repro.obs.recordlog import encode_line, read_records
from repro.simgrid.engine import Environment
from repro.simgrid.host import Host, HostSpec
from repro.simgrid.network import Address, Network
from repro.simgrid.rand import RngStreams

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=12))
json_values = st.recursive(
    json_scalars,
    lambda kids: st.one_of(st.lists(kids, max_size=3),
                           st.dictionaries(st.text(max_size=6), kids, max_size=3)),
    max_leaves=10)
bodies = st.dictionaries(st.text(max_size=10), json_values, max_size=5)

#: Field names the digest/delta decoders read, so hostile values reach
#: the code behind them instead of being skipped as unknown keys.
SYNC_KEYS = ["r", "root", "n", "d", "a", "ok", "bh", "e", "bk", "w",
             "tomb", "susp", "reg", "records"]
sync_bodies = st.dictionaries(st.sampled_from(SYNC_KEYS), json_values,
                              max_size=5)

KNOWN_MTYPES = sorted(
    {"GOS_REG", "GOS_STATE", "GOS_SYNC", "GOS_NEWCOMP", "GOS_DIGEST",
     "GOS_DELTA", "SCH_HELLO", "SCH_REPORT", "PST_STORE", "PST_FETCH",
     "PST_LIST", "LOG_APPEND", "LOG_QUERY"} | set(CLIQUE_MTYPES))


def build_world(server_factory, port):
    env = Environment()
    streams = RngStreams(seed=1)
    net = Network(env, streams, jitter=0.0)
    h = Host(env, HostSpec(name="srv"), streams)
    net.add_host(h)
    component = server_factory()
    driver = SimDriver(env, net, h, port, component, streams)
    driver.start()
    ah = Host(env, HostSpec(name="attacker"), streams)
    net.add_host(ah)
    return env, net, component, driver


def fuzz(env, net, dst, payloads):
    """Hostile frames go in as raw bytes, with no typed record beside
    them, so the receiving driver has to parse every one."""
    src = Address("attacker", "fuzz")
    frames = []
    for mtype, body in payloads:
        try:
            data = Message(mtype=mtype, sender="attacker/fuzz", body=body).encode()
        except Exception:
            continue  # unencodable body: nothing reaches the wire anyway
        net.send(src, dst, data)
        frames.append(data)
    with mock.patch.object(Message, "decode", wraps=Message.decode) as decode:
        env.run(until=env.now + 60)
    parsed = [call.args[0] for call in decode.call_args_list]
    assert all(frame in parsed for frame in frames)


@given(payloads=st.lists(st.tuples(st.sampled_from(KNOWN_MTYPES),
                                   st.one_of(bodies, sync_bodies)),
                         min_size=1, max_size=25))
# Found by this fuzz: an unroutable contact gets registered, then polled.
@example(payloads=[("GOS_DIGEST", {"reg": [[None, [], False]]})])
@settings(max_examples=25, deadline=None)
def test_gossip_server_survives_fuzz(payloads):
    env, net, gossip, driver = build_world(
        lambda: GossipServer("g", ["srv/gossip"],
                             comparators=ComparatorRegistry(),
                             poll_period=5, sync_period=5), "gossip")
    fuzz(env, net, Address("srv", "gossip"), payloads)
    assert driver.running
    # Still functional: a legitimate registration works afterwards.
    net.send(Address("attacker", "fuzz"), Address("srv", "gossip"),
             Message(mtype="GOS_REG", sender="attacker/fuzz",
                     body={"types": ["X"]}).encode())
    env.run(until=env.now + 30)
    assert "attacker/fuzz" in gossip.registry


#: What ``json_scalars`` never draws and a JSON frame can still carry:
#: ``Infinity``, ``NaN`` (``1e999`` decodes to ``inf`` too) and an
#: integer no float can hold.
hostile_numbers = st.sampled_from([math.inf, -math.inf, math.nan,
                                   10**400, -(10**400)])
wire_scalars = st.one_of(hostile_numbers, json_scalars)
#: Entries, claims, tombstones and registrations are short arrays; the
#: record shape is what ``d`` and ``records`` carry.
wire_rows = st.lists(st.one_of(st.sampled_from(["a", "suspect"]),
                               wire_scalars), max_size=5)
wire_records = st.fixed_dictionaries(
    {"t": st.sampled_from(["a", "b"]), "d": st.just({}), "ts": wire_scalars,
     "o": st.just("p/gossip"), "n": wire_scalars})
hostile_sync_bodies = st.dictionaries(
    st.sampled_from(SYNC_KEYS),
    st.one_of(wire_scalars, st.lists(st.one_of(wire_scalars, wire_rows,
                                               wire_records), max_size=4)),
    max_size=4)

SEEDED = StateRecord(mtype="a", data={}, stamp=1.0, origin="p/gossip", seq=1)
_seeded_digest = StateDigest()
_seeded_digest.adopt(SEEDED, SEEDED.body_size)
#: The fuzzed member's digest root: a frame must match it before the
#: digest handler reads ``n``.
SEEDED_ROOT = _seeded_digest.root


@given(payloads=st.lists(st.tuples(
    st.sampled_from(["GOS_DIGEST", "GOS_DELTA", "GOS_SYNC"]),
    hostile_sync_bodies), min_size=1, max_size=12))
# Each of these raised out of its handler before malformed sync fields
# were skipped, so the whole frame was lost.
@example(payloads=[("GOS_DIGEST", {"root": "x"}),
                   ("GOS_DIGEST", {"root": math.inf}),
                   ("GOS_DIGEST", {"root": SEEDED_ROOT, "n": math.nan}),
                   ("GOS_DELTA", {"bh": [math.inf]}),
                   ("GOS_DELTA", {"bh": [0], "n": 10**400}),
                   ("GOS_DELTA", {"e": [["a", 1.0, math.inf, "o", 1]]}),
                   ("GOS_DELTA", {"e": [["a", 10**400, 1, "o", 1]]}),
                   ("GOS_DELTA", {"e": 7, "bk": 5}),
                   ("GOS_DELTA", {"w": [["a"]]}),
                   ("GOS_DELTA", {"d": math.nan, "tomb": [["c", 10**400]]}),
                   ("GOS_DIGEST", {"susp": [["c", "suspect", math.inf]]}),
                   ("GOS_DIGEST", {"reg": [["c", ["X"], -(10**400)]]}),
                   ("GOS_SYNC", {"records": [{"t": "a", "d": {}, "ts": 2.0,
                                              "o": "p/gossip",
                                              "n": math.inf}]})])
@settings(max_examples=40, deadline=None)
def test_hostile_numbers_on_sync_keys_raise_no_handler_error(payloads):
    env, net, gossip, driver = build_world(
        lambda: GossipServer("g", ["srv/gossip"],
                             comparators=ComparatorRegistry(),
                             poll_period=5, sync_period=5), "gossip")
    gossip.seed_records([SEEDED])
    fuzz(env, net, Address("srv", "gossip"), payloads)
    assert driver.handler_errors == 0 and driver.running
    # Nothing non-finite was adopted as a record stamp.
    assert all(math.isfinite(r.stamp) for r in gossip.freshest.values())


def test_retired_delcomp_frame_is_dropped_as_unknown():
    """A stale peer still speaking the pre-digest eviction broadcast must
    not be able to evict anything: the frame is an unknown type now."""
    env, net, gossip, driver = build_world(
        lambda: GossipServer("g", ["srv/gossip"],
                             comparators=ComparatorRegistry(),
                             poll_period=1e6, sync_period=1e6), "gossip")
    net.send(Address("attacker", "fuzz"), Address("srv", "gossip"),
             Message(mtype="GOS_REG", sender="attacker/fuzz",
                     body={"types": ["X"]}).encode())
    env.run(until=env.now + 30)
    sent = net.stats.sent
    fuzz(env, net, Address("srv", "gossip"),
         [("GOS_DELCOMP", {"contact": "attacker/fuzz", "ts": env.now})])
    assert net.stats.sent == sent + 1  # the frame itself; no reply, no fan-out
    assert "attacker/fuzz" in gossip.registry
    assert not gossip.tombstones
    assert driver.handler_errors == 0
    assert driver.running


@given(payloads=st.lists(st.tuples(st.sampled_from(KNOWN_MTYPES), bodies),
                         min_size=1, max_size=25))
@settings(max_examples=25, deadline=None)
def test_scheduler_survives_fuzz(payloads):
    env, net, sched, driver = build_world(
        lambda: SchedulerServer(
            "s", QueueWorkSource([{"id": "u0"}]), report_period=10), "sched")
    fuzz(env, net, Address("srv", "sched"), payloads)
    assert driver.running
    net.send(Address("attacker", "fuzz"), Address("srv", "sched"),
             Message(mtype="SCH_HELLO", sender="attacker/fuzz",
                     body={"infra": "x"}).encode())
    env.run(until=env.now + 30)
    assert "attacker/fuzz" in sched.active_clients()


@given(payloads=st.lists(st.tuples(st.sampled_from(KNOWN_MTYPES), bodies),
                         min_size=1, max_size=25))
@settings(max_examples=25, deadline=None)
def test_persistent_manager_survives_fuzz(payloads):
    env, net, pst, driver = build_world(
        lambda: PersistentStateServer("p"), "pst")
    fuzz(env, net, Address("srv", "pst"), payloads)
    assert driver.running
    net.send(Address("attacker", "fuzz"), Address("srv", "pst"),
             Message(mtype="PST_STORE", sender="attacker/fuzz",
                     body={"key": "k", "object": {"v": 1}}).encode())
    env.run(until=env.now + 30)
    assert pst.backend.get("k") == {"v": 1}


@given(payloads=st.lists(st.tuples(st.sampled_from(KNOWN_MTYPES), bodies),
                         min_size=1, max_size=25))
@settings(max_examples=15, deadline=None)
def test_logging_server_survives_fuzz(payloads):
    env, net, logsrv, driver = build_world(lambda: LoggingServer("l"), "log")
    fuzz(env, net, Address("srv", "log"), payloads)
    assert driver.running


FRAME = Message(mtype="SCH_HELLO", sender="attacker/fuzz",
                body={"infra": "x"}).encode()


@given(cut=st.integers(min_value=0, max_value=len(FRAME) - 1),
       junk=st.binary(max_size=24))
@example(cut=len(FRAME) - 1, junk=b"")  # truncated: one byte of crc missing
@example(cut=len(FRAME) - 1, junk=b"\x00")  # right length, wrong crc
@settings(max_examples=40, deadline=None)
def test_undecodable_frames_are_counted_and_dropped_without_effects(cut, junk):
    assume(FRAME[:cut] + junk != FRAME)
    env, net, sched, driver = build_world(
        lambda: SchedulerServer(
            "s", QueueWorkSource([{"id": "u0"}]), report_period=10), "sched")
    sent = net.stats.sent
    net.send(Address("attacker", "fuzz"), Address("srv", "sched"),
             FRAME[:cut] + junk)
    env.run(until=env.now + 30)
    assert driver.endpoint.decode_errors == 1
    assert net.stats.delivered == 1 and net.stats.sent == sent + 1
    assert not sched.active_clients()
    assert driver.handler_errors == 0 and driver.running
    # The intact frame still registers the client afterwards.
    net.send(Address("attacker", "fuzz"), Address("srv", "sched"), FRAME)
    env.run(until=env.now + 30)
    assert "attacker/fuzz" in sched.active_clients()
    assert driver.endpoint.decode_errors == 1


def test_handler_errors_are_counted_and_logged():
    logs = []
    env = Environment()
    streams = RngStreams(seed=2)
    net = Network(env, streams, jitter=0.0)
    h = Host(env, HostSpec(name="srv"), streams)
    net.add_host(h)
    gossip = GossipServer("g", ["srv/gossip"], comparators=ComparatorRegistry())
    driver = SimDriver(env, net, h, "gossip", gossip, streams,
                       log_sink=lambda *a: logs.append(a))
    driver.start()
    ah = Host(env, HostSpec(name="x"), streams)
    net.add_host(ah)
    # GOS_NEWCOMP without 'contact' raises KeyError inside the handler.
    net.send(Address("x", "p"), Address("srv", "gossip"),
             Message(mtype="GOS_NEWCOMP", sender="x/p", body={}).encode())
    env.run(until=30)
    assert driver.handler_errors == 1
    assert driver.running
    assert any(level == "error" for (_, _, level, _) in logs)


def _clique_state(clique):
    return (clique.version, clique.leader, list(clique.members),
            list(clique.universe), clique.tokens_seen)


member_lists = st.lists(st.one_of(st.sampled_from(["a", "d", "zz"]),
                                  json_scalars), max_size=4)
token_bodies = st.fixed_dictionaries({}, optional={
    "v": json_values, "leader": st.one_of(st.just("zz"), json_values),
    "members": st.one_of(member_lists, json_values),
    "universe": st.one_of(member_lists, json_values)})


@given(body=token_bodies, sender=st.sampled_from(["a", "zz"]))
# Before the whole-token check this moved version, leader and tokens_seen,
# then raised KeyError.
@example(body={"v": 99, "leader": "zz"}, sender="zz")
@settings(max_examples=80, deadline=None)
def test_clique_token_is_applied_whole_or_not_at_all(body, sender):
    clique = CliqueState("b", ["a", "b", "c"])
    before = _clique_state(clique)
    try:
        clique.on_message(Message("CLQ_TOKEN", sender, body), 1.0)
    except Exception:  # the driver's robustness boundary drops it
        assert _clique_state(clique) == before
        return
    for view in (clique.members, clique.universe):
        assert all(type(m) is str for m in view)
        assert view == sorted(set(view))
    assert type(clique.version) is int and type(clique.leader) is str


# -- the record log: journal reader + flight-spool loader --------------------

RECORDS = [{"op": "submit", "id": f"t-{i}", "spec": {"text": "é" * i}, "t": i}
           for i in range(1, 6)]
LOG = "".join(map(encode_line, RECORDS)).encode("utf-8")

#: Lines that parse, so hostile *values* reach load_flight's header and
#: record handling instead of dying in the JSON parser.
flight_lines = st.fixed_dictionaries(
    {"kind": st.sampled_from(["hello", "span", "log", "seal", "?"])},
    optional={key: json_values for key in
              ("capacity", "incarnation", "epoch", "node", "reason")},
).map(lambda record: encode_line(record).encode("utf-8"))
hostile_logs = st.lists(st.one_of(st.binary(max_size=40), flight_lines),
                        max_size=8).map(b"".join)


@pytest.fixture(scope="module")
def log_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("recordlog") / "n.0.flight.jsonl")


def _write(path, data):
    with open(path, "wb") as fh:
        fh.write(data)


@given(current=hostile_logs, rotated=hostile_logs)
@example(current=b'{"kind":"hello","capacity":1e999}\n', rotated=b"\xff\n")
@example(current=b"[" * 100_000 + b"\n", rotated=b"")
@settings(max_examples=60, deadline=None)
def test_record_readers_survive_arbitrary_bytes(log_path, current, rotated):
    """The one decoder under the journal and the flight spool never
    raises, whatever is on disk, and hands back only JSON objects."""
    _write(log_path, current)
    _write(log_path + ".1", rotated)
    records, skipped = read_records(log_path)
    assert all(type(r) is dict for r in records)
    assert len(records) + skipped <= current.count(b"\n")
    dump = load_flight(log_path)
    assert dump is None or all(
        type(r) is dict for r in dump["spans"] + dump["logs"])


@given(cut=st.integers(min_value=0, max_value=len(LOG)))
@settings(max_examples=60, deadline=None)
def test_log_cut_at_any_byte_keeps_exactly_the_complete_lines(log_path, cut):
    _write(log_path, LOG[:cut])
    records, skipped = read_records(log_path)
    assert records == RECORDS[:LOG[:cut].count(b"\n")]
    assert skipped == 0  # a torn tail is a crash, not damage


@given(at=st.integers(min_value=0, max_value=len(LOG) - 1),
       byte=st.integers(min_value=0, max_value=255))
@settings(max_examples=80, deadline=None)
def test_one_damaged_byte_costs_only_the_lines_it_touches(log_path, at, byte):
    """Any single byte replaced: every record on an untouched line comes
    back (a replaced newline touches the line it ended *and* the next).

    Not detectable until ROADMAP item 2 frames records with a CRC: a
    replacement that leaves the line valid JSON (a digit for a digit,
    one letter of a string for another) is returned as a record, wrong
    but well-formed — this test only bounds the blast radius.
    """
    assume(LOG[at] != byte)
    _write(log_path, LOG[:at] + bytes([byte]) + LOG[at + 1:])
    line = LOG[:at].count(b"\n")
    touched = {line, line + 1} if LOG[at:at + 1] == b"\n" else {line}
    records, skipped = read_records(log_path)
    for i, record in enumerate(RECORDS):
        if i not in touched:
            assert record in records
    assert len(records) + skipped <= len(RECORDS) + 1


# -- report rates: only finite numbers reach the forecasters -----------------

def _finite_rate(value):
    try:
        return math.isfinite(float(value))
    except (TypeError, ValueError, OverflowError):
        return False


@given(rates=st.lists(st.one_of(json_values, st.floats(),
                                st.sampled_from(["nan", "-inf", "1e999", "2.5"])),
                      min_size=1, max_size=6))
# Before rates were checked, one NaN report made every method's error NaN
# for good: the reporter's rate forecast was stuck on last-value.
@example(rates=[7.0, float("nan"), 9.0])
# Found by this test: 1.34e154 away from a prediction, the squared error
# overflowed inside ForecasterBank.update and raised out of the handler,
# so the report was half-applied and never answered.
@example(rates=[0.0, 1.3407807929942597e+154, 5.0])
@settings(max_examples=40, deadline=None)
def test_scheduler_records_only_finite_report_rates(rates):
    env, net, sched, driver = build_world(
        lambda: SchedulerServer(
            "s", QueueWorkSource([{"id": "u0"}]), report_period=10), "sched")
    fuzz(env, net, Address("srv", "sched"),
         [("SCH_HELLO", {"infra": "x"})]
         + [("SCH_REPORT", {"rate": rate}) for rate in rates])
    good = [float(rate) for rate in rates if _finite_rate(rate)]
    bank = sched.forecasts.bank(event_tag("attacker/fuzz", RATE))
    # A finite rate the bank cannot score (its squared error overflows)
    # is refused there, whole, instead of raising out of the handler.
    assert bank.samples + bank.rejected == len(good)
    assert not any(math.isnan(err) for err in bank.errors().values())
    assert sched.stats.reports == len(rates)
    assert driver.handler_errors == 0 and driver.running
