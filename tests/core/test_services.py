"""Tests for scheduler, persistent state manager, and logging servers."""

import pytest

from repro.core.component import NullRuntime, Send, SetTimer
from repro.core.linguafranca.messages import Message
from repro.core.services import (
    LoggingServer,
    MemoryBackend,
    PersistentStateServer,
    QueueWorkSource,
    SchedulerServer,
    ValidationError,
)
from repro.core.services.persistent import DirectoryBackend
from repro.core.services.scheduler import RATE, SCH_DIRECTIVE, SCH_HELLO, SCH_REPORT, SCH_WORK


def bound(component, contact="srv/1"):
    component.bind_runtime(NullRuntime(contact=contact))
    return component


def sends_of(effects):
    return [e for e in effects if isinstance(e, Send)]


def msg(mtype, sender="cli/1", body=None, req_id=1):
    return Message(mtype=mtype, sender=sender, body=body or {}, req_id=req_id)


# ---------------------------------------------------------------- scheduler


def make_scheduler(units=None, **kw):
    work = QueueWorkSource(units if units is not None
                           else [{"id": f"u{i}", "seed": i} for i in range(10)])
    sched = bound(SchedulerServer("sched", work, **kw))
    sched.on_start(0.0)
    return sched, work


def test_hello_assigns_unit():
    sched, work = make_scheduler()
    effects = sched.on_message(msg(SCH_HELLO, body={"infra": "condor"}), now=1.0)
    (send,) = sends_of(effects)
    assert send.dst == "cli/1"
    assert send.message.mtype == SCH_WORK
    assert send.message.body["unit"]["id"] == "u0"
    assert sched.stats.units_assigned == 1
    assert sched.active_clients() == ["cli/1"]


def test_hello_idempotent_keeps_same_unit():
    sched, work = make_scheduler()
    first = sends_of(sched.on_message(msg(SCH_HELLO), 1.0))[0]
    second = sends_of(sched.on_message(msg(SCH_HELLO), 2.0))[0]
    assert first.message.body["unit"] == second.message.body["unit"]
    assert sched.stats.units_assigned == 1


def test_empty_work_source_gives_none_unit():
    sched, work = make_scheduler(units=[])
    (send,) = sends_of(sched.on_message(msg(SCH_HELLO), 1.0))
    assert send.message.body["unit"] is None


def test_generator_backed_source_never_dry():
    work = QueueWorkSource(generator=lambda n: {"id": f"gen{n}"})
    sched = bound(SchedulerServer("s", work))
    (send,) = sends_of(sched.on_message(msg(SCH_HELLO), 1.0))
    assert send.message.body["unit"]["id"] == "gen1"


def test_report_continue_directive():
    sched, _ = make_scheduler()
    sched.on_message(msg(SCH_HELLO), 1.0)
    effects = sched.on_message(
        msg(SCH_REPORT, body={"unit_id": "u0", "rate": 1e6, "ops": 3e7}), 30.0
    )
    (send,) = sends_of(effects)
    assert send.message.mtype == SCH_DIRECTIVE
    assert send.message.body["action"] == "continue"


def test_report_done_gets_new_work_and_completes():
    sched, work = make_scheduler()
    sched.on_message(msg(SCH_HELLO), 1.0)
    effects = sched.on_message(
        msg(SCH_REPORT, body={"unit_id": "u0", "rate": 1e6, "done": True,
                              "result": {"best": 2}}), 30.0
    )
    (send,) = sends_of(effects)
    assert send.message.body["action"] == "new_work"
    assert send.message.body["unit"]["id"] == "u1"
    assert work.completed == {"u0": {"best": 2}}
    assert sched.stats.units_completed == 1


def test_slow_client_migrated_to_fresh_unit():
    sched, work = make_scheduler(migrate_fraction=0.25, min_rate_samples=3)
    # Three fast clients and one painfully slow one.
    for i, c in enumerate(["fast1/x", "fast2/x", "fast3/x", "slow/x"]):
        sched.on_message(msg(SCH_HELLO, sender=c), 1.0)
    t = 10.0
    action = None
    for round_ in range(6):
        for c, rate in [("fast1/x", 1e7), ("fast2/x", 1.1e7), ("fast3/x", 0.9e7),
                        ("slow/x", 1e4)]:
            effects = sched.on_message(
                msg(SCH_REPORT, sender=c,
                    body={"unit_id": "u", "rate": rate,
                          "progress": {"best_energy": 5}}), t)
            if c == "slow/x":
                action = sends_of(effects)[0].message.body["action"]
            t += 1.0
        if action == "migrate":
            break
    assert action == "migrate"
    assert sched.stats.migrations >= 1
    # The migrated unit went back to the head of the queue with resume info.
    recycled = work.next_unit()
    assert recycled["resume"] == {"best_energy": 5}


def test_no_migration_with_few_clients():
    sched, _ = make_scheduler()
    sched.on_message(msg(SCH_HELLO, sender="a/x"), 1.0)
    for i in range(10):
        effects = sched.on_message(
            msg(SCH_REPORT, sender="a/x", body={"rate": 1.0}), float(i))
        assert sends_of(effects)[0].message.body["action"] == "continue"


def test_reaper_requeues_silent_clients_unit():
    sched, work = make_scheduler(report_period=30, dead_factor=2)
    sched.on_message(msg(SCH_HELLO, sender="ghost/x"), 1.0)
    before = len(work)
    effects = sched.on_timer("sch:reap", now=1000.0)
    assert sched.stats.reaps == 1
    assert sched.active_clients() == []
    assert len(work) == before + 1  # unit recycled
    # Reaper rearms itself.
    assert any(isinstance(e, SetTimer) for e in effects)


def test_unknown_reporter_adopted():
    sched, _ = make_scheduler()
    effects = sched.on_message(msg(SCH_REPORT, sender="orphan/x", body={"rate": 5.0}), 3.0)
    assert sched.active_clients() == ["orphan/x"]
    assert sends_of(effects)[0].message.body["action"] == "continue"


# ---------------------------------------------------------------- persistent


def make_pst(**kw):
    srv = bound(PersistentStateServer("pst", **kw))
    return srv


def test_store_and_fetch():
    srv = make_pst()
    effects = srv.on_message(msg("PST_STORE", body={"key": "best", "object": {"n": 5}}), 1.0)
    assert sends_of(effects)[0].message.mtype == "PST_STORE_OK"
    effects = srv.on_message(msg("PST_FETCH", body={"key": "best"}), 2.0)
    reply = sends_of(effects)[0].message
    assert reply.mtype == "PST_VALUE"
    assert reply.body["object"] == {"n": 5}


def test_fetch_missing():
    srv = make_pst()
    effects = srv.on_message(msg("PST_FETCH", body={"key": "nope"}), 1.0)
    assert sends_of(effects)[0].message.mtype == "PST_MISSING"
    assert srv.stats.misses == 1


def test_store_malformed_denied():
    srv = make_pst()
    for body in ({"object": {}}, {"key": "k"}, {"key": "", "object": {}},
                 {"key": "k", "object": "notdict"}):
        effects = srv.on_message(msg("PST_STORE", body=body), 1.0)
        assert sends_of(effects)[0].message.mtype == "PST_DENIED"


def test_validator_rejects_bad_object():
    srv = make_pst()

    def must_have_proof(key, obj):
        if "proof" not in obj:
            raise ValidationError("no proof supplied")

    srv.add_validator(must_have_proof)
    effects = srv.on_message(msg("PST_STORE", body={"key": "k", "object": {"x": 1}}), 1.0)
    reply = sends_of(effects)[0].message
    assert reply.mtype == "PST_DENIED"
    assert "no proof" in reply.body["reason"]
    ok = srv.on_message(msg("PST_STORE", body={"key": "k", "object": {"proof": []}}), 2.0)
    assert sends_of(ok)[0].message.mtype == "PST_STORE_OK"


def test_object_quota():
    srv = make_pst(max_objects=2)
    for i in range(2):
        effects = srv.on_message(
            msg("PST_STORE", body={"key": f"k{i}", "object": {}}), 1.0)
        assert sends_of(effects)[0].message.mtype == "PST_STORE_OK"
    effects = srv.on_message(msg("PST_STORE", body={"key": "k2", "object": {}}), 1.0)
    assert sends_of(effects)[0].message.mtype == "PST_DENIED"
    # Updating an existing key is still allowed at quota.
    effects = srv.on_message(msg("PST_STORE", body={"key": "k0", "object": {"v": 2}}), 1.0)
    assert sends_of(effects)[0].message.mtype == "PST_STORE_OK"


def test_byte_quota():
    srv = make_pst(max_bytes=64)
    big = {"blob": "x" * 200}
    assert sends_of(srv.on_message(msg("PST_STORE", body={"key": "a", "object": big}), 1.0))[
        0].message.mtype == "PST_STORE_OK"  # first store takes us past quota
    effects = srv.on_message(msg("PST_STORE", body={"key": "b", "object": {}}), 1.0)
    assert sends_of(effects)[0].message.mtype == "PST_DENIED"


def test_list_with_prefix():
    srv = make_pst()
    for key in ("ramsey/r5/best", "ramsey/r6/best", "other"):
        srv.on_message(msg("PST_STORE", body={"key": key, "object": {}}), 1.0)
    effects = srv.on_message(msg("PST_LIST", body={"prefix": "ramsey/"}), 2.0)
    keys = sends_of(effects)[0].message.body["keys"]
    assert keys == ["ramsey/r5/best", "ramsey/r6/best"]


def test_directory_backend_roundtrip(tmp_path):
    be = DirectoryBackend(str(tmp_path / "store"))
    be.put("ramsey/r5", {"size": 44})
    assert be.get("ramsey/r5") == {"size": 44}
    assert be.get("missing") is None
    assert be.keys() == ["ramsey_r5"]
    assert be.size_bytes() > 0
    # Overwrite is atomic and reflected.
    be.put("ramsey/r5", {"size": 45})
    assert be.get("ramsey/r5") == {"size": 45}


def test_directory_backend_sanitizes_keys(tmp_path):
    be = DirectoryBackend(str(tmp_path))
    be.put("../../evil", {"x": 1})
    files = list((tmp_path).iterdir())
    assert all(f.parent == tmp_path for f in files)


# ---------------------------------------------------------------- logging


def test_log_append_and_query():
    srv = bound(LoggingServer("log"))
    srv.on_message(msg("LOG_APPEND", body={"records": [
        {"k": "perf", "d": {"rate": 100}},
        {"k": "event", "d": {"what": "started"}},
    ]}), 5.0)
    assert srv.appended == 2
    effects = srv.on_message(msg("LOG_QUERY", body={"kind": "perf"}), 6.0)
    records = sends_of(effects)[0].message.body["records"]
    assert records == [{"ts": 5.0, "src": "cli/1", "k": "perf", "d": {"rate": 100}}]


def test_log_query_since_and_limit():
    srv = bound(LoggingServer("log"))
    for t in (1.0, 2.0, 3.0):
        srv.on_message(msg("LOG_APPEND", body={"records": [{"k": "perf", "d": {"t": t}}]}), t)
    effects = srv.on_message(msg("LOG_QUERY", body={"since": 2.0, "limit": 1}), 9.0)
    records = sends_of(effects)[0].message.body["records"]
    assert len(records) == 1
    assert records[0]["d"] == {"t": 2.0}


def test_log_capacity_drops():
    srv = bound(LoggingServer("log", max_records=1))
    srv.on_message(msg("LOG_APPEND", body={"records": [{"k": "a", "d": {}},
                                                       {"k": "b", "d": {}}]}), 1.0)
    assert srv.appended == 1
    assert srv.dropped == 1


def test_log_malformed_records_ignored():
    srv = bound(LoggingServer("log"))
    srv.on_message(msg("LOG_APPEND", body={"records": ["junk", {"k": "ok", "d": "bad"}]}), 1.0)
    assert srv.appended == 1  # the dict one, with data coerced to {}
    assert srv.records[0].data == {}


def test_log_by_kind_accessor():
    srv = bound(LoggingServer("log"))
    srv.on_message(msg("LOG_APPEND", body={"records": [{"k": "perf", "d": {}},
                                                       {"k": "other", "d": {}}]}), 1.0)
    assert len(srv.by_kind("perf")) == 1


def test_stall_reheat_policy_fires_for_stalled_annealer():
    from repro.core.services.scheduler import stall_reheat_policy, _ClientState

    client = _ClientState(contact="c/1", infra="unix",
                          unit={"id": "u", "heuristic": "anneal"})
    body = {"progress": {"best_energy": 7}}
    results = [stall_reheat_policy(client, body) for _ in range(4)]
    assert results[:3] == [None, None, None]
    assert results[3] == {"reheat": True}
    # Counter reset after firing; improvement also resets it.
    assert stall_reheat_policy(client, {"progress": {"best_energy": 5}}) is None
    assert client.stalled_reports == 0


def test_stall_reheat_policy_ignores_tabu_clients():
    from repro.core.services.scheduler import stall_reheat_policy, _ClientState

    client = _ClientState(contact="c/1", infra="unix",
                          unit={"id": "u", "heuristic": "tabu"})
    for _ in range(10):
        assert stall_reheat_policy(client, {"progress": {"best_energy": 7}}) is None


def test_scheduler_attaches_params_to_continue_directive():
    sched, _ = make_scheduler()
    sched.on_message(msg(SCH_HELLO, body={"infra": "x"}), 1.0)
    # Force the client's unit to be an annealer so the policy applies.
    sched.clients["cli/1"].unit = {"id": "u0", "heuristic": "anneal"}
    last = None
    for i in range(4):
        effects = sched.on_message(
            msg(SCH_REPORT, body={"unit_id": "u0", "rate": 1.0,
                                  "progress": {"best_energy": 9}}), float(i))
        last = sends_of(effects)[0].message.body
    assert last["action"] == "continue"
    assert last.get("params") == {"reheat": True}
    assert sched.stats.param_directives == 1


def test_scheduler_policy_can_be_disabled():
    work = QueueWorkSource([{"id": "u0", "heuristic": "anneal"}])
    sched = bound(SchedulerServer("s", work, control_policy=None))
    sched.on_message(msg(SCH_HELLO), 1.0)
    for i in range(5):
        effects = sched.on_message(
            msg(SCH_REPORT, body={"unit_id": "u0", "rate": 1.0,
                                  "progress": {"best_energy": 9}}), float(i))
        assert "params" not in sends_of(effects)[0].message.body


def test_log_query_zero_and_negative_limit_return_nothing():
    """limit<=0 must clamp to "no records" — the old post-append bound
    check returned one record for limit=0."""
    srv = bound(LoggingServer("log"))
    for t in (1.0, 2.0):
        srv.on_message(msg("LOG_APPEND",
                           body={"records": [{"k": "perf", "d": {"t": t}}]}), t)
    for limit in (0, -1, -100):
        effects = srv.on_message(msg("LOG_QUERY", body={"limit": limit}), 9.0)
        assert sends_of(effects)[0].message.body["records"] == []
    # And a positive limit still works.
    effects = srv.on_message(msg("LOG_QUERY", body={"limit": 2}), 9.0)
    assert len(sends_of(effects)[0].message.body["records"]) == 2


# ------------------------------------------------- scheduler reliable sends


def test_unit_assignments_are_reliable_sends():
    sched, work = make_scheduler()
    (send,) = sends_of(sched.on_message(msg(SCH_HELLO), 1.0))
    assert send.retry is not None
    assert send.label == "assign:cli/1"
    # A unit-less directive stays fire-and-forget.
    sched.clients["cli/1"].unit = None
    work._queue.clear()
    (send,) = sends_of(sched.on_message(
        msg(SCH_REPORT, body={"rate": 1.0, "unit_id": None}), 2.0))
    assert send.message.mtype == SCH_DIRECTIVE
    assert send.retry is None


def test_assign_retry_none_restores_fire_and_forget():
    sched, work = make_scheduler(assign_retry=None)
    (send,) = sends_of(sched.on_message(msg(SCH_HELLO), 1.0))
    assert send.message.body["unit"] is not None
    assert send.retry is None
    assert send.label is None


def test_ack_updates_last_seen():
    from repro.core.services.scheduler import SCH_ACK

    sched, work = make_scheduler()
    sched.on_message(msg(SCH_HELLO), 1.0)
    effects = sched.on_message(msg(SCH_ACK, body={"unit_id": "u0"}), 5.0)
    assert effects == []
    assert sched.clients["cli/1"].last_seen == 5.0


def test_give_up_requeues_unit_immediately():
    sched, work = make_scheduler()
    (send,) = sends_of(sched.on_message(msg(SCH_HELLO), 1.0))
    assert sched.clients["cli/1"].unit["id"] == "u0"
    sched.on_send_failed(send, 60.0)
    assert sched.clients["cli/1"].unit is None
    assert sched.stats.units_requeued == 1
    # The lost unit comes back out first (priority requeue).
    assert work.next_unit()["id"] == "u0"


def test_give_up_after_client_moved_on_does_not_clone_work():
    """A late give-up for a unit the client already traded in must not
    requeue it: the client would run u0's twin while someone else gets
    the original."""
    sched, work = make_scheduler()
    (send,) = sends_of(sched.on_message(msg(SCH_HELLO), 1.0))
    # The client finished u0 and got u1 before the give-up fired.
    sched.on_message(msg(SCH_REPORT, body={
        "rate": 5.0, "unit_id": "u0", "done": True}), 30.0)
    assert sched.clients["cli/1"].unit["id"] == "u1"
    sched.on_send_failed(send, 60.0)
    assert sched.clients["cli/1"].unit["id"] == "u1"  # untouched
    assert sched.stats.units_requeued == 0


@pytest.mark.parametrize("raw", [
    "NaN", '"nan"', "1e999", "-Infinity", "[1]", "1" + "0" * 400,
], ids=["NaN", "nan-string", "1e999", "-Infinity", "list", "10**400"])
def test_report_with_a_bad_rate_records_nothing(raw):
    """A rate that is not a finite number, as a peer can put it on the
    wire: the forecasts and the client table stay as they were, and the
    rest of the report is still answered."""
    sched, _ = make_scheduler()
    sched.on_message(msg(SCH_HELLO, sender="a/x"), 1.0)
    for t in (2.0, 3.0, 4.0):
        sched.on_message(msg(SCH_REPORT, sender="a/x", body={"rate": 5.0}), t)
    before = (sched.forecasts.forecast(f"a/x#{RATE}"), len(sched.forecasts),
              {c: (s.last_rate, s.unit) for c, s in sched.clients.items()})
    report = Message.from_parts(
        SCH_REPORT, ('{"s":"a/x","q":9,"b":{"rate":%s}}' % raw).encode())
    effects = sched.on_message(report, 5.0)
    assert (sched.forecasts.forecast(f"a/x#{RATE}"), len(sched.forecasts),
            {c: (s.last_rate, s.unit) for c, s in sched.clients.items()}) == before
    assert sends_of(effects)[0].message.body["action"] == "continue"
    assert sched.clients["a/x"].last_seen == 5.0
    # An unknown reporter is still adopted, with no rate stream opened.
    report.sender = "b/x"
    sched.on_message(report, 6.0)
    assert "b/x" in sched.clients and len(sched.forecasts) == before[1]
