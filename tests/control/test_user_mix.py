"""The synthetic user's request mix: one core, two framings.

:class:`~repro.control.loadgen.UserMix` decides what a user asks next and
what the answer meant; :class:`GatewayStorm` frames it as HTTP over real
sockets, :class:`SimJobUser` as ``GW_REQ`` messages. The core is tested
once here; the adapters only for what they add — and for the property
that makes the simulated twin a twin: same seed, same answers, same
requests.
"""

import json
import random
from types import SimpleNamespace

from repro.control import GatewayStorm, HttpServer, SimJobUser
from repro.control.http import json_response
from repro.control.loadgen import StormStats, UserMix
from repro.control.sim import GW_REQ, GW_RES, _noop_spec
from repro.core.component import NullRuntime, Send
from repro.core.linguafranca.messages import Message


def _tally():
    return SimpleNamespace(submitted=0, queried=0, cancelled=0, rejected=0)


def _mix(seed=0, tally=None, submit=0.5, cancel=0.1):
    return UserMix(random.Random(seed), tally or _tally(), submit, cancel,
                   lambda rng: {"payload": rng.randrange(100)})


def test_a_user_with_no_accepted_job_can_only_submit():
    mix = _mix(seed=3, submit=0.0)           # would never *choose* to submit
    for _ in range(5):
        kind, method, path, body = mix.next_request()
        assert (kind, method, path) == ("submit", "POST", "/jobs")
        assert set(body) == {"payload"}
        mix.outcome(kind, 503, {"error": "busy"})
    assert mix.ids == [] and mix.tally.rejected == 5


def test_roll_picks_submit_query_cancel_by_the_fractions():
    mix = _mix(seed=1, submit=0.3, cancel=0.2)
    mix.ids.append("j-1")
    shadow = random.Random(1)                # the same draws, replayed
    for _ in range(200):
        kind, method, path, body = mix.next_request()
        roll = shadow.random()
        if roll < 0.3:
            assert (kind, method, path) == ("submit", "POST", "/jobs")
            assert body == {"payload": shadow.randrange(100)}
        else:
            assert shadow.choice(["j-1"]) == "j-1"
            if roll >= 0.8:
                assert (kind, method, path, body) == (
                    "cancel", "POST", "/jobs/j-1/cancel", None)
            else:
                assert (kind, method, path, body) == (
                    "query", "GET", "/jobs/j-1", None)


def test_outcome_classifies_every_status_once():
    tally = _tally()
    mix = _mix(tally=tally)
    assert mix.outcome("submit", 201, {"id": "j-1"}) == "submitted"
    assert mix.outcome("submit", 201, {"id": 7}) == "rejected"     # no str id
    assert mix.outcome("submit", 201, None) == "rejected"
    assert mix.outcome("submit", 400, {"id": "j-2"}) == "rejected"
    assert mix.ids == ["j-1"]
    assert mix.outcome("query", 200, None) == "queried"
    assert mix.outcome("query", 404, None) == "rejected"
    for status in (200, 404, 409):           # a lost race is still an answer
        assert mix.outcome("cancel", status, None) == "cancelled"
    assert mix.outcome("cancel", 500, None) == "rejected"
    assert vars(tally) == {"submitted": 1, "queried": 1, "cancelled": 3,
                           "rejected": 5}


def test_storm_clients_share_one_tally():
    stats = StormStats()
    mixes = [UserMix(random.Random(i), stats, 0.5, 0.1, _noop_spec)
             for i in range(3)]
    for i, mix in enumerate(mixes):
        mix.outcome("submit", 201, {"id": f"j-{i}"})
    assert stats.submitted == 3


def _answer(n, kind):
    """The scripted gateway: a pure function of the request's ordinal."""
    if kind == "submit":
        return (503, {"error": "busy"}) if n % 5 == 4 else (201, {"id": f"j-{n}"})
    if kind == "query":
        return (404, {"error": "gone"}) if n % 7 == 3 else (
            200, {"id": "x", "state": "done" if n % 2 else "queued"})
    return (409, {"error": "finished"}) if n % 3 == 0 else (200, {"id": "x"})


def _kind(method, path):
    if path == "/jobs":
        return "submit"
    return "cancel" if method == "POST" else "query"


def test_seeded_storm_and_sim_user_emit_the_same_requests():
    n_requests, seed = 60, 21
    fractions = dict(submit_fraction=0.4, cancel_fraction=0.2)

    # -- the HTTP adapter, against a scripted server on a real socket ------
    seen_http = []

    def app(request):
        kind = _kind(request.method, request.path)
        status, doc = _answer(len(seen_http), kind)
        seen_http.append((kind, request.method, request.path, request.json()))
        return json_response(status, doc)

    server = HttpServer("127.0.0.1", 0, app)
    storm = GatewayStorm("127.0.0.1", int(server.contact.rpartition(":")[2]),
                         clients=1, seed=seed, spec_factory=_noop_spec,
                         **fractions)
    try:
        # One request in flight per user: seeing request n+1 means the
        # storm has digested exactly n answers.
        for _ in range(20_000):
            if len(seen_http) > n_requests:
                break
            storm.step(0.001)
            server.step(0.001)
    finally:
        storm.close()
        server.close()
    assert len(seen_http) == n_requests + 1
    del seen_http[n_requests:]

    # -- the GW_REQ adapter, answered by hand with the same script ----------
    user = SimJobUser("user0", "gw0/gw", idx=0, seed=seed, **fractions)
    user.bind_runtime(NullRuntime("user0/usr"))
    seen_sim = []
    for n in range(n_requests):              # (on_start's stagger draw skipped)
        (send,) = user.on_timer("usr:next", float(n))
        assert isinstance(send, Send) and send.message.mtype == GW_REQ
        body = send.message.body
        kind = _kind(body["method"], body["path"])
        seen_sim.append((kind, body["method"], body["path"], body["body"]))
        status, doc = _answer(n, kind)
        user.on_message(Message(
            mtype=GW_RES, sender="gw0/gw",
            body={"status": status, "body": doc, "rid": body["rid"]}),
            n + 0.5)

    assert seen_sim == seen_http
    assert {kind for kind, *_ in seen_sim} == {"submit", "query", "cancel"}
    # ...and both adapters drew the same conclusions from the answers.
    sim, http = user.stats(), storm.stats.to_dict()
    assert user.accepted == storm.accepted
    assert sim["requests"] == n_requests
    for name in ("submitted", "queried", "cancelled", "rejected"):
        assert sim[name] == http[name], name
    assert sum(sim[name] for name in (
        "submitted", "queried", "cancelled", "rejected")) == n_requests
    assert sim["done_seen"] > 0              # the sim adapter's own extra


def test_sim_user_counts_done_only_on_a_queried_answer():
    user = SimJobUser("user0", "gw0/gw", seed=2, submit_fraction=0.0)
    user.bind_runtime(NullRuntime("user0/usr"))
    user.accepted.append("j-1")              # so the next request is a read
    (send,) = user.on_timer("usr:next", 0.0)
    assert send.message.body["path"].startswith("/jobs/j-1")
    is_query = send.message.body["method"] == "GET"
    user.on_message(Message(
        mtype=GW_RES, sender="gw0/gw",
        body={"status": 200, "body": {"state": "done"},
              "rid": send.message.body["rid"]}), 0.1)
    assert user.done_seen == (1 if is_query else 0)
    assert user.queried + user.cancelled == 1
    assert json.dumps(user.stats())          # JSON-safe
