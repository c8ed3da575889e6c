"""The synthetic user's request mix: one core, one framing, two transports.

:class:`~repro.control.loadgen.UserMix` decides what a user asks next and
what the answer meant; :class:`GatewayStorm` carries it over real
sockets, :class:`HttpUser` over simulated segments, both writing each
request with the one renderer. The core is tested once here; the
carriers for the property that makes the simulated twin a twin: same
seed, same answers, same request bytes. The ME pump keeps the same
property: ``ExploreQueue`` on a socket and the twin's ``HttpUser`` write
the same frames for the same feed.
"""

import json
import random
import socket
import threading
from types import SimpleNamespace

from repro.control import GatewayClient, GatewayStorm, HttpDecoder, HttpUser
from repro.control.http import json_response, text_response
from repro.control.loadgen import StormStats, UserMix
from repro.core.component import NullRuntime, Send, segment
from repro.explore.queue import ExploreQueue, FeedPump
from repro.ramsey.tasks import ramsey_job_spec


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
    mixes = [UserMix(random.Random(i), stats, 0.5, 0.1, ramsey_job_spec)
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


def _storm_frames(n_requests, seed, fractions):
    """The raw request frames one storm user writes to a scripted server
    on a real socket, and the storm."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.setblocking(False)
    storm = GatewayStorm("127.0.0.1", listener.getsockname()[1], clients=1,
                         seed=seed, spec_factory=ramsey_job_spec, **fractions)
    conn, frames, raw, decoder = None, [], b"", HttpDecoder()
    try:
        # One request in flight per user: seeing request n+1 means the
        # storm has digested exactly n answers.
        for _ in range(20_000):
            if len(frames) > n_requests:
                break
            storm.step(0.001)
            try:
                if conn is None:
                    conn = listener.accept()[0]
                    conn.setblocking(False)
                chunk = conn.recv(65536)
            except BlockingIOError:
                continue
            raw += chunk
            decoder.feed(chunk)
            request = decoder.next_request()
            if request is not None:
                frames.append(raw)
                raw = b""
                kind = _kind(request.method, request.path)
                conn.sendall(json_response(*_answer(len(frames) - 1, kind)))
    finally:
        storm.close()
        if conn is not None:
            conn.close()
        listener.close()
    assert len(frames) == n_requests + 1
    return frames[:n_requests], storm


def test_seeded_storm_and_sim_user_emit_the_same_requests():
    n_requests, seed = 60, 21
    fractions = dict(submit_fraction=0.4, cancel_fraction=0.2)
    frames_http, storm = _storm_frames(n_requests, seed, fractions)

    # -- the simulated user, answered by hand with the same script --------
    mix = UserMix(random.Random(f"{seed}:0"), StormStats(),
                  fractions["submit_fraction"], fractions["cancel_fraction"],
                  ramsey_job_spec)
    user = HttpUser("user0", "127.0.0.1/gw", mix, period=1.0)
    user.bind_runtime(NullRuntime("user0/usr"))
    frames_sim, kinds = [], set()
    for n in range(n_requests):
        (send,) = user.on_timer("http:next", float(n))
        assert isinstance(send, Send) and send.message.mtype == "HTTP"
        frames_sim.append(send.message.body["d"])
        decoder = HttpDecoder()
        decoder.feed(frames_sim[-1])
        request = decoder.next_request()
        kinds.add(kind := _kind(request.method, request.path))
        user.on_message(segment("127.0.0.1/gw", json_response(
            *_answer(n, kind))), n + 0.5)

    assert frames_sim == frames_http
    assert kinds == {"submit", "query", "cancel"}
    # ...and both carriers drew the same conclusions from the answers.
    sim, http = mix.tally.to_dict(), storm.stats.to_dict()
    assert mix.ids == storm.accepted
    assert user.requests == n_requests
    assert sim == http
    assert sum(sim[name] for name in (
        "submitted", "queried", "cancelled", "rejected")) == n_requests


# -- the ME pump: the same conversation on both planes ----------------------

def _line(seq, event, job, **extra):
    return json.dumps({"seq": seq, "t": 0.0, "event": event, "job": job,
                       **extra}) + "\n"


#: The scripted gateway, answer by answer: a push, a page retiring one
#: job, a quiet page (its turn probes the two outstanding), a page whose
#: seq breaks (its turn probes the one still outstanding).
FEED = [
    (201, {"ids": ["j-1", "j-2", "j-3"]}),
    (200, _line(0, "submitted", "j-1") + _line(1, "submitted", "j-2")
     + _line(2, "done", "j-1", result={"value": 1.0}, requeues=0)),
    (200, ""),
    (200, {"id": "j-2", "state": "done", "result": {"value": 2.0},
           "requeues": 1}),
    (200, {"id": "j-3", "state": "assigned"}),
    (200, _line(9, "assigned", "j-3")),
    (200, {"id": "j-3", "state": "done", "result": {"value": 3.0},
           "requeues": 0}),
]


def _feed_answer(n):
    status, payload = FEED[n]
    if isinstance(payload, str):
        return text_response(status, payload)
    return json_response(status, payload)


def _live_pump_frames(specs, poll):
    """The request frames an ExploreQueue over a GatewayClient writes to
    a scripted socket server, and the results it popped."""
    listener = socket.create_server(("127.0.0.1", 0))
    frames = []

    def serve():
        conn, _ = listener.accept()
        with conn:
            decoder, raw = HttpDecoder(), b""
            while len(frames) < len(FEED):
                chunk = conn.recv(65536)
                if not chunk:
                    return
                raw += chunk
                decoder.feed(chunk)
                if decoder.next_request() is not None:
                    frames.append(raw)
                    raw = b""
                    conn.sendall(_feed_answer(len(frames) - 1))

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    contact = "127.0.0.1:%d" % listener.getsockname()[1]
    try:
        with GatewayClient(contact, timeout=5.0) as client:
            queue = ExploreQueue(client, poll=poll)
            queue.push_tasks(specs)
            popped = queue.pop_results(min_results=3, timeout=10.0)
    finally:
        server.join(timeout=5)
        listener.close()
    return frames, popped


def test_the_live_and_twin_me_pumps_write_the_same_requests():
    specs = [{"kind": "explore.eval", "x": i} for i in range(3)]
    frames_http, popped = _live_pump_frames(specs, poll=0.25)

    pump = FeedPump(specs=specs, poll=0.25)
    user = HttpUser("me0", "127.0.0.1/gw", pump, period=0.0)
    user.bind_runtime(NullRuntime("me0/me"))
    frames_sim = []
    for n in range(len(FEED) + 1):
        effects = user.on_timer("http:next", float(n))
        if not effects:
            break
        frames_sim.append(effects[0].message.body["d"])
        user.on_message(segment("127.0.0.1/gw", _feed_answer(n)), n + 0.5)

    assert len(frames_http) == len(FEED)
    assert frames_sim == frames_http
    assert b"&wait=0.25 " in frames_sim[1]
    assert [frame.split(b" ")[1] for frame in frames_sim[3:5]] == [
        b"/jobs/j-2", b"/jobs/j-3"]
    assert pump.finished_at is not None and pump.seq_breaks == 1
    assert sorted(r["id"] for r in popped) == ["j-1", "j-2", "j-3"]
    assert [r["requeues"] for r in sorted(popped, key=lambda r: r["id"])] \
        == [0, 1, 0]
