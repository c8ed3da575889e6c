"""The twin speaks the live gateway's HTTP, hostile bytes included.

Simulated peers write raw HTTP/1.1 segments to the twin gateway, and
each case must get the status ``tests/control/test_http.py`` expects of
the live server: a torn request is served once, an oversized header
block or a malformed request line or a ``Transfer-Encoding`` gets 400,
an oversized body 413 at the header; a slowloris user holds up nobody;
an ``/events?wait=`` long-poll parks until the feed moves or its
simulated deadline passes. The pinned CI configurations then show every
twin request decoded by :class:`HttpDecoder`, answered through
``render_payload`` and read back by :class:`HttpResponseDecoder`.
"""

import pytest

import repro.control.gateway as gateway
from repro.control import (HttpDecoder, HttpResponseDecoder, HttpUser,
                           Scenario, run_scenario)
from repro.control.component import GatewayComponent
from repro.control.sim import TwinWorld
from repro.core.component import Component, Send, SetTimer, segment
from repro.core.linguafranca.messages import Message
from repro.core.services.scheduler import SCH_HELLO, SCH_REPORT


class _Peer(Component):
    """A scripted client: writes each ``(t, bytes)`` segment at simulated
    time ``t``, keeps each response as ``(arrival, status, headers,
    body)``."""

    def __init__(self, name, script):
        super().__init__(name)
        self.script = script
        self.decoder = HttpResponseDecoder()
        self.got = []

    def on_start(self, now):
        return [SetTimer(str(i), t) for i, (t, _) in enumerate(self.script)]

    def on_timer(self, key, now):
        return [Send(TwinWorld.CONTACT,
                     segment(self.contact, self.script[int(key)][1]))]

    def on_message(self, message, now):
        self.decoder.feed(message.body["d"])
        while (response := self.decoder.next_response()) is not None:
            self.got.append((now, *response))
        return []


class _Health:
    """A conversation asking ``GET /health`` and noting when each 200
    came back."""

    def __init__(self):
        self.answered = []

    def next_request(self):
        return "health", "GET", "/health", None

    def answer(self, kind, status, body, now):
        assert status == 200
        self.answered.append(now)


def _run(*scripts, until=10.0, world=None):
    world = world or TwinWorld(seed=1, restart_after=None, telemetry=None)
    peers = [_Peer(f"p{i}", script) for i, script in enumerate(scripts)]
    for peer in peers:
        world.add(peer.name, "usr", peer)
    world.env.run(until=until)
    return world, peers


def test_a_torn_request_is_served_once_when_whole():
    world, (peer,) = _run([(0.5, b"GET /hea"), (2.0, b"lth HTTP/1.1\r\n\r\n")])
    ((t, status, _, _),) = peer.got
    assert status == 200 and 2.0 < t < 2.1
    assert world.gateway.core.requests == 1


@pytest.mark.parametrize("wire, status", [
    (b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * (17 * 1024) + b"\r\n\r\n", 400),
    (b"THIS IS NOT HTTP\r\n\r\n", 400),
    (b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 400),
    (f"POST /jobs HTTP/1.1\r\nContent-Length: {300 * 1024}\r\n\r\n"
     .encode("latin-1"), 413),               # refused at the header
], ids=["header-over-16KiB", "request-line", "transfer-encoding",
        "body-over-cap"])
def test_hostile_bytes_get_the_live_status_and_close(wire, status):
    # After the error the peer opens a fresh connection: it is served.
    world, (peer,) = _run([(0.5, wire),
                           (1.0, b"GET /health HTTP/1.1\r\n\r\n")])
    (_, got, headers, body), (_, after, _, _) = peer.got
    assert (got, headers["connection"], after) == (status, "close", 200)
    assert b'"error"' in body
    assert world.gateway.core.requests == 1  # the router saw only /health
    assert len(world.gateway.work.jobs) == 0


def test_a_slowloris_is_answered_when_complete_and_delays_nobody():
    wire = b"GET /health HTTP/1.1\r\n\r\n"
    world = TwinWorld(seed=1, restart_after=None, telemetry=None)
    health = _Health()
    world.add("u0", "usr", HttpUser("u0", world.CONTACT, health, 0.5))
    _, (slow,) = _run([(1.0 + i, wire[i:i + 1]) for i in range(len(wire))],
                      until=30.0, world=world)
    ((t, status, _, _),) = slow.got
    assert status == 200 and len(wire) < t < len(wire) + 0.1
    # The other user went on at its own pace the whole time.
    assert len(health.answered) > 45
    assert max(b - a for a, b in zip(health.answered,
                                     health.answered[1:])) < 0.6


def test_a_long_poll_parks_until_its_simulated_deadline():
    _, (peer,) = _run([(0.5, b"GET /events?wait=4 HTTP/1.1\r\n\r\n"
                             b"GET /health HTTP/1.1\r\n\r\n")])
    (t_events, status, _, page), (t_health, health, _, _) = peer.got
    assert (status, page, health) == (200, b"", 200)
    assert 4.5 <= t_events < 4.6           # no sooner: the feed was quiet
    assert t_health == t_events            # pipelined behind it, in order


def test_a_long_poll_is_answered_as_soon_as_the_feed_moves():
    submit = (b'POST /jobs HTTP/1.1\r\nContent-Length: 16\r\n\r\n'
              b'{"kind": "noop"}')
    _, (poll, user) = _run([(0.5, b"GET /events?wait=20 HTTP/1.1\r\n\r\n")],
                           [(2.0, submit)])
    ((t, status, _, page),) = poll.got
    assert status == 200 and b'"event":"submitted"' in page
    assert 2.0 < t < 2.1
    assert user.got[0][1] == 201


class _Chatter(Component):
    """A worker that says hello, then reports: ``n`` scheduler messages,
    ``period`` apart from ``start``. With no job queued, none of them
    appends to the feed."""

    def __init__(self, name, start, n, period=0.1):
        super().__init__(name)
        self.times = [start + i * period for i in range(n)]

    def on_start(self, now):
        return [SetTimer(str(i), t) for i, t in enumerate(self.times)]

    def on_timer(self, key, now):
        return [Send(TwinWorld.CONTACT, Message(
            SCH_HELLO if key == "0" else SCH_REPORT, self.contact,
            {"infra": "sim", "rate": 1.0}))]


def test_a_parked_long_poll_wakes_only_when_the_feed_moves_or_its_deadline_passes():
    """Twenty scheduler messages that append nothing leave a parked
    long-poll alone; the submit that appends answers it in the hook that
    takes the submit; a long-poll no append reaches is answered at its
    deadline, not later."""
    world = TwinWorld(seed=1, restart_after=None, telemetry=None)
    gw = world.gateway
    offers, app = [], gw.app

    def offer(request):  # each time the app is offered a long-poll
        response = app(request)
        if request.path.startswith("/events"):
            offers.append((request, world.env.now, response))
        return response

    hooks, on_message = [], gw.on_message

    def hook(message, now):  # who each hook answered
        effects = on_message(message, now)
        hooks.append((message.sender, {eff.dst for eff in effects
                                       if isinstance(eff, Send)}))
        return effects

    gw.app, gw.on_message = offer, hook
    world.add("chat", "cli", _Chatter("chat", start=1.0, n=20))
    submit = (b'POST /jobs HTTP/1.1\r\nContent-Length: 16\r\n\r\n'
              b'{"kind": "noop"}')
    _, (poll, user, late) = _run(
        [(0.5, f"GET /events?since={gw.core.events.latest_seq}&wait=5 "
               f"HTTP/1.1\r\n\r\n".encode())],
        [(3.5, submit)],
        [(4.0, b"GET /events?since=0&wait=2 HTTP/1.1\r\n\r\n")],
        world=world)
    assert (gw.stats.hellos, gw.stats.reports) == (1, 19)
    first = offers[0][0]
    assert [now < 3.5 for request, now, _ in offers
            if request is first] == [True, False]  # parked once, then ...
    ((_, status, _, page),) = poll.got
    assert status == 200 and b'"event":"submitted"' in page
    # ... answered by the hook that took the submit.
    assert (user.contact, {user.contact, poll.contact}) in hooks
    second = [offered for offered in offers if offered[0] is not first]
    assert [response is None for _, _, response in second] == [True, False]
    (request, _, _), (_, answered, _) = second
    assert answered == pytest.approx(request.deadline, abs=1e-9)
    ((t_late, status, _, page),) = late.got
    assert (status, page) == (200, b"") and answered < t_late < answered + 0.1


def test_a_restart_drops_every_connection_as_a_sigkill_does():
    """What a connection held dies with it: the first half of a torn
    request (the second half then opens a new connection, and is no
    request line) and a parked long-poll, never answered."""
    world = TwinWorld(seed=1, restart_after=2.0, telemetry=None)
    _, (torn, poll) = _run([(0.5, b"GET /hea"),
                            (3.0, b"lth HTTP/1.1\r\n\r\n")],
                           [(0.5, b"GET /events?wait=5 HTTP/1.1\r\n\r\n")],
                           world=world)
    assert [status for _, status, _, _ in torn.got] == [400]
    assert poll.got == [] and world.gateway.restarts == 1


@pytest.mark.parametrize("query", ["wait=nan", "wait=-1", "limit=-1"])
def test_a_bad_events_query_is_refused_not_parked(query):
    _, (peer,) = _run([(0.5, f"GET /events?{query} HTTP/1.1\r\n\r\n"
                             .encode("latin-1"))])
    ((t, status, _, _),) = peer.got
    assert status == 400 and t < 0.6


CI_CONFIGS = {
    "users": dict(seed=11, users=4, clients=3, duration=60.0, fault_at=25.0),
    "sweep": dict(seed=3, algo="sweep", clients=2, scale=0.4,
                  duration=120.0),
    "hill": dict(seed=7, algo="hill", clients=2, scale=0.5, duration=240.0,
                 fault_at=4.0, corrupt=1),
}
#: The ``hill`` configuration restarted while the pump's long-poll is
#: parked, and how many parked requests each restart drops.
ACCOUNTED = {**{name: (config, 0) for name, config in CI_CONFIGS.items()},
             "hill-parked": ({**CI_CONFIGS["hill"], "fault_at": 3.0}, 1)}


@pytest.mark.parametrize("name", sorted(ACCOUNTED))
def test_every_twin_request_rides_the_live_decoders(name, monkeypatch):
    """Each decoded request is rendered and read back, except the parked
    long-polls a restart drops: those die decoded but unanswered."""
    counts = {"decoded": 0, "rendered": 0, "read": 0}
    dropped = []
    restart = GatewayComponent._restart

    def counting_restart(self, now):
        dropped.append(len(self.parked))
        return restart(self, now)

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += result is not None
            return result
        return wrapper

    monkeypatch.setattr(HttpDecoder, "next_request",
                        counting(HttpDecoder.next_request, "decoded"))
    monkeypatch.setattr(gateway, "render_payload",
                        counting(gateway.render_payload, "rendered"))
    monkeypatch.setattr(HttpResponseDecoder, "next_response",
                        counting(HttpResponseDecoder.next_response, "read"))
    monkeypatch.setattr(GatewayComponent, "_restart", counting_restart)
    config, parked = ACCOUNTED[name]
    report = run_scenario(Scenario(**config))
    requests = report["gateway"]["requests"]
    assert requests > 0
    assert dropped == [parked] * report["gateway"]["restarts"]
    assert counts == {"decoded": requests + sum(dropped),
                      "rendered": requests, "read": requests}
