"""Same-instant order of every component hook, pinned by digest.

Three drivers run seeded random scripts: timers armed at equal deadlines,
cancelled, and re-armed earlier, later and at the same time; reliable
sends that resolve, retry and give up; deliveries landing at the same
instant as each other and as timers (a one-second, jitter-free link); and
a ``Stop`` issued from a timer while others are due. Each script draws
its next effects from its own seeded stream in hook order, so any change
in which hook runs first changes everything after it. The digest below
was computed with the driver whose wake-up was a ``Timeout`` and whose
timers lived in a dict scanned after every event (DESIGN §7 rules 1–3).
"""

import hashlib
import random

from repro.core.component import (CancelTimer, Component, Send, SetTimer,
                                  Stop)
from repro.core.linguafranca.messages import Message
from repro.core.policy import RetryPolicy
from repro.core.simdriver import SimWorld

#: sha256 of every script's hook log (see ``hook_log``).
PINNED = "c88f2f7f3d35addc20494e1121c16f57e5b0900f68d5eeaac4dcd401bc19b910"

KEYS = ("a", "b", "c")
DELAYS = (0.0, 1.0, 1.0, 2.0, 3.0)
HOOK_BUDGET = 120


class Script(Component):
    """Draws a few effects per hook from its own seeded stream."""

    def __init__(self, name, seed, peers, log):
        super().__init__(name)
        self.rng = random.Random(f"{seed}:{name}")
        self.peers = peers
        self.log = log
        self.hooks = 0

    def _note(self, now, hook, what):
        self.log.append((now, self.contact, hook, what))
        self.hooks += 1

    def _effects(self, now, may_stop=False):
        rng = self.rng
        if self.hooks > HOOK_BUDGET:
            return []
        effects = []
        for _ in range(rng.randrange(1, 4)):
            roll = rng.random()
            if roll < 0.35:
                effects.append(SetTimer(rng.choice(KEYS), rng.choice(DELAYS)))
            elif roll < 0.45:
                effects.append(CancelTimer(rng.choice(KEYS)))
            elif roll < 0.7:
                effects.append(Send(rng.choice(self.peers), Message(
                    mtype="NOTE", sender=self.contact, body={"n": 1})))
            elif roll < 0.97:
                effects.append(Send(
                    rng.choice(self.peers),
                    Message(mtype="PING", sender=self.contact, body={"n": 2}),
                    retry=RetryPolicy(max_attempts=rng.choice((1, 2, 3)),
                                      jitter=0.0),
                    timeout=rng.choice((1.0, 2.0, 3.0)),
                    label=rng.choice(("x", "y"))))
            elif may_stop and now >= 8.0:
                effects.append(Stop("script"))
        return effects

    def on_start(self, now):
        self._note(now, "start", "")
        return [SetTimer("a", 1.0)] + self._effects(now)

    def on_message(self, message, now):
        self._note(now, "message", message.mtype)
        effects = self._effects(now)
        if message.mtype == "PING" and self.rng.random() < 0.6:
            effects.append(Send(message.sender, message.reply(
                "ACK", sender=self.contact)))
        return effects

    def on_timer(self, key, now):
        self._note(now, "timer", key)
        return self._effects(now, may_stop=True)

    def on_send_failed(self, send, now):
        self._note(now, "send_failed", send.label)
        return self._effects(now)

    def on_stop(self, now, reason):
        self.log.append((now, self.contact, "stop", reason))


def hook_log(seed):
    """Every hook call of one seeded three-driver world, in order."""
    world = SimWorld(seed, intra_site_latency=1.0, bandwidth=float("inf"),
                     jitter=0.0, loss_rate=0.1)
    hosts = [world.host(f"h{i}") for i in range(3)]
    contacts = [f"h{i}/p" for i in range(3)]
    log = []
    for i, host in enumerate(hosts):
        peers = [c for c in contacts if c != contacts[i]]
        world.spawn(host, "p", Script(f"s{i}", seed, peers, log))
    world.network.start()
    world.env.run(until=40.0)
    return log


def test_every_hook_keeps_its_same_instant_order():
    digest = hashlib.sha256()
    kinds = set()
    for seed in range(12):
        log = hook_log(seed)
        kinds.update((hook, what) for _, _, hook, what in log)
        digest.update(repr(log).encode())
    # The scripts reach every path the order depends on.
    assert {("timer", k) for k in KEYS} <= kinds
    assert {("message", m) for m in ("NOTE", "PING", "ACK")} <= kinds
    assert {("send_failed", "x"), ("send_failed", "y"),
            ("stop", "script")} <= kinds
    assert digest.hexdigest() == PINNED
