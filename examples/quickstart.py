#!/usr/bin/env python
"""Quickstart: the EveryWare toolkit in five minutes.

Demonstrates, on one machine, each toolkit layer from the paper:

1. the lingua franca over **real TCP sockets** (packet framing, typed
   messages, request/response correlated by ``req_id``), single-threaded:
   two servers and a sender on one event loop, the way a live node runs;
2. the **forecasting service** predicting response times and deriving a
   dynamic time-out;
3. the **Ramsey search kernel** finding an actual counter-example
   proving R(3,3) > 5, verified independently.

Run: ``python examples/quickstart.py``
"""

import time

import numpy as np

from repro.api import (
    AsyncSender,
    Coloring,
    EventLoop,
    ForecastRegistry,
    Message,
    TabuSearch,
    TcpServer,
    event_tag,
    is_counter_example,
)


def main() -> None:
    # -- 1. lingua franca over real sockets --------------------------------
    print("== lingua franca over TCP ==")
    # One select() loop carries everything. Replies travel datagram-style
    # as fresh frames to the requester's own listening contact, which is
    # how every EveryWare peer (and the NetDriver) talks.
    loop = EventLoop()
    sender = AsyncSender(loop, sender="quickstart")
    replies: list[Message] = []

    def service(message: Message):
        if message.mtype == "PING":
            host, _, port = message.sender.rpartition(":")
            sender.post(host, int(port), message.reply(
                "PONG", sender="", body={"got": message.body}))

    server = TcpServer("127.0.0.1", 0, service, loop=loop)
    inbox = TcpServer("127.0.0.1", 0, replies.append, loop=loop)
    host, port = server.address

    registry = ForecastRegistry()
    tag = event_tag(server.contact, "PING")
    for i in range(10):
        started = time.monotonic()
        deadline = started + registry.timeout(tag, default=2.0)
        sender.post(host, port, Message(
            mtype="PING", sender=inbox.contact, body={"i": i}, req_id=i + 1))
        while not replies and time.monotonic() < deadline:
            loop.step(0.01)
            sender.service()
        rtt = time.monotonic() - started
        assert replies, "no reply within the forecast time-out"
        reply = replies.pop()
        assert reply.mtype == "PONG" and reply.reply_to == i + 1
        registry.record(tag, rtt)
    sender.close()
    loop.close()

    fc = registry.forecast(tag)
    print(f"  10 request/response round trips OK")
    print(f"  forecast rtt = {fc.value * 1e3:.2f} ms (method: {fc.method})")
    print(f"  dynamic time-out = {registry.timeout(tag):.3f} s "
          f"(vs naive static default 10 s)")

    # -- 2. Ramsey search ---------------------------------------------------
    print("== Ramsey counter-example search ==")
    search = TabuSearch(5, 3, np.random.default_rng(0))
    search.run(max_steps=2000)
    assert search.found
    best = Coloring.from_hex(5, search.snapshot().best_coloring)
    assert is_counter_example(best, 3)
    print(f"  found a 2-coloring of K_5 with no monochromatic triangle")
    print(f"  => R(3,3) > 5 (in fact R(3,3) = 6), verified independently")
    print(f"  steps: {search.steps}, metered integer ops: {search.ops.ops:,}")
    print("quickstart complete.")


if __name__ == "__main__":
    main()
