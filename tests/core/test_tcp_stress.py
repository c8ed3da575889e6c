"""Stress and fragmentation tests for the TCP transport."""

import socket
import threading
import time

import pytest

from repro.core.linguafranca.messages import Message
from repro.core.linguafranca.tcp import TcpServer

from tests.core.test_tcp import ServerThread, request


def echo(message):
    if message.mtype == "BIG":
        return message.reply("BIG_OK", sender="",
                             body={"size": len(message.body.get("blob", ""))})
    return message.reply("OK", sender="", body={})


def test_large_payload_roundtrip():
    """A payload far larger than any single recv() buffer must reassemble."""
    server = TcpServer("127.0.0.1", 0, echo)
    host, port = server.address
    with ServerThread(server):
        blob = "x" * 500_000
        reply = request(host, port, Message(
            mtype="BIG", sender="", body={"blob": blob}), timeout=10)
        assert reply is not None
        assert reply.mtype == "BIG_OK"
        assert reply.body["size"] == 500_000


def test_pipelined_messages_single_connection():
    """Several packets written in one TCP stream are all dispatched."""
    seen = []

    def handler(message):
        seen.append(message.body["i"])
        return None

    server = TcpServer("127.0.0.1", 0, handler)
    host, port = server.address
    with ServerThread(server):
        stream = b"".join(
            Message(mtype="SEQ", sender="pipeliner", body={"i": i}).encode()
            for i in range(10)
        )
        with socket.create_connection((host, port)) as sock:
            sock.sendall(stream)
        deadline = time.monotonic() + 3
        while len(seen) < 10 and time.monotonic() < deadline:
            time.sleep(0.01)
    assert seen == list(range(10))


def test_concurrent_clients():
    """Multiple client threads against one single-threaded reactor."""
    server = TcpServer("127.0.0.1", 0, echo)
    host, port = server.address
    results = []
    lock = threading.Lock()

    def worker(wid):
        for i in range(10):
            reply = request(host, port, Message(
                mtype="PING", sender=f"w{wid}", body={"w": wid, "i": i}),
                timeout=5)
            with lock:
                results.append(reply is not None and reply.mtype == "OK")

    with ServerThread(server):
        threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    assert len(results) == 40
    assert all(results)
    assert server.messages_handled == 40


def test_byte_by_byte_delivery():
    """Adversarially slow sender: one byte per write still decodes."""
    got = []

    def handler(message):
        got.append(message.body)
        return None

    server = TcpServer("127.0.0.1", 0, handler)
    host, port = server.address
    with ServerThread(server):
        data = Message(mtype="SLOW", sender="drip", body={"v": 42}).encode()
        with socket.create_connection((host, port)) as sock:
            for i in range(len(data)):
                sock.sendall(data[i : i + 1])
                if i % 7 == 0:
                    time.sleep(0.001)
        deadline = time.monotonic() + 3
        while not got and time.monotonic() < deadline:
            time.sleep(0.01)
    assert got == [{"v": 42}]
