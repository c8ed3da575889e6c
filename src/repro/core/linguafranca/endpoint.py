"""Simulated-network endpoint for the lingua franca.

The endpoint encodes every message through the real wire codec
(:mod:`.packets` / :mod:`.messages`) before handing the bytes to the
simulated network: transmission delay and every byte counter are computed
from the true encoded size, the same framing the TCP transport writes.
The typed record rides along with its bytes, and the receiving side
parses bytes only when nobody typed them (raw sends: fuzz, hostile
peers). A sent :class:`Message` is therefore immutable (DESIGN §7).

Receive follows the paper's discipline (§2.1): blocking receive with a
time-out (their ``select()`` idiom); connection failure is never signalled,
only inferred from missing replies.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Generator, Optional, Union

from ...simgrid.engine import Environment
from ...simgrid.network import Address, Delivery, Network
from ...simgrid.resources import get_with_timeout
from .messages import Message, MessageError, fresh_req_id
from .packets import PacketError

__all__ = ["SimEndpoint"]

AddressLike = Union[Address, str]


def _as_address(addr: AddressLike) -> Address:
    return addr if isinstance(addr, Address) else Address.parse(addr)


class SimEndpoint:
    """A bound lingua-franca port on a simulated host.

    Process-style callers block in :meth:`recv`/:meth:`request` on the
    endpoint's mailbox. A callback-driven owner passes ``sink`` instead:
    the network hands it every raw :class:`Delivery` as it arrives, there
    is no mailbox, and the endpoint is used for sending only.
    """

    def __init__(self, env: Environment, network: Network, address: Address,
                 sink: Optional[Callable[[Delivery], object]] = None) -> None:
        self.env = env
        self.network = network
        self.address = address
        self.mailbox = network.bind(address, sink=sink)
        self.decode_errors = 0
        self._backlog: deque[Message] = deque()
        self._closed = False

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.network.unbind(self.address)

    @property
    def contact(self) -> str:
        """The string address other components use to reach this endpoint."""
        return str(self.address)

    # -- sending ---------------------------------------------------------
    def send(self, dst: AddressLike, message: Message) -> None:
        """Encode and transmit; fire-and-forget."""
        if not message.sender:
            message.sender = self.contact
        # The trace context rides along out-of-band too, so the network
        # can attribute in-flight drops to the causing fault without
        # decoding payloads.
        self.network.send(self.address, _as_address(dst), message.encode(),
                          trace=message.trace, record=message)

    # -- receiving ---------------------------------------------------------
    def message_of(self, delivery: Delivery) -> Optional[Message]:
        """The delivered message: the sender's own record when one rode
        along, else parsed from the bytes — ``None`` (and counted in
        ``decode_errors``) when those are corrupt."""
        message = delivery.record
        if message is None:
            try:
                message = Message.decode(delivery.payload)
            except (MessageError, PacketError):
                self.decode_errors += 1
        return message

    def recv(self, timeout: Optional[float] = None) -> Generator:
        """Process helper: next message or None on time-out.

        Usage: ``msg = yield from endpoint.recv(5.0)``.
        """
        if self._backlog:
            # Make even the fast path yield once so callers are uniform.
            yield self.env.timeout(0)
            return self._backlog.popleft()
        msg = yield from self._recv_fresh(timeout)
        return msg

    def _recv_fresh(self, timeout: Optional[float]) -> Generator:
        """Like recv() but never consults the backlog (used by request())."""
        deadline = None if timeout is None else self.env.now + timeout
        while True:
            remaining = None if deadline is None else max(deadline - self.env.now, 0.0)
            delivery = yield from get_with_timeout(self.env, self.mailbox, remaining)
            if delivery is None:
                return None
            message = self.message_of(delivery)
            if message is not None:
                return message
            # Corrupt data on the wire: dropped, keep listening.

    def request(
        self,
        dst: AddressLike,
        message: Message,
        timeout: float,
    ) -> Generator:
        """Process helper: send a request and await its correlated reply.

        Returns ``(reply, rtt_seconds)`` or ``(None, None)`` on time-out.
        Uncorrelated messages arriving meanwhile are preserved in a backlog
        for later :meth:`recv` calls, not dropped.
        """
        message.req_id = fresh_req_id()
        started = self.env.now
        self.send(dst, message)
        deadline = started + timeout
        while True:
            remaining = deadline - self.env.now
            if remaining <= 0:
                return None, None
            reply = yield from self._recv_fresh(remaining)
            if reply is None:
                return None, None
            if reply.reply_to == message.req_id:
                return reply, self.env.now - started
            self._backlog.append(reply)
