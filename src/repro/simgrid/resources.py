"""Waitable resources for the simulation engine: mailboxes and gates.

:class:`Store` is the FIFO mailbox used by simulated transports; it is the
rendezvous point between message-delivery events and processes blocked in
``recv``. :class:`Gate` is a broadcast signal usable by many waiters.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional

from .engine import AnyOf, Environment, Event, SimulationError

__all__ = ["Store", "StoreGet", "StorePut", "Gate", "get_with_timeout"]


class StoreGet(Event):
    """Event that triggers when an item becomes available in the store."""

    __slots__ = ("store",)

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        self.store = store
        store._getters.append(self)
        store._service()

    def cancel(self) -> None:
        """Withdraw this get request (e.g. after a timeout won the race)."""
        if self._state == 0:  # still pending
            try:
                self.store._getters.remove(self)
            except ValueError:
                pass


class StorePut(Event):
    """Event that triggers when the item has been accepted by the store."""

    __slots__ = ("store", "item")

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.store = store
        self.item = item
        store._putters.append(self)
        store._service()

    def cancel(self) -> None:
        if self._state == 0:
            try:
                self.store._putters.remove(self)
            except ValueError:
                pass


class Store:
    """An unordered-capacity FIFO store of items.

    ``capacity`` bounds the number of queued items; puts beyond capacity
    block until space frees up (capacity ``inf`` by default).
    """

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._getters: deque[StoreGet] = deque()
        self._putters: deque[StorePut] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Offer ``item``; returns an event triggering on acceptance."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Request an item; returns an event triggering with the item."""
        return StoreGet(self)

    def _service(self) -> None:
        """Match queued putters to capacity and items to getters."""
        progress = True
        while progress:
            progress = False
            while self._putters and len(self.items) < self.capacity:
                put = self._putters.popleft()
                self.items.append(put.item)
                put.succeed()
                progress = True
            while self._getters and self.items:
                get = self._getters.popleft()
                get.succeed(self.items.popleft())
                progress = True


class Gate:
    """A broadcast signal: many processes wait; one ``fire`` wakes all."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._waiters: list[Event] = []

    def wait(self) -> Event:
        ev = Event(self.env)
        self._waiters.append(ev)
        return ev

    def fire(self, value: Any = None) -> int:
        """Wake all current waiters; returns how many were woken."""
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed(value)
        return len(waiters)


def get_with_timeout(
    env: Environment, store: Store, timeout: Optional[float]
) -> Generator:
    """Process helper: get from ``store`` or give up after ``timeout``.

    Yields once; the generator's return value is the item, or ``None`` on
    timeout. Usage::

        item = yield from get_with_timeout(env, mailbox, 5.0)
    """
    get_ev = store.get()
    if timeout is None:
        item = yield get_ev
        return item
    to_ev = env.timeout(timeout)
    yield AnyOf(env, [get_ev, to_ev])
    if get_ev.triggered:
        return get_ev.value
    get_ev.cancel()
    return None
