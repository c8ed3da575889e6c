"""A mailbox for generator processes: :class:`Store` and
:func:`get_with_timeout`.

:class:`Store` is the FIFO rendezvous between message-delivery entries and
processes blocked in ``recv`` (:meth:`Network.bind`'s default sink and
:class:`~repro.core.linguafranca.endpoint.SimEndpoint`'s ``recv`` and
``request``). Nothing in the product blocks on one: the end-to-end
benchmark's ladder is its only caller.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Generator, Optional

from .engine import Environment, Event

__all__ = ["Store", "StoreGet", "get_with_timeout"]


class StoreGet(Event):
    """Event that triggers when an item becomes available in the store."""

    __slots__ = ("store",)

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        self.store = store
        store._getters.append(self)
        store._serve()

    def cancel(self) -> None:
        """Withdraw this get request (e.g. after a timeout won the race)."""
        if self._state == 0:  # still pending
            try:
                self.store._getters.remove(self)
            except ValueError:
                pass


class Store:
    """An unbounded FIFO store of items."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.items: deque[Any] = deque()
        self._getters: deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Add ``item``; returns an event, already triggered, for a
        process to yield."""
        self.items.append(item)
        accepted = Event(self.env).succeed()
        self._serve()
        return accepted

    def get(self) -> StoreGet:
        """Request an item; returns an event triggering with the item."""
        return StoreGet(self)

    def _serve(self) -> None:
        """Hand queued items to waiting getters, oldest first."""
        while self._getters and self.items:
            self._getters.popleft().succeed(self.items.popleft())


def get_with_timeout(
    env: Environment, store: Store, timeout: Optional[float]
) -> Generator:
    """Process helper: get from ``store`` or give up after ``timeout``.

    Yields once; the generator's return value is the item, or ``None`` on
    timeout. Usage::

        item = yield from get_with_timeout(env, mailbox, 5.0)
    """
    get_ev = store.get()
    if timeout is not None:
        env.call(partial(_expire, get_ev), timeout)
    item = yield get_ev
    return item


def _expire(get_ev: StoreGet, _tag: int) -> None:
    """The timeout won the race: withdraw the get, which yields None."""
    if not get_ev.triggered:
        get_ev.cancel()
        get_ev.succeed(None)
