"""Dynamic benchmarking: tagged program events fed to forecaster banks.

The paper instruments "arbitrary but repetitive program events" with
timing primitives and passes the timings to the forecasting modules
(§2.2). Each event stream is identified by a *tag* — in EveryWare, the
pair ``(server address, message type)`` for request-response events — and
gets its own :class:`~.selector.ForecasterBank`.

:meth:`ForecastRegistry.timeout` is the *dynamic time-out discovery* the
paper credits with overall program stability: the message time-out is the
forecast response time scaled by a safety multiplier, clamped to sane
bounds, with a default before any history exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Sequence, Union

from .forecasters import Forecaster
from .selector import Forecast, ForecasterBank

__all__ = ["EventTimer", "ForecastRegistry", "event_tag"]


def event_tag(address: str, mtype: str) -> str:
    """The canonical tag for a request-response event stream."""
    return f"{address}#{mtype}"


#: An unread stream is materialised once its sample log reaches the
#: longest forecaster window in the default bank, so the log stays bounded.
_LOG_CAP = 50


class ForecastRegistry:
    """Keyed collection of forecaster banks.

    State is created on first read: :meth:`record` appends to a flat
    per-tag sample log, and the tag's :class:`ForecasterBank` is built by
    replaying that log the first time anyone asks for a forecast (or the
    log reaches ``_LOG_CAP`` samples). Replaying feeds the bank the same
    values in the same order, so every served forecast is bit-identical
    to updating eagerly; a stream nobody reads costs one list.
    """

    def __init__(
        self, bank_factory: Optional[Callable[[], Sequence[Forecaster]]] = None
    ) -> None:
        self._bank_factory = bank_factory
        #: tag -> its bank, or the list of samples recorded so far for a
        #: stream nobody has read yet.
        self._streams: dict[Hashable, Union[ForecasterBank, list[float]]] = {}

    def bank(self, tag: Hashable) -> ForecasterBank:
        stream = self._streams.get(tag)
        if stream is not None and type(stream) is not list:
            return stream
        forecasters = self._bank_factory() if self._bank_factory else None
        b = ForecasterBank(forecasters)
        for value in stream or ():
            b.update(value)
        self._streams[tag] = b
        return b

    def record(self, tag: Hashable, value: float) -> None:
        """Note one measurement of the tagged event."""
        stream = self._streams.get(tag)
        if stream is None:
            self._streams[tag] = [value]
        elif type(stream) is list:
            stream.append(value)
            if len(stream) >= _LOG_CAP:
                self.bank(tag)
        else:
            stream.update(value)

    def forecast(self, tag: Hashable) -> Optional[Forecast]:
        if tag in self._streams:
            return self.bank(tag).forecast()
        return None

    def timeout(
        self,
        tag: Hashable,
        multiplier: float = 4.0,
        default: float = 10.0,
        floor: float = 0.5,
        ceiling: float = 120.0,
    ) -> float:
        """Dynamic time-out for the tagged event (§2.2).

        forecast x multiplier, clamped to [floor, ceiling]; ``default``
        before any measurement exists.
        """
        fc = self.forecast(tag)
        if fc is None:
            return default
        return min(max(fc.value * multiplier, floor), ceiling)

    def drop(self, tag: Hashable) -> None:
        """Forget a stream (e.g. its component was evicted/reaped), so
        long-running servers do not accumulate state for dead peers."""
        self._streams.pop(tag, None)

    def tags(self) -> list[Hashable]:
        return list(self._streams)

    def __len__(self) -> int:
        return len(self._streams)


@dataclass
class _OpenEvent:
    tag: Hashable
    started: float


class EventTimer:
    """Times begin/end-delimited program events and feeds a registry.

    Tokens distinguish concurrent events with the same tag (e.g. two
    outstanding requests to the same server).
    """

    def __init__(self, registry: ForecastRegistry) -> None:
        self.registry = registry
        self._open: dict[Hashable, _OpenEvent] = {}

    def begin(self, tag: Hashable, now: float, token: Hashable = None) -> None:
        self._open[(tag, token)] = _OpenEvent(tag, now)

    def end(self, tag: Hashable, now: float, token: Hashable = None) -> Optional[float]:
        """Close the event; returns its duration (None if never opened —
        e.g. the begin was lost to a failure, which is not an error)."""
        ev = self._open.pop((tag, token), None)
        if ev is None:
            return None
        duration = now - ev.started
        self.registry.record(tag, duration)
        return duration

    def abandon(self, tag: Hashable, token: Hashable = None) -> None:
        """Forget an open event without recording (request timed out)."""
        self._open.pop((tag, token), None)

    @property
    def open_count(self) -> int:
        return len(self._open)
