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

from math import isfinite
from typing import Hashable, Optional, Union

from .selector import Forecast, ForecasterBank

__all__ = ["ForecastRegistry", "event_tag"]


def event_tag(address: str, mtype: str) -> str:
    """The canonical tag for a request-response event stream."""
    return f"{address}#{mtype}"


#: An unread stream is materialised once its sample log reaches the
#: bank's ring (its longest window), so the log stays bounded.
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

    def __init__(self) -> None:
        #: tag -> its bank, or the list of samples recorded so far for a
        #: stream nobody has read yet.
        self._streams: dict[Hashable, Union[ForecasterBank, list[float]]] = {}

    def bank(self, tag: Hashable) -> ForecasterBank:
        stream = self._streams.get(tag)
        if stream is not None and type(stream) is not list:
            return stream
        return self._replay(tag, stream or ())

    def _replay(self, tag: Hashable, log) -> ForecasterBank:
        """Build the tag's bank and feed it its unread log."""
        b = self._streams[tag] = ForecasterBank()
        for value in log:
            b.update(value)
        return b

    def record(self, tag: Hashable, value: float) -> None:
        """Note one measurement of the tagged event. The log keeps only
        what a bank would absorb: a non-finite value is refused by both."""
        stream = self._streams.get(tag)
        if stream is None:
            stream = self._streams[tag] = []
        if type(stream) is not list:
            stream.update(value)
        elif isfinite(value):
            stream.append(value)
            if len(stream) >= _LOG_CAP:
                self._replay(tag, stream)

    def forecast(self, tag: Hashable) -> Optional[Forecast]:
        stream = self._streams.get(tag)
        if stream is None:
            return None
        if type(stream) is list:
            stream = self._replay(tag, stream)
        return stream.forecast()

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
        stream = self._streams.get(tag)
        if stream is None:
            return default
        if type(stream) is list:
            stream = self._replay(tag, stream)
        fc = stream.forecast()
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
