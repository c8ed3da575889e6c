"""Sans-IO component model for EveryWare servers and clients.

Every EveryWare process — Gossip, scheduler, persistent state manager,
logging server, computational client — is written as a :class:`Component`:
a pure state machine that receives messages and timer expirations and
returns a list of *effects* (sends, timer updates, log lines). All I/O and
clock access lives in a *driver*:

* :class:`repro.core.simdriver.SimDriver` runs a component on a simulated
  host over the simulated network (the SC98-scale experiments), and
* :class:`repro.core.netdriver.NetDriver` runs the same component on
  real sockets (every live node, the live gateway and the live
  harness's collector).

Keeping the protocol logic free of I/O is what makes the paper's
"embarrassingly portable" property concrete here: the same component code
runs under any transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional, Protocol, Union

from .linguafranca.messages import Message
from .linguafranca.packets import packet_size
from .telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - cycle guard (policy imports forecasting,
    # whose sensors are themselves components)
    from .policy import RetryPolicy, TimeoutPolicy

__all__ = [
    "Component",
    "Runtime",
    "Effect",
    "Send",
    "SetTimer",
    "CancelTimer",
    "LogLine",
    "Stop",
    "NullRuntime",
    "SEGMENT",
    "segment",
]


@dataclass
class Send:
    """Transmit ``message`` to the component at address ``dst``.

    All effect constructors accept positional or keyword arguments;
    the reliability knobs below are keyword-only.

    When ``retry`` is given the send becomes *reliable*: the driver
    assigns a ``req_id``, waits for a correlated reply for the time-out
    resolved by ``timeout`` (a :class:`TimeoutPolicy`, a plain number of
    seconds, or ``None`` for the driver's own policy), retransmits with
    the policy's backoff, and on give-up invokes
    :meth:`Component.on_send_failed` with this effect. ``label`` lets
    the component tell its outstanding requests apart in that hook.
    """

    dst: str
    message: Message
    retry: Optional[RetryPolicy] = field(default=None, kw_only=True)
    timeout: Optional[Union[TimeoutPolicy, float]] = field(default=None, kw_only=True)
    label: Optional[str] = field(default=None, kw_only=True)


@dataclass
class SetTimer:
    """(Re)arm the named timer to fire ``delay`` seconds from now."""

    key: str
    delay: float


@dataclass
class CancelTimer:
    """Disarm the named timer if armed."""

    key: str


@dataclass
class LogLine:
    """Emit a local diagnostic line (drivers route it to the log sink)."""

    text: str
    level: str = "info"


@dataclass
class Stop:
    """Terminate the component's driver loop."""

    reason: str = ""


Effect = Union[Send, SetTimer, CancelTimer, LogLine, Stop]

#: The message type of a byte-stream segment (the one protocol streams
#: carry here).
SEGMENT = "HTTP"


class _Segment(Message):
    __slots__ = ()

    def wire_size(self) -> int:
        # The frame's header and the sender's contact, then the bytes as
        # they are: no JSON is rendered (a FIN is a flag, and is free).
        return packet_size(SEGMENT, len(self.sender) + len(self.body["d"]))


def segment(sender: str, data: bytes, fin: bool = False) -> Message:
    """A segment of ``sender``'s byte stream carrying ``data``, bytes as
    they are on both planes; ``fin`` marks the stream's end."""
    body = {"d": data}
    if fin:
        body["fin"] = True
    return _Segment(mtype=SEGMENT, sender=sender, body=body)


class Runtime(Protocol):
    """What a driver exposes to its component.

    ``speed()`` returns the host's current deliverable ops/second (zero for
    components that do no computation or in real mode where the work engine
    measures itself).
    """

    def now(self) -> float: ...

    def contact(self) -> str: ...

    def host_name(self) -> str: ...

    def speed(self) -> float: ...

    def random(self) -> float: ...


class NullRuntime:
    """Stand-in runtime for unit-testing components in isolation."""

    def __init__(self, contact: str = "test/host", t: float = 0.0, speed: float = 0.0) -> None:
        self._contact = contact
        self.t = t
        self._speed = speed
        self._rand = 0.5

    def now(self) -> float:
        return self.t

    def contact(self) -> str:
        return self._contact

    def host_name(self) -> str:
        return self._contact.split("/")[0]

    def speed(self) -> float:
        return self._speed

    def random(self) -> float:
        return self._rand


class Component:
    """Base class for sans-IO protocol cores.

    Subclasses override the ``on_*`` hooks. The driver calls
    :meth:`bind_runtime` exactly once before :meth:`on_start`.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.runtime: Optional[Runtime] = None
        #: World-shared observability handle; the driver rebinds it before
        #: ``on_start``. The private default keeps unbound components (unit
        #: tests, NullRuntime) working — metrics land in a throwaway
        #: registry and tracing stays off.
        self.telemetry: Telemetry = Telemetry()

    # -- wiring ------------------------------------------------------------
    def bind_runtime(self, runtime: Runtime) -> None:
        self.runtime = runtime

    def bind_telemetry(self, telemetry: Telemetry) -> None:
        """Attach the world's metrics registry + tracer. Components must
        fetch metric handles lazily (or in ``on_start``), never in
        ``__init__``, so they land in the bound registry."""
        self.telemetry = telemetry

    @property
    def contact(self) -> str:
        """This component's own address, once bound."""
        if self.runtime is None:
            raise RuntimeError(f"component {self.name!r} is not bound to a runtime")
        return self.runtime.contact()

    # -- hooks ------------------------------------------------------------
    def on_start(self, now: float) -> list[Effect]:
        """Called once when the driver starts the component."""
        return []

    def on_message(self, message: Message, now: float) -> list[Effect]:
        """Called for each received message."""
        return []

    def on_timer(self, key: str, now: float) -> list[Effect]:
        """Called when the named timer expires."""
        return []

    def on_send_failed(self, send: Send, now: float) -> list[Effect]:
        """Called when a reliable :class:`Send` exhausts its
        :class:`~repro.core.policy.RetryPolicy` without a correlated
        reply. Route on ``send.label`` to decide recovery (rotate to
        another server, requeue the work, log and move on)."""
        return []

    def on_stop(self, now: float, reason: str) -> None:
        """Called when the driver loop exits (host death included)."""
