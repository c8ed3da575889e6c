"""``repro.api.net`` — real sockets: the reactor and the wall-clock driver.

The selector :class:`EventLoop`, the lingua-franca TCP endpoints
(:class:`TcpServer` inbound, :class:`AsyncSender` outbound), and the
:class:`NetDriver` that runs :mod:`repro.api.core` components on a real
port.
"""

from __future__ import annotations

from .._exports import lazy_exports

_EXPORTS = {
    "..core.netdriver": ("NetDriver",),
    "..core.linguafranca.tcp": ("AsyncSender", "EventLoop", "TcpServer"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
