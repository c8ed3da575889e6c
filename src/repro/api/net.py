"""``repro.api.net`` — real sockets: the reactor and the wall-clock driver.

The selector :class:`EventLoop`, the lingua-franca TCP endpoints
(:class:`TcpServer`, :class:`TcpClient`, :class:`AsyncSender`), the
:class:`NetDriver` that runs :mod:`repro.api.core` components on a real
port, and the transport benchmark (``repro bench --net``).
"""

from __future__ import annotations

from .._exports import lazy_exports

_EXPORTS = {
    "..core.netdriver": ("NetDriver",),
    "..core.linguafranca.tcp": ("AsyncSender", "EventLoop", "TcpClient",
                                "TcpServer"),
    "..core.netbench": ("run_netbench",),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
