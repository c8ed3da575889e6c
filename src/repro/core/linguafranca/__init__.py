"""Portable lingua franca: packet framing, typed messages, transports."""

from ..._exports import lazy_exports

_EXPORTS = {
    ".endpoint": ("SimEndpoint",),
    ".messages": ("Message", "MessageError", "fresh_req_id"),
    ".packets": ("PacketDecoder", "PacketError", "decode_packet",
                 "encode_packet"),
    ".tcp": ("AsyncSender", "EventLoop", "TcpServer", "TransportError"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
