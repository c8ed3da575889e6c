"""EveryWare toolkit: lingua franca, forecasting, gossip, services."""

from .._exports import lazy_exports

_EXPORTS = {
    ".component": ("CancelTimer", "Component", "Effect", "LogLine",
                   "NullRuntime", "Send", "SetTimer", "Stop"),
    ".policy": ("RetryPolicy", "TimeoutPolicy"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
