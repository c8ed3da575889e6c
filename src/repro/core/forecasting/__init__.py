"""NWS-style performance forecasting and dynamic benchmarking."""

from ..._exports import lazy_exports

_EXPORTS = {
    ".benchmarking": ("ForecastRegistry", "event_tag"),
    ".selector": ("Forecast", "ForecasterBank"),
    ".sensors": ("NWSSensor", "NWS_PING", "NWS_PONG", "NWS_QUERY",
                 "NWS_FORECAST"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
