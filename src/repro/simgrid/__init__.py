"""Simulated Computational Grid substrate (discrete-event simulation)."""

from .._exports import lazy_exports

_EXPORTS = {
    ".engine": ("Environment", "Event", "Process", "SimulationError",
                "Timeout"),
    ".faults": ("FaultPlan", "FaultStats", "HostCrash", "InfraOutage",
                "MessageChaos", "SitePartition"),
    ".network": ("Address", "AddressError", "Network"),
    ".resources": ("Store", "get_with_timeout"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
