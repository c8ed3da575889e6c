"""Simulated Computational Grid substrate (discrete-event simulation)."""

from .._exports import lazy_exports

_EXPORTS = {
    ".engine": ("AllOf", "AnyOf", "Condition", "Environment", "Event",
                "Interrupt", "Process", "SimulationError", "Timeout"),
    ".faults": ("FaultPlan", "FaultStats", "HostCrash", "InfraOutage",
                "MessageChaos", "SitePartition"),
    ".network": ("Address", "AddressError", "Network"),
    ".resources": ("Gate", "Store", "get_with_timeout"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
