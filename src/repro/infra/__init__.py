"""Simulated Grid infrastructure adapters (the paper's §5 experiences)."""

from .._exports import lazy_exports

_EXPORTS = {
    ".base": ("ClientFactory", "InfraAdapter"),
    ".condor": ("CondorPool",),
    ".globus": ("GlobusSites",),
    ".java": ("JavaApplets",),
    ".legion": ("LegionNet", "LegionTranslator"),
    ".netsolve": ("NetSolveFarm",),
    ".nt": ("NTSupercluster",),
    ".speeds": ("JAVA_INTERP_IOPS", "JAVA_JIT_IOPS", "SPEED_CLASSES",
                "speed_for"),
    ".unixpool": ("UnixPool",),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
