"""Applications built on the EveryWare service framework (§6 future work,
delivered): PET image reconstruction and NOW G-Net–style data mining."""

from .._exports import lazy_exports

_EXPORTS = {
    ".": ("gnet", "pet"),
    ".runner": ("FarmRun", "run_farm"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
