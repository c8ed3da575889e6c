"""The §6 planned applications, delivered as shipped app kinds: PET image
reconstruction (``pet.*``) and NOW G-Net–style data mining (``gnet.*``)."""

from .._exports import lazy_exports

_EXPORTS = {
    ".": ("gnet", "pet"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
