"""The work-unit *kind* registry: the app-agnostic unit contract.

EveryWare's claim is that the toolkit is general, and the unit of that
generality is the work unit: a JSON-safe dict that travels submit →
journal → ``SCH_WORK`` → client execution → ``SCH_REPORT`` → complete
without any layer in between understanding it. What *does* understand
it is looked up here, keyed by the unit's ``kind`` field:

* ``validate(spec)`` — is this spec executable at all (gateway/admission
  side);
* ``engine_factory()`` — the client-side
  :class:`~repro.ramsey.client.ComputeEngine` that executes it
  (dispatched per-unit by :class:`KindEngine`, so one client process can
  execute whichever kind it is handed);
* ``check_result(spec, result)`` — a pluggable sanity check the work
  store runs *before* accepting a remote completion (the paper's §3.1
  distrust-remote-results discipline, generalized from counter-example
  verification: a rejected result is requeued, never recorded).

Units without a ``kind`` field default to ``"ramsey"`` — the original
application predates the field, and every journaled spec from before
this registry existed must keep meaning what it meant. Unknown kinds are
admitted unchecked (the queue is a transport, not a gatekeeper); only
*registered* kinds get validation and result checks.

Lookup supports one level of wildcarding: ``explore.eval`` falls back to
an ``explore.*`` registration, so an app family can share one contract.
The kinds the toolkit ships are found by name (:data:`SHIPPED_KINDS`),
not by whatever a process happened to import.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = [
    "AppKind",
    "DEFAULT_KIND",
    "EngineStatus",
    "KIND_FIELD",
    "KindEngine",
    "KindRegistry",
    "ResultCheckError",
    "SHIPPED_KINDS",
    "kind_of",
    "register_kind",
    "registry",
]

#: The spec/unit field naming the app kind.
KIND_FIELD = "kind"

#: Kind assumed for specs that predate the field (the Ramsey search).
DEFAULT_KIND = "ramsey"

#: The kinds the toolkit ships, by the module whose import registers
#: them on the default registry. A lookup that misses one of these
#: imports its home first, so a gateway that never builds an engine
#: still distrusts results (§3.1) whatever else it imported.
SHIPPED_KINDS = {
    "ramsey": "repro.ramsey.tasks",
    "explore.*": "repro.explore.engine",
}


class ResultCheckError(Exception):
    """A remote result failed its kind's sanity check (distrust it)."""


@dataclass(frozen=True)
class AppKind:
    """One registered application kind (see module docstring)."""

    name: str
    #: Raises ``ValueError`` for specs that can never execute.
    validate: Optional[Callable[[dict], None]] = None
    #: Builds a fresh client-side ComputeEngine for this kind.
    engine_factory: Optional[Callable[[], Any]] = None
    #: Raises :class:`ResultCheckError` for results to be distrusted.
    check_result: Optional[Callable[[dict, Optional[dict]], None]] = None
    description: str = ""


class KindRegistry:
    """Name → :class:`AppKind`, with ``family.*`` wildcard fallback."""

    def __init__(self) -> None:
        self._kinds: dict[str, AppKind] = {}

    def register(self, kind: AppKind, replace: bool = False) -> AppKind:
        if not replace and kind.name in self._kinds:
            raise ValueError(f"app kind {kind.name!r} already registered")
        self._kinds[kind.name] = kind
        return kind

    def get(self, name: str) -> Optional[AppKind]:
        """Exact match first, then the ``family.*`` wildcard; a miss on a
        shipped kind imports its home module and looks again."""
        head, sep, _ = name.partition(".")
        family = f"{head}.*" if sep else None
        kind = self._kinds.get(name) or self._kinds.get(family)
        if kind is None:
            home = SHIPPED_KINDS.get(name) or SHIPPED_KINDS.get(family)
            if home is not None:
                importlib.import_module(home)
                kind = self._kinds.get(name) or self._kinds.get(family)
        return kind

    def names(self) -> list[str]:
        """Every registered kind, the shipped ones included."""
        for home in SHIPPED_KINDS.values():
            importlib.import_module(home)
        return sorted(self._kinds)

    def kind_of(self, spec: dict) -> str:
        """The spec's kind name (``DEFAULT_KIND`` when unlabelled)."""
        name = spec.get(KIND_FIELD) if isinstance(spec, dict) else None
        return str(name) if name else DEFAULT_KIND

    def validate(self, spec: dict) -> None:
        """Run the kind's validator, if one is registered (ValueError)."""
        kind = self.get(self.kind_of(spec))
        if kind is not None and kind.validate is not None:
            kind.validate(spec)

    def checker_for(self, spec: dict) -> Optional[Callable]:
        """The result sanity check for this spec's kind, or None."""
        kind = self.get(self.kind_of(spec))
        return None if kind is None else kind.check_result


#: The process-wide default registry. Applications register at import
#: time (``repro.ramsey.tasks`` claims ``ramsey``,
#: ``repro.explore.engine`` claims ``explore.eval``). A process that
#: imported neither — a gateway only routes and stores units — still
#: checks both: the first lookup of a shipped kind imports its home.
registry = KindRegistry()


def register_kind(
    name: str,
    validate: Optional[Callable[[dict], None]] = None,
    engine_factory: Optional[Callable[[], Any]] = None,
    check_result: Optional[Callable[[dict, Optional[dict]], None]] = None,
    description: str = "",
    replace: bool = False,
) -> AppKind:
    """Register an :class:`AppKind` on the default registry."""
    return registry.register(
        AppKind(name=name, validate=validate, engine_factory=engine_factory,
                check_result=check_result, description=description),
        replace=replace)


def kind_of(spec: dict) -> str:
    """The kind name of ``spec`` under the default registry."""
    return registry.kind_of(spec)


@dataclass
class EngineStatus:
    """Outcome of one compute slice (what every engine's ``advance``
    returns, whatever its kind)."""

    ops_done: float
    energy: float
    best_energy: float
    found: Optional[dict] = None  # counter-example object, when newly found
    done: bool = False  # unit budget exhausted


@dataclass
class KindEngine:
    """A ComputeEngine that dispatches per-unit on the unit's kind.

    Clients hold one of these instead of a concrete engine, so the same
    process executes whichever kind the scheduler hands it: ``load``
    resolves the unit's kind to an engine (explicit ``engines`` map
    first — exact name, then ``family.*`` — falling back to the
    registry's ``engine_factory``) and every other engine call delegates
    to the engine of the unit in hand. Engines are cached per kind, so a
    client flip-flopping between kinds keeps both warm.
    """

    #: Pre-built engines by kind name (exact or ``family.*``); lets the
    #: deployment plane configure e.g. the Ramsey engine's step cap.
    engines: dict[str, Any] = field(default_factory=dict)
    kinds: KindRegistry = field(default_factory=lambda: registry)
    active: Optional[Any] = None
    active_kind: Optional[str] = None

    def engine_for(self, kind: str) -> Any:
        engine = self.engines.get(kind)
        if engine is None:
            head, sep, _ = kind.partition(".")
            if sep:
                engine = self.engines.get(f"{head}.*")
        if engine is None:
            app = self.kinds.get(kind)
            if app is not None and app.engine_factory is not None:
                engine = app.engine_factory()
        if engine is None:
            raise ValueError(f"no engine for app kind {kind!r}")
        self.engines[kind] = engine
        return engine

    # -- the ComputeEngine protocol, dispatched ------------------------------
    def load(self, unit: dict, rng) -> None:
        kind = self.kinds.kind_of(unit)
        engine = self.engine_for(kind)
        engine.load(unit, rng)
        self.active = engine
        self.active_kind = kind

    def advance(self, ops_budget: float):
        assert self.active is not None
        return self.active.advance(ops_budget)

    def progress(self) -> dict:
        return self.active.progress() if self.active is not None else {}

    def result(self) -> Optional[dict]:
        """The active engine's structured result, when it produces one
        (engines without a ``result()`` report progress instead)."""
        produce = getattr(self.active, "result", None)
        return produce() if callable(produce) else None

    def apply_params(self, params: dict) -> bool:
        apply = getattr(self.active, "apply_params", None)
        return bool(apply(params)) if callable(apply) else False
