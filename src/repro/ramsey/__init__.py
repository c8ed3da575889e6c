"""The Ramsey Number Search application (the paper's example Grid program)."""

from .._exports import lazy_exports

_EXPORTS = {
    ".client": ("RAMSEY_BEST", "ComputeEngine", "EngineStatus", "ModelEngine",
                "RamseyClient", "RealEngine", "ramsey_comparator"),
    ".graphs": ("BLUE", "RED", "Coloring", "OpCounter", "count_mono_cliques",
                "count_mono_cliques_with_edge"),
    ".heuristics": ("Annealing", "MinConflicts", "SearchSnapshot",
                    "TabuSearch", "make_search"),
    ".known": ("KNOWN_RAMSEY", "PALEY_WITNESSES", "SEARCH_TARGETS",
               "paley_coloring"),
    ".tasks": ("make_unit", "run_unit", "unit_generator", "validate_unit"),
    ".verify": ("counter_example_validator", "find_mono_clique",
                "is_counter_example", "verify_counter_example_object"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
