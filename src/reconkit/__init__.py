"""reconkit: graph reconstruction decks, deciders, reductions, and numbers.

Modules load on first use (PEP 562): ``import reconkit`` runs no layer,
and ``reconkit.<name>`` imports the module that defines the name, so a
cold command-line call pays only for the layers it runs:
``from reconkit import certificate`` loads ``canon``, ``graph`` and
``errors`` and nothing else.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULE_EXPORTS = {
    "canon": (
        "are_isomorphic",
        "canonical_form",
        "canonical_labeling",
        "certificate",
        "clear_certificate_cache",
        "find_isomorphism",
    ),
    "deck": (
        "Deck",
        "build_deck",
        "deck_equal",
        "deck_from_text",
        "deck_to_text",
        "endvertex_deck",
        "subdeck_contained",
    ),
    "deciders": (
        "PreimageSet",
        "deck_check",
        "enum_preimages",
        "find_preimage",
        "legit_edge",
        "legit_vertex",
        "subdeck_check",
        "two_lvd",
    ),
    "errors": ("CapacityError", "Graph6ParseError", "InputError", "ReconError"),
    "families": (
        "clique_union_pair",
        "is_clique_union",
        "many_preimage_deck",
        "many_preimage_graphs",
    ),
    "graph": (
        "Graph",
        "complement",
        "complete_graph",
        "copies",
        "delete_edges",
        "delete_vertices",
        "empty_graph",
        "enumerate_graphs",
        "graph6_decode",
        "graph6_encode",
        "is_connected",
        "join",
        "line_graph",
        "path_graph",
        "permute",
        "union",
    ),
    "recon": ("ReconNumber", "identifies", "recon_number", "threshold"),
    "reductions": (
        "gi_to_kedc",
        "gi_to_kled",
        "gi_to_klvd",
        "gi_to_led",
        "gi_to_lvd",
        "kedc_to_kvdc",
    ),
    "verify": (
        "CriterionResult",
        "ReductionReport",
        "run_all",
        "run_sweep",
        "verify_reduction",
    ),
}
_HOME = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _MODULE_EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
