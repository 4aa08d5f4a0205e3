"""reconkit: graph reconstruction decks, deciders, reductions, and numbers."""

from .canon import (
    are_isomorphic,
    canonical_form,
    canonical_labeling,
    certificate,
    clear_certificate_cache,
    find_isomorphism,
)
from .deck import (
    Deck,
    build_deck,
    deck_equal,
    deck_from_text,
    deck_to_text,
    endvertex_deck,
    subdeck_contained,
)
from .deciders import (
    PreimageSet,
    deck_check,
    enum_preimages,
    find_preimage,
    legit_edge,
    legit_vertex,
    subdeck_check,
    two_lvd,
)
from .errors import CapacityError, Graph6ParseError, InputError, ReconError
from .families import (
    clique_union_pair,
    is_clique_union,
    many_preimage_deck,
    many_preimage_graphs,
)
from .graph import (
    Graph,
    complement,
    complete_graph,
    copies,
    delete_edges,
    delete_vertices,
    empty_graph,
    enumerate_graphs,
    graph6_decode,
    graph6_encode,
    is_connected,
    join,
    line_graph,
    path_graph,
    permute,
    union,
)
from .recon import ReconNumber, identifies, recon_number, threshold
from .reductions import (
    ReductionReport,
    gi_to_kedc,
    gi_to_kled,
    gi_to_klvd,
    gi_to_led,
    gi_to_lvd,
    kedc_to_kvdc,
    verify_reduction,
)
from .verify import CriterionResult, run_all, run_sweep

__version__ = "0.1.0"
