"""The lazy `reconkit` package: the names it exports and where they resolve."""

import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import reconkit

# the names `reconkit` exported when it imported every module up front
EXPORTS = {
    "canon": "are_isomorphic canonical_form canonical_labeling certificate "
    "clear_certificate_cache find_isomorphism",
    "deck": "Deck build_deck deck_equal deck_from_text deck_to_text endvertex_deck "
    "subdeck_contained",
    "deciders": "PreimageSet deck_check enum_preimages find_preimage legit_edge "
    "legit_vertex subdeck_check two_lvd",
    "errors": "CapacityError Graph6ParseError InputError ReconError",
    "families": "clique_union_pair is_clique_union many_preimage_deck "
    "many_preimage_graphs",
    "graph": "Graph complement complete_graph copies delete_edges delete_vertices "
    "empty_graph enumerate_graphs graph6_decode graph6_encode is_connected join "
    "line_graph path_graph permute union",
    "recon": "ReconNumber identifies recon_number threshold",
    "reductions": "gi_to_kedc gi_to_kled gi_to_klvd gi_to_led gi_to_lvd "
    "kedc_to_kvdc",
    "verify": "CriterionResult ReductionReport run_all run_sweep verify_reduction",
}
HOMES = [(name, module) for module, names in EXPORTS.items() for name in names.split()]


def test_all_lists_the_exported_names():
    assert len(HOMES) == 60
    assert sorted(reconkit.__all__) == sorted(name for name, _ in HOMES)
    assert set(reconkit.__all__) <= set(dir(reconkit))


@pytest.mark.parametrize("name, module", HOMES)
def test_each_name_is_its_defining_modules_object(name, module):
    value = getattr(reconkit, name)
    assert value is getattr(import_module(f"reconkit.{module}"), name)
    assert vars(reconkit)[name] is value  # cached after the first lookup


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from reconkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(reconkit.__all__)


def test_unknown_attribute_is_attribute_error():
    assert not hasattr(reconkit, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        reconkit.no_such_name  # noqa: B018


def test_bare_import_loads_no_layer_until_one_is_used():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import reconkit; "
        "print(*sorted(m for m in sys.modules if m.startswith('reconkit'))); "
        "print(reconkit.graph.__name__, reconkit.Graph is reconkit.graph.Graph)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(src)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines() == ["reconkit", "reconkit.graph True"]
