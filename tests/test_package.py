"""The lazy `reconkit` package: the names it exports and where they resolve."""

import re
import subprocess
import sys
from collections import Counter
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


def test_canon_cold_import_loads_only_pinned_stdlib_modules():
    # every cold CLI call imports canon and graph; beyond what typing
    # itself loads, they may load only these (binascii is the graph6
    # kernel's, an extension module; base64 would add its own imports).
    # -I ignores PYTHONDONTWRITEBYTECODE, so -B keeps the probe from
    # leaving bytecode in src
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import __future__, typing; "
        "before = set(sys.modules); import reconkit.canon; "
        "print(*sorted(set(sys.modules) - before))"
    )
    cached = set(src.rglob("*.pyc"))
    out = subprocess.run(
        [sys.executable, "-S", "-I", "-B", "-c", probe, str(src)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert set(src.rglob("*.pyc")) == cached
    loaded = {name for name in out.split() if not name.startswith("reconkit")}
    assert loaded <= {
        "binascii", "importlib", "importlib._bootstrap", "importlib._bootstrap_external"
    }


def test_result_types_keep_their_contract():
    # the fields callers read, equality, immutability and repr of the four
    # results, and the immutability and repr of a deck
    import math

    from reconkit import (
        CriterionResult,
        Deck,
        ReconNumber,
        ReductionReport,
        complete_graph,
        enum_preimages,
    )

    assert ReconNumber._fields == ("value", "witness", "counterexample")
    assert ReconNumber._field_defaults == {"witness": None, "counterexample": None}
    assert CriterionResult._fields == ("name", "passed", "detail", "elapsed")
    assert CriterionResult._field_defaults == {}
    assert ReductionReport._fields == ("checked", "violations")
    assert ReductionReport._field_defaults == {"violations": ()}

    deck = Deck("vertex", [complete_graph(2)])
    found = enum_preimages(deck, 1, "sub")  # K2 + K1, P3 and K3
    rn = ReconNumber(3, witness=deck)
    result = CriterionResult("graph6", True, "ok", 0.5)
    report = ReductionReport(4)
    assert rn == ReconNumber(3, deck, None)
    assert result == CriterionResult("graph6", True, "ok", 0.5)
    assert report == ReductionReport(4, ()) and report.ok
    assert not ReductionReport(4, ("n=3 g=Bw h=Bw expected=True got=False",)).ok
    assert found == enum_preimages(deck, 1, "sub")
    for value, field in [(rn, "value"), (result, "name"), (report, "checked"),
                         (found, "preimages"), (deck, "kind")]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        assert repr(value).startswith(f"{type(value).__name__}({field}=")
    assert rn.finite and not ReconNumber(math.inf).finite
    assert len(found) == len(list(found)) == len(found.preimages) == 3
    assert found.preimages == tuple(found)
    assert result.line() == "PASS graph6: ok (0.5s)"
    assert result._replace(passed=False).line() == "FAIL graph6: ok (0.5s)"


def _guard_calls():
    from reconkit import (
        Deck,
        Graph,
        build_deck,
        complete_graph,
        copies,
        deck_from_text,
        delete_edges,
        gi_to_kedc,
        gi_to_kled,
        gi_to_klvd,
        gi_to_led,
        gi_to_lvd,
        graph6_decode,
        graph6_encode,
        identifies,
        kedc_to_kvdc,
        path_graph,
        recon_number,
        subdeck_check,
    )
    from reconkit.errors import CapacityError, InputError

    k3 = complete_graph(3)
    edge_cards = build_deck(k3, "edge", 1)
    builders = [gi_to_lvd, gi_to_led, gi_to_kedc, gi_to_klvd, gi_to_kled]
    calls = [
        ("edge deck c > m", lambda: subdeck_check(path_graph(3), edge_cards, 3),
         InputError, "cannot delete 3 edges from 2 edges"),
        ("unknown deck kind", lambda: Deck("bogus", []), InputError, "unknown deck kind"),
        ("deck file kind", lambda: deck_from_text("Bw\n", kind="bogus", source="x.g6"),
         InputError, "^x\\.g6: unknown deck kind 'bogus'$"),
        ("build_deck c < 0", lambda: build_deck(k3, "vertex", -1), InputError, ">= 0"),
        ("build_deck endvertex", lambda: build_deck(k3, "endvertex", 1), InputError,
         "must be vertex or edge"),
        ("rn kind", lambda: recon_number(k3, "bogus", "exists"), InputError,
         "kind must be vertex or edge"),
        ("rn quantifier", lambda: recon_number(k3, "vertex", "bogus"), InputError,
         "quantifier must be exists or forall"),
        ("identifies kind", lambda: identifies(k3, build_deck(k3, "vertex", 1), "edge"),
         InputError, "expected an edge subdeck"),
        ("kedc_to_kvdc c < 1", lambda: kedc_to_kvdc(k3, edge_cards, 0), InputError,
         "deletion count must be >= 1"),
        ("kedc_to_kvdc vertex deck",
         lambda: kedc_to_kvdc(k3, build_deck(k3, "vertex", 1), 1), InputError,
         "needs edge cards"),
        ("kedc_to_kvdc empty deck", lambda: kedc_to_kvdc(k3, Deck("edge", []), 1),
         InputError, "at least one card"),
        ("kedc_to_kvdc n <= c", lambda: kedc_to_kvdc(k3, edge_cards, 3), InputError,
         "order must exceed c=3"),
        ("copies -1", lambda: copies(k3, -1), InputError, "copy count"),
        ("has_edge", lambda: k3.has_edge(0, 3), InputError, "out of range"),
        ("Graph edge of 1 vertex", lambda: Graph(3, [(0,)]), InputError,
         "^edge must have 2 vertices, got 1$"),
        ("Graph edge of 3 vertices", lambda: Graph(3, [(0, 1, 2)]), InputError,
         "^edge must have 2 vertices, got 3$"),
        ("delete_edges edge of 1 vertex", lambda: delete_edges(k3, [(0,)]), InputError,
         "^edge must have 2 vertices, got 1$"),
        ("delete_edges edge of 3 vertices", lambda: delete_edges(k3, [(0, 1, 2)]),
         InputError, "^edge must have 2 vertices, got 3$"),
        ("graph6 encode", lambda: graph6_encode(Graph._from_rows(258048, [0] * 258048)),
         CapacityError, "n <= 258047"),
        ("graph6 decode", lambda: graph6_decode("~~?@??"), CapacityError,
         "above 258047"),
    ]
    for build in builders:
        k = (2,) if build in (gi_to_kedc, gi_to_klvd, gi_to_kled) else ()
        calls.append((f"{build.__name__} c < 1", lambda b=build, k=k: b(k3, k3, 0, *k),
                      InputError, "deletion count must be >= 1"))
        if k:
            calls.append((f"{build.__name__} k < 2", lambda b=build: b(k3, k3, 1, 1),
                          InputError, "card count must be >= 2"))
    return calls


def _exactly(message):
    return "^" + re.escape(message) + "$"


def _count_guard_calls():
    # each folded count guard and the checks around it, with the exact
    # message: where a call breaks several rules, the first check named
    # in the id fires
    from reconkit import (
        Deck,
        Graph,
        build_deck,
        complete_graph,
        deck_check,
        delete_edges,
        empty_graph,
        endvertex_deck,
        enum_preimages,
        enumerate_graphs,
        gi_to_kedc,
        gi_to_kled,
        gi_to_klvd,
        gi_to_led,
        gi_to_lvd,
        kedc_to_kvdc,
        path_graph,
        subdeck_check,
        two_lvd,
        verify_reduction,
    )
    from reconkit.errors import CapacityError, InputError

    k3, k4, p3, e20 = complete_graph(3), complete_graph(4), path_graph(3), empty_graph(20)
    k30, k31 = complete_graph(30), complete_graph(31)
    cards = build_deck(k3, "vertex", 1)
    edge_cards = build_deck(k3, "edge", 1)
    ends = endvertex_deck(p3)
    c_low = "deletion count must be >= 1, got 0"
    k_low = "card count must be >= 2, got 1"
    calls = [
        ("Graph n < 0", lambda: Graph(-1), InputError, "vertex count must be >= 0, got -1"),
        ("degree -1", lambda: k3.degree(-1), InputError, "vertex -1 out of range"),
        ("degree n", lambda: k3.degree(3), InputError, "vertex 3 out of range"),
        ("neighbors -1", lambda: k3.neighbors(-1), InputError, "vertex -1 out of range"),
        ("neighbors n", lambda: k3.neighbors(3), InputError, "vertex 3 out of range"),
        ("Graph edge not sized", lambda: Graph(3, [5]), InputError,
         "edge must be a pair of ints, got int"),
        ("Graph edge of a str", lambda: Graph(3, [(0, "a")]), InputError,
         "edge must be a pair of ints, got int and str"),
        ("Graph edge size before ints", lambda: Graph(3, [("a",)]), InputError,
         "edge must have 2 vertices, got 1"),
        ("Graph edge ints before self-loop", lambda: Graph(3, [("a", "a")]), InputError,
         "edge must be a pair of ints, got str and str"),
        ("Graph self-loop before range", lambda: Graph(3, [(5, 5)]), InputError,
         "self-loop at vertex 5"),
        ("delete_edges edge not sized", lambda: delete_edges(k3, [5]), InputError,
         "edge must be a pair of ints, got int"),
        ("delete_edges edge of a float", lambda: delete_edges(k3, [(0, 1.0)]), InputError,
         "edge must be a pair of ints, got int and float"),
        ("Graph order cap", lambda: Graph(258048), CapacityError,
         "graph orders are capped at 258047, got 258048"),
        ("complete_graph n < 0", lambda: complete_graph(-2), InputError,
         "vertex count must be >= 0, got -2"),
        ("enumerate_graphs n < 0", lambda: enumerate_graphs(-1), InputError,
         "vertex count must be >= 0, got -1"),
        ("enumerate_graphs cap", lambda: enumerate_graphs(8), CapacityError,
         "enumeration is capped at n = 7, got 8"),
        ("build_deck c < 0 before kind", lambda: build_deck(k3, "endvertex", -1),
         InputError, "deletion count must be >= 0, got -1"),
        ("build_deck kind before c > n", lambda: build_deck(k3, "endvertex", 9),
         InputError, "build_deck kind must be vertex or edge, got 'endvertex'"),
        ("build_deck c > n", lambda: build_deck(k3, "vertex", 4), InputError,
         "cannot delete 4 vertices from order 3"),
        ("build_deck c > m", lambda: build_deck(p3, "edge", 3), InputError,
         "cannot delete 3 edges from 2 edges"),
        ("build_deck cap", lambda: build_deck(e20, "vertex", 10), CapacityError,
         "184756 deletion sets exceed the 100000 cap"),
        ("deck_check kind before c < 1", lambda: deck_check(k3, ends, 0), InputError,
         "deck kind must be vertex or edge, got 'endvertex'"),
        ("deck_check c < 1", lambda: deck_check(k3, cards, 0), InputError,
         c_low),
        ("deck_check c > n", lambda: deck_check(k3, cards, 4), InputError,
         "cannot delete 4 vertices from order 3"),
        ("deck_check c > m", lambda: deck_check(p3, edge_cards, 3), InputError,
         "cannot delete 3 edges from 2 edges"),
        ("subdeck_check no cards before c < 1",
         lambda: subdeck_check(k3, Deck("vertex", []), 0), InputError,
         "subdeck check requires at least one card"),
        ("subdeck_check c < 1", lambda: subdeck_check(k3, cards, 0), InputError, c_low),
        ("subdeck_check c > n", lambda: subdeck_check(k3, cards, 21),
         InputError, "cannot delete 21 vertices from order 3"),
        ("subdeck_check cap", lambda: subdeck_check(e20, cards, 10), CapacityError,
         "184756 deletion sets exceed the 100000 cap"),
        ("enum_preimages mode before empty deck",
         lambda: enum_preimages(Deck("vertex", []), 0, "bogus"), InputError,
         "mode must be pure or sub, got 'bogus'"),
        ("enum_preimages empty deck before c < 1",
         lambda: enum_preimages(Deck("vertex", []), 0, "sub"), InputError,
         "preimage search needs a nonempty deck"),
        ("enum_preimages kind before c < 1", lambda: enum_preimages(ends, 0, "sub"),
         InputError, "deck kind must be vertex or edge, got 'endvertex'"),
        ("enum_preimages c < 1", lambda: enum_preimages(cards, 0, "pure"), InputError,
         c_low),
        ("two_lvd orders before c < 1", lambda: two_lvd(k3, k4, 0), InputError,
         "orders differ: 3 vs 4"),
        ("two_lvd c < 1", lambda: two_lvd(k3, k3, 0), InputError, c_low),
        ("gi_to_lvd c < 1 before orders", lambda: gi_to_lvd(k3, k4, 0), InputError,
         c_low),
        ("gi_to_lvd cap before orders", lambda: gi_to_lvd(k3, k4, 40), CapacityError,
         "135751 deletion sets exceed the 100000 cap"),
        ("gi_to_led c < 1 before orders", lambda: gi_to_led(k3, k4, 0), InputError,
         c_low),
        ("gi_to_led order cap before orders", lambda: gi_to_led(k3, k4, 40),
         CapacityError,
         "certificates are capped below order 64, got gi_to_led card order 87"),
        ("kedc_to_kvdc c < 1 before kind", lambda: kedc_to_kvdc(k3, cards, 0),
         InputError, c_low),
        ("verify_reduction n_max cap", lambda: verify_reduction("gi_to_lvd", 6, 1),
         InputError, "verification sweeps are capped at n_max = 5, got 6"),
        ("verify_reduction min order", lambda: verify_reduction("gi_to_led", 2, 2),
         InputError, "gi_to_led with c=2 needs n_max >= 3, got 2"),
        ("verify_reduction transfer without k",
         lambda: verify_reduction("kedc_to_kvdc", 5, 1), InputError,
         "kedc_to_kvdc requires k"),
        ("verify_reduction transfer c < 1", lambda: verify_reduction("kedc_to_kvdc", 5, 0, 2),
         InputError, c_low),
        ("verify_reduction transfer k = 0", lambda: verify_reduction("kedc_to_kvdc", 5, 1, 0),
         InputError, "card count must be >= 1, got 0"),
        ("verify_reduction transfer k = -1",
         lambda: verify_reduction("kedc_to_kvdc", 5, 1, -1), InputError,
         "card count must be >= 1, got -1"),
        ("verify_reduction transfer k cap", lambda: verify_reduction("kedc_to_kvdc", 5, 1, 4),
         InputError, "kedc_to_kvdc sweeps are capped at k = 3, got 4"),
    ]
    for build, order in ((gi_to_kedc, 3 + 2 * 40), (gi_to_klvd, 9 + 2 * 2 + 2 * 40),
                         (gi_to_kled, 9 + 2 * 40 + 1)):
        name = build.__name__
        c, k = (40, 2) if build is not gi_to_kled else (1, 40)
        # K30 and K31 break every later check: the order cap and equal orders
        calls += [
            (f"{name} c < 1 before k < 2", lambda b=build: b(k30, k31, 0, 1), InputError,
             c_low),
            (f"{name} k < 2 before order cap", lambda b=build: b(k30, k31, 40, 1),
             InputError, k_low),
            (f"{name} order cap before orders", lambda b=build, c=c, k=k: b(k3, k4, c, k),
             CapacityError,
             f"certificates are capped below order 64, got {name} card order {order}"),
        ]
    return [(name, call, error, _exactly(message)) for name, call, error, message in calls]


def _huge_count_calls():
    # Python refuses to print an int past 4,300 digits, so a message names
    # such a count by its bit length
    from reconkit.errors import CapacityError, InputError
    from reconkit import (
        Graph,
        build_deck,
        clique_union_pair,
        complete_graph,
        copies,
        deck_check,
        delete_edges,
        delete_vertices,
        empty_graph,
        enum_preimages,
        enumerate_graphs,
        gi_to_kled,
        join,
        kedc_to_kvdc,
        line_graph,
        many_preimage_deck,
        many_preimage_graphs,
        path_graph,
        subdeck_check,
        two_lvd,
        union,
        verify_reduction,
    )

    huge = 10**5000
    k3 = complete_graph(3)
    cards = build_deck(k3, "vertex", 1)
    calls = [
        ("build_deck c", lambda: build_deck(k3, "vertex", huge),
         "cannot delete (16610-bit number) vertices from order 3"),
        ("build_deck -c", lambda: build_deck(k3, "vertex", -huge),
         "deletion count must be >= 0, got -(16610-bit number)"),
        ("subdeck_check c", lambda: subdeck_check(k3, cards, huge),
         "cannot delete (16610-bit number) vertices from order 3"),
        ("subdeck_check -c", lambda: subdeck_check(k3, cards, -huge),
         "deletion count must be >= 1, got -(16610-bit number)"),
        ("deck_check c", lambda: deck_check(k3, cards, huge),
         "cannot delete (16610-bit number) vertices from order 3"),
        ("enum_preimages -c", lambda: enum_preimages(cards, -huge, "sub"),
         "deletion count must be >= 1, got -(16610-bit number)"),
        ("gi_to_kled c", lambda: gi_to_kled(k3, k3, huge, 2),
         "gi_to_kled: order must be >= (16610-bit number), got 3"),
        ("gi_to_kled -c", lambda: gi_to_kled(k3, k3, -huge, 2),
         "deletion count must be >= 1, got -(16610-bit number)"),
        ("gi_to_kled -k", lambda: gi_to_kled(k3, k3, 1, -huge),
         "card count must be >= 2, got -(16610-bit number)"),
        ("kedc_to_kvdc c", lambda: kedc_to_kvdc(k3, build_deck(k3, "edge", 1), huge),
         "order must exceed c=(16610-bit number), got 3"),
        ("two_lvd -c", lambda: two_lvd(k3, k3, -huge),
         "deletion count must be >= 1, got -(16610-bit number)"),
        ("Graph -n", lambda: Graph(-huge),
         "vertex count must be >= 0, got -(16610-bit number)"),
        ("enumerate_graphs -n", lambda: enumerate_graphs(-huge),
         "vertex count must be >= 0, got -(16610-bit number)"),
        ("clique_union_pair -n", lambda: clique_union_pair(-huge),
         "the pair is defined for n >= 4, got -(16610-bit number)"),
        ("many_preimage_deck -k", lambda: many_preimage_deck(-huge, 3),
         "need k >= 2 and n >= 1, got k=-(16610-bit number), n=3"),
        ("many_preimage_deck -n", lambda: many_preimage_deck(3, -huge),
         "need k >= 2 and n >= 1, got k=3, n=-(16610-bit number)"),
        ("many_preimage_graphs -k", lambda: many_preimage_graphs(-huge, 1),
         "need k >= 2 and n >= 1, got k=-(16610-bit number), n=1"),
        ("Graph edge end", lambda: Graph(3, [(huge, 0)]),
         "edge ((16610-bit number),0) out of range for order 3"),
        ("Graph self-loop", lambda: Graph(3, [(huge, huge)]),
         "self-loop at vertex (16610-bit number)"),
        ("delete_edges end", lambda: delete_edges(k3, [(0, huge)]),
         "edge (0, (16610-bit number)) not in graph"),
        ("delete_vertices vertex", lambda: delete_vertices(k3, [huge]),
         "vertex (16610-bit number) out of range for order 3"),
        ("has_edge vertex", lambda: k3.has_edge(huge, 0),
         "vertex pair ((16610-bit number),0) out of range"),
        ("degree vertex", lambda: k3.degree(-huge), "vertex -(16610-bit number) out of range"),
        ("neighbors vertex", lambda: k3.neighbors(huge),
         "vertex (16610-bit number) out of range"),
        ("verify_reduction n_max", lambda: verify_reduction("gi_to_lvd", huge, 1),
         "verification sweeps are capped at n_max = 5, got (16610-bit number)"),
        ("verify_reduction -n_max", lambda: verify_reduction("gi_to_lvd", -huge, 1),
         "gi_to_lvd with c=1 needs n_max >= 3, got -(16610-bit number)"),
        ("verify_reduction transfer c", lambda: verify_reduction("kedc_to_kvdc", 5, huge, 2),
         "kedc_to_kvdc with c=(16610-bit number) needs n_max >= (16610-bit number), got 5"),
        ("verify_reduction transfer -c",
         lambda: verify_reduction("kedc_to_kvdc", 5, -huge, 2),
         "deletion count must be >= 1, got -(16610-bit number)"),
        ("verify_reduction transfer k", lambda: verify_reduction("kedc_to_kvdc", 5, 1, huge),
         "kedc_to_kvdc sweeps are capped at k = 3, got (16610-bit number)"),
    ]
    capped = "graph orders are capped at 258047, got (16610-bit number)"
    # derived graphs check the order they would build before any row (in
    # the join, K3 comes first so that, unchecked, only its rows are long)
    big = "graph orders are capped at 258047, got "
    derived = [
        ("union", lambda: union([empty_graph(258047), k3]), big + "258050"),
        ("join", lambda: join([k3, empty_graph(258047)]), big + "258050"),
        ("copies", lambda: copies(empty_graph(258047), 2), big + "516094"),
        ("copies count", lambda: copies(k3, huge), big + "(16612-bit number)"),
        ("line_graph", lambda: line_graph(complete_graph(719)), big + "258121"),
    ]
    return [
        (f"huge {name}", call, InputError, _exactly(message)) for name, call, message in calls
    ] + [
        (f"huge {build.__name__} n", lambda b=build: b(huge), CapacityError, _exactly(capped))
        for build in (Graph, empty_graph, path_graph, complete_graph)
    ] + [
        (f"huge {name}", call, CapacityError, _exactly(message)) for name, call, message in derived
    ]


GUARDS = _guard_calls() + _count_guard_calls() + _huge_count_calls()


@pytest.mark.parametrize(
    "call, error, message", [g[1:] for g in GUARDS], ids=[g[0] for g in GUARDS]
)
def test_input_guards_raise_a_reconkit_error(call, error, message):
    # the CLI maps InputError to exit 2 and CapacityError to exit 3
    with pytest.raises(error, match=message):
        call()


def test_loc_counts_code_lines_without_docstrings_or_comments(tmp_path, capsys):
    from importlib.util import module_from_spec, spec_from_file_location

    spec = spec_from_file_location(
        "loc", Path(__file__).resolve().parents[1] / "tools" / "loc.py"
    )
    loc = module_from_spec(spec)
    spec.loader.exec_module(loc)
    source = (
        '"""Module\ndocstring."""\n\n# a comment\n'
        'def f():\n    """Doc."""\n    return """two\n# lines"""  # trailing\n'
    )
    assert loc.count(source) == (8, 3)
    # --base: per-module changes against another package, a module
    # missing on one side counting 0 there, then the sums
    new, old = tmp_path / "new", tmp_path / "old"
    new.mkdir()
    old.mkdir()
    (new / "a.py").write_text(source)
    (new / "b.py").write_text("x = 1\n\ny = 2\n")
    (old / "b.py").write_text("x = 1\n")
    (old / "c.py").write_text("# gone\nz = 3\n")
    assert loc.main([str(new), "--base", str(old)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["module", "lines", "code", "+lines", "+code"],
        ["a.py", "8", "3", "+8", "+3"],
        ["b.py", "3", "2", "+2", "+1"],
        ["c.py", "0", "0", "-2", "-1"],
        ["total", "11", "5", "+8", "+3"],
    ]


def test_minima_sums_each_items_least_time_per_cell():
    from importlib.util import module_from_spec, spec_from_file_location

    spec = spec_from_file_location(
        "minima", Path(__file__).resolve().parents[1] / "tools" / "minima.py"
    )
    minima = module_from_spec(spec)
    spec.loader.exec_module(minima)

    class Stub:
        # three items of two cells; item "b" fails its check, "c" raises
        def pass_items(self, p):
            assert p == 0
            return ["a", "b", "c"]

        def run(self, item, tracer):
            if item == "c":
                raise ValueError(item)
            return item

        def check(self, item, out):
            return item != "b"

    # each clock step is the next second of a fixed list, read at the
    # start and end of each run: item times 1, 2, 3 then 4, 1, 2 then 2, 5, 1
    ticks = iter([0, 1, 0, 2, 0, 3, 0, 4, 0, 1, 0, 2, 0, 2, 0, 5, 0, 1])
    cleared = []
    items, times, failures = minima.serve(
        Stub(), 3, lambda: cleared.append(1), None, clock=lambda: next(ticks)
    )
    assert items == ["a", "b", "c"] and len(cleared) == 3
    assert times == [[1, 4, 2], [2, 1, 5], [3, 2, 1]]
    assert failures == ["item 1: wrong answer", "item 2: ValueError: c"] * 3
    sums = minima.minima(["x", "y", "x"], times)
    assert sums == {"x": (2, 2), "y": (1, 1)}
    assert [line.split() for line in minima.report(sums)] == [
        ["x", "2", "items", "2000.0", "ms"],
        ["y", "1", "items", "1000.0", "ms"],
        ["total", "3", "items", "3000.0", "ms"],
    ]
    assert minima.cell_of("recon-enum", ("rn", "edge", "forall", None, 5)) == "edge forall"
    assert minima.cell_of("recon-enum", ("rich", None, None, 2)) == "rich decks"
    assert minima.cell_of("gadget-iff", (("gi_to_klvd", 1, 2, 5), None, None, True)) == (
        "gi_to_klvd c=1 k=2"
    )


def test_minima_setups_runs_set_up_children_and_reads_their_spread(tmp_path):
    import json
    from importlib.util import module_from_spec, spec_from_file_location
    from types import SimpleNamespace

    spec = spec_from_file_location(
        "minima", Path(__file__).resolve().parents[1] / "tools" / "minima.py"
    )
    minima = module_from_spec(spec)
    spec.loader.exec_module(minima)

    # five children: four report a set-up time after other output, one fails
    outputs = iter([0.5, 0.3, None, 0.9, 0.4])
    calls = []

    def runner(argv, cwd, env, capture_output, text):
        calls.append((argv, cwd, env["PYTHONDONTWRITEBYTECODE"]))
        setup_s = next(outputs)
        if setup_s is None:
            return SimpleNamespace(returncode=2, stdout="", stderr="error: boom\n")
        stdout = "workload=x\n" + json.dumps({"setup_s": setup_s}) + "\n"
        return SimpleNamespace(returncode=0, stdout=stdout, stderr="")

    samples, failures = minima.setups(tmp_path, "catalog-canon", 7, 5, runner=runner)
    assert samples == [0.5, 0.3, 0.9, 0.4]
    assert failures == ["set-up 2: exit 2: error: boom"]
    argv = [sys.executable, "perfbench/run.py", "--workload", "catalog-canon", "--seed", "7",
            "--seconds", "0", "--setup-only"]
    assert calls == [(argv, tmp_path, "1")] * 5
    # inclusive quartiles of 0.3, 0.4, 0.5, 0.9: 0.375, 0.45 and 0.6
    assert minima.spread(samples).split() == [
        "setup_s", "min", "0.3000", "q1", "0.3750", "median", "0.4500", "q3", "0.6000", "s"
    ]


def test_every_module_level_name_is_used():
    # a function, class or constant of src/reconkit that nothing in the
    # package, the benchmark or the export list refers to is dead code
    import ast

    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "reconkit").glob("*.py"))
    bench = [p for p in sorted((root / "perfbench").rglob("*.py")) if "tests" not in p.parts]

    def references(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr

    trees = {path: ast.parse(path.read_text()) for path in package + bench}
    used = Counter(reconkit.__all__)
    for tree in trees.values():
        used.update(references(tree))
    dead = []
    for path in package:
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            inside = Counter(references(node))
            dead += [
                f"{path.stem}.{name}" for name in names
                if not name.startswith("__") and used[name] == inside[name]
            ]
    assert dead == []


def test_every_planted_fault_still_applies():
    # tools/mutants.py plants each fault by replacing an exact text, so a
    # refactor of the patched code must update its entry: each old text
    # occurs exactly once in its file, and each named test is defined
    from importlib.util import module_from_spec, spec_from_file_location

    root = Path(__file__).resolve().parents[1]
    spec = spec_from_file_location("mutants", root / "tools" / "mutants.py")
    mutants = module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.MUTANTS
    for m in mutants.MUTANTS:
        assert (root / m.file).read_text().count(m.old) == 1, m.name
        assert m.old != m.new and m.tests, m.name
        for node in m.tests:
            path, name = node.split("::")
            assert f"\ndef {name}(" in (root / path).read_text(), node

def test_zero_copies_is_the_empty_graph():
    from reconkit import complete_graph, copies, empty_graph

    assert copies(complete_graph(3), 0) == empty_graph(0)


def test_readme_module_table_is_the_export_contract():
    # one row per module of the package, naming every name it exports
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    overview = readme.split("## Library overview", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in overview.splitlines():
        row = re.match(r"\| `(\w+)` +\|(.*)\|$", line)
        if row:
            assert row[1] not in rows, f"two rows for {row[1]}"
            rows[row[1]] = row[2]
    assert sorted(rows) == sorted(reconkit._MODULE_EXPORTS)
    for name in reconkit.__all__:
        module = reconkit._HOME[name]
        assert re.search(rf"`{name}[`(]", rows[module]), f"{name} not in the {module} row"
