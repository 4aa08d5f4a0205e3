import math
import random

import pytest

from conftest import trees_of_order

from reconkit.canon import are_isomorphic, certificate
from reconkit.deck import Deck, build_deck, deck_equal, endvertex_deck, subdeck_contained
from reconkit.errors import CapacityError, InputError
from reconkit.graph import (
    Graph,
    complete_graph,
    component_masks,
    copies,
    delete_vertices,
    empty_graph,
    enumerate_graphs,
    iter_bits,
    path_graph,
    union,
)
from reconkit.recon import identifies, recon_number, threshold

K3 = complete_graph(3)
K3K1 = union([K3, empty_graph(1)])
K2K1 = union([complete_graph(2), empty_graph(1)])


def test_identifies_paw_ambiguity():
    # the triangle-with-pendant shares [K3, K2uK1] but not a second K2uK1
    assert not identifies(K3K1, Deck("vertex", [K3, K2K1]), "vertex")
    assert identifies(K3K1, Deck("vertex", [K3, K2K1, K2K1]), "vertex")


def test_identifies_order_two():
    g = complete_graph(2)
    assert not identifies(g, build_deck(g, "vertex", 1), "vertex")


def test_identifies_validation():
    with pytest.raises(InputError):
        identifies(K3, Deck("vertex", [complete_graph(4)]), "vertex")
    with pytest.raises(InputError):
        identifies(K3, Deck("edge", [path_graph(3)]), "vertex")
    with pytest.raises(CapacityError):
        identifies(empty_graph(11), Deck("vertex", []), "vertex")


def test_identifies_empty_subdeck():
    assert identifies(empty_graph(1), Deck("vertex", []), "vertex")
    assert not identifies(K3, Deck("vertex", []), "vertex")
    assert identifies(K3, Deck("edge", []), "edge")  # K3 has all C(3,2) edges
    assert not identifies(
        copies(complete_graph(2), 2), Deck("edge", []), "edge"
    )


def test_recon_number_values():
    rn = recon_number(K3K1, "vertex", "exists")
    assert rn.value == 3
    assert rn.witness is not None and len(rn.witness) == 3

    rn = recon_number(K3K1, "vertex", "forall")
    assert rn.value == 4
    assert rn.counterexample is not None and len(rn.counterexample) == 3

    assert recon_number(complete_graph(2), "vertex", "exists").value == math.inf
    assert recon_number(copies(complete_graph(2), 2), "edge", "exists").value == math.inf


def test_recon_witness_and_counterexample_recheck():
    for g in (K3K1, path_graph(4), union([path_graph(3), empty_graph(1)])):
        rn = recon_number(g, "vertex", "exists")
        if rn.witness is not None:
            assert identifies(g, rn.witness, "vertex")
        rn = recon_number(g, "vertex", "forall")
        if rn.counterexample is not None:
            assert not identifies(g, rn.counterexample, "vertex")


def test_recon_number_bounds_and_order():
    for n in (3, 4, 5):
        for g in enumerate_graphs(n):
            exists = recon_number(g, "vertex", "exists").value
            universal = recon_number(g, "vertex", "forall").value
            if universal != math.inf:
                assert exists <= universal <= g.n
            else:
                assert exists == math.inf


def test_identification_monotone_under_supersets():
    rng = random.Random(8)
    for g in rng.sample(enumerate_graphs(5), 8):
        deck = build_deck(g, "vertex", 1)
        for _ in range(4):
            k = rng.randint(1, len(deck) - 1)
            cards = rng.sample(deck.cards, k)
            small = Deck("vertex", cards)
            extra = rng.choice(deck.cards)
            big = Deck("vertex", list(cards) + [extra])
            if not subdeck_contained(big, deck):
                continue
            if identifies(g, small, "vertex"):
                assert identifies(g, big, "vertex")


def test_disconnected_exists_values():
    # disconnected with nonisomorphic components: existential number 3;
    # all components isomorphic: at most component order + 2
    for n in (3, 4, 5, 6):
        for g in enumerate_graphs(n):
            comps = [list(iter_bits(c)) for c in component_masks(g.n, g.rows)]
            if len(comps) < 2:
                continue
            comp_graphs = [
                delete_vertices(g, [v for v in range(g.n) if v not in set(comp)])
                for comp in comps
            ]
            classes = {certificate(x) for x in comp_graphs}
            value = recon_number(g, "vertex", "exists").value
            if len(classes) > 1:
                assert value == 3, (n, g.edges, value)
            else:
                assert value <= comp_graphs[0].n + 2, (n, g.edges, value)


def test_tree_endvertex_deck_is_unique_signature():
    # among one-pendant extensions of a card, only the tree itself has an
    # endvertex deck equivalent to the tree's
    for n in range(5, 9):
        for t in trees_of_order(n):
            ed = endvertex_deck(t)
            base = ed.cards[0]
            tcert = certificate(t)
            for attach in range(base.n):
                h = Graph(base.n + 1, list(base.edges) + [(attach, base.n)])
                if deck_equal(endvertex_deck(h), ed):
                    assert certificate(h) == tcert


def test_endvertex_subdeck_containment_is_weaker():
    # containment in the vertex-deck does not pin the tree: a denser graph
    # can hold every endvertex card of a tree in its own deck
    spider = Graph(5, [(0, 3), (1, 4), (2, 4), (3, 4)])
    other = Graph(5, [(0, 4), (1, 3), (1, 4), (2, 3), (2, 4)])
    ed = endvertex_deck(spider)
    assert subdeck_contained(
        Deck("vertex", ed.cards), build_deck(other, "vertex", 1)
    )
    assert not are_isomorphic(spider, other)
    assert not identifies(spider, ed, "vertex")


def test_trees_have_existential_number_three():
    # classical: three cards always suffice for some choice, for every
    # tree on at least five vertices
    for n in (5, 6):
        for t in trees_of_order(n):
            assert recon_number(t, "vertex", "exists").value == 3


def test_threshold():
    assert threshold(K3K1, 3, "EXIST-VRN")
    assert not threshold(K3K1, 3, "UNIV-VRN")
    assert threshold(K3K1, 4, "UNIV-VRN")
    assert not threshold(complete_graph(2), 100, "EXIST-VRN")
    assert threshold(complete_graph(4), 3, "EXIST-ERN")
    with pytest.raises(InputError):
        threshold(K3, 1, "SOMething")


def test_capacity_limits():
    # each cap is pinned at its boundary: order 10 and 12 edges are
    # accepted, order 11 and 13 edges refused
    assert recon_number(empty_graph(10), "vertex", "exists").value == 3
    with pytest.raises(CapacityError):
        recon_number(empty_graph(11), "vertex", "exists")
    assert recon_number(path_graph(13), "edge", "exists").value == 3
    with pytest.raises(CapacityError):
        recon_number(path_graph(14), "edge", "exists")
    with pytest.raises(CapacityError):
        recon_number(complete_graph(6), "edge", "exists")  # 15 edges > 12
