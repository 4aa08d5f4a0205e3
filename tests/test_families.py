from collections import Counter

import pytest

from reconkit.canon import CERTIFICATE_ORDER_CAP, are_isomorphic, certificate
from reconkit.deck import build_deck, subdeck_contained
from reconkit.errors import CapacityError, InputError
from reconkit.families import (
    clique_union_pair,
    is_clique_union,
    many_preimage_deck,
    many_preimage_graphs,
)
from reconkit.graph import complete_graph, copies, empty_graph, path_graph, union


def test_clique_union_pair_small():
    a, b = clique_union_pair(4)
    assert are_isomorphic(a, union([complete_graph(3), empty_graph(1)]))
    assert are_isomorphic(b, copies(complete_graph(2), 2))

    a, b = clique_union_pair(5)
    assert are_isomorphic(a, union([complete_graph(3), empty_graph(2)]))
    assert are_isomorphic(b, union([copies(complete_graph(2), 2), empty_graph(1)]))

    a, b = clique_union_pair(6)
    assert are_isomorphic(a, union([complete_graph(4), complete_graph(2)]))
    assert are_isomorphic(b, copies(complete_graph(3), 2))

    with pytest.raises(InputError):
        clique_union_pair(3)


def test_clique_union_pair_order_cap():
    a, b = clique_union_pair(CERTIFICATE_ORDER_CAP - 1)
    assert CERTIFICATE_ORDER_CAP - 1 == 63 and a.n == b.n == 63
    with pytest.raises(CapacityError):
        clique_union_pair(CERTIFICATE_ORDER_CAP)


def test_clique_union_pair_shared_cards():
    # both decks share exactly floor(n/2)+1 cards, all in one class
    for n in range(4, 9):
        t = n // 2
        a, b = clique_union_pair(n)
        assert a.n == n and b.n == n and not are_isomorphic(a, b)
        inter = Counter(build_deck(a, "vertex", 1).certs) & Counter(
            build_deck(b, "vertex", 1).certs
        )
        assert sum(inter.values()) == t + 1
        assert len(inter) == 1
        shared = [complete_graph(t), complete_graph(t - 1)]
        if n % 2:
            shared.append(empty_graph(1))
        assert set(inter) == {certificate(union(shared))}


def test_many_preimage_deck_shape():
    for k, n in ((2, 1), (2, 2), (3, 1)):
        deck = many_preimage_deck(k, n)
        assert len(deck) == k
        assert deck.card_order == (2 ** (k - 1) + 1) * n + k
        assert len(set(deck.certs)) == 1
    with pytest.raises(InputError):
        many_preimage_deck(1, 1)
    with pytest.raises(CapacityError):
        many_preimage_deck(5, 4)


def test_many_preimage_graphs_counts_and_containment():
    for k, n in ((2, 1), (2, 2), (3, 1)):
        deck = many_preimage_deck(k, n)
        preimages = many_preimage_graphs(k, n)
        assert len(preimages) == 2 ** n
        assert len({certificate(p) for p in preimages}) == 2 ** n
        for p in preimages:
            assert p.n == deck.card_order + 1
            assert subdeck_contained(deck, build_deck(p, "vertex", 1))


def test_many_preimage_graphs_deterministic_order():
    first = many_preimage_graphs(2, 2)
    second = many_preimage_graphs(2, 2)
    assert [g.edges for g in first] == [g.edges for g in second]


def test_is_clique_union():
    assert is_clique_union(union([complete_graph(3), complete_graph(2)]))
    assert not is_clique_union(path_graph(3))
    assert is_clique_union(empty_graph(4))
    assert is_clique_union(empty_graph(0))
    assert not is_clique_union(union([path_graph(3), complete_graph(3)]))


def test_many_preimage_order_cap_from_k_and_n():
    # card order (2^(k-1) + 1) n + k: 39 for k=6, n=1; 72 for k=7, n=1
    # and for k=6, n=2
    deck = many_preimage_deck(6, 1)
    assert deck.card_order == 39
    assert [p.n for p in many_preimage_graphs(6, 1)] == [40, 40]
    for k, n in ((7, 1), (6, 2)):
        with pytest.raises(CapacityError, match="card order 72"):
            many_preimage_deck(k, n)
        with pytest.raises(CapacityError):
            many_preimage_graphs(k, n)
    # refused from k alone: 2^(k-1) is never built, nor its digits printed
    for k in (8, 14_000, 20_000, 10**12):
        for build in (many_preimage_deck, many_preimage_graphs):
            with pytest.raises(CapacityError) as exc:
                build(k, 1)
            assert len(str(exc.value)) < 120
