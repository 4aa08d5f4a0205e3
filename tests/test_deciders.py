import random
from itertools import combinations

import pytest

from reconkit.canon import are_isomorphic, certificate
from reconkit.deck import (
    DELETION_SETS_CAP,
    Deck,
    build_deck,
    deck_equal,
    subdeck_contained,
)
from reconkit.deciders import (
    deck_check,
    enum_preimages,
    legit_edge,
    legit_vertex,
    subdeck_check,
    two_lvd,
)
from reconkit.errors import CapacityError, InputError
from reconkit.graph import (
    Graph,
    complete_graph,
    empty_graph,
    enumerate_graphs,
    path_graph,
    union,
)

K2 = complete_graph(2)
K3 = complete_graph(3)
P3 = path_graph(3)
K2K1 = union([K2, empty_graph(1)])


def test_deck_check_examples():
    assert deck_check(K3, Deck("vertex", [K2, K2, K2]), 1)
    assert not deck_check(P3, Deck("vertex", [K2, K2, K2]), 1)
    assert deck_check(K3, Deck("edge", [P3, P3, P3]), 1)
    with pytest.raises(InputError):
        deck_check(K3, Deck("vertex", [K2]), 4)


def test_subdeck_check_examples():
    assert subdeck_check(path_graph(4), Deck("vertex", [P3, K2K1]), 1)
    assert not subdeck_check(complete_graph(4), Deck("vertex", [P3]), 1)
    assert subdeck_check(K3, Deck("edge", [P3, P3]), 1)
    with pytest.raises(InputError):
        subdeck_check(K3, Deck("vertex", []), 1)


def test_checks_against_naive_routes():
    # scan-based checkers agree with build-the-deck-and-compare
    rng = random.Random(23)
    for n in (3, 4):
        catalog = enumerate_graphs(n)
        for g in catalog:
            for kind in ("vertex", "edge"):
                for c in (1, 2):
                    if kind == "vertex" and c > g.n:
                        continue
                    if kind == "edge" and c > g.m:
                        continue
                    full = build_deck(g, kind, c)
                    assert deck_check(g, full, c)
                    for h in rng.sample(catalog, min(5, len(catalog))):
                        if (kind == "vertex" and c > h.n) or (
                            kind == "edge" and c > h.m
                        ):
                            continue
                        other = build_deck(h, kind, c)
                        assert deck_check(g, other, c) == deck_equal(other, full)
                        if len(other) == 0:
                            continue
                        take = rng.randint(1, min(3, len(other)))
                        sub = Deck(kind, rng.sample(other.cards, take))
                        assert subdeck_check(g, sub, c) == subdeck_contained(sub, full)


def test_enum_preimages_vertex():
    found = enum_preimages(Deck("vertex", [K2, K2, empty_graph(2)]), 1, "pure")
    assert len(found) == 1 and are_isomorphic(found.preimages[0], P3)

    found = enum_preimages(Deck("vertex", [K3] * 4), 1, "pure")
    assert len(found) == 1 and are_isomorphic(found.preimages[0], complete_graph(4))


def test_enum_preimages_rejecting_case_matches_hand_search():
    # independent route: try all 8 one-vertex extensions of the K3 card
    deck = Deck("vertex", [K3, K3, K3, empty_graph(3)])
    hand = []
    for mask in range(8):
        edges = list(K3.edges) + [(v, 3) for v in range(3) if mask >> v & 1]
        h = Graph(4, edges)
        if deck_equal(build_deck(h, "vertex", 1), deck):
            hand.append(h)
    assert hand == []
    assert len(enum_preimages(deck, 1, "pure")) == 0


def test_enum_preimages_modes_and_errors():
    with pytest.raises(InputError):
        enum_preimages(Deck("vertex", []), 1, "pure")
    with pytest.raises(InputError):
        enum_preimages(Deck("vertex", [K2]), 1, "middling")
    with pytest.raises(InputError):
        # more cards than the full deck could hold
        enum_preimages(Deck("vertex", [K2] * 7), 1, "sub")
    with pytest.raises(CapacityError):
        enum_preimages(Deck("vertex", [empty_graph(30)] * 2), 1, "sub")
    big_card = empty_graph(20)
    with pytest.raises(CapacityError):
        # 2^(2*20+1) attachment patterns
        enum_preimages(Deck("vertex", [big_card] * 3), 2, "sub")


def test_preimages_verify_their_relation():
    rng = random.Random(3)
    for g in enumerate_graphs(4):
        full = build_deck(g, "vertex", 1)
        found = enum_preimages(full, 1, "pure")
        assert any(are_isomorphic(p, g) for p in found.preimages)
        for p in found.preimages:
            assert deck_equal(build_deck(p, "vertex", 1), full)
        if len(full) > 1:
            sub = Deck("vertex", rng.sample(full.cards, 2))
            for p in enum_preimages(sub, 1, "sub").preimages:
                assert subdeck_contained(sub, build_deck(p, "vertex", 1))


def test_preimages_pairwise_nonisomorphic_and_sorted():
    sub = Deck("vertex", [K2K1, K2K1])
    found = enum_preimages(sub, 1, "sub")
    certs = [certificate(p) for p in found.preimages]
    assert certs == sorted(certs)
    assert len(set(certs)) == len(certs)


def test_legit_vertex_examples():
    assert legit_vertex(Deck("vertex", [K2] * 3), 1, "pure")
    assert legit_vertex(Deck("vertex", [K2, empty_graph(2), empty_graph(2)]), 1, "pure")
    assert not legit_vertex(Deck("vertex", [K3, empty_graph(3)]), 1, "sub")
    with pytest.raises(InputError):
        legit_vertex(Deck("edge", [P3]), 1, "pure")


def test_legit_edge_examples():
    assert legit_edge(Deck("edge", [P3] * 3), 1, "pure")
    two = union([K2, empty_graph(2)])
    assert legit_edge(Deck("edge", [two, two]), 1, "sub")
    # cardinality precheck: a 3-edge preimage would need 3 cards
    assert not legit_edge(Deck("edge", [P3, K2K1]), 1, "pure")
    # complete first card leaves no room to add edges: false, not an error
    assert not legit_edge(Deck("edge", [K3, K3]), 1, "pure")
    assert not legit_edge(Deck("edge", [K3, K3]), 1, "sub")
    with pytest.raises(InputError):
        legit_edge(Deck("vertex", [K2]), 1, "pure")


def test_pure_implies_sub():
    for g in enumerate_graphs(4):
        for kind in ("vertex", "edge"):
            for c in (1, 2):
                if kind == "vertex" and c > g.n:
                    continue
                if kind == "edge" and c > g.m:
                    continue
                full = build_deck(g, kind, c)
                if len(full) == 0:
                    continue
                legit = legit_vertex if kind == "vertex" else legit_edge
                assert legit(full, c, "pure")
                assert legit(full, c, "sub")


def test_legit_edge_pure_against_all_cards_route():
    # second, independent check: extend EVERY card by c edges, not just the
    # first, and test deck equality directly
    def all_cards_route(deck, c):
        for base in deck.cards:
            non_edges = [
                (u, v)
                for u in range(base.n)
                for v in range(u + 1, base.n)
                if not base.has_edge(u, v)
            ]
            for added in combinations(non_edges, c):
                h = Graph(base.n, list(base.edges) + list(added))
                if deck_equal(build_deck(h, "edge", c), deck):
                    return True
        return False

    for n in range(2, 6):
        for g in enumerate_graphs(n):
            if g.m < 1:
                continue
            full = build_deck(g, "edge", 1)
            assert legit_edge(full, 1, "pure") == all_cards_route(full, 1)
    # and on some decks that are not legitimate
    bogus = Deck("edge", [P3, P3, K2K1])
    assert legit_edge(bogus, 1, "pure") == all_cards_route(bogus, 1)


def test_two_lvd_examples():
    assert two_lvd(K2, empty_graph(2), 1)
    assert not two_lvd(K3, empty_graph(3), 1)
    assert two_lvd(K3, empty_graph(3), 2)
    with pytest.raises(InputError):
        two_lvd(K3, K2, 1)


def test_two_lvd_agrees_with_search():
    for n in (3, 4):
        catalog = enumerate_graphs(n)
        for g1 in catalog:
            for g2 in catalog:
                for c in (1, 2):
                    assert two_lvd(g1, g2, c) == legit_vertex(
                        Deck("vertex", [g1, g2]), c, "sub"
                    )


def test_two_lvd_agrees_with_search_order5_sample():
    rng = random.Random(55)
    catalog = enumerate_graphs(5)
    for _ in range(25):
        g1, g2 = rng.choice(catalog), rng.choice(catalog)
        for c in (1, 2):
            assert two_lvd(g1, g2, c) == legit_vertex(
                Deck("vertex", [g1, g2]), c, "sub"
            )


def test_deck_check_self_consistency():
    rng = random.Random(66)
    for n in range(0, 7):
        catalog = enumerate_graphs(n)
        sample = catalog if n <= 5 else rng.sample(catalog, 20)
        for g in sample:
            for kind in ("vertex", "edge"):
                for c in (1, 2):
                    if kind == "vertex" and c > g.n:
                        continue
                    if kind == "edge" and c > g.m:
                        continue
                    assert deck_check(g, build_deck(g, kind, c), c)


def test_mixed_shape_collections_are_rejected_by_answer():
    mixed_orders = Deck("vertex", [K3, K2])
    assert not legit_vertex(mixed_orders, 1, "pure")
    assert not legit_vertex(mixed_orders, 1, "sub")
    assert not deck_check(complete_graph(4), mixed_orders, 1)
    assert not subdeck_check(complete_graph(4), mixed_orders, 1)


def test_deck_check_rejects_on_card_count_before_matching(monkeypatch):
    # P40 has C(40, 20) 20-cards, so a one-card collection cannot be its
    # deck; the matcher, which would walk those deletions, is never called
    import reconkit.deciders as deciders

    def fail(s, t):
        raise AssertionError("matcher called")

    monkeypatch.setattr(deciders, "_sub_match", fail)
    assert not deck_check(path_graph(40), Deck("vertex", [complete_graph(20)]), 20)


def test_preimage_search_caps_at_their_boundaries():
    # vertex search: 2^(c*n') patterns, n' = 24 at the 2^24 cap; the two
    # preimages are E25 and K2 + E23
    assert len(enum_preimages(Deck("vertex", [empty_graph(24)] * 2), 1, "sub")) == 2
    with pytest.raises(CapacityError):
        enum_preimages(Deck("vertex", [empty_graph(25)] * 2), 1, "sub")
    # edge search: C(C(53, 2), 2) = 948,753 candidates, C(C(54, 2), 2) =
    # 1,023,165 past the 10^6 cap
    assert legit_edge(Deck("edge", [empty_graph(53)]), 2, "sub")
    with pytest.raises(CapacityError):
        legit_edge(Deck("edge", [empty_graph(54)]), 2, "sub")


def _sparse_card(m):
    # three isolated vertices first: the first candidate adds (0, 1) and
    # (0, 2), and its first deletion gives the card back
    pairs = list(combinations(range(3, 50), 2))
    return Graph(50, random.Random(5).sample(pairs, m))


def test_deletion_set_cap_at_its_boundary():
    assert DELETION_SETS_CAP == 10**5
    # C(40, 4) = 91,390 deletion sets; the first one already matches
    assert subdeck_check(empty_graph(40), Deck("vertex", [empty_graph(36)]), 4)
    # 39 + C(39, 2) + C(39, 3) + C(39, 4) = 92,170 deletion sets per graph
    assert two_lvd(empty_graph(39), empty_graph(39), 4)
    # each candidate's deck: C(445 + 2, 2) = 99,681 edge pairs
    assert legit_edge(Deck("edge", [_sparse_card(445)]), 2, "sub")


def test_deletion_set_cap_refuses_just_past_it():
    with pytest.raises(CapacityError):  # C(41, 4) = 101,270
        subdeck_check(empty_graph(41), Deck("vertex", [empty_graph(37)]), 4)
    with pytest.raises(CapacityError):
        build_deck(empty_graph(41), "vertex", 4)
    with pytest.raises(CapacityError):  # C(C(31, 2), 2) = 107,880
        build_deck(complete_graph(31), "edge", 2)
    with pytest.raises(CapacityError):  # 40 + 780 + 9,880 + 91,390 = 102,090
        two_lvd(empty_graph(40), empty_graph(40), 4)
    with pytest.raises(CapacityError):  # C(446 + 2, 2) = 100,128
        legit_edge(Deck("edge", [_sparse_card(446)]), 2, "sub")


def test_pure_vertex_search_uses_kellys_edge_count(monkeypatch):
    # each edge of an n-vertex preimage lies in C(n-2, c) of its c-cards, so
    # the cards fix |E| and only extensions with that many edges are matched
    import reconkit.deciders as deciders

    offered = []
    real = deciders._sub_match

    def spy(s, t):
        offered.append(s.m)
        return real(s, t)

    monkeypatch.setattr(deciders, "_sub_match", spy)
    rng = random.Random(7)
    for c in (1, 2):
        for g in rng.sample(enumerate_graphs(5), 8):
            offered.clear()
            found = enum_preimages(build_deck(g, "vertex", c), c, "pure")
            assert any(are_isomorphic(p, g) for p in found.preimages)
            assert offered and set(offered) == {g.m}
    # an odd edge sum over a 4-vertex 1-deck: no graph, no candidate tried
    offered.clear()
    assert not legit_vertex(Deck("vertex", [K3, K3, K3, P3]), 1, "pure")
    assert offered == []
