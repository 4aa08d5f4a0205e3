import hashlib
import random
import tracemalloc
from collections import Counter
from itertools import combinations, combinations_with_replacement, islice, product
from math import comb

import pytest

import preimage_oracle as oracle
from conftest import random_graph

import reconkit.deciders as deciders
import reconkit.recon as recon
from reconkit.canon import are_isomorphic, certificate, certificate_rows
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
    find_preimage,
    legit_edge,
    legit_vertex,
    subdeck_check,
    two_lvd,
)
from reconkit.errors import CapacityError, InputError, ReconError
from reconkit.families import clique_union_pair, many_preimage_deck
from reconkit.graph import (
    Graph,
    complete_graph,
    delete_edges_rows,
    delete_vertices_rows,
    empty_graph,
    enumerate_graphs,
    extend_rows,
    graph6_encode,
    is_connected,
    join,
    path_graph,
    permute,
    union,
)
from reconkit.recon import recon_number
from reconkit.reductions import gi_to_kled, gi_to_led

K2 = complete_graph(2)
K3 = complete_graph(3)
P3 = path_graph(3)
K1 = empty_graph(1)
K2K1 = union([K2, K1])
STAR = Graph(4, [(0, 1), (0, 2), (0, 3)])


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
    # order-30 cards: 31 candidates, E31 and K2 + E29
    assert len(enum_preimages(Deck("vertex", [empty_graph(30)] * 2), 1, "sub")) == 2
    with pytest.raises(CapacityError, match="budget"):
        # the last round passes the search budget
        enum_preimages(Deck("vertex", [empty_graph(20)] * 3), 2, "sub")


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
    # two order-0 cards have no deletion of 1..c vertices to agree on
    assert not any(two_lvd(Graph(0), Graph(0), c) for c in (1, 2))
    assert not two_lvd(K3, empty_graph(3), 1)
    assert two_lvd(K3, empty_graph(3), 2)
    with pytest.raises(InputError):
        two_lvd(K3, K2, 1)


# two_lvd is checked against the exhaustive search of the oracle, not
# against legit_vertex, whose "no" on two card classes is the same pair test


def test_two_lvd_agrees_with_search():
    for n in (3, 4):
        catalog = enumerate_graphs(n)
        for g1 in catalog:
            for g2 in catalog:
                for c in (1, 2):
                    assert two_lvd(g1, g2, c) == oracle.legit(
                        Deck("vertex", [g1, g2]), c, "sub"
                    )


def test_two_lvd_agrees_with_search_order5_sample():
    rng = random.Random(55)
    catalog = enumerate_graphs(5)
    for _ in range(25):
        g1, g2 = rng.choice(catalog), rng.choice(catalog)
        for c in (1, 2):
            assert two_lvd(g1, g2, c) == oracle.legit(
                Deck("vertex", [g1, g2]), c, "sub"
            )


def test_equal_size_agreements_grow_to_size_min_c_n():
    # brute force, without deciders: two graphs of order n with isomorphic
    # deletions of s < n vertices each also have them at s + 1, so some
    # size 1..c agrees exactly when size min(c, n), the pair test's, does
    answers = set()
    for n in (3, 4, 5):
        decks = [
            [
                {
                    certificate_rows(n - s, delete_vertices_rows(g.rows, drop))
                    for drop in combinations(range(n), s)
                }
                for s in range(n + 1)
            ]
            for g in enumerate_graphs(n)
        ]
        for a, b in combinations_with_replacement(decks, 2):
            agree = [bool(a[s] & b[s]) for s in range(1, n + 1)]
            assert agree == sorted(agree)
            for c in (1, 2, 3):
                some = any(agree[:c])
                assert some == agree[min(c, n) - 1]
                answers.add(some)
    assert answers == {True, False}


def test_pair_test_walks_one_deletion_size(monkeypatch):
    # at c = 2 each card class gets one table, of its 2-vertex deletions,
    # even where 1-vertex deletions already agree, and the front end glues
    # from the pair test's agreements without the exhaustive search
    sizes = []
    real = deciders.twin_patterns

    def spy(n, rows, size):
        sizes.append(size)
        return real(n, rows, size)

    def fail(t, mode):
        raise AssertionError("exhaustive search entered")

    monkeypatch.setattr(deciders, "twin_patterns", spy)
    monkeypatch.setattr(deciders, "_search", fail)
    deck = Deck("vertex", [empty_graph(3), K2K1, P3])  # three cards of P5
    witness = find_preimage(deck, 2, "sub")
    assert sizes == [2, 2, 2]
    assert witness is not None and subdeck_check(witness, deck, 2)
    sizes.clear()
    refuted = Deck("vertex", [complete_graph(4), empty_graph(4)])  # K2 vs E2
    assert find_preimage(refuted, 2, "sub") is None
    assert sizes == [2, 2]
    sizes.clear()
    assert two_lvd(path_graph(4), complete_graph(4), 2)
    assert sizes == [2, 2]


def test_front_end_refutes_on_a_later_card_pair(monkeypatch):
    # card 0, K2 + E2, shares a card with K1,3 and with K3 + K1, which share
    # none with each other: only that later pair refutes the deck, and it
    # must do so before the exhaustive search
    deck = Deck(
        "vertex",
        [
            Graph(4, [(2, 3)]),
            Graph(4, [(0, 3), (1, 3), (2, 3)]),
            Graph(4, [(1, 2), (1, 3), (2, 3)]),
        ],
    )
    first, star, triangle = deck.cards
    assert first.m == 1
    assert two_lvd(first, star, 1) and two_lvd(first, triangle, 1)
    assert not two_lvd(star, triangle, 1)

    def fail(t, mode):
        raise AssertionError("exhaustive search entered")

    monkeypatch.setattr(deciders, "_search", fail)
    assert not legit_vertex(deck, 1, "sub")
    assert find_preimage(deck, 1, "sub") is None


def test_front_end_witnesses_pass_subdeck_check():
    # E4, K2 + E2 and K1,3 share a card pairwise, so the pair test passes,
    # but no 5-vertex graph has all three (E4 makes it a star plus isolated
    # vertices, K1,3 makes it K1,4): every glued candidate must fail
    # subdeck_check and the search must answer no
    deck = Deck("vertex", [empty_graph(4), union([K2, empty_graph(2)]), STAR])
    assert not oracle.legit(deck, 1, "sub")
    assert not legit_vertex(deck, 1, "sub")
    # two cards with a common preimage: a glued candidate has both
    pair = Deck("vertex", [empty_graph(4), union([P3, K1])])
    witness = find_preimage(pair, 1, "sub")
    assert witness is not None and subdeck_check(witness, pair, 1)


def test_front_end_answers_some_decks_past_the_search_cap(monkeypatch):
    # the front end is not charged to the search budget: with a budget of
    # 10 units, it still refutes or confirms these order-25 decks
    e25, p3 = empty_graph(25), union([P3, empty_graph(22)])
    checked = []
    real = deciders.subdeck_check

    def spy(g, cards, c):
        checked.append(real(g, cards, c))
        return checked[-1]

    monkeypatch.setattr(deciders, "subdeck_check", spy)
    monkeypatch.setattr(deciders, "SEARCH_BUDGET", 10)
    # E25 - x and K25 - y are never isomorphic: refuted
    assert not legit_vertex(Deck("vertex", [e25, complete_graph(25)]), 1, "sub")
    assert checked == []
    # P3 + E23 has both as cards: confirmed by a glued witness that passed
    # subdeck_check
    assert legit_vertex(Deck("vertex", [e25, p3]), 1, "sub")
    assert checked and checked[-1] is True
    # E4, K2 + E2 and K1,3 padded to order 25: pairwise agreeing, no
    # glued witness, so left to the search, which refuses

    def padded(order):
        parts = (empty_graph(0), K2, STAR)
        return Deck("vertex", [union([p, empty_graph(order - p.n)]) for p in parts])

    with pytest.raises(CapacityError):
        legit_vertex(padded(25), 1, "sub")
    # within the budget the search answers: 26 candidates, no preimage
    monkeypatch.undo()
    assert not legit_vertex(padded(25), 1, "sub")
    assert not legit_vertex(padded(24), 1, "sub")


def test_huge_deletion_count_is_refused_without_the_glue_bound():
    # the front end bounds its glued walk by 2^(c*c) only once c <= n0
    # holds; at c = 20,000 that number alone is 50 MB
    deck = Deck("vertex", [K2, empty_graph(2)])
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            legit_vertex(deck, 20_000, "sub")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


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


def test_one_vertex_checks_of_regular_order_64_graphs():
    # the c = 1 vertex check sizes each degree class from its field of the
    # packed histogram; in a regular graph on 64 vertices that field
    # carries, so the check must still find the whole class
    cycle = Graph(64, [(v, (v + 1) % 64) for v in range(64)])
    for g in (cycle, complete_graph(64)):
        d = build_deck(g, "vertex", 1)
        assert deck_check(g, d, 1)
        assert subdeck_check(g, Deck("vertex", d.cards[:3]), 1)
    assert not deck_check(cycle, build_deck(complete_graph(64), "vertex", 1), 1)


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
    # the search has no raw-count cap: the decks just inside and just past
    # the former 2^24 attachment-pattern and 10^6 edge-addition caps all
    # answer within the work budget.  c = 1: the preimages are E_{n'+1}
    # and K2 + E_{n'-1}
    for n in (24, 25):
        assert len(enum_preimages(Deck("vertex", [empty_graph(n)] * 2), 1, "sub")) == 2
    # c = 2, formerly 2^(2*11 + 1) patterns in and 2^(2*12 + 1) out.  With
    # S = {0, 1} and T the deleted pairs, every edge meets both: T = {2, 3}
    # leaves the edges between S and T, T = {0, 2} those at 0 and (1, 2)
    for n, count in ((11, 45), (12, 49)):
        deck = Deck("vertex", [empty_graph(n)] * 2)
        found = enum_preimages(deck, 2, "sub")
        star = [(0, v) for v in range(1, n + 2)] + [(1, 2)]
        slots = [[(0, 2), (0, 3), (1, 2), (1, 3)], star]
        want = {
            certificate(Graph(n + 2, [e for e, on in zip(edges, bits) if on]))
            for edges in slots
            for bits in product((0, 1), repeat=len(edges))
        }
        assert len(found) == len(want) == count
        assert {certificate(g) for g in found.preimages} == want
        assert all(subdeck_check(g, deck, 2) for g in found.preimages)
    # edge search, formerly C(C(53, 2), 2) = 948,753 additions in and
    # C(C(54, 2), 2) = 1,023,165 out: the twin rounds keep one graph and
    # build two candidates, the first of which is a preimage
    assert legit_edge(Deck("edge", [empty_graph(53)]), 2, "sub")
    assert legit_edge(Deck("edge", [empty_graph(54)]), 2, "sub")


def test_search_budget_at_its_boundary(monkeypatch):
    # an exact charge is accepted and one unit less refused, the same way
    # each time.  CT + P4 at c = 2: 8 twin patterns of CT in the middle
    # round, 140 candidates, 1,046 deletions keyed and 92 certificates of
    # matches; two P6 edge cards at c = 2: 8 + 40 + 119 + 40
    assert deciders.SEARCH_BUDGET == 10**5
    ct = union([K3, K1])
    cards = build_deck(path_graph(6), "edge", 2).cards[:2]
    for deck, charge, count in (
        (Deck("vertex", [ct, path_graph(4)]), 1_286, 44),
        (Deck("edge", cards), 207, 13),
    ):
        monkeypatch.setattr(deciders, "SEARCH_BUDGET", charge)
        assert len(enum_preimages(deck, 2, "sub")) == count
        monkeypatch.setattr(deciders, "SEARCH_BUDGET", charge - 1)
        messages = set()
        for _ in range(2):
            with pytest.raises(CapacityError) as exc:
                enum_preimages(deck, 2, "sub")
            messages.add(str(exc.value))
        want = f"preimage search work passed its budget of {charge - 1} units (at {charge})"
        assert messages == {want}


def test_a_vertex_round_past_the_budget_is_refused_before_it_runs(monkeypatch):
    # CT at c = 3: the first round extends CT over its 8 twin patterns, the
    # second would extend those classes over 140; a budget of 147 refuses
    # the second round before it certifies anything, so no candidate is
    # built or matched
    rounds, matched = [], []
    real_round, real_match = deciders.extension_classes, deciders._sub_match

    def round_spy(n, graphs):
        rounds.append(n)
        return real_round(n, graphs)

    def match_spy(s, t):
        matched.append(s)
        return real_match(s, t)

    monkeypatch.setattr(deciders, "extension_classes", round_spy)
    monkeypatch.setattr(deciders, "_sub_match", match_spy)
    monkeypatch.setattr(deciders, "SEARCH_BUDGET", 147)
    with pytest.raises(CapacityError, match=r"budget of 147 units \(at 148\)"):
        enum_preimages(Deck("vertex", [union([K3, K1])]), 3, "sub")
    assert rounds == [4] and matched == []
    # one unit more lets the second round run; the first candidates' charge
    # then passes the budget
    monkeypatch.setattr(deciders, "SEARCH_BUDGET", 148)
    with pytest.raises(CapacityError):
        enum_preimages(Deck("vertex", [union([K3, K1])]), 3, "sub")
    assert rounds == [4, 4, 5] and matched


def _sparse_card(m):
    # three isolated vertices first: the first candidate adds (0, 1) and
    # (0, 2), and its first deletion gives the card back
    pairs = list(combinations(range(3, 50), 2))
    return Graph(50, random.Random(5).sample(pairs, m))


def test_deletion_set_cap_at_its_boundary():
    assert DELETION_SETS_CAP == 10**5
    # C(40, 4) = 91,390 deletion sets; the first one already matches
    assert subdeck_check(empty_graph(40), Deck("vertex", [empty_graph(36)]), 4)
    # the pair test walks one size: C(40, 4) = 91,390 deletion sets per graph
    assert two_lvd(empty_graph(40), empty_graph(40), 4)
    # each candidate's deck: C(445 + 2, 2) = 99,681 edge pairs
    assert legit_edge(Deck("edge", [_sparse_card(445)]), 2, "sub")


def test_deletion_set_cap_refuses_just_past_it():
    with pytest.raises(CapacityError):  # C(41, 4) = 101,270
        subdeck_check(empty_graph(41), Deck("vertex", [empty_graph(37)]), 4)
    with pytest.raises(CapacityError):
        build_deck(empty_graph(41), "vertex", 4)
    with pytest.raises(CapacityError):  # C(C(31, 2), 2) = 107,880
        build_deck(complete_graph(31), "edge", 2)
    with pytest.raises(CapacityError):  # C(41, 4) = 101,270
        two_lvd(empty_graph(41), empty_graph(41), 4)
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
    # a preimage on fewer than 2 vertices has no edge to count: the one
    # card of K1's deck is K0
    assert enum_preimages(Deck("vertex", [Graph(0)]), 1, "pure") == (Graph(1),)


def _raw_edge_additions(base, c):
    """Certificates of all C(N, c) additions of c of base's N non-edges,
    and C(N, c)."""
    non_edges = [e for e in combinations(range(base.n), 2) if e not in base.edges]
    certs = {
        certificate(Graph(base.n, base.edges + added))
        for added in combinations(non_edges, c)
    }
    return certs, comb(len(non_edges), c)


def test_edge_extensions_are_complete_up_to_isomorphism():
    # one non-edge per pair of twin classes per round: every c-edge addition
    # of the base is isomorphic to a candidate, and no labeled added-edge
    # set is offered twice, so there are at most C(N, c) candidates
    rng = random.Random(17)
    bases = [
        random_graph(rng, n, p) for n in range(2, 9) for p in (0.25, 0.5, 0.75)
    ]
    twin_heavy = [
        empty_graph(6),
        join([empty_graph(2), empty_graph(3), empty_graph(2)]),
        join([empty_graph(1), empty_graph(4)]),
        union([K3, K3, K2, K1]),
        union([complete_graph(4), K2, K2]),
    ]
    gadget = gi_to_kled(K2, K2, 1, 2).cards[0]  # K2 + (K4 - e) + K5
    for base in bases + twin_heavy + [gadget]:
        for c in (1, 2, 3):
            if c == 3 and base.n > 6:
                continue
            want, raw = _raw_edge_additions(base, c)
            got = list(deciders._extensions(base, "edge", c))
            assert len(got) <= raw
            assert {certificate_rows(s.n, s.rows) for s in got} == want
            for s in got:
                assert s.m == base.m + c
                assert s.key == deciders._shape(s.n, s.rows).key
                undone = delete_edges_rows(s.rows, s.undo)
                assert certificate_rows(base.n, undone) == certificate(base)


def _raw_vertex_extensions(base, c):
    """Certificates of the graphs from the raw attachment patterns of c new
    vertices, by number of added edges, and the 2^(c*n' + C(c,2)) raw
    count.  Renaming the new vertices in order of their attachment sets is
    an isomorphism, so only nondecreasing tuples of those sets are built."""
    n0, n = base.n, base.n + c
    links = list(combinations(range(n0, n), 2))
    by_size = {}
    for masks in combinations_with_replacement(range(1 << n0), c):
        attached = [(u, n0 + i) for i, mask in enumerate(masks) for u in range(n0) if mask >> u & 1]
        for bits in product((0, 1), repeat=len(links)):
            added = attached + [e for e, on in zip(links, bits) if on]
            g = Graph(n, base.edges + tuple(added))
            by_size.setdefault(len(added), set()).add(certificate(g))
    return by_size, 2 ** (c * n0 + len(links))


def test_vertex_extensions_are_complete_up_to_isomorphism():
    # c - 1 rounds keep one graph per class, the last one is streamed over
    # twin patterns: every raw pattern's graph is isomorphic to a candidate,
    # and with `size` set exactly the raw patterns adding that many edges
    rng = random.Random(31)
    bases = [random_graph(rng, n, p) for n in range(1, 5) for p in (0.3, 0.7)]
    bases += [empty_graph(3), P3, empty_graph(4), complete_graph(4), STAR, union([K2, K2])]
    bases.append(join([empty_graph(2), empty_graph(2)]))
    for base in bases:
        for c in (1, 2, 3):
            if c == 3 and base.n == 4 and base not in (STAR, empty_graph(4)):
                continue  # 2^15 raw patterns each
            by_size, raw = _raw_vertex_extensions(base, c)
            got = list(deciders._extensions(base, "vertex", c))
            assert len(got) <= raw
            assert {certificate_rows(s.n, s.rows) for s in got} == set().union(*by_size.values())
            for s in got:
                shape = deciders._shape(s.n, s.rows)
                assert (s.m, s.key) == (shape.m, shape.key)
                undone = delete_vertices_rows(s.rows, s.undo)
                assert certificate_rows(base.n, undone) == certificate(base)
            for size in range(-1, max(by_size) + 2):
                certs = set()
                for s in deciders._extensions(base, "vertex", c, size):
                    assert s.m == base.m + size
                    certs.add(certificate_rows(s.n, s.rows))
                assert certs == by_size.get(size, set())


def test_deletion_keys_match_the_cards():
    # the keyer against the packed histogram of each card built in full:
    # every vertex and edge deletion of c = 1..3 elements (at most 3,000 a
    # graph and c), on seeded random graphs and twin-heavy ones; at order
    # 63 (K63 above all) the 6-bit fields of the key are as full as they get
    rng = random.Random(23)
    graphs = [random_graph(rng, n, p) for n in range(2, 11) for p in (0.2, 0.5, 0.8)]
    graphs += [complete_graph(n) for n in (2, 5, 8)]
    graphs += [union([K3, K3, K2, K1]), union([complete_graph(4)] * 3)]
    graphs += [join([empty_graph(a), empty_graph(b)])
               for a, b in ((1, 5), (3, 3), (4, 6))]
    graphs += [random_graph(rng, n, p) for n in (32, 63) for p in (0.2, 0.5, 0.9)]
    graphs += [complete_graph(63)]
    checked = set()
    for g in graphs:
        s = deciders._shape(g.n, g.rows)
        for kind, elements, card_rows in (
            ("vertex", range(g.n), delete_vertices_rows),
            ("edge", g.edges, delete_edges_rows),
        ):
            for c in (1, 2, 3):
                keyed = deciders._keyer(s, kind)
                for drop in islice(combinations(elements, c), 3_000):
                    rows = card_rows(g.rows, drop)
                    assert keyed(drop) == deciders._shape(len(rows), rows).key
                    checked.add((kind, c))
    assert len(checked) == 6


def test_degree_profile_is_an_isomorphism_invariant():
    # the profile stage may reject only a card of no target class: the
    # profile is equal under relabeling, on seeded random graphs of every
    # order the walk meets, and one per certificate class over every vertex
    # and edge card of the n <= 7 catalog
    profile = deciders._degree_profile
    assert profile(P3.rows) == (1 << 12 | 2, 1 << 12 | 2, 2 << 12 | 2)
    # equal degree sequences, told apart by the neighbour sums
    assert profile(path_graph(5).rows) != profile(union([K3, K2]).rows)
    rng = random.Random(41)
    for n in range(64):
        for p in (0.1, 0.5, 0.9):
            g = random_graph(rng, n, p)
            perm = list(range(n))
            rng.shuffle(perm)
            assert profile(permute(g, perm).rows) == profile(g.rows), (n, p)
    by_class: dict[bytes, set] = {}
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            cards = [delete_vertices_rows(g.rows, (v,)) for v in range(g.n)]
            cards += [delete_edges_rows(g.rows, (e,)) for e in g.edges]
            for rows in cards:
                cert = certificate_rows(len(rows), rows)
                by_class.setdefault(cert, set()).add(profile(rows))
    assert all(len(profiles) == 1 for profiles in by_class.values())


def test_vertex_search_matcher_calls_are_bounded(monkeypatch):
    # work bound, no clock: the rounds before the last keep one graph per
    # class, so CT (K3 + K1) offers 2,940 candidates at c = 3 and 140 at
    # c = 2, where the raw patterns were 32,768 and 512
    calls = [0]
    real = deciders._sub_match

    def spy(s, t):
        calls[0] += 1
        return real(s, t)

    monkeypatch.setattr(deciders, "_sub_match", spy)
    deck = Deck("vertex", [union([K3, K1])])
    assert len(enum_preimages(deck, 2, "sub")) == 71
    assert calls[0] <= 256
    calls[0] = 0
    assert len(enum_preimages(deck, 3, "sub")) == 742
    assert calls[0] <= 4_000


def test_edge_rounds_stay_within_the_budget_when_c_exceeds_half(monkeypatch):
    # with c > N/2 a middle round can hold C(N, r) > C(N, c) labeled sets;
    # every set a round keeps is charged, so no round holds more graphs than
    # the budget, and the search answers with the raw additions' classes or
    # refuses.  N = 8, c = 6: rounds of up to C(8, 4) = 70 sets, 28 raw
    # additions; N = 32, c = 30: rounds of 10, 109, 1,094, 9,376 and
    # 66,180 sets, and the next passes the budget (496 raw additions)
    real = deciders._twin_classes
    held = [0]

    def spy(n, rows):
        held[0] += 1
        assert held[0] <= deciders.SEARCH_BUDGET + 1, "a round outgrew the budget"
        return real(n, rows)

    monkeypatch.setattr(deciders, "_twin_classes", spy)
    base = Graph(5, [(0, 1), (2, 3)])
    want, raw = _raw_edge_additions(base, 6)
    found = enum_preimages(Deck("edge", [base]), 6, "sub")
    assert {certificate(g) for g in found.preimages} == want and raw == 28
    held[0] = 0
    base = Graph(9, [(0, 1), (2, 3), (4, 5), (6, 7)])
    with pytest.raises(CapacityError, match="budget"):
        enum_preimages(Deck("edge", [base]), 30, "sub")
    assert held[0] > 1 + 10 + 109 + 1_094 + 9_376  # the sixth round was growing


def _connected(n):
    return [g for g in enumerate_graphs(n) if is_connected(g)]


def test_edge_search_matcher_calls_are_bounded(monkeypatch):
    # work bound, no clock: the gadgets' cards have large twin classes, so
    # few candidates reach the matcher (103,574 and 18,368 calls when every
    # raw combination of non-edges was offered)
    calls = [0]
    real = deciders._sub_match

    def spy(s, t):
        calls[0] += 1
        return real(s, t)

    monkeypatch.setattr(deciders, "_sub_match", spy)
    pairs = list(product(_connected(4), repeat=2))
    for k in (2, 3):
        for g, h in pairs:
            assert legit_edge(gi_to_kled(g, h, 2, k), 2, "sub") == are_isomorphic(g, h)
    assert calls[0] <= 10_000
    calls[0] = 0
    for g, h in pairs:
        assert legit_edge(gi_to_led(g, h, 2), 2, "pure") == are_isomorphic(g, h)
    assert calls[0] <= 2_000


def test_edge_walks_certify_one_card_per_twin_orbit(monkeypatch):
    # work bound, no clock: an edge walk certifies one card per twin orbit
    # of its key hits; the 36 order-4 LED_2 gadget searches made 739
    # certificate_rows calls when every key hit was certified, and 100
    # with the orbit memo
    calls = [0]
    real = deciders.certificate_rows

    def spy(n, rows):
        calls[0] += 1
        return real(n, rows)

    decks = [(gi_to_led(g, h, 2), are_isomorphic(g, h)) for g, h in product(_connected(4), repeat=2)]
    monkeypatch.setattr(deciders, "certificate_rows", spy)
    for deck, want in decks:
        assert legit_edge(deck, 2, "pure") == want
    assert calls[0] <= 100


def test_vertex_walks_classify_one_card_per_twin_orbit(monkeypatch):
    # work bound, no clock: a vertex walk, too, takes one key hit per twin
    # orbit through the card-class stages; K7's walk over the deck of seven
    # K6 cards keys six deletions (the undone one is counted) and
    # classifies one, where it classified all six without the memo
    calls = [0]
    real = deciders._card_class

    def spy(t, rows):
        calls[0] += 1
        return real(t, rows)

    monkeypatch.setattr(deciders, "_card_class", spy)
    found = enum_preimages(Deck("vertex", [complete_graph(6)] * 7), 1, "pure")
    assert [certificate(g) for g in found.preimages] == [certificate(complete_graph(7))]
    assert calls[0] == 1


def test_walks_key_twin_orbits_from_the_second_hit(monkeypatch):
    # work bound, no clock: a walk classifies its first key hit alone, so
    # only a candidate with a second hit builds its twin-orbit keyer; on
    # the rich (2, 2) deck 93 candidates hit and 15 hit again
    built, classified = [0], [0]
    real_orbits, real_class = deciders.twin_orbits, deciders._card_class

    def orbits_spy(n, rows, kind):
        built[0] += 1
        return real_orbits(n, rows, kind)

    def class_spy(t, rows):
        classified[0] += 1
        return real_class(t, rows)

    monkeypatch.setattr(deciders, "twin_orbits", orbits_spy)
    monkeypatch.setattr(deciders, "_card_class", class_spy)
    assert len(enum_preimages(many_preimage_deck(2, 2), 1, "sub")) == 28
    assert (built[0], classified[0]) == (15, 108)


def _relabeled(deck, rng):
    cards = []
    for card in deck.cards:
        perm = list(range(card.n))
        rng.shuffle(perm)
        cards.append(permute(card, perm))
    return Deck(deck.kind, cards)


def test_edge_search_answers_survive_relabeling():
    # twin representatives depend on the labels of the first card, the
    # answers must not
    rng = random.Random(29)
    conn = _connected(4)
    pairs = [(conn[0], conn[0]), (conn[2], conn[2])]
    pairs += rng.sample(list(product(conn, repeat=2)), 3)
    decks = [(gi_to_kled(g, h, c, k), c) for c in (1, 2) for k in (2, 3) for g, h in pairs]
    for _ in range(12):
        g = random_graph(rng, rng.randint(6, 8), rng.choice((0.3, 0.5)))
        if 2 <= g.m <= 14:
            full = build_deck(g, "edge", 1)
            decks.append((Deck("edge", rng.sample(full.cards, rng.randint(1, min(3, len(full))))), 1))
    for deck, c in decks:
        moved = _relabeled(deck, rng)
        want = [certificate(p) for p in enum_preimages(deck, c, "sub").preimages]
        assert [certificate(p) for p in enum_preimages(moved, c, "sub").preimages] == want
        assert legit_edge(moved, c, "sub") == legit_edge(deck, c, "sub") == bool(want)


def test_answers_are_relabeling_invariant():
    # every decider, find_preimage and recon_number answer alike on a graph
    # and a relabeling of it, and on a deck and one of relabeled cards, whose
    # first card (the search's base) has other labels; seeded graphs on 5-7
    # vertices, c = 1 and 2, vertex and edge decks, pure and sub modes
    rng = random.Random(47)
    outcomes = set()
    for _ in range(6):
        n = rng.randint(5, 7)
        g, other = (random_graph(rng, n, rng.choice((0.3, 0.5, 0.7))) for _ in range(2))
        moved, other_moved = (permute(x, rng.sample(range(n), n)) for x in (g, other))
        for kind in ("vertex", "edge"):
            if kind == "edge" and not 1 <= g.m <= 12:
                continue
            for q in ("exists", "forall"):
                assert recon_number(moved, kind, q).value == recon_number(g, kind, q).value
            for c in (1, 2):
                if kind == "edge" and c > min(g.m, other.m):
                    continue
                full = build_deck(g, kind, c)
                sub = Deck(kind, rng.sample(full.cards, min(2, len(full))))
                mixed = Deck(kind, full.cards[:1] + build_deck(other, kind, c).cards[-1:])
                for deck, mode in ((full, "pure"), (sub, "sub"), (mixed, "sub")):
                    relabeled = _relabeled(deck, rng)
                    check = deck_check if mode == "pure" else subdeck_check
                    for x, y in ((g, moved), (other, other_moved)):
                        answer = check(x, deck, c)
                        assert check(y, relabeled, c) == answer
                        outcomes.add((mode, answer))
                    found = find_preimage(deck, c, mode) is not None
                    assert (find_preimage(relabeled, c, mode) is not None) == found
                    count = len(enum_preimages(deck, c, mode))
                    assert len(enum_preimages(relabeled, c, mode)) == count
                    outcomes.add((mode, found, count > 0))
    assert {("pure", True), ("pure", False), ("sub", True), ("sub", False)} <= outcomes
    assert {("sub", True, True), ("sub", False, False)} <= outcomes


def test_deck_answers_ignore_the_labeling():
    # the seeded test above as a bounded fuzz on 5-9 vertices: the checks of
    # g and of another graph, and the preimage decisions, on a full deck, a
    # two-card subdeck and a mixed deck, each against relabeled cards
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def case(draw):
        kind = draw(st.sampled_from(["vertex", "edge"]))
        c = draw(st.sampled_from([1, 2]))
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        n = rng.randint(5, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        m = rng.randint(0, len(pairs)) if kind == "vertex" else rng.randint(c, min(12, len(pairs)))
        g, other = (Graph(n, rng.sample(pairs, m)) for _ in range(2))
        return kind, c, g, other, rng

    outcomes = set()

    @hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=30)
    @hypothesis.given(case())
    def check(drawn):
        kind, c, g, other, rng = drawn
        moved, other_moved = (permute(x, rng.sample(range(x.n), x.n)) for x in (g, other))
        legit = legit_vertex if kind == "vertex" else legit_edge
        full = build_deck(g, kind, c)
        sub = Deck(kind, rng.sample(full.cards, 2))
        mixed = Deck(kind, full.cards[:1] + build_deck(other, kind, c).cards[-1:])
        for deck, mode in ((full, "pure"), (sub, "sub"), (mixed, "sub")):
            relabeled = _relabeled(deck, rng)
            decide = deck_check if mode == "pure" else subdeck_check
            for x, y in ((g, moved), (other, other_moved)):
                answer = decide(x, deck, c)
                assert decide(y, relabeled, c) == answer
                outcomes.add((mode, answer))
            found = find_preimage(deck, c, mode) is not None
            assert (find_preimage(relabeled, c, mode) is not None) == found
            assert legit(deck, c, mode) == legit(relabeled, c, mode) == found
            outcomes.add((kind, mode, found))

    check()
    assert {("pure", True), ("pure", False), ("sub", True), ("sub", False)} <= outcomes
    assert {(kind, "sub", found) for kind in ("vertex", "edge") for found in (True, False)} <= outcomes


def test_one_walk_matches_built_decks():
    # the one deletion walk against decks built card by card: for every
    # one-vertex (one-edge) extension of a card, _coverage's capped class
    # counts; for those and sampled c = 2 extensions, _sub_match against
    # subdeck_contained, with the undone deletion counted up front (undo
    # set) and walked (undo None); and the targets of a full deck's
    # classes i, i+1, ... (a slice of its class table) against those of a
    # deck built from the cards of those classes
    rng = random.Random(71)
    outcomes = set()
    for kind in ("vertex", "edge"):
        for n in (5, 6, 7, 8):
            pairs = list(combinations(range(n), 2))
            g = Graph(n, rng.sample(pairs, rng.randint(3, len(pairs) - 3)))
            for c in (1, 2):
                full = build_deck(g, kind, c)
                runs = full.classes()
                for i in range(len(runs)):
                    got = deciders._DeckTargets(full, c, i)
                    suffix = Deck(kind, [card for _, cards in runs[i:] for card in cards])
                    built = deciders._DeckTargets(suffix, c)
                    for name in ("cards", "mults", "count", "index", "by_key", "need_by_edges"):
                        assert getattr(got, name) == getattr(built, name), (i, name)
                decks = [full] + [
                    Deck(kind, rng.sample(full.cards, rng.randint(1, 4))) for _ in range(2)
                ]
                for deck in decks:
                    t = deciders._DeckTargets(deck, c)
                    certs = list(t.index)
                    shapes = list(deciders._extensions(deck.cards[0], kind, c))
                    if c == 2:
                        shapes = rng.sample(shapes, min(12, len(shapes)))
                    for s in shapes:
                        h = Graph._from_rows(s.n, s.rows)
                        have = build_deck(h, kind, c)
                        if c == 1:
                            built = Counter(have.certs)
                            want = [min(m, built[x]) for m, x in zip(t.mults, certs)]
                            assert deciders._coverage(s, t, False) == want
                        want = subdeck_contained(deck, have)
                        outcomes.add(want)
                        assert deciders._sub_match(s, t) == want
                        plain = deciders._shape(s.n, s.rows)
                        assert plain.undo is None
                        assert deciders._sub_match(plain, t) == want
    assert outcomes == {True, False}


def test_vertex_class_walk_matches_the_generic_walk():
    # the recon vertex walk solves each deletion's degree signature; per
    # card class i it yields exactly the distinct coverages of _coverage
    # over _extensions of card i, in order of first appearance, minus g,
    # that sum past the walk's floor, although it skips twin patterns with
    # fewer hits than the floor unclassified (the solve itself is pinned
    # by test_deletion_hits_match_every_key)
    rng = random.Random(29)
    graphs = [g for n in range(2, 7) for g in enumerate_graphs(n)]
    graphs += enumerate_graphs(7)[::3]
    for n in (8, 9, 10):
        for _ in range(2):
            g = random_graph(rng, n, rng.choice((0.3, 0.5, 0.7)))
            perm = list(range(n))
            rng.shuffle(perm)
            graphs.append(permute(g, perm))
    yielded = dropped = 0
    for g in graphs:
        blockers = recon._Blockers(g, "vertex")
        d = blockers.deck
        own = certificate_rows(g.n, g.rows)
        assert blockers.floor == (2 if g.n >= 3 else 0)
        for i in range(len(d.classes())):
            t = deciders._DeckTargets(d, 1, i)
            want = []
            for s in deciders._extensions(t.cards[0], "vertex", 1):
                cov = deciders._coverage(s, t, False)
                if not (cov == t.mults and certificate_rows(s.n, s.rows) == own):
                    want.append(tuple(cov))
            want = list(dict.fromkeys(want))
            kept = [cov for cov in want if sum(cov) > blockers.floor]
            assert list(blockers._walk(deciders._DeckTargets(d, 1, i))) == kept, (g, i)
            yielded += len(kept)
            dropped += len(want) - len(kept)
    assert yielded > 2000 and dropped > 5000, (yielded, dropped)


def test_deletion_hits_match_every_key():
    # the recon vertex walk's solve against keying every pair: for each
    # card class, every attachment set A of the card (all 2^n, not only
    # twin patterns) and every card vertex u, _deletion_hits lists
    # (u, A - u, classes) at A, in increasing u, exactly when the built
    # extension minus u keys to a target; twin-heavy cards included
    rng = random.Random(37)
    graphs = [g for n in range(3, 6) for g in enumerate_graphs(n)]
    graphs += rng.sample(enumerate_graphs(6), 20) + rng.sample(enumerate_graphs(7), 20)
    for n in (8, 9, 10):
        for _ in range(2):
            graphs.append(random_graph(rng, n, rng.choice((0.3, 0.5, 0.7))))
    twin_heavy = [g for n in range(4, 9) for g in clique_union_pair(n)]
    twin_heavy += [union([complete_graph(4), complete_graph(5)]), empty_graph(9), complete_graph(9)]
    twin_heavy.append(join([empty_graph(4), empty_graph(5)]))
    graphs += twin_heavy + [union([g, K1]) for g in twin_heavy[-4:]]
    hits = 0
    for g in graphs:
        d = build_deck(g, "vertex", 1)
        for i in range(len(d.classes())):
            t = deciders._DeckTargets(d, 1, i)
            card = t.cards[0]
            n = card.n
            found = deciders._deletion_hits(card, t.by_key)
            assert set(found) <= set(range(1 << n)), (g, i)
            for attach in range(1 << n):
                s = deciders._shape(n + 1, extend_rows(n, card.rows, attach))
                want = []
                for u in range(n):
                    key = deciders._key_without_vertices(s, (u,))
                    if key in t.by_key:
                        want.append((u, attach & ~(1 << u), t.by_key[key]))
                assert found.get(attach, []) == want, (g, i, attach)
                hits += len(want)
    assert hits > 20000


def test_profile_tables_match_the_built_card():
    # the recon vertex walk reads a hit's degree profile off u's table: for
    # every card vertex u and every B in V(C) - u it is the profile of the
    # built card C - u plus a vertex joined to B; twin-heavy cards included
    rng = random.Random(41)
    graphs = [g for n in range(3, 6) for g in enumerate_graphs(n)]
    graphs += rng.sample(enumerate_graphs(6), 20) + rng.sample(enumerate_graphs(7), 20)
    for n in (8, 9, 10):
        for _ in range(2):
            graphs.append(random_graph(rng, n, rng.choice((0.3, 0.5, 0.7))))
    graphs += [g for n in range(4, 9) for g in clique_union_pair(n)]
    graphs += [union([complete_graph(4), complete_graph(5)]), join([empty_graph(4), empty_graph(5)])]
    checked = 0
    for g in graphs:
        n, rows = g.n, g.rows
        for u in range(n):
            table = deciders._profile_table(n, rows, u)
            for b in range(1 << n):
                if not b >> u & 1:
                    card = delete_vertices_rows(extend_rows(n, rows, b), (u,))
                    assert deciders._hit_profile(table, b) == deciders._degree_profile(card), (g, u, b)
                    checked += 1
    assert checked > 40000


def test_every_witness_has_its_deck():
    # find_preimage's graph has the deck (subdeck_check in sub mode,
    # deck_check in pure mode) and is among enum_preimages of it; None
    # means the search finds no preimage either.  Decks of 1 and 2 cards
    # and full decks of sampled graphs, and card pairs of two graphs
    rng = random.Random(16)
    cases = []
    for _ in range(60):
        n = rng.randint(2, 6)
        g, other = (random_graph(rng, n, rng.random()) for _ in range(2))
        for kind, c in (("vertex", 1), ("vertex", 2), ("edge", 1)):
            if n - c < 1 or (kind == "edge" and min(g.m, other.m) < c):
                continue
            full = build_deck(g, kind, c)
            cases.append((full, c, "pure"))
            cases += [
                (Deck(kind, rng.sample(full.cards, k)), c, "sub") for k in (1, 2) if k <= len(full)
            ]
            if len(full) > 1:
                mixed = [rng.choice(full.cards), rng.choice(build_deck(other, kind, c).cards)]
                cases.append((Deck(kind, mixed), c, "sub"))
    answers = Counter()
    for deck, c, mode in cases:
        witness = find_preimage(deck, c, mode)
        certs = {certificate(p) for p in enum_preimages(deck, c, mode).preimages}
        answers[witness is None] += 1
        if witness is None:
            assert not certs
            continue
        check = subdeck_check if mode == "sub" else deck_check
        assert check(witness, deck, c)
        assert certificate(witness) in certs
    assert answers[True] and answers[False]


def test_preimage_answer_bytes_are_pinned():
    # a seeded corpus of small decks, vertex and edge at c = 1 and 2: full
    # decks (pure), samples of 1-3 cards (sub), and a deck with one card of
    # another graph (pure and sub), plus a one-card E12 deck at c = 4 that
    # the search refuses on its budget.  Each answer's bytes are folded
    # into one digest: find_preimage's witness, checked against its deck,
    # and enum_preimages' output as graph6, or the refusal text.  The
    # digest was recorded by this loop; a change that moves it changes
    # answer bytes
    rng = random.Random(43)
    cases = []
    for kind, c in product(("vertex", "edge"), (1, 2)):
        for _ in range(14):
            n = rng.randint(c + 1, 6)
            g, other = (random_graph(rng, n, rng.random()) for _ in range(2))
            if kind == "edge" and min(g.m, other.m) < c:
                continue
            full = build_deck(g, kind, c)
            cases.append((full, c, "pure"))
            cases += [
                (Deck(kind, rng.sample(full.cards, k)), c, "sub") for k in (1, 2, 3) if k <= len(full)
            ]
            swapped = list(full.cards)
            swapped[rng.randrange(len(swapped))] = rng.choice(build_deck(other, kind, c).cards)
            cases += [(Deck(kind, swapped), c, mode) for mode in ("pure", "sub")]
    cases.append((Deck("vertex", [empty_graph(12)]), 4, "sub"))
    digest = hashlib.sha256()
    found = refused = 0
    for deck, c, mode in cases:
        parts = [deck.kind, str(c), mode, ",".join(map(graph6_encode, deck.cards))]
        try:
            witness = find_preimage(deck, c, mode)
        except ReconError as exc:
            parts.append(f"refused: {exc}")
            refused += 1
        else:
            if witness is not None:
                assert (subdeck_check if mode == "sub" else deck_check)(witness, deck, c)
                found += 1
            parts.append("-" if witness is None else graph6_encode(witness))
        try:
            parts.append(",".join(map(graph6_encode, enum_preimages(deck, c, mode))))
        except ReconError as exc:
            parts.append(f"refused: {exc}")
        digest.update(" ".join(parts).encode() + b"\n")
    assert (len(cases), found, refused) == (260, 209, 1)
    assert digest.hexdigest() == (
        "4a473313b05387ffced6d689161cee589f843ef6166ab4c4db33908ccd33e48e"
    )
