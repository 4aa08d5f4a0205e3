import math
import random
from collections import Counter
from itertools import product

import pytest

import recon_oracle as oracle
from conftest import trees_of_order

import reconkit.deciders as deciders
import reconkit.recon as recon
from reconkit.canon import are_isomorphic, certificate
from reconkit.deck import Deck, build_deck, deck_equal, endvertex_deck, subdeck_contained
from reconkit.errors import CapacityError, InputError
from reconkit.families import clique_union_pair
from reconkit.graph import (
    Graph,
    complete_graph,
    component_masks,
    copies,
    delete_vertices,
    empty_graph,
    enumerate_graphs,
    graph6_decode,
    iter_bits,
    path_graph,
    permute,
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


@pytest.mark.parametrize("quantifier", ["exists", "forall"])
def test_edgeless_graph_has_no_edge_deck(quantifier):
    # the deck's refusal comes before any subdeck is looked at, so an
    # edgeless graph never reaches the empty-subdeck rule, and before g's
    # certificate, which refuses orders of 64 and more
    for g in (empty_graph(5), empty_graph(64)):
        with pytest.raises(InputError, match="cannot delete 1 edges from 0 edges"):
            recon_number(g, "edge", quantifier)
        with pytest.raises(InputError, match="cannot delete 1 edges from 0 edges"):
            identifies(g, Deck("edge", []), "edge")


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


def test_toggling_a_pair_keeps_both_cards():
    # the bound behind the vertex search's start at size 3, checked with
    # labeled cards alone: toggling the pair uv of g gives h with g's cards
    # at u and at v and one edge more or less, so h is not g; any one or
    # two vertex cards of g come from some such pair
    for n in range(3, 7):
        for g in enumerate_graphs(n):
            edges = set(g.edges)
            for u in range(n):
                for v in range(u + 1, n):
                    h = Graph(n, edges ^ {(u, v)})
                    assert abs(h.m - g.m) == 1
                    assert delete_vertices(h, [u]) == delete_vertices(g, [u])
                    assert delete_vertices(h, [v]) == delete_vertices(g, [v])


# atlas rows (graph6: vertex exists, vertex forall), one per value
ATLAS_VERTEX_VALUES = {
    "B?": (3, 3), "C`": (4, 4), "DAK": (3, 5), "Es\\o": (5, 5), "EAlw": (3, 6),
}


def _walked_sizes(monkeypatch):
    # the sizes of the profiles whose test reaches a class walk
    sizes, asked = [], []
    identifies, coverages = recon._Blockers.identifies, recon._Blockers.coverages

    def identifies_spy(self, profile):
        asked[:] = [sum(profile)]
        try:
            return identifies(self, profile)
        finally:
            asked.clear()

    def coverages_spy(self, i):
        sizes.extend(asked)
        return coverages(self, i)

    monkeypatch.setattr(recon._Blockers, "identifies", identifies_spy)
    monkeypatch.setattr(recon._Blockers, "coverages", coverages_spy)
    return sizes


@pytest.mark.parametrize("quantifier", ["exists", "forall"])
def test_vertex_search_starts_at_three_cards(monkeypatch, quantifier):
    # work bound, no clock: no vertex profile of fewer than 3 cards of a
    # graph on n >= 3 vertices reaches a walk, and the values stay the
    # atlas's
    sizes = _walked_sizes(monkeypatch)
    column = 0 if quantifier == "exists" else 1
    for code, values in ATLAS_VERTEX_VALUES.items():
        g = graph6_decode(code)
        assert recon_number(g, "vertex", quantifier).value == values[column], code
    for g in clique_union_pair(8):
        assert recon_number(g, "vertex", quantifier).value >= 3
    assert sizes and min(sizes) >= 3


def test_universal_number_tests_profiles_of_one_size(monkeypatch):
    # work bound, no clock: the universal value comes from the class walks'
    # largest coverage sum, so profiles are tested only to pick the
    # counterexample, one card below the value; D?K (value 5) had its
    # profiles of 3, 4 and 5 cards tested when sizes were tried in turn
    sizes = _walked_sizes(monkeypatch)
    got = recon_number(graph6_decode("D?K"), "vertex", "forall")
    assert got.value == 5 and len(got.counterexample) == 4
    assert set(sizes) == {4}


def test_identifies_answers_two_vertex_cards_without_a_walk(monkeypatch):
    def refuse(*args):
        raise AssertionError("a walk was started")

    monkeypatch.setattr(recon._Blockers, "coverages", refuse)
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])  # a tree with 3 leaves
    full = build_deck(g, "vertex", 1)
    for cards in (full.cards[:1], full.cards[:2], full.cards[-2:]):
        assert not identifies(g, Deck("vertex", cards), "vertex")
    ends = endvertex_deck(g)
    assert len(ends) == 3
    for size in (1, 2):
        assert not identifies(g, Deck("endvertex", ends.cards[:size]), "vertex")
    # the guards still come first
    with pytest.raises(InputError):
        identifies(g, Deck("vertex", [complete_graph(4)]), "vertex")
    with pytest.raises(InputError):
        identifies(g, Deck("edge", build_deck(g, "edge", 1).cards[:2]), "vertex")
    # and the rest still walks
    with pytest.raises(AssertionError, match="walk"):
        identifies(g, Deck("vertex", full.cards[:3]), "vertex")


def test_blockers_answer_every_profile_as_the_oracle_does():
    # _Blockers.identifies answers every count profile itself, the empty
    # one and those of at most floor cards included: asked only its walks,
    # it said a 2-card vertex profile identifies P4, P5, a tree with 3
    # leaves and DAK, and it raised on the empty profile
    checked = 0
    for n in range(3, 6):
        for g in enumerate_graphs(n):
            for kind in ("vertex", "edge") if g.m else ("vertex",):
                blockers = recon._Blockers(g, kind)
                classes = blockers.deck.classes()
                for profile in product(*(range(len(cards) + 1) for _, cards in classes)):
                    cards = [c for k, (_, run) in zip(profile, classes) for c in run[:k]]
                    want = oracle.identifies(g, Deck(kind, cards), kind)
                    assert blockers.identifies(profile) == want, (g.rows, kind, profile)
                    checked += 1
    assert checked == 1260


def test_blockers_certify_g_only_when_an_extension_may_be_g(monkeypatch):
    # building the class walks certifies g and builds its deck; an
    # extension of g's order is certified only once it covers the whole
    # deck with g's degree histogram
    g = graph6_decode("DAK")
    blockers = recon._Blockers(g, "vertex")
    deck = blockers.deck
    assert blockers.own == certificate(g) and deck == build_deck(g, "vertex", 1)
    calls = []
    real = recon.certificate_rows

    def spy(n, rows):
        calls.append(Graph._from_rows(n, rows))
        return real(n, rows)

    monkeypatch.setattr(recon, "certificate_rows", spy)
    assert blockers.identifies([len(cards) for _, cards in deck.classes()])
    monkeypatch.undo()
    whole = [x for x in calls if x.n == g.n]
    assert whole  # g is an extension of each of its cards
    for x in whole:
        assert sorted(x.degrees()) == sorted(g.degrees())
        assert subdeck_contained(deck, build_deck(x, "vertex", 1))


def _seeded_graph(seed, n, m):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, random.Random(seed).sample(pairs, m))


def _spy_class_walks(monkeypatch, current, start):
    # wraps the vertex class walks: start(t) runs as a walk starts, and its
    # value is put in current before each resumption, since walks interleave
    real = recon._Blockers._walk

    def walk(self, t):
        mark = start(t)
        inner = real(self, t)
        while True:
            current[:] = [mark]
            cov = next(inner, None)
            if cov is None:
                return
            yield cov

    monkeypatch.setattr(recon._Blockers, "_walk", walk)


@pytest.mark.parametrize("kind, g", [
    ("vertex", _seeded_graph(9, 9, 18)),
    ("edge", _seeded_graph(10, 7, 10)),
])
@pytest.mark.parametrize("quantifier", ["exists", "forall"])
def test_one_walk_per_card_class(monkeypatch, kind, g, quantifier):
    # work bound, no clock: a spy on the class walks (vertex) or the
    # extension walk (edge) counts the walks each call starts and the
    # graphs certified while card class i is walked, by the walks in
    # recon and by _coverage's card classes in deciders
    deck = build_deck(g, kind, 1)
    certs = list(dict.fromkeys(deck.certs))
    mults = Counter(deck.certs)
    degrees = [sorted(c.degrees()) for c in dict(zip(deck.certs, deck.cards)).values()]
    real_cert = deciders.certificate_rows
    starts, certified, current = [], [], []

    def certificate_rows(n, rows):
        if current:
            certified.append((*current[0], Graph(n, [
                (u, v) for u in range(n) for v in range(u + 1, n) if rows[u] >> v & 1
            ])))
        return real_cert(n, rows)

    if kind == "vertex":

        def start(t):
            starts.append(certs.index(certificate(t.cards[0])))
            return starts[-1], t.cards[0]

        _spy_class_walks(monkeypatch, current, start)
    else:
        real_extensions = recon._extensions

        def extensions(base, *args):
            i = certs.index(certificate(base))
            starts.append(i)
            for h in real_extensions(base, *args):
                current[:] = [(i, base)]
                yield h

        monkeypatch.setattr(recon, "_extensions", extensions)
    monkeypatch.setattr(recon, "certificate_rows", certificate_rows)
    monkeypatch.setattr(deciders, "certificate_rows", certificate_rows)
    recon_number(g, kind, quantifier)
    assert starts and sorted(starts) == sorted(set(starts)), starts  # each class once
    assert certified
    for i, base, x in certified:
        if x.m == g.m and x.n == g.n:
            # H itself, certified only when it has g's degrees and its deck
            # covers classes i, i+1, ...
            have = Counter(build_deck(x, kind, 1).certs)
            assert all(have[c] >= mults[c] for c in certs[i:])
            assert sorted(x.degrees()) == sorted(g.degrees())
        else:
            # a card of H: never the one H was built from, and only when
            # its degrees match a class the walk counts
            assert x.rows != base.rows
            assert sorted(x.degrees()) in degrees[i:]


def test_vertex_walk_certifies_no_card_twice(monkeypatch):
    # work bound, no clock: H_A - u and H_(A^u) - u are one labeled graph,
    # so a class walk reads a key hit's degree profile off u's table once
    # per (u, A - u), and certifies no card rows twice
    g = _seeded_graph(9, 9, 18)
    classified, certified, current, walks = [], [], [], []
    real_profile, real_cert = recon._hit_profile, recon.certificate_rows

    def hit_profile(table, b):
        classified.append((current[0], tuple(table), b))  # the table names u
        return real_profile(table, b)

    def certificate_rows(n, rows):
        if n < g.n:  # a card; g and its extensions have g's order
            certified.append((current[0], tuple(rows)))
        return real_cert(n, rows)

    _spy_class_walks(monkeypatch, current, lambda t: walks.append(t) or len(walks))
    monkeypatch.setattr(recon, "_hit_profile", hit_profile)
    monkeypatch.setattr(recon, "certificate_rows", certificate_rows)
    assert recon_number(g, "vertex", "forall").value == 3
    assert classified and len(set(classified)) == len(classified)
    assert certified and len(set(certified)) == len(certified) < len(classified)


SPIDER = Graph(7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6)])  # twins 1, 2 and 5, 6


@pytest.mark.parametrize("kind, g", [
    ("vertex", _seeded_graph(9, 9, 18)),
    ("edge", _seeded_graph(10, 7, 10)),
    ("vertex", SPIDER),
    ("edge", SPIDER),
])
@pytest.mark.parametrize("quantifier", ["exists", "forall"])
def test_recon_number_builds_only_its_own_decks(monkeypatch, kind, g, quantifier):
    # work bound, no clock: the class walks slice the deck's class table,
    # and the witness or counterexample subdeck takes its cards and their
    # certificates from that table, so a call builds only g's deck and
    # certifies no card twice (build_deck certifies one card per twin
    # orbit, so a graph with twins certifies fewer cards than its deck has)
    import reconkit.deck as deck_module
    import reconkit.recon as recon_module

    built, certified = [], []
    real, real_cert = recon_module._build_deck, deck_module.certificate_rows

    def spy(*args):
        deck, starts = real(*args)
        built.append(deck)
        return deck, starts

    def cert_spy(n, rows):
        certified.append(Graph._from_rows(n, rows))
        return real_cert(n, rows)

    monkeypatch.setattr(recon_module, "_build_deck", spy)
    monkeypatch.setattr(deck_module, "certificate_rows", cert_spy)
    got = recon_number(g, kind, quantifier)
    monkeypatch.undo()
    subdeck = got.witness if quantifier == "exists" else got.counterexample
    assert subdeck is not None
    full = build_deck(g, kind, 1)
    assert built == [full]
    assert set(map(certificate, certified)) == set(full.certs)
    assert len(set(certified)) == len(certified) <= len(full)
    if g is SPIDER:
        assert len(certified) < len(full)
    rebuilt = Deck(kind, subdeck.cards)
    assert (subdeck.kind, subdeck.cards, subdeck.certs) == (kind, rebuilt.cards, rebuilt.certs)
    assert subdeck == rebuilt and hash(subdeck) == hash(rebuilt)
    assert subdeck_contained(subdeck, full)


def _connected_seeded_graph(seed, n, m):
    g = _seeded_graph(seed, n, m)
    while len(component_masks(g.n, g.rows)) > 1:
        seed += 100
        g = _seeded_graph(seed, n, m)
    return g


@pytest.mark.parametrize("kind, g", [
    ("vertex", _connected_seeded_graph(1, 8, 14)),
    ("vertex", _connected_seeded_graph(2, 9, 20)),
    ("vertex", _connected_seeded_graph(3, 10, 22)),
    ("vertex", SPIDER),
    ("edge", _connected_seeded_graph(4, 7, 11)),
    ("edge", _connected_seeded_graph(5, 8, 12)),
    ("edge", SPIDER),
])
def test_second_labeling_searches_only_its_own_certificate(monkeypatch, kind, g):
    # work bound, no clock: recon certifies g first, and every other
    # certificate of a call (deck cards, walk starts, extensions and their
    # cards) depends only on g's class, so after one labeling's calls
    # another labeling of a connected g makes one canonical search, its
    # own certificate, for both quantifiers
    import reconkit.canon as canon

    runs = [0]
    run = canon._Search.run

    def counting_run(self):
        runs[0] += 1
        return run(self)

    monkeypatch.setattr(canon._Search, "run", counting_run)
    canon.clear_certificate_cache()
    first = [recon_number(g, kind, q) for q in ("exists", "forall")]
    assert runs[0] > 1
    h = permute(g, random.Random(g.m).sample(range(g.n), g.n))
    assert h.rows != g.rows
    runs[0] = 0
    second = [recon_number(h, kind, q) for q in ("exists", "forall")]
    assert runs[0] == 1
    assert [r.value for r in first] == [r.value for r in second]


def test_recon_number_ignores_the_labeling():
    # the walks visit extensions and deletions in label order, so a
    # relabeled graph takes other paths to the same values and the same
    # witness and counterexample card multisets
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def case(draw):
        kind = draw(st.sampled_from(["vertex", "edge"]))
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        n = rng.randint(5, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        m = rng.randint(0, len(pairs)) if kind == "vertex" else rng.randint(1, min(12, len(pairs)))
        return kind, Graph(n, rng.sample(pairs, m)), draw(st.permutations(range(n)))

    @hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=40)
    @hypothesis.given(case())
    def check(drawn):
        kind, g, perm = drawn
        moved = permute(g, perm)
        for quantifier in ("exists", "forall"):
            a, b = recon_number(g, kind, quantifier), recon_number(moved, kind, quantifier)
            assert a.value == b.value
            for x, y in ((a.witness, b.witness), (a.counterexample, b.counterexample)):
                assert (x is None) == (y is None)
                assert x is None or x.certs == y.certs

    check()
