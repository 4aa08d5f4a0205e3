import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from conftest import random_graph

from reconkit.canon import _CERT_CACHE as canon_memo
from reconkit.canon import CERTIFICATE_ORDER_CAP, are_isomorphic, canonical_form, certificate
from reconkit.canon import clear_certificate_cache
from reconkit.deck import (
    Deck,
    _build_deck,
    build_deck,
    deck_equal,
    deck_from_text,
    deck_to_text,
    endvertex_deck,
    subdeck_contained,
)
from reconkit.errors import CapacityError, InputError
from reconkit.graph import (
    Graph,
    _twin_classes,
    complete_graph,
    copies,
    delete_edges,
    delete_vertices,
    empty_graph,
    enumerate_graphs,
    extend_rows,
    is_connected,
    join,
    line_graph,
    path_graph,
    permute,
    twin_orbits,
    union,
)

K2K1 = union([complete_graph(2), empty_graph(1)])


def test_build_deck_examples():
    d = build_deck(complete_graph(3), "vertex", 1)
    assert len(d) == 3
    assert all(are_isomorphic(c, complete_graph(2)) for c in d.cards)

    d = build_deck(path_graph(4), "vertex", 1)
    profile = Counter(d.certs)
    assert profile[certificate(path_graph(3))] == 2
    assert profile[certificate(K2K1)] == 2

    d = build_deck(complete_graph(3), "edge", 1)
    assert len(d) == 3
    assert all(are_isomorphic(c, path_graph(3)) for c in d.cards)


def test_build_deck_counts():
    for n in range(0, 6):
        for g in enumerate_graphs(n):
            for c in range(0, g.n + 1):
                assert len(build_deck(g, "vertex", c)) == comb(g.n, c)
    with pytest.raises(InputError):
        build_deck(complete_graph(3), "vertex", 4)
    with pytest.raises(InputError):
        build_deck(path_graph(3), "edge", 3)


def _twin_heavy_graphs():
    """K_n, E_n, K_{a,b}, stars, the padded graphs that gi_to_lvd and
    gi_to_led build decks of, and seeded random graphs with planted twins."""
    out = [complete_graph(n) for n in range(1, 8)] + [empty_graph(n) for n in range(1, 8)]
    out += [join([empty_graph(a), empty_graph(b)]) for a, b in ((2, 2), (2, 3), (3, 3), (2, 5))]
    out += [join([empty_graph(1), empty_graph(k)]) for k in (2, 4, 8)]
    for g in (complete_graph(3), path_graph(4), join([empty_graph(1), empty_graph(3)])):
        for c in (1, 2):
            out.append(union([g, empty_graph(c + 1)]))
            out.append(union([g, copies(complete_graph(2), c), complete_graph(g.n + 1)]))
    rng = random.Random(25)
    for _ in range(12):
        g = random_graph(rng, rng.randint(3, 6), 0.5)
        for _ in range(rng.randint(1, 3)):
            v = rng.randrange(g.n)
            attach = g.rows[v] | rng.randint(0, 1) << v  # an open or a closed twin of v
            g = Graph._from_rows(g.n + 1, extend_rows(g.n, g.rows, attach))
        out.append(g)
    return out


def _matches_certifying_every_card(g, most_c):
    # slow oracle: Deck(kind, cards) certifies each card; build_deck
    # certifies one per twin orbit, in g's own labeling or, once g is
    # certified, as a deletion of g's canonical form, and must give the
    # same bytes both ways. Returns the number of decks compared
    decks = 0
    for kind, items, delete in (
        ("vertex", range(g.n), delete_vertices),
        ("edge", g.edges, delete_edges),
    ):
        for c in range(1, min(most_c, len(items)) + 1):
            clear_certificate_cache()
            own = build_deck(g, kind, c)
            certificate(g)
            canonical = build_deck(g, kind, c)
            want = Deck(kind, [delete(g, drop) for drop in combinations(items, c)])
            for got in (own, canonical):
                assert (got.kind, got.cards, got.certs, hash(got)) == (
                    want.kind, want.cards, want.certs, hash(want)
                )
            decks += 1
    return decks


def test_build_deck_matches_certifying_every_card():
    for g in _twin_heavy_graphs():
        _matches_certifying_every_card(g, 3)


def test_relabeled_decks_match_certifying_every_card():
    # a seeded relabeling of every class on 1-6 vertices, c = 1 and 2, and
    # the disconnected graphs the gi_to_lvd and gi_to_led gadgets build
    # decks of, for every connected source graph on 3 and 4 vertices
    rng = random.Random(32)
    decks = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            decks += _matches_certifying_every_card(permute(g, perm), 2)
    assert decks == 814
    for n in (3, 4):
        for g in filter(is_connected, enumerate_graphs(n)):
            for c in (1, 2):
                _matches_certifying_every_card(union([g, empty_graph(c + 1)]), c)
                pad = [copies(complete_graph(2), c), complete_graph(n + 1)]
                _matches_certifying_every_card(union([g] + pad), c)


def test_build_deck_at_the_certificate_order_cap():
    # g past the cap has no certificate, so its cards are certified as
    # given: an order-64 path builds its deck of order-63 cards, and at
    # order 65 the cards themselves reach the cap
    d = build_deck(path_graph(CERTIFICATE_ORDER_CAP), "vertex", 1)
    assert len(d) == 64 and len(set(d.certs)) == 32
    with pytest.raises(CapacityError):
        build_deck(path_graph(CERTIFICATE_ORDER_CAP + 1), "vertex", 1)


def _count_searches(monkeypatch):
    import reconkit.canon as canon

    runs = [0]
    run = canon._Search.run

    def counting_run(self):
        runs[0] += 1
        return run(self)

    monkeypatch.setattr(canon._Search, "run", counting_run)
    return runs


def test_certified_relabeling_builds_its_deck_without_search(monkeypatch):
    # work bound: a certified graph's twin orbits are certified through
    # their first deletion sets in its canonical form C, in C's own order,
    # so once one labeling's deck is built, another certified labeling
    # builds its deck with no search, twins or not.  Each class's start
    # card (the one recon's walks extend) is C's first card of the class
    runs = _count_searches(monkeypatch)
    rng = random.Random(32)
    graphs = [path_graph(7), union([path_graph(4), path_graph(5)])]
    graphs += [random_graph(rng, rng.randint(5, 9), 0.45) for _ in range(7)]
    graphs += [g for g in _twin_heavy_graphs() if g.m >= 2]
    checked = 0
    for g in graphs:
        for kind, c in (("vertex", 1), ("vertex", 2), ("edge", 1), ("edge", 2)):
            clear_certificate_cache()
            certificate(g)
            want = build_deck(g, kind, c)
            h = permute(g, rng.sample(range(g.n), g.n))
            certificate(h)
            runs[0] = 0
            got, starts = _build_deck(h, kind, c)
            assert runs[0] == 0, (g.rows, kind, c)
            assert got == want
            form = canonical_form(h)
            firsts = {cert: cards[0] for cert, cards in build_deck(form, kind, c).classes()}
            assert {cert: tuple(rows) for cert, (_, rows) in starts.items()} == {
                cert: card.rows for cert, card in firsts.items()
            }, (g.rows, kind, c)
            checked += 1
    assert checked > 100


def test_build_deck_never_certifies_the_graph():
    # work bound: cards are certified from g's canonical form only where
    # the memo already holds it, so a deck never pays a search of g: not
    # of a padded gadget graph, whose cards share their untouched
    # components through the component memo, nor of an enumerated class,
    # which is its own canonical form
    rng = random.Random(32)
    graphs = _twin_heavy_graphs() + list(enumerate_graphs(6)[::8])
    graphs += [union([random_graph(rng, 4, 0.6), random_graph(rng, 5, 0.5)]) for _ in range(6)]
    for g in filter(lambda g: g.m >= 2, graphs):
        for kind, c in (("vertex", 1), ("vertex", 2), ("edge", 1), ("edge", 2)):
            clear_certificate_cache()
            build_deck(g, kind, c)
            assert not any(_is_order_and_size(key, g) for key in canon_memo), (g.rows, kind)
            certificate(g)  # positive control: the helper finds g's own key
            assert any(_is_order_and_size(key, g) for key in canon_memo), (g.rows, kind)


def _is_order_and_size(key, g):
    # whether a memo key (order, packed rows) has g's order and edge count
    n, mask = key
    return n == g.n and mask.bit_count() == 2 * g.m


def test_equal_twin_orbit_keys_give_isomorphic_cards():
    # on every graph of order <= 5, also relabeled, deletion sets that share
    # a key have isomorphic cards, by an isomorphism test independent of
    # canon; a twin-free graph keys every set apart
    nx = pytest.importorskip("networkx")

    def nx_graph(g):
        out = nx.Graph()
        out.add_nodes_from(range(g.n))
        out.add_edges_from(g.edges)
        return out

    rng = random.Random(5)
    for n in range(1, 6):
        for rep in enumerate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            for g in (rep, permute(rep, perm)):
                key = twin_orbits(g.n, g.rows)
                twin_free = len(_twin_classes(g.n, g.rows)) == g.n
                for items, delete in ((range(g.n), delete_vertices), (g.edges, delete_edges)):
                    for c in range(1, min(3, len(items)) + 1):
                        first = {}
                        for drop in combinations(items, c):
                            card = nx_graph(delete(g, drop))
                            assert nx.is_isomorphic(first.setdefault(key(drop), card), card)
                        if twin_free:
                            assert len(first) == comb(len(items), c)


def test_build_deck_certifies_one_card_per_twin_orbit(monkeypatch):
    # work bound: K8's 378 two-edge deletions (u, v) < (x, y) key to 4
    # patterns (disjoint, u = x, v = x or v = y), and K_{1,9}'s 45
    # two-vertex deletions to 2 (two leaves, or the centre and a leaf)
    import reconkit.deck as deck_module

    calls = []
    real = deck_module.certificate_rows
    monkeypatch.setattr(
        deck_module, "certificate_rows", lambda n, rows: calls.append(rows) or real(n, rows)
    )
    assert len(build_deck(complete_graph(8), "edge", 2)) == 378
    assert len(calls) <= 4
    calls.clear()
    assert len(build_deck(join([empty_graph(1), empty_graph(9)]), "vertex", 2)) == 45
    assert len(calls) <= 2


def test_endvertex_deck():
    d = endvertex_deck(path_graph(3))
    assert len(d) == 2
    assert all(are_isomorphic(c, complete_graph(2)) for c in d.cards)
    assert len(endvertex_deck(complete_graph(3))) == 0
    d = endvertex_deck(path_graph(4))
    assert len(d) == 2
    assert all(are_isomorphic(c, path_graph(3)) for c in d.cards)


def test_deck_equal():
    d1 = Deck("vertex", [K2K1, path_graph(3)])
    d2 = Deck("vertex", [path_graph(3), K2K1])
    assert deck_equal(d1, d2)
    assert not deck_equal(
        Deck("vertex", [complete_graph(2)] * 2),
        Deck("vertex", [complete_graph(2), empty_graph(2)]),
    )
    assert not deck_equal(
        Deck("vertex", [complete_graph(2)]),
        Deck("vertex", [complete_graph(2)] * 2),
    )
    with pytest.raises(InputError):
        deck_equal(Deck("vertex", []), Deck("edge", []))


def test_deck_equal_reflexive_symmetric_isomorph_invariant():
    rng = random.Random(5)
    for g in enumerate_graphs(5)[::4]:
        d = build_deck(g, "vertex", 1)
        assert deck_equal(d, d)
        # replace each card by a random isomorph
        shuffled = []
        for card in d.cards:
            perm = list(range(card.n))
            rng.shuffle(perm)
            shuffled.append(permute(card, perm))
        rng.shuffle(shuffled)
        d2 = Deck("vertex", shuffled)
        assert deck_equal(d, d2) and deck_equal(d2, d)


def test_subdeck_contained():
    big = Deck("vertex", [complete_graph(2), complete_graph(2), empty_graph(2)])
    assert subdeck_contained(Deck("vertex", [complete_graph(2)]), big)
    assert subdeck_contained(Deck("vertex", []), big)
    two_k2 = copies(complete_graph(2), 2)
    assert not subdeck_contained(
        Deck("vertex", [complete_graph(2)] * 3),
        build_deck(two_k2, "vertex", 1),
    )
    with pytest.raises(InputError):
        subdeck_contained(Deck("edge", []), Deck("vertex", []))


def test_subdeck_transitive():
    rng = random.Random(17)
    for g in enumerate_graphs(5)[::5]:
        full = build_deck(g, "vertex", 1)
        mid_cards = rng.sample(full.cards, 3)
        small_cards = rng.sample(mid_cards, 2)
        mid = Deck("vertex", mid_cards)
        small = Deck("vertex", small_cards)
        assert subdeck_contained(small, mid)
        assert subdeck_contained(mid, full)
        assert subdeck_contained(small, full)


def test_line_graph_deck_identity_small():
    for n in range(0, 5):
        for g in enumerate_graphs(n):
            for c in (1, 2):
                if c > g.m:
                    continue
                mapped = Deck(
                    "vertex", [line_graph(x) for x in build_deck(g, "edge", c).cards]
                )
                assert deck_equal(mapped, build_deck(line_graph(g), "vertex", c))


def test_cards_sorted_by_certificate():
    d = build_deck(path_graph(4), "vertex", 1)
    assert list(d.certs) == sorted(d.certs)


def test_classes_are_certificate_runs():
    # one (certificate, cards) run per class, in certificate order, whose
    # lengths are the class counts; the cards keep deck order
    rng = random.Random(43)
    decks = [Deck("vertex", []), build_deck(path_graph(4), "vertex", 1)]
    for _ in range(12):
        g = random_graph(rng, rng.randint(3, 7), rng.choice((0.3, 0.5, 0.7)))
        for kind, c in (("vertex", 1), ("vertex", 2), ("edge", 1), ("edge", 2)):
            if c <= (g.n if kind == "vertex" else g.m):
                full = build_deck(g, kind, c)
                decks += [full, Deck(kind, rng.sample(full.cards, rng.randint(1, len(full))))]
    for d in decks:
        runs = d.classes()
        assert [(cert, len(cards)) for cert, cards in runs] == list(Counter(d.certs).items())
        assert [card for _, cards in runs for card in cards] == list(d.cards)
        assert all(certificate(card) == cert for cert, cards in runs for card in cards)


def test_deck_file_roundtrip():
    d = build_deck(path_graph(4), "vertex", 1)
    text = deck_to_text(d, c=1, comments=["anything goes"])
    back, c = deck_from_text(text)
    assert c == 1
    assert back.kind == "vertex"
    assert deck_equal(back, d)
    # kind override beats metadata
    forced, _ = deck_from_text(text, kind="edge")
    assert forced.kind == "edge"


def test_deck_file_errors_name_line():
    # a c= past Python's 4,300-digit int-from-string limit is an input error
    for text in ("Bw\nB$$\n", "Bw\n# kind=vertex c=" + "9" * 4301 + "\n"):
        with pytest.raises(InputError) as err:
            deck_from_text(text, source="cards.g6")
        assert "cards.g6:2" in str(err.value)


def test_deck_file_comments_ignored():
    text = "# kind=edge c=2\n# a comment\n\nBw\n"
    d, c = deck_from_text(text)
    assert d.kind == "edge" and c == 2 and len(d) == 1


def test_uniformity_helpers():
    mixed = Deck("vertex", [complete_graph(3), complete_graph(2)])
    assert mixed.uniform_order() is None
    assert Deck("vertex", [complete_graph(3)] * 2).uniform_order() == 3
    assert Deck("edge", [path_graph(3), complete_graph(3)]).uniform_edges() is None
