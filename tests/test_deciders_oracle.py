"""The degree-class search against the search it replaced.

`preimage_oracle` keeps the rebuild-and-sort preimage search unchanged;
every answer here must agree with it exactly: yes/no, and the certificate
list of every preimage set.
"""

import random
from itertools import combinations, product

import pytest

import preimage_oracle as oracle
from conftest import random_graph

import reconkit.deciders as deciders
from reconkit.canon import certificate
from reconkit.deck import Deck, build_deck
from reconkit.deciders import (
    deck_check,
    enum_preimages,
    legit_edge,
    legit_vertex,
    subdeck_check,
    two_lvd,
)
from reconkit.families import many_preimage_deck
from reconkit.graph import Graph, empty_graph, enumerate_graphs, is_connected, path_graph
from reconkit.recon import identifies
from reconkit.reductions import gi_to_kled, gi_to_klvd, gi_to_led, gi_to_lvd


def _connected(n):
    return [g for g in enumerate_graphs(n) if is_connected(g)]


def _pairs(n, sample=None, seed=0):
    """Ordered pairs of connected order-n graphs, or a seeded sample of at
    most `sample` of them."""
    pairs = list(product(_connected(n), repeat=2))
    if sample is not None and sample < len(pairs):
        pairs = random.Random(seed).sample(pairs, sample)
    return pairs


def _agree(deck, c, mode):
    """enum_preimages and legit_* against the oracle; returns the oracle's
    preimages so callers can reuse them as deck-check inputs."""
    want = oracle._search_preimages(deck, c, mode, False)
    got = enum_preimages(deck, c, mode)
    assert [certificate(p) for p in got.preimages] == [certificate(p) for p in want]
    legit = legit_vertex if deck.kind == "vertex" else legit_edge
    assert legit(deck, c, mode) == bool(want)
    return want


def _agree_checks(g, deck, c):
    if (deck.kind == "vertex" and c > g.n) or (deck.kind == "edge" and c > g.m):
        return
    assert deck_check(g, deck, c) == oracle.deck_check(g, deck, c)
    assert subdeck_check(g, deck, c) == oracle.subdeck_check(g, deck, c)


def _agree_on_gadgets(decks, c, mode, rng):
    for deck in decks:
        for g in _agree(deck, c, mode):
            _agree_checks(g, deck, c)
        order = deck.card_order + (c if deck.kind == "vertex" else 0)
        _agree_checks(random_graph(rng, order, 0.5), deck, c)


def test_klvd_c1_every_order4_deck():
    rng = random.Random(1)
    for k in (2, 3):
        decks = [gi_to_klvd(g, h, 1, k) for g, h in _pairs(4)]
        _agree_on_gadgets(decks, 1, "sub", rng)


def test_klvd_c1_order5_sample():
    rng = random.Random(2)
    for k in (2, 3):
        decks = [gi_to_klvd(g, h, 1, k) for g, h in _pairs(5, 12, seed=k)]
        _agree_on_gadgets(decks, 1, "sub", rng)


@pytest.mark.parametrize("c, n_max", [(1, 5), (2, 4)])
def test_lvd_pure(c, n_max):
    rng = random.Random(3)
    for n in range(3, n_max + 1):
        decks = [gi_to_lvd(g, h, c) for g, h in _pairs(n, 10, seed=n)]
        _agree_on_gadgets(decks, c, "pure", rng)


def test_edge_gadgets_c1():
    rng = random.Random(4)
    for n in (3, 4, 5):
        pairs = _pairs(n, 8, seed=n)
        _agree_on_gadgets([gi_to_led(g, h, 1) for g, h in pairs], 1, "pure", rng)
        for k in (2, 3):
            _agree_on_gadgets([gi_to_kled(g, h, 1, k) for g, h in pairs], 1, "sub", rng)


def test_edge_gadgets_c2_sample():
    # every pair of orders 3 and 4: the edge walks certify one card per
    # twin orbit, and these decks are the twin-heaviest ones searched
    rng = random.Random(5)
    pairs = _pairs(3) + _pairs(4)
    _agree_on_gadgets([gi_to_led(g, h, 2) for g, h in pairs], 2, "pure", rng)
    _agree_on_gadgets([gi_to_kled(g, h, 2, 2) for g, h in pairs], 2, "sub", rng)


def test_rich_decks():
    for k, n in ((2, 1), (2, 2), (3, 1)):
        deck = many_preimage_deck(k, n)
        assert len(_agree(deck, 1, "sub")) >= 2 ** n


def test_random_subdecks_orders_6_to_8():
    # recon-size inputs: 1-3 cards of a random graph, vertex and edge kind,
    # through enum_preimages, the deck checks and recon.identifies
    rng = random.Random(68)
    for trial in range(24):
        n = 6 + trial % 3
        g = random_graph(rng, n, rng.choice((0.3, 0.5, 0.7)))
        for kind in ("vertex", "edge"):
            if kind == "edge" and not 1 <= g.m <= 12:
                continue
            full = build_deck(g, kind, 1)
            sub = Deck(kind, rng.sample(full.cards, rng.randint(1, min(3, len(full)))))
            for p in _agree(sub, 1, "sub")[:4]:
                _agree_checks(p, sub, 1)
                _agree_checks(p, full, 1)
            assert identifies(g, sub, kind) == oracle.identifies(g, sub, kind)
        if n <= 7:
            _agree(build_deck(g, "vertex", 1), 1, "pure")
            _agree(build_deck(g, "vertex", 2), 2, "pure")


def test_vertex_c2_and_c3_subdecks():
    # c = 3 runs two kept rounds; on 3-vertex cards the oracle walks
    # 2^(3*3 + 3) = 4,096 raw patterns per deck
    rng = random.Random(23)
    for n, c, k in ((5, 2, 2), (5, 3, 2), (6, 2, 2), (6, 3, 3)):
        for g in rng.sample(enumerate_graphs(n), 3):
            full = build_deck(g, "vertex", c)
            sub = Deck("vertex", rng.sample(full.cards, k))
            for p in _agree(sub, c, "sub"):
                _agree_checks(p, sub, c)
                _agree_checks(p, full, c)
            if (n, c) == (5, 3):
                _agree(full, c, "pure")


def test_undone_deletion_is_counted_without_keying(monkeypatch):
    # a candidate is the first card plus c vertices or c edges, and
    # deleting those gives the first card: it is counted up front and
    # never keyed. One-card decks so key no deletion at all (E5, c = 3
    # keyed 120,875 deletions in 3,052 matcher calls when it was walked
    # last; the edge decks of P6 at c = 2 and 3 and of C8 plus two
    # crossing diameters at c = 3 keyed 317, 1,752 and 118,212 when edge
    # candidates did not carry their added edges), and the walk stops
    # sooner on decks of several cards
    keyed = [0]
    real = deciders._keyer

    def keyer(s, kind):
        key = real(s, kind)

        def counted(drop):
            keyed[0] += 1
            return key(drop)

        return counted

    monkeypatch.setattr(deciders, "_keyer", keyer)
    for n, count in ((5, 930), (6, 2121), (7, 4384)):
        assert len(enum_preimages(Deck("vertex", [empty_graph(n)]), 3, "sub")) == count
    p6 = path_graph(6)
    c8 = Graph(8, [(i, (i + 1) % 8) for i in range(8)] + [(0, 4), (2, 6)])
    edge_decks = ((Deck("edge", [p6]), 2, 14), (Deck("edge", [p6]), 3, 19),
                  (Deck("edge", [c8]), 3, 105))
    for deck, c, count in edge_decks:
        assert len(enum_preimages(deck, c, "sub")) == count
    assert keyed[0] == 0
    _agree(Deck("vertex", [empty_graph(3)]), 3, "sub")
    for deck, c, _ in edge_decks:
        _agree(deck, c, "sub")
    rng = random.Random(3)
    decks = []
    for n, c, k in ((6, 2, 2), (6, 2, 3), (7, 2, 3), (6, 3, 2), (5, 3, 3)):
        g = random_graph(rng, n, 0.45)
        decks.append((Deck("vertex", rng.sample(build_deck(g, "vertex", c).cards, k)), c))
    keyed[0] = 0
    for deck, c in decks:
        enum_preimages(deck, c, "sub")
    assert keyed[0] <= 19_000  # 21,756 when the undone deletion was walked last
    for deck, c in decks:
        _agree(deck, c, "sub")


def test_mixed_decks_from_different_graphs():
    # random subdecks come from one graph's deck, so every card pair agrees
    # one deletion further; these take 2 or 3 cards of different graphs, so
    # the front end refutes some, confirms some and leaves some to the search
    rng = random.Random(46)
    seen = {"refutable": 0, "pairwise, no preimage": 0, "legitimate": 0}
    for c in (1, 2):
        for k in (2, 3):
            for _ in range(60):
                graphs = rng.sample(enumerate_graphs(rng.choice((4, 5, 6))), k)
                deck = Deck(
                    "vertex", [rng.choice(build_deck(g, "vertex", c).cards) for g in graphs]
                )
                want = oracle.legit(deck, c, "sub")
                assert legit_vertex(deck, c, "sub") == want
                classes = {certificate(card): card for card in deck.cards}.values()
                if want:
                    seen["legitimate"] += 1
                elif all(two_lvd(a, b, c) for a, b in combinations(classes, 2)):
                    seen["pairwise, no preimage"] += 1
                else:
                    seen["refutable"] += 1
    assert min(seen.values()) >= 5, seen


def test_prefilter_certificate_calls_do_not_grow(monkeypatch):
    # the speedup must come from cheaper prefilter keys, not from a weaker
    # filter that shifts work onto certificates
    decks = [
        gi_to_klvd(g, h, 1, k) for k in (2, 3) for g, h in _pairs(5, 10, seed=50 + k)
    ]
    # edge gadgets, with yes-instances (g = h), whose twin classes prune the
    # edge additions offered to the matcher
    edge_decks = []
    for c, pairs in ((1, _pairs(4, 6, seed=54)), (2, _pairs(3) + _pairs(4, 2, seed=55))):
        pairs += [(g, g) for g in _connected(4)[:3]]
        edge_decks += [(gi_to_led(g, h, c), c, "pure") for g, h in pairs]
        edge_decks += [(gi_to_kled(g, h, c, k), c, "sub") for k in (2, 3) for g, h in pairs]
    calls = {"new": 0, "oracle": 0}

    def counting(name, real):
        def wrapped(n, rows):
            calls[name] += 1
            return real(n, rows)

        return wrapped

    monkeypatch.setattr(deciders, "certificate_rows", counting("new", deciders.certificate_rows))
    monkeypatch.setattr(oracle, "certificate_rows", counting("oracle", oracle.certificate_rows))
    # each group is held to the oracle on its own, so the edge decks' margin
    # cannot hide growth on the vertex decks
    for deck in decks:
        assert legit_vertex(deck, 1, "sub") == oracle.legit(deck, 1, "sub")
    assert calls["oracle"] > 0
    assert calls["new"] <= calls["oracle"]
    calls.update(new=0, oracle=0)
    for deck, c, mode in edge_decks:
        assert legit_edge(deck, c, mode) == oracle.legit(deck, c, mode)
    assert calls["oracle"] > 0
    assert calls["new"] <= calls["oracle"]
