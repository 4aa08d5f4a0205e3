"""Reconstruction numbers from blocking profiles against the search they
replaced, and the committed atlas of every graph on 2..7 vertices.

`recon_oracle` keeps the one-search-per-profile code unchanged; values,
witness certificates and counterexample certificates must agree exactly.
"""

import hashlib
import math
import random
from collections import Counter
from pathlib import Path

import pytest

import recon_oracle as oracle
from conftest import random_graph

import reconkit.deciders as deciders
from reconkit.deck import Deck, build_deck, endvertex_deck
from reconkit.errors import InputError, ReconError
from reconkit.families import clique_union_pair
from reconkit.graph import (
    Graph,
    complete_graph,
    empty_graph,
    enumerate_graphs,
    graph6_decode,
    graph6_encode,
    permute,
)
from reconkit.recon import identifies, recon_number

ATLAS = Path(__file__).parent / "data" / "recon_atlas.txt"


def _certs(deck):
    return None if deck is None else deck.certs


def _agree(g, kinds=("vertex", "edge")):
    for kind in kinds:
        if kind == "edge" and not 1 <= g.m <= oracle.EDGE_COUNT_CAP:
            continue
        for quantifier in ("exists", "forall"):
            got = recon_number(g, kind, quantifier)
            want = oracle.recon_number(g, kind, quantifier)
            case = (g.n, g.edges, kind, quantifier)
            assert got.value == want.value, case
            assert _certs(got.witness) == _certs(want.witness), case
            assert _certs(got.counterexample) == _certs(want.counterexample), case


def test_every_graph_up_to_order_5():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            _agree(g)


def test_order_6_sample():
    for g in random.Random(6).sample(enumerate_graphs(6), 12):
        _agree(g)


def test_random_vertex_graphs_orders_8_to_10():
    rng = random.Random(810)
    for n in (8, 9, 10):
        _agree(random_graph(rng, n, rng.choice((0.3, 0.5, 0.7))), ("vertex",))


def test_random_edge_graphs_up_to_12_edges():
    rng = random.Random(12)
    graphs = []
    while len(graphs) < 4:
        g = random_graph(rng, rng.randint(5, 9), 0.35)
        if 1 <= g.m <= oracle.EDGE_COUNT_CAP:
            graphs.append(g)
    for g in graphs:
        _agree(g, ("edge",))


@pytest.mark.parametrize("kind, orders, fewest_edges, bound", [
    ("vertex", range(6, 10), 1, 2_200),
    ("edge", range(5, 8), 4, 1_100),
])
def test_walk_certificates_are_bounded(monkeypatch, kind, orders, fewest_edges, bound):
    # work bound, no clock: the degree-profile stage keeps cards of no
    # target class from being certified, and no vertex profile below 3
    # cards is walked; these 14 graphs make 3,509 vertex and 1,124 edge
    # certificate calls without the stage, 1,927 and 708 with it
    rng = random.Random(19)
    graphs = []
    for _ in range(14):
        n = rng.choice(orders)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        top = len(pairs) if kind == "vertex" else min(len(pairs), oracle.EDGE_COUNT_CAP)
        graphs.append(Graph(n, rng.sample(pairs, rng.randint(fewest_edges, top))))
    calls = [0]
    real = deciders.certificate_rows

    def spy(n, rows):
        calls[0] += 1
        return real(n, rows)

    monkeypatch.setattr(deciders, "certificate_rows", spy)
    got = [recon_number(g, kind, q) for g in graphs for q in ("exists", "forall")]
    assert calls[0] <= bound
    monkeypatch.undo()  # the oracle's searches are not counted
    want = [oracle.recon_number(g, kind, q) for g in graphs for q in ("exists", "forall")]
    for a, b in zip(got, want):
        assert a.value == b.value
        assert _certs(a.witness) == _certs(b.witness)
        assert _certs(a.counterexample) == _certs(b.counterexample)


def test_clique_pairs():
    for n in range(4, 9):
        for g in clique_union_pair(n):
            _agree(g, ("vertex",))


def test_identifies_on_random_subdecks():
    rng = random.Random(31)
    for trial in range(24):
        g = random_graph(rng, 5 + trial % 4, rng.choice((0.3, 0.5, 0.7)))
        for kind in ("vertex", "edge"):
            if kind == "edge" and not 1 <= g.m <= oracle.EDGE_COUNT_CAP:
                continue
            full = build_deck(g, kind, 1)
            for size in (1, rng.randint(1, len(full)), len(full)):
                sub = Deck(kind, rng.sample(full.cards, size))
                assert identifies(g, sub, kind) == oracle.identifies(g, sub, kind)
        ends = endvertex_deck(g)
        assert identifies(g, ends, "vertex") == oracle.identifies(g, ends, "vertex")


def test_small_and_degenerate_cases():
    # K1: the empty subdeck identifies; K2 and 2K1: not even the full deck
    # does; K3: one class has its order and edge count; order 0 has no deck
    for g in (empty_graph(1), complete_graph(2), empty_graph(2), complete_graph(3)):
        _agree(g)
    for rn in (recon_number, oracle.recon_number):
        with pytest.raises(InputError, match="cannot delete 1 vertices from order 0"):
            rn(Graph(0), "vertex", "exists")


# ---------------------------------------------------------------------------
# the atlas


def _atlas():
    with ATLAS.open() as fh:
        header = fh.readline()
        rows = [line.split() for line in fh if not line.startswith("#")]
    return header, rows


def _histogram(rows, column):
    return Counter(row[column] for row in rows if row[column] != "-")


def test_atlas_header_names_its_command():
    header, rows = _atlas()
    assert header == f"# written by: {oracle.ATLAS_COMMAND}\n"
    assert len(rows) == sum(len(enumerate_graphs(n)) for n in oracle.ATLAS_ORDERS)


def test_atlas_histograms():
    # the n <= 7 histograms recorded before the walk replaced the searches
    _, rows = _atlas()
    assert _histogram(rows, 1) == {"3": 1240, "4": 7, "5": 2, "inf": 2}
    assert _histogram(rows, 2) == {"3": 37, "4": 580, "5": 618, "6": 14, "inf": 2}
    assert _histogram(rows, 3) == {"0": 12, "1": 26, "2": 883, "3": 54, "4": 7, "inf": 16}
    assert _histogram(rows, 4) == {
        "0": 12, "2": 32, "3": 146, "4": 302, "5": 362, "6": 102, "7": 20, "8": 6, "inf": 16,
    }
    # McKay (1997): every graph on 3..11 vertices is reconstructible, so
    # only K2 and its complement have an infinite vertex number
    infinite = {row[0] for row in rows if "inf" in row[1:3]}
    assert infinite == {"A?", "A_"}


def test_atlas_vertex_numbers_are_at_least_three():
    # the atlas was written by the oracle, which walks every profile size:
    # on n >= 3 vertices no vertex number is below 3 (Harary & Plantholt),
    # while some edge number is 1, so the bound is vertex-only
    _, rows = _atlas()
    big = [row for row in rows if graph6_decode(row[0]).n >= 3]
    assert len(big) == len(rows) - 2
    for row in big:
        for value in row[1:3]:
            assert value == "inf" or int(value) >= 3, row
    assert any(row[3] == "1" for row in rows)


def test_atlas_universal_numbers_from_shared_cards():
    # every forall cell without the class walks: one more than the most
    # cards g's deck shares (a Counter intersection) with the deck of
    # another graph of its universe (order n; edge count m too, for the
    # edge kind), the sharing graphs found through an index from card
    # certificate to decks; 0 in a one-graph universe, inf when another
    # graph holds g's whole deck (Harary & Plantholt; Myrvold's adversary
    # number)
    _, rows = _atlas()
    universes = {}
    for row in rows:
        g = graph6_decode(row[0])
        for kind, column, universe in (("vertex", 2, g.n), ("edge", 4, (g.n, g.m))):
            if row[column] != "-":
                deck = Counter(build_deck(g, kind, 1).certs)
                universes.setdefault((kind, universe), []).append((deck, row[column], row[0]))
    checked = 0
    for decks in universes.values():
        index = {}
        for j, (deck, _, _) in enumerate(decks):
            for cert in deck:
                index.setdefault(cert, set()).add(j)
        for j, (deck, want, code) in enumerate(decks):
            others = set().union(*(index[cert] for cert in deck)) - {j}
            shared = max((sum((deck & decks[h][0]).values()) for h in others), default=0)
            if len(decks) == 1:
                value = 0
            else:
                value = math.inf if shared == sum(deck.values()) else shared + 1
            assert str(value) == want, code
            checked += 1
    assert checked == 2_249


def test_atlas_entries_recompute():
    # every entry on n <= 6 and a seeded sample of n = 7, each graph
    # relabeled (the atlas lists canonical forms), for both kinds and both
    # quantifiers; each answer's bytes are folded into one digest: the
    # value and the witness and counterexample cards as graph6, or the
    # error text where the edge kind has no number.  Each witness
    # identifies g and each counterexample does not.  The digest was
    # recorded by this loop; a change that moves it changes answer bytes
    _, rows = _atlas()
    graphs = [graph6_decode(row[0]) for row in rows]
    small = [(g, row) for g, row in zip(graphs, rows) if g.n <= 6]
    large = [(g, row) for g, row in zip(graphs, rows) if g.n == 7]
    digest = hashlib.sha256()

    def rn(g, kind, quantifier):
        got = recon_number(g, kind, quantifier)
        parts = [kind, quantifier, str(got.value)]
        for subdeck, identifying in ((got.witness, True), (got.counterexample, False)):
            if subdeck is not None:
                assert identifies(g, subdeck, kind) is identifying, (g, kind, quantifier)
            parts.append("-" if subdeck is None else ",".join(map(graph6_encode, subdeck.cards)))
        digest.update(" ".join(parts).encode() + b"\n")
        return got

    rng = random.Random(41)
    for g, row in small + random.Random(7).sample(large, 50):
        g = permute(g, rng.sample(range(g.n), g.n))
        digest.update(graph6_encode(g).encode() + b"\n")
        assert oracle.atlas_line(g, rn).split()[1:] == row[1:]
        for kind, quantifier in oracle.ATLAS_COLUMNS:
            if kind == "edge" and not 1 <= g.m <= oracle.EDGE_COUNT_CAP:
                with pytest.raises(ReconError) as refused:
                    recon_number(g, kind, quantifier)
                digest.update(f"{kind} {quantifier} {refused.value}\n".encode())
    assert digest.hexdigest() == (
        "07dd2138a33c4854abc93c973e840358b311a02dd15643e90e18011d6bdb03aa"
    )
