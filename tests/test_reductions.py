from collections import Counter
from math import comb

import pytest

import reconkit.deciders as deciders
import reconkit.reductions as reductions
import reconkit.verify as verify
from reconkit.canon import are_isomorphic, certificate
from reconkit.deck import Deck, build_deck, deck_to_text
from reconkit.deciders import legit_vertex, subdeck_check
from reconkit.errors import CapacityError, InputError
from reconkit.graph import (
    Graph,
    complete_graph,
    empty_graph,
    enumerate_graphs,
    is_connected,
    line_graph,
    path_graph,
    union,
)
from reconkit.reductions import (
    _min_order,
    gi_to_kedc,
    gi_to_kled,
    gi_to_klvd,
    gi_to_led,
    gi_to_lvd,
    kedc_to_kvdc,
)
from reconkit.verify import verify_reduction

K3 = complete_graph(3)
P3 = path_graph(3)
STAR = Graph(4, [(0, 1), (0, 2), (0, 3)])


def test_gi_to_lvd_forced_multiset():
    deck = gi_to_lvd(K3, K3, 1)
    profile = Counter(deck.certs)
    assert profile[certificate(union([K3, empty_graph(1)]))] == 2
    assert profile[certificate(union([complete_graph(2), empty_graph(2)]))] == 3
    assert len(deck) == 5


def test_gi_to_lvd_decisions():
    assert legit_vertex(gi_to_lvd(K3, K3, 1), 1, "pure")
    assert not legit_vertex(gi_to_lvd(K3, P3, 1), 1, "pure")


def test_gi_to_led_card_count():
    for c in (1, 2):
        g, h = path_graph(4), path_graph(4)
        deck = gi_to_led(g, h, c)
        ell = 5
        assert len(deck) == comb(g.m + c + comb(ell, 2), c)


def test_gi_to_kedc_shape():
    g, deck = gi_to_kedc(K3, P3, 1, 2)
    assert len(deck) == 2
    assert g.n == 3 + 2
    assert subdeck_check(*gi_to_kedc(K3, K3, 1, 2), 1)
    assert not subdeck_check(g, deck, 1)


def test_gi_to_klvd_shape():
    deck = gi_to_klvd(K3, P3, 1, 2)
    ell = 3 + 2
    assert deck.uniform_order() == 2 * ell + 2 * 1 + 3
    assert len(deck) == 2


def test_gi_to_kled_edge_counts():
    deck = gi_to_kled(K3, K3, 2, 3)
    ell = 3 + 3
    want = 3 + comb(ell, 2) + comb(ell + 1, 2) - 2
    assert all(card.m == want for card in deck.cards)
    assert len(deck) == 3


def test_kedc_to_kvdc_instance():
    cards = Deck("edge", [P3])
    image_graph, image_deck = kedc_to_kvdc(K3, cards, 1)
    # P3 is an edge-card of K3, so the transferred instance answers yes
    assert subdeck_check(image_graph, image_deck, 1)
    assert image_deck.kind == "vertex"
    # hat order is 2n+2 = 8; its line graph has one vertex per hat edge
    hat_edges = K3.m + comb(4, 2) + 3 * 5
    assert image_graph.n == hat_edges


def test_kedc_to_kvdc_transfer_preserves_membership():
    report = verify_reduction("kedc_to_kvdc", 3, 1, 2)
    assert report.ok and report.checked > 0


def test_line_graph_bridge_under_high_connectivity():
    # with edge connectivity above c (K_n has n-1) and connected
    # same-order cards, edge subdeck membership transfers to the line
    # graphs verbatim
    for g in (complete_graph(4), complete_graph(5)):
        cards_pool = [c for c in build_deck(g, "edge", 1).cards if is_connected(c)]
        non_card = Graph(g.n, list(complete_graph(g.n).edges)[: g.m - 1])
        for card in cards_pool[:2] + [non_card]:
            source = subdeck_check(g, Deck("edge", [card]), 1)
            image = subdeck_check(
                line_graph(g), Deck("vertex", [line_graph(card)]), 1
            )
            assert source == image


def test_determinism_byte_identical():
    a = deck_to_text(gi_to_kled(K3, P3, 1, 2), c=1)
    b = deck_to_text(gi_to_kled(K3, P3, 1, 2), c=1)
    assert a == b
    g1, d1 = gi_to_kedc(K3, P3, 2, 3)
    g2, d2 = gi_to_kedc(K3, P3, 2, 3)
    assert g1 == g2 and deck_to_text(d1, c=2) == deck_to_text(d2, c=2)


def test_precondition_errors():
    with pytest.raises(InputError):
        gi_to_lvd(K3, complete_graph(4), 1)  # unequal orders
    with pytest.raises(InputError):
        gi_to_lvd(complete_graph(2), complete_graph(2), 1)  # order < 3
    with pytest.raises(InputError):
        gi_to_lvd(union([K3, empty_graph(1)]), complete_graph(4), 1)  # disconnected
    with pytest.raises(InputError):
        gi_to_led(K3, K3, 3)  # needs n > max(c, 2)
    with pytest.raises(InputError):
        gi_to_klvd(K3, K3, 3, 2)  # needs n > c
    with pytest.raises(InputError):
        gi_to_kedc(K3, K3, 1, 1)  # k >= 2
    with pytest.raises(InputError):
        kedc_to_kvdc(K3, Deck("edge", [complete_graph(4)]), 1)  # order mismatch
    with pytest.raises(InputError):
        verify_reduction("gi_to_lvd", 6, 1)  # sweep cap
    with pytest.raises(InputError):
        verify_reduction("nonsense", 4, 1)
    with pytest.raises(InputError):
        verify_reduction("gi_to_lvd", 0, 1)  # no instance below order 3
    with pytest.raises(InputError):
        verify_reduction("gi_to_klvd", -5, 1, 2)


@pytest.mark.parametrize("c", [1, 2])
@pytest.mark.parametrize(
    "build, k",
    [(gi_to_lvd, None), (gi_to_led, None), (gi_to_kedc, 2), (gi_to_klvd, 2), (gi_to_kled, 2)],
)
def test_builders_admit_exactly_the_min_order(build, k, c):
    # the sweeps start at _min_order, so each builder must refuse just below
    # it and accept at it
    args = (c,) if k is None else (c, k)
    low = _min_order(build.__name__, c)
    below = path_graph(low - 1)
    with pytest.raises(InputError):
        build(below, below, *args)
    build(path_graph(low), path_graph(low), *args)


@pytest.mark.parametrize(
    "build, args",
    [
        (gi_to_lvd, (10**6,)),
        (gi_to_led, (10**6,)),
        (gi_to_kedc, (10**6, 2)),
        (gi_to_klvd, (1, 10**6)),
        (gi_to_kled, (1, 10**6)),
    ],
)
def test_builders_refuse_oversized_parameters_before_building(monkeypatch, build, args):
    # (n, c, k) fix the card order (the deletion sets, for gi_to_lvd), so
    # the refusal comes before any part of the gadget is allocated
    def refuse(*_):
        raise AssertionError("a gadget part was built")

    for name in ("union", "complete_graph", "empty_graph", "copies"):
        monkeypatch.setattr(reductions, name, refuse)
    with pytest.raises(CapacityError):
        build(K3, K3, *args)


def test_builder_card_order_boundaries():
    # K3 cards: gi_to_klvd 3n+2k+2c, gi_to_kled 3n+2k+1, gi_to_kedc n+2c,
    # each certifiable below order 64
    for build, order in ((gi_to_klvd, 63), (gi_to_kled, 62)):
        assert build(K3, K3, 1, 26).card_order == order
        with pytest.raises(CapacityError):
            build(K3, K3, 1, 27)
    graph, deck = gi_to_kedc(K3, K3, 30, 2)
    assert graph.n == deck.card_order == 63
    with pytest.raises(CapacityError):
        gi_to_kedc(K3, K3, 31, 2)


@pytest.mark.parametrize("c", [1, 2])
@pytest.mark.parametrize(
    "kind, k",
    [
        ("gi_to_lvd", None),
        ("gi_to_led", None),
        ("gi_to_kedc", 2),
        ("gi_to_klvd", 2),
        ("gi_to_kled", 2),
        ("kedc_to_kvdc", 2),
    ],
)
def test_verify_reduction_refuses_below_the_min_order(kind, k, c):
    # below the minimum order no instance exists and the sweep would pass
    # on nothing; at it, the sweep checks at least one instance
    low = _min_order(kind, c)
    with pytest.raises(InputError):
        verify_reduction(kind, low - 1, c, k)
    report = verify_reduction(kind, low, c, k)
    assert report.ok and report.checked > 0


def test_small_iff_sweeps():
    for kind, k in (
        ("gi_to_lvd", None),
        ("gi_to_led", None),
        ("gi_to_kedc", 2),
        ("gi_to_klvd", 2),
        ("gi_to_kled", 2),
    ):
        report = verify_reduction(kind, 3, 1, k)
        assert report.ok, report.violations
        assert report.checked > 0


def test_klvd_c2_k3_cell_is_checked_in_full(monkeypatch):
    # order-22 cards, past the preimage search cap: the pair test refutes
    # the 32 nonisomorphic pairs and a glued witness confirms the 8 others
    answers = []
    real = deciders.legit_vertex

    def spy(deck, c, mode):
        answers.append(real(deck, c, mode))
        return answers[-1]

    monkeypatch.setattr(verify, "legit_vertex", spy)
    report = verify_reduction("gi_to_klvd", 4, 2, 3)
    assert report.ok and report.checked == 40
    assert Counter(answers) == {True: 8, False: 32}


def test_capacity_refusal_inside_a_sweep_propagates(monkeypatch):
    def refuse(deck, c, mode):
        raise CapacityError("over the cap")

    monkeypatch.setattr(verify, "legit_vertex", refuse)
    with pytest.raises(CapacityError):
        verify_reduction("gi_to_klvd", 3, 1, 2)


def test_whitney_separation_on_connected_graphs():
    for n in (4, 5):
        conn = [g for g in enumerate_graphs(n) if is_connected(g)]
        certs = [certificate(line_graph(g)) for g in conn]
        assert len(set(certs)) == len(certs)
    assert are_isomorphic(line_graph(K3), line_graph(STAR))
