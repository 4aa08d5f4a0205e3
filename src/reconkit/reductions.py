"""Many-one reduction gadgets from isomorphism testing to deck problems.

Each constructor produces the target-problem instance for a pair of
connected graphs.  The sweeps that check each target decision against
are_isomorphic on the source pair live in `verify`.

gi_to_led, gi_to_kedc, gi_to_klvd and gi_to_kled refuse, from (n, c, k)
alone and before they build, a card order certificates cannot reach
(check_certificate_order).  gi_to_lvd's cards have order n + 1, so
build_deck refuses it on its C(n + c + 1, c) deletion sets instead.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations, islice
from math import comb

from .canon import certificate, check_certificate_order
from .deck import Deck, build_deck, check_deletion_sets
from .errors import InputError, _check_at_least, _count_text
from .graph import (
    Graph,
    complete_graph,
    copies,
    delete_edges,
    empty_graph,
    is_connected,
    join,
    line_graph,
    union,
)

REDUCTION_KINDS = (
    "gi_to_lvd",
    "gi_to_led",
    "kedc_to_kvdc",
    "gi_to_kedc",
    "gi_to_klvd",
    "gi_to_kled",
)
TAKES_K = ("gi_to_kedc", "gi_to_klvd", "gi_to_kled")  # the k-card gadgets


def _min_order(kind: str, c: int) -> int:
    """Smallest source-graph order the gadget `kind` admits for c."""
    if kind == "gi_to_lvd":
        return 3
    if kind == "gi_to_led":
        return max(c, 2) + 1
    if kind == "gi_to_kedc":
        return 3
    return c + 1  # gi_to_klvd, gi_to_kled, kedc_to_kvdc (a graph with c edges)


def _require_pair(g: Graph, h: Graph, kind: str, c: int) -> int:
    if g.n != h.n:
        raise InputError(f"{kind}: orders differ ({g.n} vs {h.n})")
    min_order = _min_order(kind, c)
    if g.n < min_order:
        raise InputError(f"{kind}: order must be >= {_count_text(min_order)}, got {g.n}")
    if not is_connected(g) or not is_connected(h):
        raise InputError(f"{kind}: both graphs must be connected")
    return g.n


def _swap(deck: Deck, out: Graph, into: Graph) -> Deck:
    """The deck with its first card isomorphic to `out` replaced by `into`,
    placed after every card of its certificate, where Deck(kind, cards +
    [into]) would sort it: no card is certified again."""
    tagged = list(zip(deck.certs, deck.cards))
    del tagged[deck.certs.index(certificate(out))]
    cert = certificate(into)
    tagged.insert(bisect_right(tagged, cert, key=lambda t: t[0]), (cert, into))
    return Deck._from_sorted(deck.kind, tagged)


def gi_to_lvd(g: Graph, h: Graph, c: int) -> Deck:
    """Deck whose pure legitimacy (LVD_c) decides g ~ h: the c-deck of
    g plus c+1 isolated vertices, one "g + isolated" card swapped for the
    "h + isolated" card."""
    _check_at_least(c, 1, "deletion count")
    check_deletion_sets(comb(g.n + c + 1, c))
    n = _require_pair(g, h, "gi_to_lvd", c)
    big = union([g, empty_graph(c + 1)])
    deck = _swap(
        build_deck(big, "vertex", c), union([g, empty_graph(1)]), union([h, empty_graph(1)])
    )
    assert len(deck) == comb(n + c + 1, c)
    return deck


def gi_to_led(g: Graph, h: Graph, c: int) -> Deck:
    """Deck whose pure legitimacy (LED_c) decides g ~ h, built from the
    c-edge-deck of g + c disjoint edges + a large clique."""
    _check_at_least(c, 1, "deletion count")
    check_certificate_order(2 * g.n + 2 * c + 1, "gi_to_led card order")
    n = _require_pair(g, h, "gi_to_led", c)
    ell = n + 1
    big = union([g, copies(complete_graph(2), c), complete_graph(ell)])
    pad = [empty_graph(2 * c), complete_graph(ell)]
    deck = _swap(build_deck(big, "edge", c), union([g] + pad), union([h] + pad))
    assert len(deck) == comb(g.m + c + comb(ell, 2), c)
    return deck


def _hat(g: Graph) -> Graph:
    # join with (K_{n+1} plus one extra vertex); degrees inside the join
    # part exceed n, which pins the original vertex set in any isomorphism
    return join([g, union([complete_graph(g.n + 1), empty_graph(1)])])


def kedc_to_kvdc(g: Graph, cards: Deck, c: int) -> tuple[Graph, Deck]:
    """Transfer a k-EDC_c instance to a k-VDC_c instance by taking line
    graphs of the hat construction of every graph involved."""
    _check_at_least(c, 1, "deletion count")
    if cards.kind != "edge":
        raise InputError(f"kedc_to_kvdc needs edge cards, got {cards.kind!r}")
    if len(cards) == 0:
        raise InputError("kedc_to_kvdc needs at least one card")
    if cards.uniform_order() != g.n:
        raise InputError(
            f"card orders {sorted({x.n for x in cards.cards})} do not all "
            f"match the graph order {g.n}"
        )
    if g.n <= c:
        raise InputError(f"order must exceed c={_count_text(c)}, got {g.n}")
    hat = _hat(g)
    assert hat.n == 2 * g.n + 2
    image = Deck("vertex", [line_graph(_hat(card)) for card in cards.cards])
    return line_graph(hat), image


def gi_to_kedc(g: Graph, h: Graph, c: int, k: int) -> tuple[Graph, Deck]:
    """k-EDC_c instance deciding g ~ h: graph g + c disjoint edges, cards
    "h + 2c isolated" plus k-1 true edge-cards."""
    _check_at_least(c, 1, "deletion count")
    _check_at_least(k, 2, "card count")
    check_certificate_order(g.n + 2 * c, "gi_to_kedc card order")
    _require_pair(g, h, "gi_to_kedc", c)
    base = union([g, copies(complete_graph(2), c)])
    if comb(base.m, c) - 1 < k - 1:
        raise InputError("gi_to_kedc: not enough cards after the removal")
    # only the last c-set, all c added edges, gives g + 2c isolated vertices:
    # every other card keeps a K2 component, which a connected g of order
    # >= 3 has none of, and k - 1 < C(m, c) stops before that set
    chosen = [
        delete_edges(base, drop) for drop in islice(combinations(base.edges, c), k - 1)
    ]
    deck = Deck("edge", [union([h, empty_graph(2 * c)])] + chosen)
    assert len(deck) == k
    return base, deck


def gi_to_klvd(g: Graph, h: Graph, c: int, k: int) -> Deck:
    """k-card vertex subdeck deciding g ~ h via padded clique unions."""
    _check_at_least(c, 1, "deletion count")
    _check_at_least(k, 2, "card count")
    check_certificate_order(3 * g.n + 2 * k + 2 * c, "gi_to_klvd card order")
    n = _require_pair(g, h, "gi_to_klvd", c)
    ell = n + k
    g_card = union([complete_graph(ell), complete_graph(ell + 2 * c), g])
    h_card = union([complete_graph(ell + c), complete_graph(ell + c), h])
    deck = Deck("vertex", [g_card] * (k - 1) + [h_card])
    assert deck.card_order == 2 * ell + 2 * c + n
    return deck


def gi_to_kled(g: Graph, h: Graph, c: int, k: int) -> Deck:
    """k-card edge subdeck deciding g ~ h: cliques with c edges removed in
    the k-1 g-cards (K_ell side) and in the h-card (K_{ell+1} side)."""
    _check_at_least(c, 1, "deletion count")
    _check_at_least(k, 2, "card count")
    check_certificate_order(3 * g.n + 2 * k + 1, "gi_to_kled card order")
    n = _require_pair(g, h, "gi_to_kled", c)
    ell = n + k
    small = complete_graph(ell)
    big = complete_graph(ell + 1)
    cards = [
        union([g, delete_edges(small, drop), big])
        for drop in islice(combinations(small.edges, c), k - 1)
    ]
    pad = comb(ell, 2) + comb(ell + 1, 2) - c
    assert all(card.m == g.m + pad for card in cards)
    first_big_drop = next(iter(combinations(big.edges, c)))
    h_card = union([h, small, delete_edges(big, first_big_drop)])
    assert h_card.m == h.m + pad
    return Deck("edge", cards + [h_card])
