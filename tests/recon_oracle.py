"""Reconstruction numbers as they stood before the blocking-profile walk,
kept unchanged as a slow differential oracle for `reconkit.recon`.

`identifies` runs one preimage search of the subdeck, and `recon_number`
calls it once per tested count profile.  Values, witnesses and
counterexamples must agree exactly with the library's.

Run as a script, it writes the atlas fixture of every graph on 2..7
vertices (graph6 and the four numbers) to standard output:

    PYTHONPATH=src python tests/recon_oracle.py > tests/data/recon_atlas.txt
"""

from __future__ import annotations

import math
import sys
from math import comb
from typing import Iterator, Optional

from reconkit.canon import certificate
from reconkit.deck import Deck, build_deck, subdeck_contained
from reconkit.deciders import _search_preimages
from reconkit.errors import CapacityError, InputError
from reconkit.graph import Graph, enumerate_graphs, graph6_encode
from reconkit.recon import ReconNumber

VERTEX_ORDER_CAP = 10
EDGE_COUNT_CAP = 12

ATLAS_COMMAND = "PYTHONPATH=src python tests/recon_oracle.py > tests/data/recon_atlas.txt"
ATLAS_ORDERS = range(2, 8)
ATLAS_COLUMNS = (
    ("vertex", "exists"),
    ("vertex", "forall"),
    ("edge", "exists"),
    ("edge", "forall"),
)


def _check_caps(g: Graph, kind: str) -> None:
    if kind == "vertex":
        if g.n > VERTEX_ORDER_CAP:
            raise CapacityError(
                f"vertex reconstruction numbers are capped at order "
                f"{VERTEX_ORDER_CAP}, got {g.n}"
            )
    elif kind == "edge":
        if g.m > EDGE_COUNT_CAP:
            raise CapacityError(
                f"edge reconstruction numbers are capped at {EDGE_COUNT_CAP} "
                f"edges, got {g.m}"
            )
    else:
        raise InputError(f"kind must be vertex or edge, got {kind!r}")


def _universe_is_singleton(g: Graph, kind: str) -> bool:
    # Empty collections identify only in a one-class universe: all graphs
    # of the order (vertex kind), or all graphs of the order and edge
    # count (edge kind, singleton exactly at 1, max-1 and max edges; an
    # edgeless graph has no edge deck, and build_deck refuses it first).
    if kind == "vertex":
        return g.n <= 1
    full = comb(g.n, 2)
    return g.m in {1, full - 1, full}


def identifies(g: Graph, s: Deck, kind: str) -> bool:
    """Does the subdeck s of g's 1-deletion deck identify g?

    It does when every preimage of s (sub mode, c = 1) is isomorphic to
    g; the search extends the first card by one vertex over each neighbor
    subset (vertex kind) or by one edge over each non-adjacent pair (edge
    kind).
    """
    _check_caps(g, kind)
    if kind == "vertex":
        if s.kind not in ("vertex", "endvertex"):
            raise InputError(f"expected a vertex subdeck, got {s.kind!r}")
        query = s if s.kind == "vertex" else Deck("vertex", s.cards)
    else:
        if s.kind != "edge":
            raise InputError(f"expected an edge subdeck, got {s.kind!r}")
        query = s
    deck = build_deck(g, kind, 1)
    if not subdeck_contained(query, deck):
        raise InputError("the given cards are not a subdeck of g's deck")
    if len(query) == 0:
        return _universe_is_singleton(g, kind)
    own = certificate(g)
    return all(cert == own for cert, _ in _search_preimages(query, 1, "sub"))


def _profiles(mults: list[int], size: int) -> Iterator[tuple[int, ...]]:
    # count vectors a_i <= mults[i] with sum = size, lexicographically
    def rec(i: int, left: int, acc: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if i == len(mults):
            if left == 0:
                yield acc
            return
        tail = sum(mults[i + 1:])
        lo = max(0, left - tail)
        hi = min(mults[i], left)
        for take in range(lo, hi + 1):
            yield from rec(i + 1, left - take, acc + (take,))

    yield from rec(0, size, ())


def recon_number(g: Graph, kind: str, quantifier: str) -> ReconNumber:
    """Minimum subdeck size that identifies g: for SOME size-m multisubset
    of the 1-deletion deck (exists) or for EVERY one (forall); math.inf
    when even the full deck does not identify."""
    if quantifier not in ("exists", "forall"):
        raise InputError(f"quantifier must be exists or forall, got {quantifier!r}")
    _check_caps(g, kind)
    deck = build_deck(g, kind, 1)
    total = len(deck)
    if not identifies(g, deck, kind):
        return ReconNumber(math.inf)
    # cards grouped per certificate class; subsets with equal class counts
    # identify (or not) together, so only count profiles are tested
    class_cards: list[list[Graph]] = []
    class_certs: list[bytes] = []
    for cert, card in zip(deck.certs, deck.cards):
        if class_certs and class_certs[-1] == cert:
            class_cards[-1].append(card)
        else:
            class_certs.append(cert)
            class_cards.append([card])
    mults = [len(cards) for cards in class_cards]

    def subdeck_for(profile: tuple[int, ...]) -> Deck:
        chosen: list[Graph] = []
        for count, cards in zip(profile, class_cards):
            chosen.extend(cards[:count])
        return Deck(kind, chosen)

    if quantifier == "exists":
        for size in range(total + 1):
            for profile in _profiles(mults, size):
                candidate = subdeck_for(profile)
                if identifies(g, candidate, kind):
                    return ReconNumber(size, witness=candidate)
        raise AssertionError("full deck identified but no subdeck did")
    last_failure: Optional[Deck] = None
    for size in range(total + 1):
        failure = None
        for profile in _profiles(mults, size):
            candidate = subdeck_for(profile)
            if not identifies(g, candidate, kind):
                failure = candidate
                break
        if failure is None:
            counterexample = last_failure if size >= 2 else None
            return ReconNumber(size, counterexample=counterexample)
        last_failure = failure
    raise AssertionError("full deck identified but some full-size subdeck failed")


# ---------------------------------------------------------------------------
# the atlas fixture


def atlas_value(g: Graph, kind: str, quantifier: str, rn=recon_number) -> str:
    """One atlas cell: the number, "inf", or "-" where the edge kind has
    no deck (no edges) or is past its edge cap."""
    if kind == "edge" and not 1 <= g.m <= EDGE_COUNT_CAP:
        return "-"
    value = rn(g, kind, quantifier).value
    return "inf" if value == math.inf else str(value)


def atlas_line(g: Graph, rn=recon_number) -> str:
    cells = (atlas_value(g, kind, q, rn) for kind, q in ATLAS_COLUMNS)
    return " ".join((graph6_encode(g), *cells))


def write_atlas(out) -> None:
    columns = " ".join(f"{kind}_{q}" for kind, q in ATLAS_COLUMNS)
    out.write(f"# written by: {ATLAS_COMMAND}\n")
    out.write(f"# graph6 {columns}\n")
    for n in ATLAS_ORDERS:
        for g in enumerate_graphs(n):
            out.write(atlas_line(g) + "\n")
            out.flush()


if __name__ == "__main__":
    write_atlas(sys.stdout)
