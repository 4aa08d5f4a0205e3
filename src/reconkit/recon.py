"""Reconstruction numbers: smallest identifying card collections.

A collection of 1-deletion cards identifies g when every same-universe
graph whose deck contains the collection is isomorphic to g.  The
existential numbers ask for some identifying collection of a given size,
the universal ones require every collection of that size to identify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb
from typing import Iterator, Optional

from .canon import certificate
from .deck import Deck, build_deck, subdeck_contained
from .deciders import _search_preimages
from .errors import CapacityError, InputError
from .graph import Graph

VERTEX_ORDER_CAP = 10
EDGE_COUNT_CAP = 12

THRESHOLD_PROBLEMS = {
    "EXIST-VRN": ("vertex", "exists"),
    "UNIV-VRN": ("vertex", "forall"),
    "EXIST-ERN": ("edge", "exists"),
    "UNIV-ERN": ("edge", "forall"),
}


@dataclass(frozen=True)
class ReconNumber:
    """Value in the naturals plus infinity (math.inf), with an identifying
    witness subdeck for the existential numbers and a non-identifying
    counterexample subdeck (one card smaller) for the universal ones."""

    value: float
    witness: Optional[Deck] = None
    counterexample: Optional[Deck] = None

    @property
    def finite(self) -> bool:
        return self.value != math.inf


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
    # count (edge kind, singleton exactly at 0, 1, max-1, and max edges).
    if kind == "vertex":
        return g.n <= 1
    full = comb(g.n, 2)
    return g.m in {0, 1, full - 1, full}


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


def threshold(g: Graph, k: int, which: str) -> bool:
    """Threshold decisions: is the chosen reconstruction number <= k?
    Infinite values compare greater than every k."""
    if which not in THRESHOLD_PROBLEMS:
        raise InputError(f"unknown threshold problem {which!r}")
    kind, quantifier = THRESHOLD_PROBLEMS[which]
    return recon_number(g, kind, quantifier).value <= k
