"""Reconstruction numbers: smallest identifying card collections.

A collection of 1-deletion cards identifies g when every same-universe
graph whose deck contains the collection is isomorphic to g.  The
existential numbers ask for some identifying collection of a given size,
the universal ones require every collection of that size to identify
(Harary & Plantholt, J. Graph Theory 1985).

Cards with one certificate are interchangeable, so a collection is a
count profile over g's card classes.  The existential number tries
profiles by size, and in lexicographic order within a size; the first
that identifies is its witness.  Identification is monotone under adding
cards, so when the full deck does not identify, the number is infinite.

Every collection of v cards identifies g exactly when no graph h not
isomorphic to g in its universe shares v cards with g.  So the universal
number is one more than the most cards g shares with such an h (Myrvold's
adversary number), 0 in a one-class universe, where the empty collection
identifies, and infinite when some h has g's whole deck.  An h sharing
cards of g's classes i, i+1, ... and no earlier one extends card i, and
the walk of card i's extensions counts them (deciders._Blockers gives
its coverages).  The walks run in class order until the classes
left hold no more cards than the most found.  The counterexample is the
first profile one card below the value, in the order the existential
search tries them, that does not identify.  The profile tests and
coverages of a call share one lazy walk per card class.

No collection of at most two vertex cards identifies a graph g on n >= 3
vertices (Harary & Plantholt): the cards come from some u != v, and
toggling the pair uv gives h with h - u = g - u and h - v = g - v but
one edge more or less, so h is not g.  So the existential vertex search
starts at size 3, the universal one starts from two shared cards, such
collections are answered without a walk, and the walks pass over graphs
sharing at most two cards (the _Blockers floor); the edge numbers have no
such bound.

The numbers and identification are isomorphism invariants, and so is the
work: recon certifies g before it builds g's deck, so build_deck certifies
each card through g's canonical form C, and each class walk extends C's
first card of its class (deciders._Blockers).  Every certificate a call
makes, besides g's own, then depends only on g's class, and a second
query on the class, by another labeling, quantifier or subdeck, meets
them in canon's memo.  Witnesses and counterexamples are still g's own
cards, and no answer depends on the order in which coverages are found.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import partial
from math import comb
from typing import NamedTuple, Optional, Sequence

from .canon import certificate
from .deck import Deck, _deletion_sets, build_deck, subdeck_contained
from .deciders import _Blockers
from .errors import CapacityError, InputError
from .graph import Graph, _sized_patterns

VERTEX_ORDER_CAP = 10
EDGE_COUNT_CAP = 12

THRESHOLD_PROBLEMS = {
    "EXIST-VRN": ("vertex", "exists"),
    "UNIV-VRN": ("vertex", "forall"),
    "EXIST-ERN": ("edge", "exists"),
    "UNIV-ERN": ("edge", "forall"),
}


class ReconNumber(NamedTuple):
    """Value in the naturals plus infinity (math.inf), with an identifying
    witness subdeck for the existential numbers and, for the universal
    ones, a counterexample: the first subdeck one card smaller than the
    value, in profile order, that does not identify (module docstring).
    An infinite value has neither, nor has a universal 0."""

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
    # count (edge kind, singleton exactly at 1, max-1 and max edges; an
    # edgeless graph has no edge deck, and build_deck refuses it first).
    if kind == "vertex":
        return g.n <= 1
    full = comb(g.n, 2)
    return g.m in {1, full - 1, full}


def _certified_deck(g: Graph, kind: str) -> tuple[bytes, Deck]:
    """g's certificate and its 1-deletion deck, g certified first, so that
    the deck is certified through g's canonical form (module docstring)."""
    _deletion_sets(g, kind, 1)  # the deck's refusal comes before g's certificate
    own = certificate(g)
    return own, build_deck(g, kind, 1)


def _identified(g: Graph, kind: str, blockers: _Blockers, profile: Sequence[int]) -> bool:
    """Does the count profile over g's card classes identify g?  No profile
    of at most the toggle's shared cards (blockers.floor) does, the empty
    one only in a one-class universe; the rest ask the class walks of
    `blockers`."""
    if not any(profile):
        return _universe_is_singleton(g, kind)
    return sum(profile) > blockers.floor and blockers.identifies(profile)


def identifies(g: Graph, s: Deck, kind: str) -> bool:
    """Does the subdeck s of g's 1-deletion deck identify g?

    It does when every graph whose deck contains s is isomorphic to g.  s
    is read as a count profile over g's card classes, and the one-vertex
    (one-edge) extensions of a card of its first class in certificate
    order are walked until one that is not g contains s, or none is left
    (deciders._Blockers).  A vertex subdeck of at most two cards
    of a graph on n >= 3 vertices never identifies (module docstring).
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
    own, deck = _certified_deck(g, kind)
    if not subdeck_contained(query, deck):
        raise InputError("the given cards are not a subdeck of g's deck")
    counts = Counter(query.certs)
    profile = [counts[cert] for cert, _ in deck.classes()]
    return _identified(g, kind, _Blockers(g, deck, own), profile)


def recon_number(g: Graph, kind: str, quantifier: str) -> ReconNumber:
    """Minimum subdeck size that identifies g: for SOME size-m multisubset
    of the 1-deletion deck (exists) or for EVERY one (forall); math.inf
    when even the full deck does not identify.  The forall number is one
    more than the most cards g shares with a graph of its universe that
    is not g, found from the class walks' coverages, and its
    counterexample is the first profile of that many cards that does not
    identify.  Vertex numbers of graphs on n >= 3 vertices are at least 3
    (module docstring)."""
    if quantifier not in ("exists", "forall"):
        raise InputError(f"quantifier must be exists or forall, got {quantifier!r}")
    _check_caps(g, kind)
    own, deck = _certified_deck(g, kind)
    # subsets with equal class counts identify (or not) together, so only
    # count profiles are tested
    classes = deck.classes()
    mults = [len(cards) for _, cards in classes]
    # profiles a_i <= mults[i] of one size, lexicographically, as sums of (a_i,)
    counts = [[(k,) for k in range(m + 1)] for m in mults]
    blockers = _Blockers(g, deck, own)
    shared = blockers.floor  # cards g shares with a graph not g, at least
    identified = partial(_identified, g, kind, blockers)

    def subdeck_for(profile: tuple[int, ...]) -> Deck:
        # the first cards of each class run, so still certificate-sorted
        tagged = [
            (cert, card)
            for count, (cert, cards) in zip(profile, classes)
            for card in cards[:count]
        ]
        return Deck._from_sorted(kind, tagged)

    if quantifier == "exists":
        for size in range(shared + 1 if shared else 0, len(deck) + 1):
            for profile in _sized_patterns(counts, size, ()):
                if identified(profile):
                    return ReconNumber(size, witness=subdeck_for(profile))
        return ReconNumber(math.inf)
    for i in range(len(mults)):
        rest = sum(mults[i:])  # walk i shares no more cards
        for cov in blockers.coverages(i) if rest > shared else ():
            shared = max(shared, sum(cov))
            if shared == rest:
                break
    if shared == len(deck) or _universe_is_singleton(g, kind):
        return ReconNumber(math.inf if shared else 0)  # a one-class universe shares none
    failure = next(p for p in _sized_patterns(counts, shared, ()) if not identified(p))
    return ReconNumber(shared + 1, counterexample=subdeck_for(failure))


def threshold(g: Graph, k: int, which: str) -> bool:
    """Threshold decisions: is the chosen reconstruction number <= k?
    Infinite values compare greater than every k."""
    if which not in THRESHOLD_PROBLEMS:
        raise InputError(f"unknown threshold problem {which!r}")
    kind, quantifier = THRESHOLD_PROBLEMS[which]
    return recon_number(g, kind, quantifier).value <= k
