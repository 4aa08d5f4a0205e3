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
the walk of card i's extensions counts them (_Blockers gives its
coverages).  The walks run in class order until the classes left hold
no more cards than the most found.  The counterexample is the
first profile one card below the value, in the order the existential
search tries them, that does not identify.  The profile tests and
coverages of a call share one lazy walk per card class.

No collection of at most two vertex cards identifies a graph g on n >= 3
vertices (Harary & Plantholt): the cards come from some u != v, and
toggling the pair uv gives h with h - u = g - u and h - v = g - v but
one edge more or less, so h is not g.  So the existential vertex search
starts at size 3, the universal one starts from two shared cards, and
the walks pass over graphs sharing at most two cards (the _Blockers
floor); the edge numbers have no such bound.  _Blockers.identifies
answers a profile of at most floor cards without a walk: the empty one
identifies only in a one-class universe, and no other one does.

The numbers and identification are isomorphism invariants, and so is the
work: _Blockers certifies g before it builds g's deck, so the deck
builder certifies each card through g's canonical form C, and each class
walk extends C's first card of its class.  Every certificate a call makes,
besides g's own, then depends only on g's class, and a second query on
the class, by another labeling, quantifier or subdeck, meets them in
canon's memo.  Witnesses and counterexamples are still g's own
cards, and no answer depends on the order in which coverages are found.
"""

from __future__ import annotations

import math
from collections import Counter
from math import comb
from typing import Iterator, NamedTuple, Optional, Sequence

from .canon import certificate, certificate_rows
from .deck import Deck, _build_deck, _deletion_sets
from .deciders import _class_profiles, _coverage, _DeckTargets, _deletion_hits, _extensions
from .deciders import _hit_profile, _profile_table, _shape, _Shape
from .errors import CapacityError, InputError
from .graph import Graph, _sized_patterns, delete_vertices_rows, extend_rows, twin_patterns

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


def _covers(v: Sequence[int], a: Sequence[int]) -> bool:
    return all(x >= y for x, y in zip(v, a))


class _Blockers:
    """The graphs that keep subdecks of g's 1-deletion deck (vertex or
    edge kind) from identifying g, found lazily, one walk per card class.
    Building one refuses a g without the deck, then certifies g (`own`)
    and only then builds `deck` and its walk start cards, so that both
    are certified through g's canonical form C (module docstring).
    `identifies(profile)` says whether the subdeck with that many cards of
    each class identifies g among graphs of its order (and edge count, for
    edge decks), and the largest sum `coverages(i)` yields is the most
    cards of classes i, i+1, ... that an extension of card i other than g
    shares with g, when that is above `floor`, the cards g shares with a
    toggle of itself (module docstring).  A profile of at most floor cards
    is answered without a walk: the empty one identifies exactly when g's
    universe is one class (`singleton`), and no other one does.

    A subdeck is a count profile a over the deck's card classes
    (certificate order, multiplicities mu).  Let i be the first class with
    a_i > 0.  Every H whose deck contains the subdeck extends card i by
    one vertex (one edge), so the subdeck identifies g iff no extension H
    of card i that is not g has cov_H[j] >= a_j for every j >= i, where
    cov_H[j] = min(mult of class j in H's deck, mu_j), one deletion walk
    of H.  The deletion that undoes the extension (its new vertex or edge)
    gives card i and is counted without being keyed; only an H with
    cov_H = mu on j >= i and g's degree histogram can be g, so only such
    an H is certified, against `own`.  Edge extensions are walked by
    _coverage.

    A vertex extension H_A is card i (of order n) plus a vertex x joined
    to A, one per twin pattern.  The pairs (A, u) for which H_A - u keys to
    a target are solved for once per walk (_deletion_hits), and the walk
    visits twin_patterns in order and takes only an A's hitting u's, in
    increasing u.  It memoises a hit's card class by (u, B), B = A - {u}:
    H_A - u is one labeled graph for A = B and A = B | {u}, so the memo
    halves the certifying stages; _coverage's twin memo would need each
    H's twin classes, which the solve never builds.  A hit's degree
    profile is read off u's _profile_table, built on u's first hit, and
    card rows are built and certified only on a profile hit.  A twin
    pattern with fewer than floor hits is skipped unclassified: its
    coverage sums to at most floor, one card per hitting u and the undo
    card.

    Class i's walk starts on first use, against the targets of the deck's
    classes from i on (a slice of its class table, so no deck is
    rebuilt), and yields each distinct coverage once, in the order found.
    It extends class i's first card in C, the rows of C minus the least
    first deletion of C in class i, which the deck builder returns
    (`starts`) with the deck it certified through them.  Every certificate
    the walk makes then depends only on g's class, so a later query on the
    class (another labeling, quantifier or profile) finds them all in
    canon's memo.  Any card of class i gives the same set of coverages, as
    its extensions are the same graphs up to isomorphism, and no consumer
    reads their order.
    `coverages(i)` yields the coverages found so far, kept as an
    antichain, then resumes the walk, so no class is walked twice and
    each consumer stops it where it has its answer: `identifies` at the
    first coverage that covers a profile, recon's universal number once
    no larger sum is possible.
    """

    def __init__(self, g: Graph, kind: str):
        _deletion_sets(g, kind, 1)  # the deck's refusal comes before g's certificate
        self.own = certificate(g)
        self.deck, self.starts = _build_deck(g, kind, 1)
        self.own_key = _shape(g.n, g.rows).key
        self.floor = 2 if kind == "vertex" and g.n >= 3 else 0
        # the empty profile identifies only in a one-class universe: all
        # graphs of the order (vertex kind), or all graphs of the order and
        # edge count (edge kind, one class exactly at 1, max-1 and max
        # edges; an edgeless graph has no edge deck, refused above)
        full = comb(g.n, 2)
        self.singleton = g.n <= 1 if kind == "vertex" else g.m in {1, full - 1, full}
        self.walks: dict[int, tuple[Iterator[tuple[int, ...]], list]] = {}

    def _is_own(self, s: _Shape) -> bool:
        return s.key == self.own_key and certificate_rows(s.n, s.rows) == self.own

    def _walk(self, t: _DeckTargets) -> Iterator[tuple[int, ...]]:
        """Each distinct coverage above the floor of an extension of t's
        first card that is not g, once, in the order the extensions are
        walked."""
        seen: set[tuple[int, ...]] = set()
        for cov in (self._edge_walk if t.kind == "edge" else self._vertex_walk)(t):
            if sum(cov) > self.floor and cov not in seen:
                seen.add(cov)
                yield cov

    def _edge_walk(self, t: _DeckTargets) -> Iterator[tuple[int, ...]]:
        mults = t.mults
        for s in _extensions(t.cards[0], "edge", 1):
            cov = _coverage(s, t, False)
            if not (cov == mults and self._is_own(s)):
                yield tuple(cov)

    def _vertex_walk(self, t: _DeckTargets) -> Iterator[tuple[int, ...]]:
        card, mults = t.cards[0], tuple(t.mults)
        n, rows = card.n, card.rows
        hits = _deletion_hits(card, t.by_key)
        start = (1,) + (0,) * (len(mults) - 1)  # H - x is card i
        memo: dict[int, Optional[int]] = {}  # u << n | B -> class of H_B - u
        tables: dict[int, list] = {}  # u -> _profile_table, on u's first hit
        for attach in twin_patterns(n, rows, None):
            entries = hits.get(attach, ())
            if len(entries) < self.floor:
                continue  # covers at most floor cards: one per u and the undo card
            cov = start
            if entries:
                counts = list(start)
                left = t.count - 1
                for u, a, hit in entries:
                    if not left:
                        break
                    if any(counts[j] < mults[j] for j in hit):
                        at = u << n | a
                        if at not in memo:
                            table = tables.get(u)
                            if table is None:
                                table = tables[u] = _profile_table(n, rows, u)
                            memo[at] = None
                            if _hit_profile(table, a) in _class_profiles(t):
                                card_rows = delete_vertices_rows(extend_rows(n, rows, a), (u,))
                                memo[at] = t.index.get(certificate_rows(n, card_rows))
                        j = memo[at]
                        if j is not None and counts[j] < mults[j]:
                            counts[j] += 1
                            left -= 1
                cov = tuple(counts)
            if not (
                cov == mults and self._is_own(_shape(n + 1, extend_rows(n, rows, attach)))
            ):
                yield cov

    def coverages(self, i: int) -> Iterator[tuple[int, ...]]:
        """Class i's walk as an antichain of coverages: those kept so far,
        then each new one the walk finds, kept as it is yielded."""
        if i not in self.walks:  # from class i's first card in g's canonical form
            rows = self.starts[self.deck.classes()[i][0]][1]
            start = Graph._from_rows(len(rows), rows)
            self.walks[i] = (self._walk(_DeckTargets(self.deck, 1, i, start)), [])
        walk, found = self.walks[i]
        yield from found
        for cov in walk:  # resumes where the last consumer stopped
            if any(_covers(v, cov) for v in found):
                continue
            found[:] = [v for v in found if not _covers(cov, v)]
            found.append(cov)
            yield cov

    def identifies(self, profile: Sequence[int]) -> bool:
        """Does the count profile over the deck's card classes identify g?
        No profile of at most floor cards does, save the empty one in a
        one-class universe; for the rest, no coverage of the profile's
        first class covers the profile."""
        size = sum(profile)
        if size <= self.floor:
            return not size and self.singleton
        i = next(j for j, count in enumerate(profile) if count)
        return not any(_covers(cov, profile[i:]) for cov in self.coverages(i))


def identifies(g: Graph, s: Deck, kind: str) -> bool:
    """Does the subdeck s of g's 1-deletion deck identify g?

    It does when every graph whose deck contains s is isomorphic to g.  s
    is read as a count profile over g's card classes, and the one-vertex
    (one-edge) extensions of a card of its first class in certificate
    order are walked until one that is not g contains s, or none is left
    (_Blockers).  A vertex subdeck of at most two cards of a graph on
    n >= 3 vertices never identifies (module docstring).
    """
    _check_caps(g, kind)
    if kind == "vertex":
        if s.kind not in ("vertex", "endvertex"):
            raise InputError(f"expected a vertex subdeck, got {s.kind!r}")
    elif s.kind != "edge":
        raise InputError(f"expected an edge subdeck, got {s.kind!r}")
    blockers = _Blockers(g, kind)
    counts = Counter(s.certs)
    if not counts <= Counter(blockers.deck.certs):
        raise InputError("the given cards are not a subdeck of g's deck")
    return blockers.identifies([counts[cert] for cert, _ in blockers.deck.classes()])


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
    blockers = _Blockers(g, kind)
    deck = blockers.deck
    # subsets with equal class counts identify (or not) together, so only
    # count profiles are tested
    classes = deck.classes()
    mults = [len(cards) for _, cards in classes]
    # profiles a_i <= mults[i] of one size, lexicographically, as sums of (a_i,)
    counts = [[(k,) for k in range(m + 1)] for m in mults]
    shared = blockers.floor  # cards g shares with a graph not g, at least

    def subdeck_for(profile: tuple[int, ...]) -> Deck:
        tagged = [
            (cert, card)
            for count, (cert, cards) in zip(profile, classes)
            for card in cards[:count]
        ]
        return Deck._from_tagged(kind, tagged)

    if quantifier == "exists":
        for size in range(shared + 1 if shared else 0, len(deck) + 1):
            for profile in _sized_patterns(counts, size, ()):
                if blockers.identifies(profile):
                    return ReconNumber(size, witness=subdeck_for(profile))
        return ReconNumber(math.inf)
    for i in range(len(mults)):
        rest = sum(mults[i:])  # walk i shares no more cards
        for cov in blockers.coverages(i) if rest > shared else ():
            shared = max(shared, sum(cov))
            if shared == rest:
                break
    if shared == len(deck) or blockers.singleton:
        return ReconNumber(math.inf if shared else 0)  # a one-class universe shares none
    failure = next(
        p for p in _sized_patterns(counts, shared, ()) if not blockers.identifies(p)
    )
    return ReconNumber(shared + 1, counterexample=subdeck_for(failure))


def threshold(g: Graph, k: int, which: str) -> bool:
    """Threshold decisions: is the chosen reconstruction number <= k?
    Infinite values compare greater than every k."""
    if which not in THRESHOLD_PROBLEMS:
        raise InputError(f"unknown threshold problem {which!r}")
    kind, quantifier = THRESHOLD_PROBLEMS[which]
    return recon_number(g, kind, quantifier).value <= k
