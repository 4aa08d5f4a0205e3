"""Decks: multisets of cards compared up to isomorphism.

Cards are stored in certificate-sorted order, so multiset equivalence and
containment reduce to comparing sorted certificate tuples; the one-to-one
card matching is implied by certificate exactness.

build_deck certifies one card per twin orbit (graph.twin_orbits): c
vertices key to their sorted twin classes, c edges to their endpoints'
twin classes and the pattern of shared endpoints.  Equal keys give a
class-preserving bijection of the two sets' vertices, and a permutation
inside twin classes is an automorphism, so the two cards are isomorphic.
The gadgets of `reductions` pad with cliques, isolated vertices and
disjoint edges, so their cards fall into few orbits (K8: 378 into 4).

Where canon's memo holds g's canonical labeling (g, or a graph whose
canonical form g is, was certified since the memo was last cleared),
each orbit is certified through its first deletion set in g's canonical
form C, in C's own order: the set that building C's own deck would
certify.  Twin classes map onto C's, so g's sets are keyed by the twin
orbits of their images in C, and each key's first set comes from one
walk over C's own sets; at vertex c = 1 the key, the least vertex of the
image's twin class in C, is its own first set, so no walk is needed.
Those card rows depend only on g's class, so every certified labeling of
g shares C's certificate entries, and so do classes whose canonical
forms share a labeled card.  Deck.cards still holds g's own deletions,
in g's order within a class.  build_deck never certifies g for this, as
a search of g pays back only through other classes' cards: recon
certifies g itself, and the enumerated classes of `verify
deck-uniqueness` are their own canonical forms, whose first sets are
their own.  A g past the certificate cap is never in the memo, so
path_graph(64) still builds its 64 cards.

The private builder _build_deck also returns, per card class, its least
first deletion set of C (of g itself where g is uncertified) and that
card's rows: the start cards that recon's class walks extend.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import combinations, groupby
from math import comb
from typing import Iterable, Optional, Sequence

from .canon import _memoized_labeling, certificate, certificate_rows
from .errors import CapacityError, InputError, _check_at_least, _count_text
from .graph import Graph, _twin_labels, delete_edges_rows, delete_vertices
from .graph import delete_vertices_rows, graph6_decode, graph6_encode, relabel_rows
from .graph import rows_edges, twin_orbits

DECK_KINDS = ("vertex", "edge", "endvertex")
DELETION_SETS_CAP = 10**5  # deletion sets one deck build or check may walk


class Deck:
    """Immutable multiset of alleged cards tagged with a deletion kind.

    A real deck has cards of one order (and, for the edge kind, one edge
    count); alleged decks may violate that, and every checker rejects such
    shapes by answering false rather than raising.
    """

    __slots__ = ("kind", "cards", "certs")

    def __init__(self, kind: str, cards: Iterable[Graph]):
        if kind not in DECK_KINDS:
            raise InputError(f"unknown deck kind {kind!r}")
        self._set(kind, sorted(((certificate(c), c) for c in cards), key=lambda t: t[0]))

    @classmethod
    def _from_sorted(cls, kind: str, tagged: list[tuple[bytes, Graph]]) -> Deck:
        """The deck of these (certificate, card) pairs, trusted as given:
        each certificate is its card's, in sorted order."""
        d = object.__new__(cls)
        d._set(kind, tagged)
        return d

    def _set(self, kind: str, tagged: list[tuple[bytes, Graph]]) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "cards", tuple(c for _, c in tagged))
        object.__setattr__(self, "certs", tuple(t for t, _ in tagged))

    def __setattr__(self, name, value):
        raise AttributeError("Deck is immutable")

    def __len__(self) -> int:
        return len(self.cards)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Deck)
            and self.kind == other.kind
            and self.certs == other.certs
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.certs))

    def __repr__(self) -> str:
        return f"Deck(kind={self.kind!r}, cards={len(self.cards)})"

    @property
    def card_order(self) -> Optional[int]:
        return self.cards[0].n if self.cards else None

    def uniform_order(self) -> Optional[int]:
        """The shared card order, or None when empty or of mixed orders."""
        orders = {card.n for card in self.cards}
        return orders.pop() if len(orders) == 1 else None

    def uniform_edges(self) -> Optional[int]:
        """The shared card edge count, or None when empty or mixed."""
        sizes = {card.m for card in self.cards}
        return sizes.pop() if len(sizes) == 1 else None

    def classes(self) -> list[tuple[bytes, tuple[Graph, ...]]]:
        """(certificate, cards) per isomorphism class, in certificate order,
        the cards in deck order: the certificates are sorted, so each class
        is a contiguous run.  The deciders, recon and verify read decks
        through this card-class table."""
        runs = groupby(zip(self.certs, self.cards), key=lambda t: t[0])
        return [(cert, tuple(card for _, card in run)) for cert, run in runs]


def check_deletion_sets(count: int) -> None:
    """Refuse a walk over more than DELETION_SETS_CAP deletion sets before
    it starts: the walks are exhaustive, so past the cap they would run for
    hours rather than fail.  build_deck (so also the gi_to_lvd and
    gi_to_led gadgets), subdeck_check, the deck each preimage-search
    candidate is matched against and the front end's pair test check it."""
    if count > DELETION_SETS_CAP:
        raise CapacityError(
            f"{_count_text(count)} deletion sets exceed the {DELETION_SETS_CAP} cap"
        )


def _deletion_sets(g: Graph, kind: str, c: int) -> int:
    """g's C(n, c) vertex or C(m, c) edge deletion sets, for a c >= 0 and a
    kind of vertex or edge; c past n (m) is refused."""
    if kind == "vertex" and c > g.n:
        raise InputError(f"cannot delete {_count_text(c)} vertices from order {g.n}")
    if kind == "edge" and c > g.m:
        raise InputError(f"cannot delete {_count_text(c)} edges from {g.m} edges")
    return comb(g.n if kind == "vertex" else g.m, c)


def build_deck(g: Graph, kind: str, c: int) -> Deck:
    """All cards obtained by deleting every c-subset of vertices or edges,
    each twin orbit certified once, through g's canonical form if g is
    already certified (see the module docstring)."""
    return _build_deck(g, kind, c)[0]


def _build_deck(g: Graph, kind: str, c: int) -> tuple[Deck, dict]:
    """build_deck's deck, and `starts`: per card certificate, the least
    first deletion set of C in the class (of g where g is uncertified) and
    that card's rows."""
    _check_at_least(c, 0, "deletion count")
    if kind not in ("vertex", "edge"):
        raise InputError(f"build_deck kind must be vertex or edge, got {kind!r}")
    check_deletion_sets(_deletion_sets(g, kind, c))
    if kind == "vertex":
        sets, card_rows = combinations(range(g.n), c), delete_vertices_rows
    else:
        sets, card_rows = combinations(g.edges, c), delete_edges_rows
    lab = _memoized_labeling(g.n, g.rows)
    if lab is None or lab == bytes(range(g.n)):  # not certified, or its own form
        orbit, first = twin_orbits(g.n, g.rows), None
    else:
        base = relabel_rows(g.n, g.rows, lab)
        orbit, first = _orbits_in_form(g.n, kind, c, lab, base)
    certs: dict[tuple, bytes] = {}  # one certificate per twin orbit
    starts: dict[bytes, tuple] = {}
    tagged = []
    for drop in sets:
        rows = card_rows(g.rows, drop)
        card = Graph._from_rows(len(rows), rows)
        key = orbit(drop)
        cert = certs.get(key)
        if cert is None:
            moved = drop
            if first is not None:  # the orbit's first set of C instead
                moved = first(key)
                rows = card_rows(base, moved)
            cert = certs[key] = certificate_rows(len(rows), rows)
            if cert not in starts or moved < starts[cert][0]:
                starts[cert] = moved, rows
        tagged.append((cert, card))
    tagged.sort(key=lambda t: t[0])
    return Deck._from_sorted(kind, tagged), starts


def _orbits_in_form(n: int, kind: str, c: int, lab: bytes, base: Sequence[int]) -> tuple:
    """(orbit, first) for the c-sets of a g of order n that lab takes to its
    canonical form C, with the rows base: orbit keys a set of g by the twin
    orbit of its image in C, and first gives the key's first set in C's
    own order, from one walk over C's sets.  At vertex c = 1 the key is the
    least vertex of the image's twin class in C, its own first set."""
    if kind == "vertex" and c == 1:
        labels = _twin_labels(n, base)
        rep: dict[int, int] = {}  # twin label -> its least vertex in C
        for w, label in enumerate(labels):
            rep.setdefault(label, w)
        least = [rep[labels[w]] for w in lab]  # per vertex of g
        return lambda drop: (least[drop[0]],), lambda key: key
    key = twin_orbits(n, base)
    if kind == "vertex":
        sets = combinations(range(n), c)

        def image(drop: tuple) -> list[int]:
            return [lab[v] for v in drop]
    else:
        sets = combinations(rows_edges(n, base), c)

        def image(drop: tuple) -> tuple:
            return tuple(sorted(
                (lab[u], lab[v]) if lab[u] < lab[v] else (lab[v], lab[u]) for u, v in drop
            ))
    firsts: dict[tuple, tuple] = {}
    for moved in sets:
        firsts.setdefault(key(moved), moved)
    return lambda drop: key(image(drop)), firsts.__getitem__


def endvertex_deck(g: Graph) -> Deck:
    """Cards G - v for every vertex v of degree exactly 1."""
    cards = [
        delete_vertices(g, (v,)) for v in range(g.n) if g.degree(v) == 1
    ]
    return Deck("endvertex", cards)


def deck_equal(d1: Deck, d2: Deck) -> bool:
    if d1.kind != d2.kind:
        raise InputError(f"deck kinds differ: {d1.kind} vs {d2.kind}")
    return d1.certs == d2.certs


def subdeck_contained(small: Deck, big: Deck) -> bool:
    if small.kind != big.kind:
        raise InputError(f"deck kinds differ: {small.kind} vs {big.kind}")
    return Counter(small.certs) <= Counter(big.certs)


# ---------------------------------------------------------------------------
# deck files: newline-separated graph6, '#' comment lines, optional
# "# kind=<kind> c=<int>" metadata in the first comment


_META_RE = re.compile(r"kind=(vertex|edge|endvertex)(?:\s+c=(\d+))?")


def deck_to_text(
    deck: Deck, c: Optional[int] = None, comments: Sequence[str] = ()
) -> str:
    meta = f"# kind={deck.kind}"
    if c is not None:
        meta += f" c={c}"
    lines = [meta]
    lines.extend(f"# {comment}" for comment in comments)
    lines.extend(graph6_encode(card) for card in deck.cards)
    return "\n".join(lines) + "\n"


def deck_from_text(
    text: str,
    kind: Optional[str] = None,
    source: str = "<deck>",
) -> tuple[Deck, Optional[int]]:
    """Parse a deck file; explicit `kind` overrides file metadata.

    Returns the deck plus the deletion count from the metadata, if any.
    """
    meta_kind: Optional[str] = None
    meta_c: Optional[int] = None
    cards = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if meta_kind is None:
                match = _META_RE.search(line)
                if match:
                    meta_kind = match.group(1)
                    digits = match.group(2)
                    try:
                        meta_c = None if digits is None else int(digits)
                    except ValueError:  # past Python's int-from-string limit
                        raise InputError(
                            f"{source}:{lineno}: c= has too many digits ({len(digits)})"
                        ) from None
            continue
        try:
            cards.append(graph6_decode(line))
        except InputError as exc:
            raise InputError(f"{source}:{lineno}: {exc}") from exc
    use_kind = kind or meta_kind
    if use_kind is None:
        # A uniform card shape is ambiguous between the kinds, so edge
        # decks must be requested via metadata or the caller; default vertex.
        use_kind = "vertex"
    try:
        deck = Deck(use_kind, cards)
    except InputError as exc:
        raise InputError(f"{source}: {exc}") from exc
    return deck, meta_c
