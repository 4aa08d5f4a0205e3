"""Decks: multisets of cards compared up to isomorphism.

Cards are stored in certificate-sorted order, so multiset equivalence and
containment reduce to comparing sorted certificate tuples; the one-to-one
card matching is implied by certificate exactness.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import combinations
from math import comb
from typing import Iterable, Optional, Sequence

from .canon import certificate
from .errors import CapacityError, InputError
from .graph import Graph, delete_edges, delete_vertices, graph6_decode, graph6_encode

DECK_KINDS = ("vertex", "edge", "endvertex")
DELETION_SETS_CAP = 10**5  # deletion sets one deck build or check may walk


class Deck:
    """Immutable multiset of alleged cards tagged with a deletion kind.

    A real deck has cards of one order (and, for the edge kind, one edge
    count); alleged decks may violate that, and every checker rejects such
    shapes by answering false rather than raising.
    """

    __slots__ = ("kind", "cards", "certs", "_hash")

    def __init__(self, kind: str, cards: Iterable[Graph]):
        if kind not in DECK_KINDS:
            raise InputError(f"unknown deck kind {kind!r}")
        tagged = sorted(((certificate(c), c) for c in cards), key=lambda t: t[0])
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "cards", tuple(c for _, c in tagged))
        object.__setattr__(self, "certs", tuple(t for t, _ in tagged))
        object.__setattr__(self, "_hash", hash((kind, self.certs)))

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
        return self._hash

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

    def cert_counter(self) -> Counter:
        return Counter(self.certs)


def check_deletion_sets(count: int) -> None:
    """Refuse a walk over more than DELETION_SETS_CAP deletion sets before
    it starts: the walks are exhaustive, so past the cap they would run for
    hours rather than fail."""
    if count > DELETION_SETS_CAP:
        raise CapacityError(
            f"{count} deletion sets exceed the {DELETION_SETS_CAP} cap"
        )


def build_deck(g: Graph, kind: str, c: int) -> Deck:
    """All cards obtained by deleting every c-subset of vertices or edges."""
    if c < 0:
        raise InputError(f"deletion count must be >= 0, got {c}")
    if kind == "vertex":
        if c > g.n:
            raise InputError(f"cannot delete {c} vertices from order {g.n}")
        check_deletion_sets(comb(g.n, c))
        cards = [delete_vertices(g, s) for s in combinations(range(g.n), c)]
    elif kind == "edge":
        if c > g.m:
            raise InputError(f"cannot delete {c} edges from {g.m} edges")
        check_deletion_sets(comb(g.m, c))
        cards = [delete_edges(g, s) for s in combinations(g.edges, c)]
    else:
        raise InputError(f"build_deck kind must be vertex or edge, got {kind!r}")
    return Deck(kind, cards)


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
    need = Counter(small.certs)
    have = Counter(big.certs)
    return all(have[cert] >= count for cert, count in need.items())


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
                    if match.group(2) is not None:
                        meta_c = int(match.group(2))
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
