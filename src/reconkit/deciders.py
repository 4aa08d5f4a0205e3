"""Deck checking, subdeck checking, and legitimate-deck decisions.

Legitimacy is decided by exhaustive preimage search seeded from the first
card, which is complete because every preimage contains the first card as
a card.  Sub-mode vertex decks with two or more card classes first pass a
certifying front end (find_preimage), in which each answer comes with
what checks it.  No: two cards G - S and G - T of one graph share
G - (S | T), so every pair of card classes has isomorphic deletions of
equal size 1..c; a pair without one refutes the deck (the test two_lvd
makes).  Yes: the first card, glued to c new vertices through each other
class's first c-vertex agreement, over the 2^(c*c) choices of edges the
two cards cannot see, is a preimage once subdeck_check accepts it.  The
front end needs no attachment-pattern cap, so it also answers decks past
the search's; what it leaves open goes to the search.

Deck checks and the search share one matcher, deck containment, which
tests each deletion in three stages: the degree-class prefilter, the
component-size profile, then exact certificates.  Pure mode (deck
equality) is containment of a full-size deck: a multiset of C(n, c) cards
(C(m, c) for edge decks) lies in the deck exactly when it equals it, so
card counts are compared first and only equal sizes reach the matcher.

Degree-class prefilter: a graph is kept with its degree classes (degree r
-> bitmask of the vertices of degree r) and its degree histogram packed
into one int, a 6-bit field per degree (cards are below order 64, so a
card's counts never carry).  Deleting a vertex set S turns the key into
the card's from popcounts of the "adjacent to exactly j of S" masks
against each class, with no sort; deleting c edges changes it in O(c).
Adding a vertex over an attachment set A moves A up one class, so each
extension of the first card derives its classes from the card's.  Card
rows are built only when a key hits a target card class.

Pure vertex decks use Kelly's lemma: each edge of a preimage survives in
C(n-2, c) of its cards, so the cards' edge counts fix |E(G)| and only
extension patterns adding |E(G)| - |E(card_0)| edges are tried.

Edge decks add c edges to the first card in c rounds.  Twins are swapped
by an automorphism, so a round adds to each graph only one non-edge per
pair of its twin classes (and one edge inside each open-twin class), and
keeps one graph per labeled set of added edges: at most C(N, c) candidates
for the card's N non-edges, the count EDGE_SEARCH_CANDIDATES_CAP bounds.
A middle round that would keep more than C(N, c) graphs (only when
c > N/2) gives way to the C(N, c) raw additions.

Reconstruction numbers test many subdecks of one deck.  profile_identifies
walks the one-vertex (one-edge) extensions of each card class once and
reduces each extension to its coverage: per card class, how many of its
cards fall in the class, up to the deck's count.  One walk serves every
subdeck tested whose first card is of that class.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import combinations, product
from math import comb
from typing import Callable, Iterator, Optional, Sequence

from .canon import certificate_rows, find_isomorphism
from .deck import DELETION_SETS_CAP, Deck, check_deletion_sets
from .errors import CapacityError, InputError
from .graph import (
    Graph,
    _twin_classes,
    component_masks,
    delete_edges_rows,
    delete_vertices,
    delete_vertices_rows,
    extend_rows,
    iter_bits,
    rows_edges,
    twin_patterns,
)

VERTEX_SEARCH_BITS_CAP = 24  # 2^(c*n' + C(c,2)) candidate patterns at most
EDGE_SEARCH_CANDIDATES_CAP = 10**6
_FIELD = 6  # bits per degree in a packed histogram: degree r counts 1 << 6r
# key change when a vertex of degree d loses one edge, for d < 64 (edge-kind
# candidates have the cards' order, which is below 64)
_DOWN = tuple((1 << _FIELD * d) - ((1 << _FIELD * d) >> _FIELD) for d in range(64))


@dataclass(frozen=True)
class PreimageSet:
    """Pairwise-nonisomorphic preimages of a deck (pure: deck equality,
    sub: subdeck containment), certificate-sorted."""

    preimages: tuple[Graph, ...]
    mode: str

    def __len__(self) -> int:
        return len(self.preimages)


def _component_sizes(n: int, rows: Sequence[int]) -> tuple[int, ...]:
    return tuple(sorted(comp.bit_count() for comp in component_masks(n, rows)))


# ---------------------------------------------------------------------------
# degree-class kernel


class _Shape:
    """A rows-graph with its degree classes (degree -> vertex mask), packed
    degree histogram `key` and edge count.  Edge-kind candidates carry no
    classes: their deletion keys need only degrees."""

    __slots__ = ("n", "rows", "classes", "key", "m")

    def __init__(
        self,
        n: int,
        rows: Sequence[int],
        classes: Optional[dict[int, int]],
        key: int,
        m: int,
    ):
        self.n = n
        self.rows = rows
        self.classes = classes
        self.key = key
        self.m = m

    def degree_class(self, d: int) -> int:
        return self.classes.get(d, 0)


class _Extension(_Shape):
    """The card plus one vertex w over `attach`.  Degree classes are read
    off the card's, and rows, classes and key are built on first use, so
    a candidate that fails on class sizes costs a few mask operations."""

    __slots__ = ("card", "attach")

    def __init__(self, card: _Shape, attach: int):
        self.n = card.n + 1
        self.m = card.m + attach.bit_count()
        self.card = card
        self.attach = attach

    def degree_class(self, d: int) -> int:
        # attach's vertices move up one degree, w has degree |attach|
        classes, attach = self.card.classes, self.attach
        mask = classes.get(d, 0) & ~attach | classes.get(d - 1, 0) & attach
        return mask | 1 << self.card.n if attach.bit_count() == d else mask

    def __getattr__(self, name: str):
        # first read of rows, classes or key (unset slots) builds all three
        if name not in ("rows", "classes", "key"):
            raise AttributeError(name)
        card, attach, n0 = self.card, self.attach, self.card.n
        classes: dict[int, int] = {}
        for d, mask in card.classes.items():
            up = mask & attach
            if up:
                classes[d + 1] = classes.get(d + 1, 0) | up
            if mask ^ up:
                classes[d] = classes.get(d, 0) | mask ^ up
        deg = attach.bit_count()
        classes[deg] = classes.get(deg, 0) | 1 << n0
        moved = _class_histogram(card.classes, attach)
        self.classes = classes
        self.key = card.key + (moved << _FIELD) - moved + (1 << _FIELD * deg)
        self.rows = extend_rows(n0, card.rows, attach)
        return getattr(self, name)


def _shape(n: int, rows: Sequence[int]) -> _Shape:
    classes: dict[int, int] = {}
    for v in range(n):
        d = rows[v].bit_count()
        classes[d] = classes.get(d, 0) | 1 << v
    return _Shape(
        n,
        rows,
        classes,
        _class_histogram(classes, (1 << n) - 1),
        sum(d * mask.bit_count() for d, mask in classes.items()) // 2,
    )


def _class_histogram(classes: dict[int, int], within: int) -> int:
    """Packed degree histogram of the vertices in `within`."""
    acc = 0
    for d, mask in classes.items():
        hit = within & mask
        if hit:
            acc += hit.bit_count() << _FIELD * d
    return acc


def _key_without_vertices(s: _Shape, drop: Sequence[int]) -> int:
    """Packed histogram of s minus the vertices in drop: a vertex adjacent
    to exactly j of them moves down j degrees, which shifts its share of
    the histogram by 6j bits."""
    rows = s.rows
    if len(drop) == 1:
        nb = rows[drop[0]]
        moved = _class_histogram(s.classes, nb)
        return s.key - (1 << _FIELD * nb.bit_count()) - moved + (moved >> _FIELD)
    key = s.key
    drop_mask = 0
    for v in drop:
        drop_mask |= 1 << v
        key -= 1 << _FIELD * rows[v].bit_count()
    exact = [((1 << s.n) - 1) & ~drop_mask]  # exact[j]: adjacent to j of drop
    for v in drop:
        nb = rows[v]
        exact = (
            [exact[0] & ~nb]
            + [(exact[j] & ~nb) | (exact[j - 1] & nb) for j in range(1, len(exact))]
            + [exact[-1] & nb]
        )
    for j in range(1, len(exact)):
        moved = _class_histogram(s.classes, exact[j])
        key -= moved - (moved >> _FIELD * j)
    return key


def _keyer(s: _Shape, kind: str, c: int) -> Callable[[tuple], int]:
    """drop -> packed histogram of s minus drop (c vertices or c edges)."""
    if kind == "vertex" and c > 1:
        return partial(_key_without_vertices, s)
    if kind == "vertex":
        memo: dict[int, int] = {}  # closed twins are swapped by an automorphism

        def vertex_keyed(drop: tuple[int]) -> int:
            closed = s.rows[drop[0]] | 1 << drop[0]
            if closed not in memo:
                memo[closed] = _key_without_vertices(s, drop)
            return memo[closed]

        return vertex_keyed
    # an endpoint losing its (i+1)-th edge moves the key by _DOWN[d] >> 6i
    deg = [r.bit_count() for r in s.rows]

    def keyed(drop: tuple[tuple[int, int], ...]) -> int:
        if len(drop) == 1:
            (u, v), = drop
            return s.key - _DOWN[deg[u]] - _DOWN[deg[v]]
        if len(drop) == 2:  # two distinct edges share at most one endpoint
            (u, v), (x, y) = drop
            return (
                s.key
                - _DOWN[deg[u]]
                - _DOWN[deg[v]]
                - _DOWN[deg[x] - (x == u or x == v)]
                - _DOWN[deg[y] - (y == u or y == v)]
            )
        key = s.key
        lost: dict[int, int] = {}
        for edge in drop:
            for v in edge:
                i = lost.get(v, 0)
                key -= _DOWN[deg[v] - i]
                lost[v] = i + 1
        return key

    return keyed


# ---------------------------------------------------------------------------
# precomputed view of the deck being matched against


@dataclass
class _CardClass:
    card: Graph
    key: int
    degseq: tuple[int, ...]
    edges: int
    comps: tuple[int, ...]
    mult: int


class _DeckTargets:
    def __init__(self, d: Deck, c: int):
        if d.kind not in ("vertex", "edge"):
            raise InputError(f"deck kind must be vertex or edge, got {d.kind!r}")
        if c < 1:
            raise InputError(f"deletion count must be >= 1, got {c}")
        self.kind = d.kind
        self.c = c
        self.count = len(d)
        self.order = d.uniform_order()  # None when empty or mixed
        self.edges = d.uniform_edges()
        self.classes: list[_CardClass] = []
        self.index: dict[bytes, int] = {}  # certificate -> class
        for cert, card in zip(d.certs, d.cards):
            if cert in self.index:
                self.classes[self.index[cert]].mult += 1
                continue
            self.index[cert] = len(self.classes)
            degs = card.degrees()
            self.classes.append(
                _CardClass(
                    card,
                    sum(1 << _FIELD * r for r in degs),
                    tuple(sorted(degs)),
                    card.m,
                    _component_sizes(card.n, card.rows),
                    1,
                )
            )
        self.by_key: dict[int, list[int]] = {}
        self.need_by_edges: Counter = Counter()
        for idx, cls in enumerate(self.classes):
            self.by_key.setdefault(cls.key, []).append(idx)
            self.need_by_edges[cls.edges] += cls.mult
        self.comp_whitelist = {cls.comps for cls in self.classes}


def _edge_delta_feasible(
    cand_degseq: Sequence[int], card_degseq: Sequence[int], c: int
) -> bool:
    """Necessary condition for c edge deletions to turn the candidate
    degree sequence into the card's: per-vertex drops are between 0 and c
    and total 2c, so the sorted sequences are pointwise within [a-c, a]."""
    if len(cand_degseq) != len(card_degseq):
        return False
    if sum(cand_degseq) - sum(card_degseq) != 2 * c:
        return False
    return all(a - c <= b <= a for a, b in zip(cand_degseq, card_degseq))


def _sub_match(s: _Shape, t: _DeckTargets) -> bool:
    """Does the graph's deck contain the target multiset?

    One pass over the deletion sets, counting hits per card class with
    early success and early exhaustion; certificates are computed only for
    deletions whose packed degree histogram and component size profile
    already match a class.
    """
    c, n = t.c, s.n
    if t.kind == "vertex":
        if t.order != n - c or comb(n, c) < t.count:
            return False
        if c == 1:
            # the deleted vertex's degree is forced by the card edge count,
            # so each degree class must be large enough to serve every card
            # class that needs it
            eligible = 0
            for edges, need in t.need_by_edges.items():
                mask = s.degree_class(s.m - edges)
                if mask.bit_count() < need:
                    return False
                eligible |= mask
            space: Sequence = list(iter_bits(eligible))
        else:
            space = range(n)
        card_rows = delete_vertices_rows
    else:
        if t.order != n or t.edges != s.m - c or comb(s.m, c) < t.count:
            return False
        cand_degseq = sorted(r.bit_count() for r in s.rows)
        for cls in t.classes:
            if not _edge_delta_feasible(cand_degseq, cls.degseq, c):
                return False
        space = rows_edges(n, s.rows)
        card_rows = delete_edges_rows
    keyed = _keyer(s, t.kind, c)
    needed = [cls.mult for cls in t.classes]
    total = t.count
    remaining = comb(len(space), c)
    for drop in combinations(space, c):
        remaining -= 1
        hit = t.by_key.get(keyed(drop))
        if hit and any(needed[idx] for idx in hit):
            idx = t.index.get(_staged_cert(t, card_rows(s.rows, drop)))
            if idx is not None and needed[idx]:
                needed[idx] -= 1
                total -= 1
                if not total:
                    return True
        if remaining < total:
            return False
    return False


def _staged_cert(t: _DeckTargets, rows: list[int]) -> Optional[bytes]:
    """The certificate of a deletion whose key hit a card class of t, or
    None when its component sizes already rule out every card of t."""
    if _component_sizes(len(rows), rows) not in t.comp_whitelist:
        return None
    return certificate_rows(len(rows), rows)


def _coverage(s: _Shape, t: _DeckTargets, skip: int | tuple[int, int]) -> list[int]:
    """Per card class of t, the single deletions of s whose card is in the
    class, capped at its multiplicity.  The deletion `skip` (a vertex or an
    edge) is known to give t's first class and is counted uncertified."""
    mults = [cls.mult for cls in t.classes]
    cov = [1] + [0] * (len(mults) - 1)
    left = t.count - 1  # room under the caps
    if not left:
        return cov
    if t.kind == "vertex":
        eligible = 0  # a card's edge count forces the deleted vertex's degree
        for edges in t.need_by_edges:
            eligible |= s.degree_class(s.m - edges)
        space = [(v,) for v in iter_bits(eligible & ~(1 << skip))]
        card_rows = delete_vertices_rows
    else:
        space = [(e,) for e in rows_edges(s.n, s.rows) if e != skip]
        card_rows = delete_edges_rows
    keyed = _keyer(s, t.kind, 1)
    for drop in space:
        hit = t.by_key.get(keyed(drop))
        if hit and any(cov[j] < mults[j] for j in hit):
            j = t.index.get(_staged_cert(t, card_rows(s.rows, drop)))
            if j is not None and cov[j] < mults[j]:
                cov[j] += 1
                left -= 1
                if not left:
                    break
    return cov


# ---------------------------------------------------------------------------
# the eight decision problems


def _check_targets(g: Graph, d: Deck, c: int) -> tuple[_DeckTargets, int]:
    """Targets for matching d against g, and g's number of c-deletions."""
    t = _DeckTargets(d, c)
    if t.kind == "vertex" and c > g.n:
        raise InputError(f"cannot delete {c} vertices from order {g.n}")
    if t.kind == "edge" and c > g.m:
        raise InputError(f"cannot delete {c} edges from {g.m} edges")
    return t, comb(g.n if t.kind == "vertex" else g.m, c)


def deck_check(g: Graph, d: Deck, c: int) -> bool:
    """VDC_c / EDC_c: is d exactly the c-deletion deck of g?"""
    t, deletions = _check_targets(g, d, c)
    return len(d) == deletions and _sub_match(_shape(g.n, g.rows), t)


def subdeck_check(g: Graph, cards: Deck, c: int) -> bool:
    """k-VDC_c / k-EDC_c: are the given cards a sub-multiset of g's deck?"""
    if len(cards) < 1:
        raise InputError("subdeck check requires at least one card")
    t, deletions = _check_targets(g, cards, c)
    check_deletion_sets(deletions)
    return _sub_match(_shape(g.n, g.rows), t)


# --- preimage enumeration ---------------------------------------------------


def _extensions(
    base: Graph, kind: str, c: int, size: Optional[int] = None
) -> Iterator[_Shape]:
    """Every graph with base as a c-deletion card, up to isomorphism: c new
    vertices over each attachment pattern (vertex kind; `size` fixes the
    number of added edges), or c new edges (edge kind, see
    _edge_additions)."""
    n0, rows0 = base.n, base.rows
    card = _shape(n0, rows0)
    if kind == "edge":
        yield from _edge_additions(card, c)
        return
    if c == 1:
        for attach in twin_patterns(n0, rows0, size):
            yield _Extension(card, attach)
        return
    n = n0 + c
    full = (1 << n0) - 1
    pair_bits = [(i, j) for i in range(c) for j in range(i + 1, c)]
    bits = c * n0 + len(pair_bits)
    for pattern in range(1 << bits):
        if size is not None and pattern.bit_count() != size:
            continue
        out = list(rows0) + [0] * c
        for i in range(c):
            attach = pattern >> (i * n0) & full
            out[n0 + i] = attach
            for u in iter_bits(attach):
                out[u] |= 1 << (n0 + i)
        links = pattern >> (c * n0)
        for b, (i, j) in enumerate(pair_bits):
            if links >> b & 1:
                out[n0 + i] |= 1 << (n0 + j)
                out[n0 + j] |= 1 << (n0 + i)
        yield _shape(n, out)


def _edge_additions(card: _Shape, c: int) -> Iterator[_Shape]:
    """The card plus c new edges, one edge per round.  A round adds to each
    graph one non-edge per unordered pair of its twin classes, and one edge
    inside each open-twin class of two or more vertices: twins are swapped
    by an automorphism, so every one-edge addition is isomorphic to one of
    these, and by induction every c-edge addition to one of the last
    round's.  A round keeps one graph per labeled set of added edges (edge
    (u, v) is bit u*n + v) and the last round is yielded as it grows, so no
    card gets more than C(N, c) graphs for its N non-edges.  An earlier
    round r can hold up to C(N, r) > C(N, c) graphs when c > N/2; once it
    outgrows C(N, c), the raw additions are yielded instead."""
    n = card.n
    limit = comb(n * (n - 1) // 2 - card.m, c)
    frontier = [(0, card.rows, card.key)]
    for r in range(c):
        seen: set[int] = set()
        grown = []
        for added, rows, key in frontier:
            classes = _twin_classes(n, rows)
            pairs = [(a[0], a[1]) for a in classes if len(a) > 1]
            pairs += [(a[0], b[0]) for j, b in enumerate(classes) for a in classes[:j]]
            for u, v in pairs:
                mask = added | 1 << (u * n + v)
                if rows[u] >> v & 1 or mask in seen:
                    continue
                seen.add(mask)
                out = list(rows)
                out[u] |= 1 << v
                out[v] |= 1 << u
                key_out = key + _DOWN[out[u].bit_count()] + _DOWN[out[v].bit_count()]
                if r == c - 1:
                    yield _Shape(n, out, None, key_out, card.m + c)
                else:
                    grown.append((mask, out, key_out))
                    if len(grown) > limit:
                        yield from _raw_edge_additions(card, c)
                        return
        frontier = grown


def _raw_edge_additions(card: _Shape, c: int) -> Iterator[_Shape]:
    """The card plus each c of its non-edges."""
    n, rows0 = card.n, card.rows
    non_edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if not rows0[u] >> v & 1
    ]
    for added in combinations(non_edges, c):
        rows = list(rows0)
        key = card.key
        for u, v in added:
            key += _DOWN[rows[u].bit_count() + 1] + _DOWN[rows[v].bit_count() + 1]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        yield _Shape(n, rows, None, key, card.m + c)


def _kelly_added_edges(d: Deck, c: int, n: int) -> Optional[int]:
    """Edges an extension of the first card must add for the full c-deck d
    of an order-n graph (Kelly: each edge lies in C(n-2, c) cards).  None
    when the count is not fixed; negative when no graph has this deck."""
    per_edge = comb(n - 2, c)
    if not per_edge:
        return None
    total = sum(card.m for card in d.cards)
    if total % per_edge:
        return -1
    return total // per_edge - d.cards[0].m


def _full_size(t: _DeckTargets, c: int) -> int:
    """Cards in the full c-deck of a graph with t's cards."""
    return comb((t.order if t.kind == "vertex" else t.edges) + c, c)


def _targets(d: Deck, c: int, mode: str) -> Optional[_DeckTargets]:
    """The validated targets of a preimage search of d, or None when the
    cards' shapes are mixed, so that no graph has them."""
    if mode not in ("pure", "sub"):
        raise InputError(f"mode must be pure or sub, got {mode!r}")
    if len(d) == 0:
        raise InputError("preimage search needs a nonempty deck")
    t = _DeckTargets(d, c)
    if t.order is None or (t.kind == "edge" and t.edges is None):
        return None  # mixed card shapes never form or fit a deck
    if mode == "sub" and len(d) > _full_size(t, c):
        raise InputError(
            f"{len(d)} cards cannot be contained in a {_full_size(t, c)}-card deck"
        )
    return t


def _search_preimages(d: Deck, c: int, mode: str) -> Iterator[tuple[bytes, _Shape]]:
    """Each preimage class of d once, as (certificate, shape), lazily: the
    deck is validated and the caps are checked at the first step."""
    t = _targets(d, c, mode)
    if t is not None:
        yield from _search(d, t, c, mode)


def _search(
    d: Deck, t: _DeckTargets, c: int, mode: str
) -> Iterator[tuple[bytes, _Shape]]:
    """_search_preimages on validated targets."""
    n0 = t.order
    base = d.cards[0]
    size = None
    if t.kind == "vertex":
        bits = c * n0 + c * (c - 1) // 2
        if bits > VERTEX_SEARCH_BITS_CAP:
            raise CapacityError(
                f"2^{bits} attachment patterns exceed the 2^{VERTEX_SEARCH_BITS_CAP} cap"
            )
    else:
        added = comb(n0 * (n0 - 1) // 2 - base.m, c)
        if added > EDGE_SEARCH_CANDIDATES_CAP:
            raise CapacityError(
                f"{added} edge-addition candidates exceed "
                f"the {EDGE_SEARCH_CANDIDATES_CAP} cap"
            )
    full_size = _full_size(t, c)
    if mode == "pure":
        if len(d) != full_size:
            return
        if t.kind == "vertex":
            size = _kelly_added_edges(d, c, n0 + c)
            if size is not None and size < 0:
                return
    check_deletion_sets(full_size)  # the matcher walks them per candidate
    seen: set[bytes] = set()
    for s in _extensions(base, t.kind, c, size):
        if _sub_match(s, t):
            cert = certificate_rows(s.n, s.rows)
            if cert not in seen:
                seen.add(cert)
                yield cert, s


def enum_preimages(d: Deck, c: int, mode: str) -> PreimageSet:
    """All preimages of d up to isomorphism (pure: deck equality; sub:
    containment), found by extending the first card every possible way."""
    found = sorted(_search_preimages(d, c, mode), key=lambda item: item[0])
    return PreimageSet(tuple(Graph._from_rows(s.n, s.rows) for _, s in found), mode)


# --- identifying subdecks ----------------------------------------------------


def _covers(v: Sequence[int], a: Sequence[int]) -> bool:
    return all(x >= y for x, y in zip(v, a))


class _Blockers:
    """The graphs that keep subdecks of g's 1-deletion deck d from
    identifying g, found lazily, one walk per card class.

    A subdeck is a count profile a over d's card classes (certificate
    order, multiplicities mu).  Let i be the first class with a_i > 0.
    Every H whose deck contains the subdeck extends card i by one vertex
    (one edge), so the subdeck identifies g iff no extension H of card i
    that is not g has cov_H[j] >= a_j for every j >= i, where cov_H[j] =
    min(mult of class j in H's deck, mu_j).  The deletion that undoes the
    extension gives card i and is counted without a certificate; only an
    H with cov_H = mu on j >= i and g's degree histogram can be g, so only
    such an H is certified.  Class i's walk starts on first use and
    resumes only until a tested profile is blocked or the walk ends; the
    coverages found so far are kept as an antichain, so no class is
    walked twice.
    """

    def __init__(self, g: Graph, d: Deck):
        self.own = certificate_rows(g.n, g.rows)
        self.own_key = _shape(g.n, g.rows).key
        self.kind = d.kind
        self.classes = _DeckTargets(d, 1).classes
        self.walks: dict[int, tuple[Iterator[tuple[int, ...]], list]] = {}

    def _walk(self, t: _DeckTargets) -> Iterator[tuple[int, ...]]:
        """Coverage of each extension of t's first card that is not g."""
        mults = [cls.mult for cls in t.classes]
        card = t.classes[0].card
        n0, base = card.n, card.rows
        for s in _extensions(card, t.kind, 1):
            if t.kind == "vertex":
                skip = n0  # the new vertex
            else:
                u = next(v for v in range(n0) if s.rows[v] != base[v])
                skip = (u, (s.rows[u] ^ base[u]).bit_length() - 1)
            cov = _coverage(s, t, skip)
            if not (
                cov == mults
                and s.key == self.own_key
                and certificate_rows(s.n, s.rows) == self.own
            ):
                yield tuple(cov)

    def identifies(self, profile: Sequence[int]) -> bool:
        i = next(j for j, count in enumerate(profile) if count)
        need = profile[i:]
        if i not in self.walks:
            # class i's targets are classes i, i+1, ...: d is certificate-sorted
            suffix = [cls.card for cls in self.classes[i:] for _ in range(cls.mult)]
            self.walks[i] = (self._walk(_DeckTargets(Deck(self.kind, suffix), 1)), [])
        walk, found = self.walks[i]
        if any(_covers(v, need) for v in found):
            return False
        for cov in walk:  # resumes where the last test stopped
            if any(_covers(v, cov) for v in found):
                continue
            found[:] = [v for v in found if not _covers(cov, v)]
            found.append(cov)
            if _covers(cov, need):
                return False
        return True


def profile_identifies(g: Graph, d: Deck) -> Callable[[Sequence[int]], bool]:
    """For g and its full 1-deletion deck d (vertex or edge kind), a test
    of nonempty count profiles over d's card classes, in certificate
    order: does the subdeck with that many cards of each class identify g
    among graphs of its order (and edge count, for edge decks)?  The tests
    share one lazy walk per card class (see _Blockers)."""
    return _Blockers(g, d).identifies


# --- certifying front end ---------------------------------------------------


class _Deletions:
    """A card's deletions of `size` vertices, one per twin-class profile
    (twins are swapped by an automorphism), indexed by packed degree
    histogram; certificates are computed on a key hit and kept."""

    def __init__(self, card: Graph):
        self.card = card
        self.shape = _shape(card.n, card.rows)
        self.by_size: dict[int, dict[int, list[tuple[int, ...]]]] = {}
        self.certs: dict[tuple[int, ...], bytes] = {}

    def keyed(self, size: int) -> dict[int, list[tuple[int, ...]]]:
        table = self.by_size.get(size)
        if table is None:
            table = self.by_size[size] = {}
            s = self.shape
            for mask in twin_patterns(s.n, s.rows, size):
                drop = tuple(iter_bits(mask))
                table.setdefault(_key_without_vertices(s, drop), []).append(drop)
        return table

    def cert(self, drop: tuple[int, ...]) -> bytes:
        cert = self.certs.get(drop)
        if cert is None:
            s = self.shape
            cert = certificate_rows(s.n - len(drop), delete_vertices_rows(s.rows, drop))
            self.certs[drop] = cert
        return cert


def _agreement(
    a: _Deletions, b: _Deletions, size: int
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The first (X, Y) with |X| = |Y| = size and a - X isomorphic to b - Y."""
    keys_a = a.keyed(size)
    for key, drops_b in b.keyed(size).items():
        drops_a = keys_a.get(key)
        if drops_a is None:
            continue
        certs: dict[bytes, tuple[int, ...]] = {}
        for x in drops_a:
            certs.setdefault(a.cert(x), x)
        for y in drops_b:
            x = certs.get(b.cert(y))
            if x is not None:
                return x, y
    return None


def _glued(
    a: Graph, x: tuple[int, ...], b: Graph, y: tuple[int, ...]
) -> Iterator[Graph]:
    """Card a plus new vertices w_i standing for y_i: each w_i is joined to
    a - x as y_i is to b - y, through an isomorphism b - y -> a - x, and to
    the other w's as y_i is to y.  One graph per choice of edges between
    the w's and x; each has a (delete the w's) and b (delete x) as cards."""
    n, c = a.n, len(y)
    phi = find_isomorphism(delete_vertices(b, y), delete_vertices(a, x))
    keep_a = [v for v in range(n) if v not in x]
    keep_b = [v for v in range(n) if v not in y]
    to_a = {v: keep_a[phi[i]] for i, v in enumerate(keep_b)}
    to_a.update((v, n + i) for i, v in enumerate(y))
    glue = list(a.rows) + [0] * c
    for u, v in b.edges:
        if u in y or v in y:
            glue[to_a[u]] |= 1 << to_a[v]
            glue[to_a[v]] |= 1 << to_a[u]
    pairs = list(product(range(n, n + c), x))
    for choice in range(1 << len(pairs)):
        rows = list(glue)
        for i, (w, v) in enumerate(pairs):
            if choice >> i & 1:
                rows[w] |= 1 << v
                rows[v] |= 1 << w
        yield Graph._from_rows(n + c, rows)


def find_preimage(d: Deck, c: int, mode: str) -> Optional[Graph]:
    """One preimage of d (pure: deck equality; sub: containment), or None
    when no graph has d.

    Sub-mode vertex decks with two or more card classes first pass a
    certifying front end.  Two cards G - S and G - T of one graph share
    G - (S | T), so some equal-size deletions (1..c vertices) of any two
    card classes agree; when a pair has none, the answer is no.  Otherwise
    the first card is glued to each other class's first c-vertex
    agreement, and a glued graph that subdeck_check accepts is returned.
    Only then does the exhaustive search decide, under its caps.
    """
    t = _targets(d, c, mode)
    if t is None:
        return None
    if t.kind == "vertex" and mode == "sub" and len(t.classes) > 1:
        n0 = t.order
        sizes = range(1, min(c, n0) + 1)
        check_deletion_sets(sum(comb(n0, size) for size in sizes))
        views = [_Deletions(cls.card) for cls in t.classes]
        for a, b in combinations(views, 2):
            if not any(_agreement(a, b, size) for size in sizes):
                return None
        # the glued candidates' deck walks, within the deletion-set cap
        glued_walk = (len(views) - 1) * 2 ** (c * c) * comb(n0 + c, c)
        if c <= n0 and glued_walk <= DELETION_SETS_CAP:
            for b in views[1:]:
                # an agreement at size s < c grows to size c, one vertex
                # and its image at a time, so the pair test ensures one
                x, y = _agreement(views[0], b, c)
                for g in _glued(views[0].card, x, b.card, y):
                    if subdeck_check(g, d, c):
                        return g
    found = next(_search(d, t, c, mode), None)
    if found is None:
        return None
    s = found[1]
    return Graph._from_rows(s.n, s.rows)


def legit_vertex(d: Deck, c: int, mode: str) -> bool:
    """LVD_c (pure) / k-LVD_c (sub)."""
    if d.kind != "vertex":
        raise InputError(f"legit_vertex needs a vertex deck, got {d.kind!r}")
    return find_preimage(d, c, mode) is not None


def legit_edge(d: Deck, c: int, mode: str) -> bool:
    """LED_c (pure) / k-LED_c (sub), via c-edge additions to the first card."""
    if d.kind != "edge":
        raise InputError(f"legit_edge needs an edge deck, got {d.kind!r}")
    return find_preimage(d, c, mode) is not None


def two_lvd(g1: Graph, g2: Graph, c: int) -> bool:
    """Two-card legitimacy: some equal-size deletions (1..c vertices each)
    leave isomorphic graphs."""
    if g1.n != g2.n:
        raise InputError(f"orders differ: {g1.n} vs {g2.n}")
    if c < 1:
        raise InputError(f"deletion count must be >= 1, got {c}")
    sizes = range(1, min(c, g1.n) + 1)
    check_deletion_sets(sum(comb(g1.n, size) for size in sizes))
    a, b = _Deletions(g1), _Deletions(g2)
    return any(_agreement(a, b, size) for size in sizes)
