"""Deck checking, subdeck checking, and legitimate-deck decisions.

Legitimacy is decided by exhaustive preimage search seeded from the first
card, which is complete because every preimage contains the first card as
a card.  Deck checks and the search share one matcher, deck containment,
which tests each deletion in three stages: the degree-class prefilter, the
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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import combinations, product
from math import comb
from typing import Callable, Iterator, Optional, Sequence

from .canon import certificate_rows
from .deck import Deck, check_deletion_sets
from .errors import CapacityError, InputError
from .graph import Graph, component_masks, iter_bits, rows_edges

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


# ---------------------------------------------------------------------------
# rows-level helpers (hot paths avoid building Graph objects)


def _delete_vertices_rows(rows: Sequence[int], drop: Sequence[int]) -> list[int]:
    out = list(rows)
    for v in sorted(drop, reverse=True):
        low = (1 << v) - 1
        out = [
            (r & low) | (r >> (v + 1)) << v
            for u, r in enumerate(out)
            if u != v
        ]
    return out


def _delete_edges_rows(rows: Sequence[int], drop: Sequence[tuple[int, int]]) -> list[int]:
    out = list(rows)
    for u, v in drop:
        out[u] &= ~(1 << v)
        out[v] &= ~(1 << u)
    return out


def _component_sizes(n: int, rows: Sequence[int]) -> tuple[int, ...]:
    return tuple(sorted(comp.bit_count() for comp in component_masks(n, rows)))


def _non_edges(n: int, rows: Sequence[int]) -> list[tuple[int, int]]:
    return [
        (u, v) for u in range(n) for v in range(u + 1, n) if not rows[u] >> v & 1
    ]


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
        rows = card.rows
        self.rows = [rows[u] | (attach >> u & 1) << n0 for u in range(n0)] + [attach]
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
    cert: bytes
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
        seen: dict[bytes, int] = {}
        for cert, card in zip(d.certs, d.cards):
            if cert in seen:
                self.classes[seen[cert]].mult += 1
                continue
            seen[cert] = len(self.classes)
            degs = card.degrees()
            self.classes.append(
                _CardClass(
                    cert,
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
        card_rows = _delete_vertices_rows
    else:
        if t.order != n or t.edges != s.m - c or comb(s.m, c) < t.count:
            return False
        cand_degseq = sorted(r.bit_count() for r in s.rows)
        for cls in t.classes:
            if not _edge_delta_feasible(cand_degseq, cls.degseq, c):
                return False
        space = rows_edges(n, s.rows)
        card_rows = _delete_edges_rows
    keyed = _keyer(s, t.kind, c)
    needed = [cls.mult for cls in t.classes]
    total = t.count
    remaining = comb(len(space), c)
    for drop in combinations(space, c):
        remaining -= 1
        hit = t.by_key.get(keyed(drop))
        if hit:
            cert = None
            for idx in hit:
                if not needed[idx]:
                    continue
                if cert is None:
                    sub = card_rows(s.rows, drop)
                    if _component_sizes(len(sub), sub) not in t.comp_whitelist:
                        break
                    cert = certificate_rows(len(sub), sub)
                if cert == t.classes[idx].cert:
                    needed[idx] -= 1
                    total -= 1
                    if not total:
                        return True
                    break
        if remaining < total:
            return False
    return False


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


def _twin_classes(n: int, rows: Sequence[int]) -> list[list[int]]:
    closed: dict[int, list[int]] = {}
    for v in range(n):
        closed.setdefault(rows[v] | 1 << v, []).append(v)
    classes = [vs for vs in closed.values() if len(vs) > 1]
    open_: dict[int, list[int]] = {}
    for vs in closed.values():
        if len(vs) == 1:
            open_.setdefault(rows[vs[0]], []).append(vs[0])
    classes.extend(open_.values())
    classes.sort(key=lambda vs: vs[0])
    return classes


def _twin_patterns(n: int, rows: Sequence[int], size: Optional[int]) -> Iterator[int]:
    """Attachment sets for one new vertex, one per twin-class count profile:
    vertices of a twin class are interchangeable by an automorphism, so
    these cover every isomorphism class.  `size` fixes the set size."""
    prefixes = []  # per twin class: the masks of its first 0, 1, 2, ... vertices
    for twins in _twin_classes(n, rows):
        masks = [0]
        for v in twins:
            masks.append(masks[-1] | 1 << v)
        prefixes.append(masks)
    patterns = map(sum, product(*prefixes))  # classes are disjoint: sum is or
    if size is None:
        return patterns
    return (mask for mask in patterns if mask.bit_count() == size)


def _extensions(
    base: Graph, kind: str, c: int, size: Optional[int] = None
) -> Iterator[_Shape]:
    """Every graph with base as a c-deletion card: c new vertices over each
    attachment pattern (vertex kind; `size` fixes the number of added
    edges) or c new edges (edge kind)."""
    n0, rows0 = base.n, base.rows
    card = _shape(n0, rows0)
    if kind == "edge":
        for added in combinations(_non_edges(n0, rows0), c):
            rows = list(rows0)
            key = card.key
            for u, v in added:
                key += _DOWN[rows[u].bit_count() + 1] + _DOWN[rows[v].bit_count() + 1]
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            yield _Shape(n0, rows, None, key, card.m + c)
        return
    if c == 1:
        for attach in _twin_patterns(n0, rows0, size):
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


def _search_preimages(d: Deck, c: int, mode: str) -> Iterator[tuple[bytes, _Shape]]:
    """Each preimage class of d once, as (certificate, shape), lazily: the
    deck is validated and the caps are checked at the first step."""
    if mode not in ("pure", "sub"):
        raise InputError(f"mode must be pure or sub, got {mode!r}")
    if len(d) == 0:
        raise InputError("preimage search needs a nonempty deck")
    t = _DeckTargets(d, c)
    if t.order is None or (t.kind == "edge" and t.edges is None):
        return  # mixed card shapes never form or fit a deck
    n0 = t.order
    base = d.cards[0]
    size = None
    if t.kind == "vertex":
        bits = c * n0 + c * (c - 1) // 2
        if bits > VERTEX_SEARCH_BITS_CAP:
            raise CapacityError(
                f"2^{bits} attachment patterns exceed the 2^{VERTEX_SEARCH_BITS_CAP} cap"
            )
        full_size = comb(n0 + c, c)
    else:
        added = comb(len(_non_edges(n0, base.rows)), c)
        if added > EDGE_SEARCH_CANDIDATES_CAP:
            raise CapacityError(
                f"{added} edge-addition candidates exceed "
                f"the {EDGE_SEARCH_CANDIDATES_CAP} cap"
            )
        full_size = comb(base.m + c, c)
    if mode == "sub" and len(d) > full_size:
        raise InputError(
            f"{len(d)} cards cannot be contained in a {full_size}-card deck"
        )
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
    return PreimageSet(
        tuple(Graph(s.n, rows_edges(s.n, s.rows)) for _, s in found), mode
    )


def legit_vertex(d: Deck, c: int, mode: str) -> bool:
    """LVD_c (pure) / k-LVD_c (sub)."""
    if d.kind != "vertex":
        raise InputError(f"legit_vertex needs a vertex deck, got {d.kind!r}")
    return next(_search_preimages(d, c, mode), None) is not None


def legit_edge(d: Deck, c: int, mode: str) -> bool:
    """LED_c (pure) / k-LED_c (sub), via c-edge additions to the first card."""
    if d.kind != "edge":
        raise InputError(f"legit_edge needs an edge deck, got {d.kind!r}")
    return next(_search_preimages(d, c, mode), None) is not None


def two_lvd(g1: Graph, g2: Graph, c: int) -> bool:
    """Two-card legitimacy: some equal-size deletions (1..c vertices each)
    leave isomorphic graphs."""
    if g1.n != g2.n:
        raise InputError(f"orders differ: {g1.n} vs {g2.n}")
    if c < 1:
        raise InputError(f"deletion count must be >= 1, got {c}")
    n = g1.n
    sizes = range(1, min(c, n) + 1)
    check_deletion_sets(sum(comb(n, size) for size in sizes))
    for size in sizes:
        seen = {
            certificate_rows(n - size, _delete_vertices_rows(g1.rows, s))
            for s in combinations(range(n), size)
        }
        for s in combinations(range(n), size):
            if (
                certificate_rows(n - size, _delete_vertices_rows(g2.rows, s))
                in seen
            ):
                return True
    return False
