"""Deck checking, subdeck checking, and legitimate-deck decisions.

Legitimacy is decided by exhaustive preimage search seeded from the first
card, which is complete because every preimage contains the first card as
a card.  Sub-mode vertex decks with two or more card classes first pass a
certifying front end (find_preimage), in which each answer comes with
what checks it.  No: two cards G - S and G - T of one graph share
G - (S | T), so any two card classes agree on deletions of equal size
1..c, and then on size min(c, n') (n' the card order): an agreement of
s < n' vertices grows to s + 1 by deleting any further vertex and its
image under the isomorphism.  The pair test (_pair_test, also two_lvd)
walks that one size, C(n', min(c, n')) deletion sets per card, under the
deletion-set cap and never more than the C(n'+c, c) the search needs; a
pair without an agreement refutes the deck.  Yes: the first card, glued
to c new vertices through its c-vertex agreement with each other class,
over the 2^(c*c) choices of edges the two cards cannot see, is a preimage
once subdeck_check accepts it.  The front end is not charged to the search's
budget, so it also answers some decks the search would refuse; what it
leaves open goes to the search.

Deck checks, the search and edge reconstruction numbers share one walk
over a graph's c-deletions (_coverage): per card class of a deck, the
deletions in the class, up to its multiplicity.  Each deletion is tested
in three stages, in order: the degree-class prefilter, the degree
profile, then exact certificates.  Containment is full coverage, and a containment walk
gives up once the deletions left cannot reach it.  A search candidate
carries the deletion that undoes it (`undo`): a vertex candidate's top c
vertices, an edge candidate's c added edges.  It gives the first card, so
it counts as a first-class hit without being keyed: vertex deletions are
walked in lexicographic order and an edge candidate's added edges are
listed last, so it is the walk's last deletion, which is skipped.  Pure
mode (deck equality) is containment of a full-size deck: a multiset of
C(n, c) cards (C(m, c) for edge decks) lies in the deck exactly when it
equals it, so card counts are compared first and only equal sizes are
walked.  A walk takes a key hit through the later stages once per twin
orbit (graph.twin_orbits), every deletion still keyed and charged.

Degree-class prefilter: a graph is kept with its degree histogram packed
into one int, a 6-bit field per degree, so degree d counts 64^d (cards
are below order 64, so a card's counts never carry).  Deleting a vertex
set S turns the key into the card's, with no sort: it loses 64^deg(v)
for each v in S, and each other neighbour w of S, with d_w neighbours of
which j_w lie in S, moves down j_w degrees, so the card's key is
key - sum_{v in S} 64^deg(v) - sum_{w in N(S) - S} (64^d_w - 64^(d_w - j_w)).
Deleting c edges changes it in O(c).
Card rows are built only when a key hits a target card class.  Their
degree profile (per vertex, its degree and the sum of its neighbours'
degrees, sorted) must then be a card class's before a certificate is
computed; the set of the classes' profiles is built on the first hit.

Vertex decks add c vertices to the first card, one per round, over
twin_patterns (twins are swapped by an automorphism).  Each of the first
c - 1 rounds keeps one graph per certificate (graph.extension_classes);
the last is streamed to the walk.  Unlike enumerate_graphs, the rounds
take no canonical-deletion filter: they must reach every graph that has
the first card as a card, and the card is fixed.  A graph in which no
vertex of largest invariant leaves that card has no filtered extension
(K3 + K1 over K3: deleting a triangle vertex leaves K2 + K1).

Pure vertex decks use Kelly's lemma: each edge of a preimage survives in
C(n-2, c) of its cards, so the cards' edge counts fix |E(G)| and the last
round tries only attachment sets that bring |E(card_0)| up to |E(G)|.

Edge decks add c edges to the first card in c rounds.  Twins are swapped
by an automorphism, so a round adds to each graph only one non-edge per
pair of its twin classes (and one edge inside each open-twin class), and
keeps one graph per labeled set of added edges.

The search is charged one unit per graph a middle round builds (a vertex
round's twin patterns, charged before it starts), per last-round
candidate, per deletion a candidate's walk keys and per certificate of a
match, and refused past SEARCH_BUDGET units; its order is fixed, so a
refusal is too.  Deck checks, recon walks and the front end are uncharged.
A unit's cost varies with what it certifies, and is highest on graphs with
large twin classes, so one-card refusals at c = 3 (P7, E20, K10,10) take
seconds.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import accumulate, combinations, islice, product
from math import comb, prod
from operator import gt, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .canon import certificate_rows, find_isomorphism
from .deck import DELETION_SETS_CAP, Deck, _deletion_sets, check_deletion_sets
from .errors import CapacityError, InputError, _check_at_least, _count_text
from .graph import (
    Graph,
    _twin_classes,
    delete_edges_rows,
    delete_vertices,
    delete_vertices_rows,
    extend_rows,
    extension_classes,
    iter_bits,
    rows_edges,
    twin_orbits,
    twin_patterns,
)

SEARCH_BUDGET = 10**5  # units of preimage-search work (see the module docstring)
VERTEX_SEARCH_BITS_CAP = 24  # read only by perfbench/workloads.py, not the search
_FIELD = 6  # bits per degree in a packed histogram: degree r counts 1 << 6r
# key change when a vertex of degree d loses one edge, for d < 64 (edge-kind
# candidates have the cards' order, which is below 64)
_DOWN = tuple((1 << _FIELD * d) - ((1 << _FIELD * d) >> _FIELD) for d in range(64))


class PreimageSet(tuple):
    """Pairwise-nonisomorphic preimages of a deck (pure: deck equality,
    sub: subdeck containment), certificate-sorted: a tuple of them."""

    __slots__ = ()

    @property
    def preimages(self) -> tuple[Graph, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"PreimageSet(preimages={tuple.__repr__(self)})"


def _degree_profile(rows: Sequence[int]) -> tuple[int, ...]:
    """Sorted per-vertex degree << 12 | sum of its neighbours' degrees, an
    isomorphism invariant (below order 64 a sum is at most 63 * 63 < 4096)."""
    deg = [r.bit_count() for r in rows]
    out = []
    for r, d in zip(rows, deg):
        total = 0
        while r:
            low = r & -r
            total += deg[low.bit_length() - 1]
            r ^= low
        out.append(d << 12 | total)
    out.sort()
    return tuple(out)


# ---------------------------------------------------------------------------
# degree-class kernel


class _Shape(NamedTuple):
    """A rows-graph with its packed degree histogram `key` and edge count,
    built by _shape alone.  A search candidate's `undo` is the c vertices
    or c edges whose deletion gives back the first card; the graphs of
    deck checks have none."""

    n: int
    rows: Sequence[int]
    key: int
    m: int
    undo: Optional[tuple]


def _shape(n: int, rows: Sequence[int], undo: Optional[tuple] = None) -> _Shape:
    key = degrees = 0
    for r in rows:
        d = r.bit_count()
        key += 1 << _FIELD * d
        degrees += d
    return _Shape(n, rows, key, degrees // 2, undo)


def _key_without_vertices(s: _Shape, drop: Sequence[int]) -> int:
    """Packed histogram of s minus the vertices in drop: a dropped vertex
    of degree d takes 64^d off the key, and a kept vertex of degree d
    adjacent to j of them moves down j degrees, from 64^d to 64^(d - j)."""
    rows = s.rows
    key = s.key
    gone = touched = 0
    for v in drop:
        gone |= 1 << v
        touched |= rows[v]
        key -= 1 << _FIELD * rows[v].bit_count()
    touched &= ~gone
    while touched:
        low = touched & -touched
        touched ^= low
        row = rows[low.bit_length() - 1]
        moved = 1 << _FIELD * row.bit_count()
        key -= moved - (moved >> _FIELD * (row & gone).bit_count())
    return key


def _keyer(s: _Shape, kind: str) -> Callable[[tuple], int]:
    """drop -> packed histogram of s minus drop (c vertices or c edges)."""
    if kind == "vertex":
        return partial(_key_without_vertices, s)
    # an endpoint losing its (i+1)-th edge moves the key by _DOWN[d] >> 6i
    deg = [r.bit_count() for r in s.rows]

    def keyed(drop: tuple[tuple[int, int], ...]) -> int:
        # the one- and two-edge paths pay on gadget-iff's edge searches
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


def _deletion_hits(card: Graph, by_key: dict[int, list[int]]) -> dict[int, list]:
    """With H_A the card C (of order n) plus a vertex x joined to A: A ->
    [(u, B, classes)] over the card vertices u, in increasing order, for
    which H_A - u keys to a target of by_key (its classes), B = A - {u}.
    Every A is listed, twin pattern or not, and each hit is listed under
    A = B and A = B | {u}, as H_B - u and H_(B | {u}) - u are one labeled
    graph.

    The hits are solved for, not keyed.  Let h_d count the vertices of
    degree d in C - u and beta_d those of them in B.  x has degree b = |B|
    and lifts each vertex of B one degree, so the packed key of H_A - u
    has the fields

        K_d = h_d - beta_d + beta_(d-1) + [d = b]    (d = 0, ..., n - 1).

    Summed over e <= d the beta's telescope, so with P_d the sum over
    e <= d of K_e - h_e, P_d = [d >= b] - beta_d.  Over d < n the beta_d
    add up to b and [d >= b] holds n - b times, so b = (n - b) - sum_d P_d:
    b = (n - sum_d P_d) / 2, and then beta_d = [d >= b] - P_d.  Conversely
    a B with these counts has b vertices, and its field d is h_d + P_d -
    P_(d-1) = K_d, since [d >= b] and [d - 1 >= b] differ exactly at d = b.
    So (b, beta) is unique per (u, K): it fails a range check (b a whole
    number below n, 0 <= beta_d <= h_d), or the hits are the B that take
    beta_d vertices of each degree class, the products of combinations
    inside the classes."""
    n, rows = card.n, card.rows
    deg = [r.bit_count() for r in rows]
    targets = []  # per key: K_0 + ... + K_d for each d, their sum, the classes
    for key, hit in by_key.items():
        cum = list(accumulate(key >> _FIELD * d & 63 for d in range(n)))
        targets.append((cum, sum(cum), hit))
    found: dict[int, list] = {}
    for u in range(n):
        by_degree: list[list[int]] = [[] for _ in range(n)]  # degree in C - u -> bits
        for w in range(n):
            if w != u:
                by_degree[deg[w] - (rows[u] >> w & 1)].append(1 << w)
        sizes = [len(bits) for bits in by_degree]
        have = list(accumulate(sizes))  # P_d = cum[d] - have[d]
        total = n + sum(have)
        for cum, cum_total, hit in targets:
            b, odd = divmod(total - cum_total, 2)
            if odd or not 0 <= b < n:
                continue
            beta = list(map(sub, have, cum))  # -P_d, plus 1 from d = b on
            beta[b:] = [x + 1 for x in beta[b:]]
            if min(beta) < 0 or any(map(gt, beta, sizes)):
                continue
            picks = [
                list(map(sum, combinations(bits, x))) for bits, x in zip(by_degree, beta) if x
            ]
            for a in map(sum, product(*picks)):
                entry = (u, a, hit)
                found.setdefault(a, []).append(entry)
                found.setdefault(a | 1 << u, []).append(entry)
    return found


def _profile_table(n: int, rows: Sequence[int], u: int) -> list[tuple[int, int, int, int]]:
    """Per vertex w != u of the card C - u: (1 << w, w's row without u,
    d_w << 12 | S_w, d_w), with d_w its degree and S_w the sum of its
    neighbours' degrees in C - u.  _hit_profile reads off it the degree
    profile of H_B - u, C - u plus a vertex x joined to B: w has degree
    d_w + [w in B]; each neighbour of w in B gains one degree and x adds
    b = |B| when w is in B, so w's sum is S_w + |N(w) & B| + [w in B] b;
    x has degree b and sum b + (sum over B of d_w)."""
    keep = ~(1 << u)
    deg = [(r & keep).bit_count() for r in rows]
    table = []
    for w in range(n):
        if w != u:
            row = rows[w] & keep
            total = sum(deg[v] for v in iter_bits(row))
            table.append((1 << w, row, deg[w] << 12 | total, deg[w]))
    return table


def _hit_profile(table: list[tuple[int, int, int, int]], mask: int) -> tuple[int, ...]:
    """_degree_profile of C - u plus a vertex x joined to mask, from u's table."""
    b = mask.bit_count()
    lift = 1 << 12 | b  # w in B: one degree more, and x's degree in its sum
    x = b << 12 | b
    out = []
    for bit, row, base, d in table:
        if mask & bit:
            out.append(base + (row & mask).bit_count() + lift)
            x += d
        else:
            out.append(base + (row & mask).bit_count())
    out.append(x)
    out.sort()
    return tuple(out)


# ---------------------------------------------------------------------------
# precomputed view of the deck being matched against


class _DeckTargets:
    """The card classes of d from class `first` on, in certificate order,
    as parallel lists (one card, multiplicity, sorted degree sequence per
    class) with `index` from certificate to position; `order` and `edges`
    are d's uniform card shape.  `start`, a card of class `first`, takes
    the place of its first card as cards[0], the card a walk extends."""

    def __init__(self, d: Deck, c: int, first: int = 0, start: Optional[Graph] = None):
        if d.kind not in ("vertex", "edge"):
            raise InputError(f"deck kind must be vertex or edge, got {d.kind!r}")
        _check_at_least(c, 1, "deletion count")
        self.kind = d.kind
        self.c = c
        self.order = d.uniform_order()  # None when empty or mixed
        self.edges = d.uniform_edges()
        classes = d.classes()[first:]
        self.cards = [cards[0] for _, cards in classes]
        if start is not None:
            self.cards[0] = start
        self.mults = [len(cards) for _, cards in classes]
        self.count = sum(self.mults)
        self.index = {cert: j for j, (cert, _) in enumerate(classes)}
        self.degseqs: list[tuple[int, ...]] = []
        self.by_key: dict[int, list[int]] = {}
        self.need_by_edges: Counter = Counter()
        for j, card in enumerate(self.cards):
            self.degseqs.append(tuple(sorted(card.degrees())))
            self.by_key.setdefault(_shape(card.n, card.rows).key, []).append(j)
            self.need_by_edges[card.m] += self.mults[j]
        self.profiles: Optional[set[tuple[int, ...]]] = None  # see _class_profiles
        self.spent = 0  # deletions the walks keyed, plus a search's other charges


def _edge_delta_feasible(
    cand_degseq: Sequence[int], card_degseq: Sequence[int], c: int
) -> bool:
    """Necessary condition for c edge deletions to turn the candidate
    degree sequence into the card's: per-vertex drops are between 0 and c
    and total 2c, so the sorted sequences are pointwise within [a-c, a].
    The caller has matched the orders and the edge counts."""
    return all(a - c <= b <= a for a, b in zip(cand_degseq, card_degseq))


def _class_profiles(t: _DeckTargets) -> set[tuple[int, ...]]:
    """The degree profiles of t's card classes, built on the first key hit.
    t keeps them in a plain attribute: a cached_property moves all of t's
    attributes into a dict, which made the preimage search about 2% slower."""
    if t.profiles is None:
        t.profiles = {_degree_profile(card.rows) for card in t.cards}
    return t.profiles


def _card_class(t: _DeckTargets, rows: list[int]) -> Optional[int]:
    """The card class of t that a deletion's card rows fall in, or None."""
    # the profile stage spares a certificate on each call it rejects; a
    # component-size stage behind it rejected none, so there is none
    if _degree_profile(rows) in _class_profiles(t):
        return t.index.get(certificate_rows(len(rows), rows))
    return None


def _coverage(s: _Shape, t: _DeckTargets, exhaust: bool) -> list[int]:
    """Per card class of t, the c-deletions of s whose card is in the class,
    capped at its multiplicity, in one pass that stops once every cap is
    reached.  s.undo is counted on the first class and never keyed.  With
    `exhaust` the pass gives up as soon as the deletions left cannot fill
    the caps, which is all that containment needs."""
    c, n, mults = t.c, s.n, t.mults
    cov = [0] * len(mults)
    if t.kind == "vertex":
        if t.order != n - c:
            return cov
        if c == 1:
            # the deleted vertex's degree d is forced by the card edge count;
            # for containment each degree class must be large enough to
            # serve every card class that needs it.  Field d of the key is
            # the class size, save when all of 64 vertices have degree d
            # and it carries into field d + 1
            degrees = set()
            for edges, need in t.need_by_edges.items():
                d = s.m - edges
                if exhaust and (
                    d < 0 or s.key >> _FIELD * d & 63 < need and s.key != n << _FIELD * d
                ):
                    return cov
                degrees.add(d)
            space: Sequence = [v for v in range(n) if s.rows[v].bit_count() in degrees]
        else:
            space = range(n)
        card_rows = delete_vertices_rows
    else:
        if t.order != n or t.edges != s.m - c:
            return cov
        if exhaust:
            cand_degseq = sorted(r.bit_count() for r in s.rows)
            for degseq in t.degseqs:
                if not _edge_delta_feasible(cand_degseq, degseq, c):
                    return cov
        space = rows_edges(n, s.rows)
        if s.undo is not None:
            space = [e for e in space if e not in s.undo] + list(s.undo)
        card_rows = delete_edges_rows
    walked = comb(len(space), c)
    left = t.count  # room under the caps
    if s.undo is not None:
        cov[0] = 1
        left -= 1
        walked -= 1
    misses = walked - left if exhaust else walked  # deletions that may miss
    if not left or misses < 0:
        return cov
    start = left + misses  # each deletion keyed takes one from left or misses
    keyed = _keyer(s, t.kind)
    # the first hit is classified alone (most candidates hit once); from
    # the second on, hits share a memo from twin-orbit key to card class
    first = memo = None
    for drop in islice(combinations(space, c), walked):
        hit = t.by_key.get(keyed(drop))
        if hit and any(cov[j] < mults[j] for j in hit):
            if first is None:
                j = _card_class(t, card_rows(s.rows, drop))
                first = drop, j
            else:
                if memo is None:
                    orbit = twin_orbits(n, s.rows, t.kind)
                    memo = {orbit(first[0]): first[1]}
                key = orbit(drop)
                if key not in memo:
                    memo[key] = _card_class(t, card_rows(s.rows, drop))
                j = memo[key]
            if j is not None and cov[j] < mults[j]:
                cov[j] += 1
                left -= 1
                if not left:
                    break
                continue
        misses -= 1
        if misses < 0:
            break
    t.spent += start - left - misses
    return cov


def _sub_match(s: _Shape, t: _DeckTargets) -> bool:
    """Does the graph's deck contain the target multiset?"""
    return _coverage(s, t, True) == t.mults


# ---------------------------------------------------------------------------
# the eight decision problems


def deck_check(g: Graph, d: Deck, c: int) -> bool:
    """VDC_c / EDC_c: is d exactly the c-deletion deck of g?  It walks
    only a deck that already has all C(n, c) (C(m, c)) cards, so it needs
    no deletion-set cap."""
    t = _DeckTargets(d, c)
    return len(d) == _deletion_sets(g, t.kind, c) and _sub_match(_shape(g.n, g.rows), t)


def subdeck_check(g: Graph, cards: Deck, c: int) -> bool:
    """k-VDC_c / k-EDC_c: are the given cards a sub-multiset of g's deck?"""
    if len(cards) < 1:
        raise InputError("subdeck check requires at least one card")
    t = _DeckTargets(cards, c)
    check_deletion_sets(_deletion_sets(g, t.kind, c))
    return _sub_match(_shape(g.n, g.rows), t)


# --- preimage enumeration ---------------------------------------------------


def _extensions(
    base: Graph, kind: str, c: int, size: Optional[int] = None,
    charge: Callable[[int], None] = lambda units: None,
) -> Iterator[_Shape]:
    """Every graph with base as a c-deletion card, up to isomorphism: c
    vertex rounds, complete since a graph minus its last added vertex has
    base as a (c-1)-deletion card (`size` fixes the added edges), or c
    edge rounds (see _edge_additions)."""
    if kind == "edge":
        yield from _edge_additions(base, c, charge)
        return
    n = base.n
    graphs: Iterable[Sequence[int]] = [base.rows]
    for _ in range(c - 1):
        charge(sum(prod(len(tw) + 1 for tw in _twin_classes(n, rows)) for rows in graphs))
        graphs = extension_classes(n, graphs).values()
        n += 1
    undo = tuple(range(base.n, n + 1))
    for rows in graphs:
        m = sum(map(int.bit_count, rows)) // 2
        left = None if size is None else size - (m - base.m)
        for attach in twin_patterns(n, rows, left):
            yield _shape(n + 1, extend_rows(n, rows, attach), undo)


def _edge_additions(card: Graph, c: int, charge: Callable) -> Iterator[_Shape]:
    """The card plus c new edges, one edge per round.  A round adds to each
    graph one non-edge per unordered pair of its twin classes, and one edge
    inside each open-twin class of two or more vertices: twins are swapped
    by an automorphism, so every one-edge addition is isomorphic to one of
    these, and by induction every c-edge addition to one of the last
    round's.  A round keeps one graph per labeled set of added edges (edge
    (u, v) is bit u*n + v), each charged, and the last round is yielded as
    it grows."""
    n = card.n
    frontier = [(0, card.rows)]
    for r in range(c):
        seen: set[int] = set()
        grown = []
        for added, rows in frontier:
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
                if r == c - 1:
                    yield _shape(n, out, tuple(divmod(bit, n) for bit in iter_bits(mask)))
                else:
                    charge(1)
                    grown.append((mask, out))
        frontier = grown


def _kelly_added_edges(t: _DeckTargets) -> Optional[int]:
    """Edges an extension of the first card must add for t's cards to be
    the full c-vertex-deck of a graph (Kelly: each of its edges lies in
    C(n-2, c) cards).  None when the count is not fixed; negative when no
    graph has this deck."""
    per_edge = comb(max(t.order + t.c - 2, 0), t.c)  # 0 when n < 2: no edge to count
    if not per_edge:
        return None
    total = sum(edges * count for edges, count in t.need_by_edges.items())
    if total % per_edge:
        return -1
    return total // per_edge - t.cards[0].m


def _full_size(t: _DeckTargets) -> int:
    """Cards in the full c-deck of a graph with t's cards."""
    return comb((t.order if t.kind == "vertex" else t.edges) + t.c, t.c)


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
    if mode == "sub" and len(d) > _full_size(t):
        raise InputError(
            f"{len(d)} cards cannot be contained in a {_full_size(t)}-card deck"
        )
    return t


def _search_preimages(d: Deck, c: int, mode: str) -> Iterator[tuple[bytes, _Shape]]:
    """Each preimage class of d once, as (certificate, shape), lazily: the
    deck is validated and the deletion-set cap is checked at the first step;
    the budget is charged as the search runs."""
    t = _targets(d, c, mode)
    if t is not None:
        yield from _search(t, mode)


def _search(t: _DeckTargets, mode: str) -> Iterator[tuple[bytes, _Shape]]:
    """_search_preimages on validated targets."""
    size = None
    full_size = _full_size(t)
    if mode == "pure":
        if t.count != full_size:
            return
        if t.kind == "vertex":
            size = _kelly_added_edges(t)
            if size is not None and size < 0:
                return
    check_deletion_sets(full_size)  # the walk visits them per candidate

    def charge(units: int) -> None:
        t.spent += units
        if t.spent > SEARCH_BUDGET:
            raise CapacityError(
                f"preimage search work passed its budget of {SEARCH_BUDGET} units "
                f"(at {_count_text(t.spent)})"
            )

    seen: set[bytes] = set()
    for s in _extensions(t.cards[0], t.kind, t.c, size, charge):
        matched = _sub_match(s, t)  # adds the deletions its walk keyed
        charge(1 + matched)  # the candidate, and the certificate of a match
        if matched:
            cert = certificate_rows(s.n, s.rows)
            if cert not in seen:
                seen.add(cert)
                yield cert, s


def enum_preimages(d: Deck, c: int, mode: str) -> PreimageSet:
    """All preimages of d up to isomorphism (pure: deck equality; sub:
    containment), found by extending the first card every possible way."""
    found = sorted(_search_preimages(d, c, mode), key=lambda item: item[0])
    return PreimageSet(Graph._from_rows(s.n, s.rows) for _, s in found)


# --- certifying front end ---------------------------------------------------


def _deletion_table(card: Graph, size: int) -> dict[int, list[tuple[int, ...]]]:
    """The card's deletions of `size` vertices, one per twin-class profile
    (twins are swapped by an automorphism), by packed degree histogram."""
    s = _shape(card.n, card.rows)
    table: dict[int, list[tuple[int, ...]]] = {}
    for mask in twin_patterns(s.n, s.rows, size):
        drop = tuple(iter_bits(mask))
        table.setdefault(_key_without_vertices(s, drop), []).append(drop)
    return table


def _agreement(a: Graph, table_a: dict, b: Graph, table_b: dict) -> Optional[tuple]:
    """The first (X, Y) of the two tables with a - X isomorphic to b - Y;
    certificates are computed on a key hit."""

    def cert(g: Graph, drop: tuple[int, ...]) -> bytes:
        return certificate_rows(g.n - len(drop), delete_vertices_rows(g.rows, drop))

    for key, drops_b in table_b.items():
        drops_a = table_a.get(key)
        if drops_a is None:
            continue
        certs: dict[bytes, tuple[int, ...]] = {}
        for x in drops_a:
            certs.setdefault(cert(a, x), x)
        for y in drops_b:
            x = certs.get(cert(b, y))
            if x is not None:
                return x, y
    return None


def _pair_test(cards: Sequence[Graph], c: int) -> Optional[list[tuple]]:
    """For same-order cards of which every two have isomorphic deletions
    of min(c, n') vertices each, card 0's first such agreement (X, Y) with
    each other card; else None."""
    n = cards[0].n
    if not n:
        return None  # an order-0 card has no deletion of 1..c vertices
    size = min(c, n)
    check_deletion_sets(comb(n, size))
    tables = [_deletion_table(card, size) for card in cards]
    found = []
    for i, j in combinations(range(len(cards)), 2):
        xy = _agreement(cards[i], tables[i], cards[j], tables[j])
        if xy is None:
            return None
        if not i:
            found.append(xy)
    return found


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
    when no graph has d.  Sub-mode vertex decks with two or more card
    classes first pass the certifying front end (see the module
    docstring); only then does the exhaustive search decide, under its
    budget."""
    t = _targets(d, c, mode)
    if t is None:
        return None
    if t.kind == "vertex" and mode == "sub" and len(t.cards) > 1:
        n0 = t.order
        agreements = _pair_test(t.cards, c)
        if agreements is None:
            return None
        # the glued candidates' deck walks, (classes - 1) 2^(c*c) C(n0+c, c),
        # within the deletion-set cap; counted only once c <= n0 holds, so
        # that the agreements have c vertices and a huge c costs nothing
        if c <= n0 and len(agreements) * comb(n0 + c, c) << c * c <= DELETION_SETS_CAP:
            for b, (x, y) in zip(t.cards[1:], agreements):
                for g in _glued(t.cards[0], x, b, y):
                    if subdeck_check(g, d, c):
                        return g
    found = next(_search(t, mode), None)
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
    """Two-card legitimacy: some deletions of min(c, n) vertices each leave
    isomorphic graphs, found over C(n, min(c, n)) deletion sets per card."""
    if g1.n != g2.n:
        raise InputError(f"orders differ: {g1.n} vs {g2.n}")
    _check_at_least(c, 1, "deletion count")
    return _pair_test([g1, g2], c) is not None
