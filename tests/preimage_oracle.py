"""The preimage search as it stood before the degree-class prefilter,
kept unchanged as a slow differential oracle for `reconkit.deciders`.

Every deletion rebuilds and sorts the remaining degree sequence; the
library replaced that with packed degree histograms updated by popcounts.
Answers (yes/no, preimage certificate lists) must agree exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterator, Sequence

from reconkit.canon import certificate, certificate_rows
from reconkit.deck import Deck, build_deck, subdeck_contained
from reconkit.errors import CapacityError, InputError
from reconkit.graph import Graph, component_masks, iter_bits, rows_edges

VERTEX_SEARCH_BITS_CAP = 24
EDGE_SEARCH_CANDIDATES_CAP = 10**6


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


def _degseq_without_vertices(
    n: int, rows: Sequence[int], degs: Sequence[int], drop_mask: int
) -> tuple[int, ...]:
    return tuple(
        sorted(
            degs[u] - (rows[u] & drop_mask).bit_count()
            for u in range(n)
            if not drop_mask >> u & 1
        )
    )


def _component_sizes(n: int, rows: Sequence[int]) -> tuple[int, ...]:
    return tuple(sorted(comp.bit_count() for comp in component_masks(n, rows)))


def _non_edges(n: int, rows: Sequence[int]) -> list[tuple[int, int]]:
    return [
        (u, v) for u in range(n) for v in range(u + 1, n) if not rows[u] >> v & 1
    ]


# ---------------------------------------------------------------------------
# precomputed view of the deck being matched against


@dataclass
class _CardClass:
    cert: bytes
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
        self.degseqs = [tuple(sorted(card.degrees())) for card in d.cards]
        self.degseq_counter = Counter(self.degseqs)
        self.cert_counter = Counter(d.certs)
        self.classes: list[_CardClass] = []
        seen: dict[bytes, int] = {}
        for cert, card, degseq in zip(d.certs, d.cards, self.degseqs):
            if cert in seen:
                self.classes[seen[cert]].mult += 1
            else:
                seen[cert] = len(self.classes)
                self.classes.append(
                    _CardClass(
                        cert,
                        degseq,
                        card.m,
                        _component_sizes(card.n, card.rows),
                        1,
                    )
                )
        self.by_degseq: dict[tuple[int, ...], list[int]] = {}
        for idx, cls in enumerate(self.classes):
            self.by_degseq.setdefault(cls.degseq, []).append(idx)


def _pure_match(n: int, rows: Sequence[int], t: _DeckTargets) -> bool:
    """Does the rows-graph have exactly the target deck?  Cardinality and
    card-shape uniformity are rejected before any certificate work."""
    m = sum(r.bit_count() for r in rows) // 2
    if t.kind == "vertex":
        if t.order != n - t.c or t.count != comb(n, t.c):
            return False
    else:
        if t.order != n or t.edges != m - t.c or t.count != comb(m, t.c):
            return False
    degs = [r.bit_count() for r in rows]
    if t.kind == "vertex":
        drops = [sum(1 << v for v in s) for s in combinations(range(n), t.c)]
        work = Counter(t.degseq_counter)
        for drop in drops:
            ds = _degseq_without_vertices(n, rows, degs, drop)
            if work.get(ds, 0) == 0:
                return False
            work[ds] -= 1
        work = Counter(t.cert_counter)
        for drop in drops:
            sub = _delete_vertices_rows(rows, list(iter_bits(drop)))
            cert = certificate_rows(n - t.c, sub)
            if work.get(cert, 0) == 0:
                return False
            work[cert] -= 1
        return True
    edges = rows_edges(n, rows)
    work = Counter(t.degseq_counter)
    for drop in combinations(edges, t.c):
        ds = list(degs)
        for u, v in drop:
            ds[u] -= 1
            ds[v] -= 1
        key = tuple(sorted(ds))
        if work.get(key, 0) == 0:
            return False
        work[key] -= 1
    work = Counter(t.cert_counter)
    for drop in combinations(edges, t.c):
        cert = certificate_rows(n, _delete_edges_rows(rows, drop))
        if work.get(cert, 0) == 0:
            return False
        work[cert] -= 1
    return True


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


def _sub_match(n: int, rows: Sequence[int], t: _DeckTargets) -> bool:
    """Does the rows-graph's deck contain the target multiset?

    One pass over the deletion sets, counting hits per card class with
    early success and early exhaustion; certificates are computed only for
    deletions that already match a class degree sequence and component
    size profile.
    """
    c = t.c
    m = sum(r.bit_count() for r in rows) // 2
    degs = [r.bit_count() for r in rows]
    if t.kind == "vertex":
        if t.order != n - c or comb(n, c) < t.count:
            return False
    else:
        if t.order != n or t.edges != m - c or comb(m, c) < t.count:
            return False
        cand_degseq = sorted(degs)
        for cls in t.classes:
            if not _edge_delta_feasible(cand_degseq, cls.degseq, c):
                return False
    needed = [cls.mult for cls in t.classes]
    total = sum(needed)

    def try_hit(hit: list[int], sub_rows) -> int:
        # sub_rows is called lazily; returns the new outstanding total
        nonlocal total
        built: list[int] | None = None
        cert = None
        for idx in hit:
            if not needed[idx]:
                continue
            cls = t.classes[idx]
            if built is None:
                built = sub_rows()
                if _component_sizes(len(built), built) not in comp_whitelist:
                    return total
                cert = certificate_rows(len(built), built)
            if cert == cls.cert:
                needed[idx] -= 1
                total -= 1
                break
        return total

    comp_whitelist = {cls.comps for cls in t.classes}
    if t.kind == "vertex":
        if c == 1:
            # deg of the deleted vertex is forced by the card edge count,
            # so each degree value must occur often enough to serve every
            # class that needs it
            deg_count = Counter(degs)
            required: Counter = Counter()
            for cls in t.classes:
                required[m - cls.edges] += cls.mult
            if any(deg_count[d] < need for d, need in required.items()):
                return False
            deletions = [v for v in range(n) if degs[v] in required]
        else:
            deletions = list(combinations(range(n), c))
        remaining = len(deletions)
        for drop in deletions:
            remaining -= 1
            if c == 1:
                drop_mask = 1 << drop
                sub = (drop,)
            else:
                drop_mask = sum(1 << v for v in drop)
                sub = drop
            ds = _degseq_without_vertices(n, rows, degs, drop_mask)
            hit = t.by_degseq.get(ds)
            if hit and not try_hit(
                hit, lambda: _delete_vertices_rows(rows, sub)
            ):
                return True
            if remaining < total:
                return False
        return False
    edges = rows_edges(n, rows)
    remaining = comb(len(edges), c)
    for drop in combinations(edges, c):
        remaining -= 1
        ds = list(degs)
        for u, v in drop:
            ds[u] -= 1
            ds[v] -= 1
        hit = t.by_degseq.get(tuple(sorted(ds)))
        if hit and not try_hit(hit, lambda: _delete_edges_rows(rows, drop)):
            return True
        if remaining < total:
            return False
    return False


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


def _iter_vertex_extensions(
    n: int, rows: Sequence[int], c: int
) -> Iterator[list[int]]:
    """All ways of adding c vertices to the rows-graph, as candidate rows.

    For c = 1 the attachment sets are enumerated per twin-class counts:
    vertices of a twin class are interchangeable by an automorphism, so one
    representative per count profile covers every isomorphism class.
    """
    if c == 1:
        classes = _twin_classes(n, rows)

        def rec(i: int, mask: int) -> Iterator[int]:
            if i == len(classes):
                yield mask
                return
            yield from rec(i + 1, mask)
            picked = 0
            for v in classes[i]:
                picked |= 1 << v
                yield from rec(i + 1, mask | picked)

        for mask in rec(0, 0):
            yield [
                rows[u] | (mask >> u & 1) << n for u in range(n)
            ] + [mask]
        return
    full = (1 << n) - 1
    pair_bits = [(i, j) for i in range(c) for j in range(i + 1, c)]
    for pattern in range(1 << (c * n + len(pair_bits))):
        out = list(rows) + [0] * c
        for i in range(c):
            attach = pattern >> (i * n) & full
            out[n + i] = attach
            for u in iter_bits(attach):
                out[u] |= 1 << (n + i)
        links = pattern >> (c * n)
        for b, (i, j) in enumerate(pair_bits):
            if links >> b & 1:
                out[n + i] |= 1 << (n + j)
                out[n + j] |= 1 << (n + i)
        yield out


def _iter_edge_additions(
    base_rows: Sequence[int],
    non_edges: Sequence[tuple[int, int]],
    c: int,
) -> Iterator[list[int]]:
    for added in combinations(non_edges, c):
        rows = list(base_rows)
        for u, v in added:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        yield rows


def _search_preimages(
    d: Deck, c: int, mode: str, first_only: bool
) -> list[Graph]:
    if mode not in ("pure", "sub"):
        raise InputError(f"mode must be pure or sub, got {mode!r}")
    if len(d) == 0:
        raise InputError("preimage search needs a nonempty deck")
    t = _DeckTargets(d, c)
    if t.order is None or (t.kind == "edge" and t.edges is None):
        return []  # mixed card shapes never form or fit a deck
    n0 = t.order
    if t.kind == "vertex":
        bits = c * n0 + c * (c - 1) // 2
        if bits > VERTEX_SEARCH_BITS_CAP:
            raise CapacityError(
                f"2^{bits} attachment patterns exceed the 2^{VERTEX_SEARCH_BITS_CAP} cap"
            )
        n = n0 + c
        full_size = comb(n, c)
        if mode == "sub" and len(d) > full_size:
            raise InputError(
                f"{len(d)} cards cannot be contained in a {full_size}-card deck"
            )
        if mode == "pure" and len(d) != full_size:
            return []
        candidates = _iter_vertex_extensions(n0, d.cards[0].rows, c)
    else:
        base = d.cards[0]
        non_edges = _non_edges(n0, base.rows)
        if comb(len(non_edges), c) > EDGE_SEARCH_CANDIDATES_CAP:
            raise CapacityError(
                f"{comb(len(non_edges), c)} edge-addition candidates exceed "
                f"the {EDGE_SEARCH_CANDIDATES_CAP} cap"
            )
        n = n0
        full_size = comb(base.m + c, c)
        if mode == "sub" and len(d) > full_size:
            raise InputError(
                f"{len(d)} cards cannot be contained in a {full_size}-card deck"
            )
        if mode == "pure" and len(d) != full_size:
            return []
        candidates = _iter_edge_additions(base.rows, non_edges, c)
    match = _pure_match if mode == "pure" else _sub_match
    found: dict[bytes, Graph] = {}
    for rows in candidates:
        if match(n, rows, t):
            cert = certificate_rows(n, rows)
            if cert not in found:
                found[cert] = Graph(n, rows_edges(n, rows))
                if first_only:
                    break
    return [found[cert] for cert in sorted(found)]



def enum_preimages(d: Deck, c: int, mode: str) -> list[bytes]:
    """Certificates of all preimages, sorted."""
    return [certificate(g) for g in _search_preimages(d, c, mode, False)]


def legit(d: Deck, c: int, mode: str) -> bool:
    return bool(_search_preimages(d, c, mode, True))


def deck_check(g: Graph, d: Deck, c: int) -> bool:
    return _pure_match(g.n, g.rows, _DeckTargets(d, c))


def subdeck_check(g: Graph, cards: Deck, c: int) -> bool:
    return _sub_match(g.n, g.rows, _DeckTargets(cards, c))


def identifies(g: Graph, s: Deck, kind: str) -> bool:
    """recon.identifies before the prefilter (subdeck validity assumed)."""
    assert subdeck_contained(s, build_deck(g, kind, 1))
    base = s.cards[0]
    targets = _DeckTargets(s, 1)
    own = certificate(g)
    if kind == "vertex":
        n = base.n + 1
        candidates = _iter_vertex_extensions(base.n, base.rows, 1)
    else:
        n = base.n
        candidates = _iter_edge_additions(base.rows, _non_edges(n, base.rows), 1)
    for rows in candidates:
        if _sub_match(n, rows, targets) and certificate_rows(n, rows) != own:
            return False
    return True
