"""Exact graph-isomorphism decisions via canonical certificates.

certificate(g) is a relabeling-invariant encoding with the defining
property certificate(g) == certificate(h) iff g and h are isomorphic.
Concretely it is the graph6 line of a canonical representative, found by
individualization-refinement search with pruning by discovered
automorphisms, assembled component by component. Components go through
the same memo as whole graphs, so a labeled component that recurs across
cards, candidates or deletions is searched once. A leaf whose code
equals the first or the best leaf's code gives an automorphism, and the
search jumps back to where the two leaves' paths part instead of
walking the equivalent subtree: stars, complete bipartite graphs and
the line and rook graphs the tests pin take at most n leaves in every
labeling tried.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import CapacityError
from .graph import Graph, component_masks, graph6_decode, graph6_encode_rows
from .graph import iter_bits, relabel_rows

CERTIFICATE_ORDER_CAP = 64  # orders >= 64 are refused

_CACHE_LIMIT = 400_000
# (n, packed rows) -> (certificate, canonical labeling old -> new as bytes)
_CERT_CACHE: dict[tuple[int, int], tuple[bytes, bytes]] = {}


def clear_certificate_cache() -> None:
    _CERT_CACHE.clear()


# ---------------------------------------------------------------------------
# equitable refinement


def _refine(n: int, rows: Sequence[int], cells: list[list[int]]) -> list[list[int]]:
    """Refine an ordered partition to the coarsest stable one.

    Cell order is driven purely by (color, neighbor-color profile)
    signatures, so it is invariant under vertex relabeling.
    """
    while True:
        color = [0] * n
        for i, cell in enumerate(cells):
            for v in cell:
                color[v] = i
        groups: dict[tuple, list[int]] = {}
        for v in range(n):
            counts: dict[int, int] = {}
            nb = rows[v]
            while nb:
                low = nb & -nb
                c = color[low.bit_length() - 1]
                counts[c] = counts.get(c, 0) + 1
                nb ^= low
            sig = (color[v], tuple(sorted(counts.items())))
            groups.setdefault(sig, []).append(v)
        new_cells = [groups[key] for key in sorted(groups)]
        if len(new_cells) == len(cells):
            return new_cells
        cells = new_cells


# ---------------------------------------------------------------------------
# canonical labeling of one connected piece (works for any graph, but the
# public entry points decompose into components first)


class _Search:
    """Minimum-code canonical labeling by individualization-refinement.

    Each leaf's code is compared with the first leaf's and with the best
    leaf's. An equal code gives an automorphism that maps this leaf's
    path (the individualized vertices) onto the other leaf's path. It
    fixes their common prefix of length k pointwise and sends this path's
    level-k vertex to the other path's, whose subtree was explored
    earlier, so the rest of the current level-k subtree holds only codes
    already seen: the search jumps back to depth k and goes on with the
    next sibling there (McKay 1981). At each tree node, siblings in the
    same orbit under the discovered automorphisms that fix the
    individualized prefix pointwise are skipped.
    """

    def __init__(self, n: int, rows: Sequence[int]):
        self.n = n
        self.rows = rows
        self.first: Optional[tuple] = None  # (code, inverse labeling, path)
        self.best: Optional[tuple] = None
        self.best_lab: Optional[list[int]] = None
        self.gens: list[tuple[int, ...]] = []

    def run(self) -> tuple[int, ...]:
        n = self.n
        if n <= 1:
            return tuple(range(n))
        edge_count = sum(r.bit_count() for r in self.rows) // 2
        if edge_count == 0 or edge_count == n * (n - 1) // 2:
            return tuple(range(n))
        self._descend(_refine(n, self.rows, [list(range(n))]), ())
        assert self.best_lab is not None
        return tuple(self.best_lab)

    def _descend(self, cells: list[list[int]], prefix: tuple[int, ...]) -> int:
        """Search below the node `prefix`; return the depth to resume at."""
        depth = len(prefix)
        target = None
        for i, cell in enumerate(cells):
            if len(cell) > 1:
                target = i
                break
        if target is None:
            return self._leaf(cells, prefix)
        cell = cells[target]
        explored: list[int] = []
        find = None
        gens_seen = -1
        for v in cell:
            if explored:
                if len(self.gens) != gens_seen:
                    find = self._orbit_find(prefix)
                    gens_seen = len(self.gens)
                if find is not None and any(find(v) == find(u) for u in explored):
                    continue
            child = (
                cells[:target]
                + [[v], [u for u in cell if u != v]]
                + cells[target + 1:]
            )
            resume = self._descend(_refine(self.n, self.rows, child), prefix + (v,))
            if resume < depth:
                return resume
            explored.append(v)
        return depth - 1

    def _leaf(self, cells: list[list[int]], path: tuple[int, ...]) -> int:
        n = self.n
        lab = [0] * n
        for i, cell in enumerate(cells):
            lab[cell[0]] = i
        code = relabel_rows(n, self.rows, lab)
        for other in (self.first, self.best):
            if other is not None and code == other[0]:
                _, inv, other_path = other
                perm = tuple(inv[lab[v]] for v in range(n))
                if perm not in self.gens:
                    self.gens.append(perm)
                # perm fixes path[:k] and maps path[k] onto other_path[k]
                k = 0
                while path[k] == other_path[k]:
                    k += 1
                return k
        if self.best is None or code < self.best[0]:
            inv = [0] * n
            for v in range(n):
                inv[lab[v]] = v
            self.best = (code, inv, path)
            self.best_lab = lab
            if self.first is None:
                self.first = self.best
        return len(path) - 1

    def _orbit_find(self, prefix: tuple[int, ...]):
        fixing = [
            g for g in self.gens if all(g[x] == x for x in prefix)
        ]
        if not fixing:
            return None
        parent = list(range(self.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for g in fixing:
            for v in range(self.n):
                a, b = find(v), find(g[v])
                if a != b:
                    parent[a] = b
        return find


# ---------------------------------------------------------------------------
# component assembly


def _induced_rows(rows: Sequence[int], verts: list[int]) -> list[int]:
    index = {v: i for i, v in enumerate(verts)}
    out = []
    for v in verts:
        acc = 0
        nb = rows[v]
        while nb:
            low = nb & -nb
            u = low.bit_length() - 1
            nb ^= low
            if u in index:
                acc |= 1 << index[u]
        out.append(acc)
    return out


def _labeling_rows(n: int, rows: Sequence[int]) -> tuple[int, ...]:
    """Canonical labeling (old -> new) of an arbitrary rows-graph.

    A connected graph is searched directly. Otherwise each component is
    canonicalized through the memo (a labeled component that recurs
    across graphs is searched once), and the pieces are laid out in order
    of (component order, component certificate), which makes the
    assembled labeled graph an isomorphism invariant of the whole graph.
    """
    comps = component_masks(n, rows)
    if len(comps) == 1:
        return _Search(n, rows).run()
    pieces = []
    for comp in comps:
        verts = list(iter_bits(comp))
        key, local = _canon_entry(len(verts), _induced_rows(rows, verts))
        pieces.append((len(verts), key, verts, local))
    pieces.sort(key=lambda p: (p[0], p[1]))
    lab = [0] * n
    offset = 0
    for nc, _key, verts, local in pieces:
        for i, v in enumerate(verts):
            lab[v] = offset + local[i]
        offset += nc
    return tuple(lab)


def check_certificate_order(order: int, what: str = "order") -> None:
    """Refuse an order certificates cannot reach.  Builders of large graphs
    call it on the order they would build, before building anything."""
    if order >= CERTIFICATE_ORDER_CAP:
        raise CapacityError(
            f"certificates are capped below order {CERTIFICATE_ORDER_CAP}, "
            f"got {what} {order}"
        )


def _canon_entry(n: int, rows: Sequence[int]) -> tuple[bytes, bytes]:
    """(certificate, canonical labeling) of a rows-graph, memoized."""
    check_certificate_order(n)
    mask = 0
    for v in range(n):
        mask = mask << n | rows[v]
    key = (n, mask)
    cached = _CERT_CACHE.get(key)
    if cached is not None:
        return cached
    lab = _labeling_rows(n, rows)
    cert = graph6_encode_rows(n, relabel_rows(n, rows, lab)).encode("ascii")
    entry = (cert, bytes(lab))
    if len(_CERT_CACHE) >= _CACHE_LIMIT:
        _CERT_CACHE.clear()
    _CERT_CACHE[key] = entry
    return entry


# ---------------------------------------------------------------------------
# public API


def certificate_rows(n: int, rows: Sequence[int]) -> bytes:
    """Certificate of the labeled graph given as adjacency bitmask rows."""
    return _canon_entry(n, rows)[0]


def certificate(g: Graph) -> bytes:
    return certificate_rows(g.n, g.rows)


def canonical_labeling(g: Graph) -> tuple[int, ...]:
    """Vertex map old -> new onto the canonical representative."""
    return tuple(_canon_entry(g.n, g.rows)[1])


def canonical_form(g: Graph) -> Graph:
    """The canonical representative itself (decode of the certificate)."""
    return graph6_decode(certificate(g).decode("ascii"))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    if len(component_masks(g.n, g.rows)) != len(component_masks(h.n, h.rows)):
        return False
    return certificate(g) == certificate(h)


def find_isomorphism(g: Graph, h: Graph) -> Optional[tuple[int, ...]]:
    """An explicit edge-preserving bijection V(g) -> V(h), or None."""
    if not are_isomorphic(g, h):
        return None
    lab_g = _canon_entry(g.n, g.rows)[1]
    lab_h = _canon_entry(h.n, h.rows)[1]
    inv_h = [0] * h.n
    for v in range(h.n):
        inv_h[lab_h[v]] = v
    return tuple(inv_h[lab_g[v]] for v in range(g.n))
