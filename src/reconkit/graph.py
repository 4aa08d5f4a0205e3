"""Simple undirected graphs on vertices 0..n-1.

A graph is immutable and stored as its order and adjacency bitmask rows,
which is what every hot loop in the toolkit works on; `edges` is derived
from the rows.  Only Graph(n, edges) and graph6_decode validate their
input: every derived graph is built from rows by Graph._from_rows.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Optional, Sequence

from .errors import CapacityError, Graph6ParseError, InputError

ENUMERATION_CAP = 7  # 1,044 classes; 8 has 12,346 (A000088), past desk scale


class Graph:
    """Immutable simple graph: no self-loops, no duplicate edges."""

    __slots__ = ("n", "rows", "m")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InputError(f"vertex count must be >= 0, got {n}")
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for order {n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self._set_rows(n, rows)

    @classmethod
    def _from_rows(cls, n: int, rows: Sequence[int]) -> Graph:
        """The graph with these adjacency rows, trusted as given: symmetric,
        loop-free and within range."""
        g = object.__new__(cls)
        g._set_rows(n, rows)
        return g

    def _set_rows(self, n: int, rows: Sequence[int]) -> None:
        rows = tuple(rows)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "m", sum(map(int.bit_count, rows)) >> 1)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges (u, v), u < v, in lexicographic order."""
        return tuple(rows_edges(self.n, self.rows))

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self.rows)

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise InputError(f"vertex pair ({u},{v}) out of range")
        return bool(self.rows[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(iter_bits(self.rows[v]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges)})"


# ---------------------------------------------------------------------------
# rows kernel: rows[v] is the adjacency bitmask of vertex v, the format
# every decider works on without building Graph objects


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def component_masks(n: int, rows: Sequence[int]) -> list[int]:
    """Vertex bitmask of each connected component, by smallest vertex."""
    seen = 0
    out = []
    for start in range(n):
        if seen >> start & 1:
            continue
        comp = frontier = 1 << start
        while frontier:
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= rows[v]
            frontier = nxt & ~comp
            comp |= nxt
        seen |= comp
        out.append(comp)
    return out


def rows_edges(n: int, rows: Sequence[int]) -> list[tuple[int, int]]:
    """Edges (u, v), u < v, in lexicographic order."""
    out = []
    for u in range(n):
        nb = rows[u] >> (u + 1)
        v = u + 1
        while nb:
            if nb & 1:
                out.append((u, v))
            nb >>= 1
            v += 1
    return out


def extend_rows(n: int, rows: Sequence[int], attach: int) -> list[int]:
    """Rows of the graph plus one new vertex n adjacent to the vertices in
    the bitmask attach."""
    return [rows[u] | (attach >> u & 1) << n for u in range(n)] + [attach]


def delete_vertices_rows(rows: Sequence[int], drop: Iterable[int]) -> list[int]:
    """Rows without the vertices in drop; the rest keep their order."""
    out = list(rows)
    for v in sorted(drop, reverse=True):
        low = (1 << v) - 1
        out = [r & low | r >> v + 1 << v for u, r in enumerate(out) if u != v]
    return out


def delete_edges_rows(rows: Sequence[int], drop: Iterable[tuple[int, int]]) -> list[int]:
    out = list(rows)
    for u, v in drop:
        out[u] &= ~(1 << v)
        out[v] &= ~(1 << u)
    return out


def relabel_rows(n: int, rows: Sequence[int], lab: Sequence[int]) -> tuple[int, ...]:
    """Rows of the graph with vertex v renamed lab[v]."""
    new_rows = [0] * n
    for v in range(n):
        acc = 0
        nb = rows[v]
        while nb:
            low = nb & -nb
            acc |= 1 << lab[low.bit_length() - 1]
            nb ^= low
        new_rows[lab[v]] = acc
    return tuple(new_rows)


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


def twin_patterns(n: int, rows: Sequence[int], size: Optional[int]) -> Iterator[int]:
    """Attachment sets for one new vertex, one per twin-class count profile:
    vertices of a twin class are interchangeable by an automorphism, so
    these cover every isomorphism class.  `size` fixes the set size."""
    prefixes = []  # per twin class: the masks of its first 0, 1, 2, ... vertices
    for twins in _twin_classes(n, rows):
        masks = [0]
        for v in twins:
            masks.append(masks[-1] | 1 << v)
        prefixes.append(masks)
    if size is None:
        return map(sum, product(*prefixes))  # classes are disjoint: sum is or
    return _sized_patterns(prefixes, size)


def _sized_patterns(prefixes: list[list[int]], size: int) -> Iterator[int]:
    """The patterns of product(*prefixes) with `size` vertices, in product
    order, visiting only count profiles that can still reach `size`."""
    room = [0] * (len(prefixes) + 1)  # room[i]: vertices in classes i, i+1, ...
    for i in reversed(range(len(prefixes))):
        room[i] = room[i + 1] + len(prefixes[i]) - 1

    def fill(i: int, left: int) -> Iterator[int]:
        if i == len(prefixes):
            yield 0
            return
        for k in range(max(0, left - room[i + 1]), min(left, len(prefixes[i]) - 1) + 1):
            for rest in fill(i + 1, left - k):
                yield prefixes[i][k] | rest

    return fill(0, size) if 0 <= size <= room[0] else iter(())


# ---------------------------------------------------------------------------
# constructors


def complete_graph(n: int) -> Graph:
    if n < 0:
        raise InputError(f"vertex count must be >= 0, got {n}")
    full = (1 << n) - 1
    return Graph._from_rows(n, [full ^ 1 << v for v in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def empty_graph(n: int) -> Graph:
    return Graph(n)


def union(parts: Sequence[Graph]) -> Graph:
    """Disjoint union; vertices of each part are relabeled consecutively."""
    if not parts:
        raise InputError("union of zero graphs")
    rows: list[int] = []
    for g in parts:
        offset = len(rows)
        rows.extend(r << offset for r in g.rows)
    return Graph._from_rows(len(rows), rows)


def join(parts: Sequence[Graph]) -> Graph:
    """Disjoint union plus every edge between vertices of distinct parts."""
    if not parts:
        raise InputError("join of zero graphs")
    n = sum(p.n for p in parts)
    rows: list[int] = []
    for p in parts:
        offset = len(rows)
        others = ((1 << n) - 1) ^ ((1 << p.n) - 1) << offset
        rows.extend(r << offset | others for r in p.rows)
    return Graph._from_rows(n, rows)


def copies(g: Graph, count: int) -> Graph:
    """Union of `count` disjoint copies of g (count >= 0; 0 gives K_0)."""
    if count < 0:
        raise InputError("copy count must be >= 0")
    if count == 0:
        return empty_graph(0)
    return union([g] * count)


# ---------------------------------------------------------------------------
# elementary operations


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph._from_rows(g.n, [full ^ r ^ 1 << v for v, r in enumerate(g.rows)])


def line_graph(g: Graph) -> Graph:
    """One vertex per edge of g, in the canonical (lexicographic) edge order;
    adjacency means the two edges share exactly one endpoint."""
    edges = g.edges
    incident = [0] * g.n  # per vertex of g, the mask of its edges
    for i, (a, b) in enumerate(edges):
        incident[a] |= 1 << i
        incident[b] |= 1 << i
    return Graph._from_rows(
        len(edges),
        [(incident[a] | incident[b]) ^ 1 << i for i, (a, b) in enumerate(edges)],
    )


def delete_vertices(g: Graph, s: Iterable[int]) -> Graph:
    drop = set(s)
    for v in drop:
        if not (0 <= v < g.n):
            raise InputError(f"vertex {v} out of range for order {g.n}")
    return Graph._from_rows(g.n - len(drop), delete_vertices_rows(g.rows, drop))


def delete_edges(g: Graph, s: Iterable[tuple[int, int]]) -> Graph:
    drop = list(s)
    for u, v in drop:
        if not (0 <= u < g.n and 0 <= v < g.n and g.rows[u] >> v & 1):
            raise InputError(f"edge {(min(u, v), max(u, v))} not in graph")
    return Graph._from_rows(g.n, delete_edges_rows(g.rows, drop))


def permute(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel vertices: new graph has edge (perm[u], perm[v]) per edge (u, v)."""
    if sorted(perm) != list(range(g.n)):
        raise InputError("perm must be a permutation of 0..n-1")
    return Graph._from_rows(g.n, relabel_rows(g.n, g.rows, perm))


def is_connected(g: Graph) -> bool:
    return len(component_masks(g.n, g.rows)) <= 1


# ---------------------------------------------------------------------------
# graph6 codec


_G6_HEADER = ">>graph6<<"


def graph6_encode(g: Graph) -> str:
    return graph6_encode_rows(g.n, g.rows)


def graph6_encode_rows(n: int, rows: Sequence[int]) -> str:
    """Standard graph6 line: size prefix plus the upper triangle of the
    adjacency matrix in column order, packed into 6-bit chunks offset by 63."""
    if n <= 62:
        out = [chr(63 + n)]
    elif n <= 258047:
        out = ["~", chr(63 + (n >> 12 & 63)), chr(63 + (n >> 6 & 63)), chr(63 + (n & 63))]
    else:
        raise CapacityError(f"graph6 encoding supports n <= 258047, got {n}")
    bits = 0
    nbits = 0
    for v in range(1, n):
        row = rows[v]
        for u in range(v):
            bits = bits << 1 | (row >> u & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + bits))
                bits = 0
                nbits = 0
    if nbits:
        out.append(chr(63 + (bits << (6 - nbits))))
    return "".join(out)


def graph6_decode(line: str) -> Graph:
    """Parse one graph6 line (optional '>>graph6<<' header allowed)."""
    s = line.strip()
    base = line.index(s) if s else 0
    if s.startswith(_G6_HEADER):
        base += len(_G6_HEADER)
        s = s[len(_G6_HEADER):]
    if not s:
        raise Graph6ParseError("empty graph6 line", base)
    for i, ch in enumerate(s):
        if not (63 <= ord(ch) <= 126):
            raise Graph6ParseError(f"invalid graph6 byte {ch!r}", base + i)
    pos = 0
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise CapacityError("graph6 orders above 258047 are not supported")
        if len(s) < 4:
            raise Graph6ParseError("truncated graph6 size prefix", base + len(s))
        n = (
            (ord(s[1]) - 63) << 12
            | (ord(s[2]) - 63) << 6
            | (ord(s[3]) - 63)
        )
        pos = 4
    else:
        n = ord(s[0]) - 63
        pos = 1
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(s) - pos < nchars:
        raise Graph6ParseError(
            f"graph6 body too short for order {n}", base + len(s)
        )
    if len(s) - pos > nchars:
        raise Graph6ParseError("trailing bytes after graph6 body", base + pos + nchars)
    rows = [0] * n
    u, v = 0, 1  # the next bit is x(u, v), in column order x(0,1) x(0,2) x(1,2) ...
    for idx in range(pos, pos + nchars):
        group = ord(s[idx]) - 63
        for shift in range(5, -1, -1):
            if v == n:
                if group >> shift & 1:
                    raise Graph6ParseError("nonzero graph6 padding bits", base + idx)
                continue
            if group >> shift & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            u += 1
            if u == v:
                u, v = 0, v + 1
    return Graph._from_rows(n, rows)


# ---------------------------------------------------------------------------
# exhaustive enumeration of isomorphism classes


_ENUM_CACHE: dict[int, tuple[Graph, ...]] = {0: (Graph(0),)}


def enumerate_graphs(n: int) -> tuple[Graph, ...]:
    """One canonical representative per isomorphism class on n vertices.

    Every graph on n >= 1 vertices is G - v plus the vertex v, with G a
    graph on n - 1 vertices.  So the classes on n vertices are the
    one-vertex extensions of the classes on n - 1, over every attachment
    set up to twins (`twin_patterns`), kept once per certificate.  The
    representative is the decoded certificate (what `canonical_form`
    returns), and the output is sorted by certificate.  Capped at n = 7.
    """
    if n > ENUMERATION_CAP:
        raise CapacityError(
            f"enumeration is capped at n = {ENUMERATION_CAP}, got {n}"
        )
    if n < 0:
        raise InputError(f"vertex count must be >= 0, got {n}")
    if n not in _ENUM_CACHE:
        from .canon import certificate_rows

        n0 = n - 1
        found = {
            certificate_rows(n, extend_rows(n0, g.rows, attach))
            for g in enumerate_graphs(n0)
            for attach in twin_patterns(n0, g.rows, None)
        }
        _ENUM_CACHE[n] = tuple(graph6_decode(c.decode("ascii")) for c in sorted(found))
    return _ENUM_CACHE[n]
