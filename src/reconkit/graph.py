"""Simple undirected graphs on vertices 0..n-1.

A graph is immutable and stored as its order and adjacency bitmask rows,
which is what every hot loop in the toolkit works on; `edges` is derived
from the rows.  Only Graph(n, edges) and graph6_decode validate their
input: every derived graph is built from rows by Graph._from_rows.

The other modules share this rows kernel: delete_vertices_rows and
delete_edges_rows are the one implementation of each deletion, behind
delete_vertices/delete_edges, the decks and the preimage search, and
relabel_rows is behind permute and the canonical search.

The graph6 codec has one kernel too.  _triangle packs the upper triangle
of the adjacency matrix into one int, bit v(v-1)/2 + u for the edge uv
(u < v), one shift-or per row; that is graph6's bit order.  A line is the
triangle's bits, lowest first, through binascii's base64 with the
alphabet translated to chr(63..126), and _decode_triangle reverses it.
graph6_encode, graph6_decode and canon's certificates all go through
it, so no loop in the codec runs per bit.
"""

from __future__ import annotations

from binascii import a2b_base64, b2a_base64
from itertools import product
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import CapacityError, Graph6ParseError, InputError
from .errors import _check_at_least, _count_text

ENUMERATION_CAP = 7  # 1,044 classes; 8 has 12,346 (A000088), past desk scale
_G6_ORDER_CAP = 258047  # graph6's 4-byte size prefix; the codec has no 8-byte one


class Graph:
    """Immutable simple graph: no self-loops, no duplicate edges."""

    __slots__ = ("n", "rows", "m")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        _check_at_least(n, 0, "vertex count")
        _check_order(n)
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


def _check_order(n: int) -> None:
    """Refuse an order above the cap before any row is built."""
    if n > _G6_ORDER_CAP:
        raise CapacityError(f"graph orders are capped at {_G6_ORDER_CAP}, got {_count_text(n)}")


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


def _twin_labels(n: int, rows: Sequence[int]) -> list[int]:
    """Per vertex, its closed neighbourhood mask if another vertex shares it,
    else its open one.  Equal labels are exactly twins: no open neighbourhood
    holds its vertex, and a vertex with a closed twin has no open twin."""
    closed: dict[int, int] = {}
    for v in range(n):
        mask = rows[v] | 1 << v
        closed[mask] = closed.get(mask, 0) + 1
    return [r | 1 << v if closed[r | 1 << v] > 1 else r for v, r in enumerate(rows)]


def _twin_classes(n: int, rows: Sequence[int]) -> list[list[int]]:
    """The twin classes, each in vertex order, by first vertex."""
    classes: dict[int, list[int]] = {}
    for v, label in enumerate(_twin_labels(n, rows)):
        classes.setdefault(label, []).append(v)
    return list(classes.values())


def twin_orbits(n: int, rows: Sequence[int]) -> Callable[[tuple], tuple]:
    """deletion set -> a key only sets in one orbit of the twin
    transpositions share: c vertices key to their sorted twin labels, c
    edges (in the order given) to their endpoints' labels and each
    endpoint's first position among them.  Equal keys give a class-
    preserving bijection of the sets' vertices, which a permutation inside
    twin classes, an automorphism, extends.  Twin-free graphs key sets apart."""
    cls = _twin_labels(n, rows)

    def key(drop: tuple) -> tuple:
        if drop and type(drop[0]) is tuple:
            ends = [v for edge in drop for v in edge]
            return tuple([cls[v] for v in ends] + [ends.index(v) for v in ends])
        return tuple(sorted([cls[v] for v in drop]))

    return key


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
    return _sized_patterns(prefixes, size, 0)


def _sized_patterns(prefixes: list[list], size: int, zero) -> Iterator:
    """The sums, from `zero`, of product(*prefixes) with `size` vertices
    (prefixes[i][k] holds k of class i), in product order, visiting only
    count profiles that can still reach `size`."""
    room = [0] * (len(prefixes) + 1)  # room[i]: vertices in classes i, i+1, ...
    for i in reversed(range(len(prefixes))):
        room[i] = room[i + 1] + len(prefixes[i]) - 1

    def fill(i: int, left: int) -> Iterator:
        if i == len(prefixes):
            yield zero
            return
        for k in range(max(0, left - room[i + 1]), min(left, len(prefixes[i]) - 1) + 1):
            for rest in fill(i + 1, left - k):
                yield prefixes[i][k] + rest

    return fill(0, size) if 0 <= size <= room[0] else iter(())


# ---------------------------------------------------------------------------
# constructors


def complete_graph(n: int) -> Graph:
    _check_at_least(n, 0, "vertex count")
    _check_order(n)
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
    _check_order(sum(g.n for g in parts))
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
    _check_order(n)
    rows: list[int] = []
    for p in parts:
        offset = len(rows)
        others = ((1 << n) - 1) ^ ((1 << p.n) - 1) << offset
        rows.extend(r << offset | others for r in p.rows)
    return Graph._from_rows(n, rows)


def copies(g: Graph, count: int) -> Graph:
    """Union of `count` disjoint copies of g (count >= 0; 0 copies, or
    copies of K_0, give K_0)."""
    if count < 0:
        raise InputError("copy count must be >= 0")
    if count == 0 or g.n == 0:
        return empty_graph(0)
    _check_order(g.n * count)
    return union([g] * count)


# ---------------------------------------------------------------------------
# elementary operations


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph._from_rows(g.n, [full ^ r ^ 1 << v for v, r in enumerate(g.rows)])


def line_graph(g: Graph) -> Graph:
    """One vertex per edge of g, in the canonical (lexicographic) edge order;
    adjacency means the two edges share exactly one endpoint."""
    _check_order(g.m)
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
# graph6 writes each 6-bit group as chr(63 + value), base64 as the
# value-th letter of its alphabet: one translate table each way.  _REV8
# reverses the bits of a byte, so a little-endian triangle becomes graph6's
# bit stream, bit 0 first, in one translate.
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_G6 = bytes.maketrans(_B64, bytes(range(63, 127)))
_FROM_G6 = bytes.maketrans(bytes(range(63, 127)), _B64)
_REV8 = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _triangle(n: int, rows: Sequence[int]) -> int:
    """The upper triangle of the adjacency matrix as one int: bit
    v(v-1)/2 + u is the edge uv, u < v, so bit i is graph6's i-th bit."""
    tri = 0
    for v in range(1, n):
        tri |= (rows[v] & (1 << v) - 1) << (v * (v - 1) >> 1)
    return tri


def _encode_triangle(n: int, tri: int) -> bytes:
    """The graph6 line of the graph on n vertices with this triangle: its
    bits, lowest first, padded to whole 24-bit groups, which base64 writes
    as four 6-bit groups each.  The caller keeps n within the cap."""
    if n <= 62:
        head = bytes((63 + n,))
    else:
        head = bytes((126, 63 + (n >> 12 & 63), 63 + (n >> 6 & 63), 63 + (n & 63)))
    nbits = n * (n - 1) >> 1
    stream = tri.to_bytes(-(-nbits // 24) * 3, "little").translate(_REV8)
    return head + b2a_base64(stream, newline=False).translate(_TO_G6)[: -(-nbits // 6)]


def _decode_triangle(body: bytes) -> int:
    """The triangle of a graph6 body, the line past its size prefix,
    trusted to be well formed: its padding bits are zero."""
    quads = body.translate(_FROM_G6).ljust(-(-len(body) // 4) * 4, b"A")
    return int.from_bytes(a2b_base64(quads).translate(_REV8), "little")


def graph6_encode(g: Graph) -> str:
    """Standard graph6 line: size prefix plus the upper triangle of the
    adjacency matrix in column order, packed into 6-bit chunks offset by 63."""
    if g.n > _G6_ORDER_CAP:  # before the triangle is built
        raise CapacityError(f"graph6 encoding supports n <= {_G6_ORDER_CAP}, got {g.n}")
    return _encode_triangle(g.n, _triangle(g.n, g.rows)).decode("ascii")


def graph6_decode(line: str) -> Graph:
    """Parse one graph6 line (optional '>>graph6<<' header allowed)."""
    s = line.strip()
    base = line.index(s) if s else 0
    if s.startswith(_G6_HEADER):
        base += len(_G6_HEADER)
        s = s[len(_G6_HEADER):]
    if not s:
        raise Graph6ParseError("empty graph6 line", base)
    if min(s) < "?" or max(s) > "~":
        i, ch = next((i, ch) for i, ch in enumerate(s) if not "?" <= ch <= "~")
        raise Graph6ParseError(f"invalid graph6 byte {ch!r}", base + i)
    pos = 0
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise CapacityError(f"graph6 orders above {_G6_ORDER_CAP} are not supported")
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
    if nchars and ord(s[-1]) - 63 & (1 << 6 * nchars - nbits) - 1:
        raise Graph6ParseError("nonzero graph6 padding bits", base + len(s) - 1)
    tri = _decode_triangle(s[pos:].encode("ascii"))
    rows = [0] * n
    for v in range(1, n):  # column v of the triangle: v's neighbours below v
        col = tri & (1 << v) - 1
        tri >>= v
        rows[v] |= col
        bit = 1 << v
        while col:
            low = col & -col
            rows[low.bit_length() - 1] |= bit
            col ^= low
    return Graph._from_rows(n, rows)


# ---------------------------------------------------------------------------
# exhaustive enumeration of isomorphism classes


_ENUM_CACHE: dict[int, tuple[Graph, ...]] = {0: (Graph(0),)}


def extension_classes(
    n: int, graphs: Iterable[Sequence[int]], *, canonical_deletion: bool = False
) -> dict[bytes, list[int]]:
    """Every one-vertex extension of the given rows-graphs on n vertices up
    to isomorphism, attachment sets over `twin_patterns`: certificate ->
    rows of the first extension found with it.

    With canonical_deletion, an extension H = G + v is certified only when
    the new vertex v has the largest invariant of H (its degree, then the
    sorted degrees of its neighbors; ties pass), after McKay's canonical
    augmentation ("Isomorph-free exhaustive generation", J. Algorithms
    1998).  No class whose deletions are all among the given graphs is
    lost: in such an H take a vertex v of largest invariant; H - v is one
    of the graphs, and the twin pattern of v's neighbors gives a graph
    isomorphic to H in which the new vertex plays v's role, so it passes.
    Only `enumerate_graphs` may filter: the vertex preimage search extends
    a fixed card, whose extensions need not have a largest new vertex.
    """
    from .canon import certificate_rows

    found: dict[bytes, list[int]] = {}
    for rows in graphs:
        for attach in twin_patterns(n, rows, None):
            if canonical_deletion and not _new_vertex_is_largest(n, rows, attach):
                continue
            out = extend_rows(n, rows, attach)
            found.setdefault(certificate_rows(n + 1, out), out)
    return found


def _new_vertex_is_largest(n: int, rows: Sequence[int], attach: int) -> bool:
    """Is no vertex of rows + attach above the new vertex n in (degree,
    sorted neighbor degrees)?  Degrees alone settle all but the ties."""
    k = attach.bit_count()
    deg = [r.bit_count() + (attach >> u & 1) for u, r in enumerate(rows)]
    if max(deg, default=0) > k:
        return False
    deg.append(k)
    mine = sorted(deg[w] for w in iter_bits(attach))
    return all(
        sorted(deg[w] for w in iter_bits(rows[u] | (attach >> u & 1) << n)) <= mine
        for u in range(n)
        if deg[u] == k
    )


def enumerate_graphs(n: int) -> tuple[Graph, ...]:
    """One canonical representative per isomorphism class on n vertices.

    Every graph on n >= 1 vertices is G - v plus the vertex v, with G a
    graph on n - 1 vertices, and v may be any vertex, so one of largest
    (degree, sorted neighbor degrees).  So the classes on n vertices are
    the `extension_classes` of the classes on n - 1 under the canonical-
    deletion filter (McKay 1998), which certifies 1,425 extensions for the
    1,044 classes on 7 vertices instead of all 6,412.  The representative
    is the decoded certificate (what `canonical_form` returns), and the
    output is sorted by certificate.  Capped at n = 7.
    """
    if n > ENUMERATION_CAP:
        raise CapacityError(
            f"enumeration is capped at n = {ENUMERATION_CAP}, got {_count_text(n)}"
        )
    _check_at_least(n, 0, "vertex count")
    if n not in _ENUM_CACHE:
        graphs = (g.rows for g in enumerate_graphs(n - 1))
        found = extension_classes(n - 1, graphs, canonical_deletion=True)
        _ENUM_CACHE[n] = tuple(graph6_decode(c.decode("ascii")) for c in sorted(found))
    return _ENUM_CACHE[n]
