"""Simple undirected graphs on vertices 0..n-1.

Graphs are immutable after construction: edges are stored as sorted
(min, max) pairs and adjacency is kept as per-vertex bitmasks, which is
what every hot loop in the toolkit works on.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError, Graph6ParseError, InputError

ENUMERATION_CAP = 7  # 2^C(7,2) = 2^21 labeled graphs is the desk-scale ceiling


class Graph:
    """Immutable simple graph: no self-loops, no duplicate edges."""

    __slots__ = ("n", "edges", "rows", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InputError(f"vertex count must be >= 0, got {n}")
        normalized = set()
        for u, v in edges:
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for order {n}")
            normalized.add((u, v) if u < v else (v, u))
        rows = [0] * n
        for u, v in normalized:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(normalized)))
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "_hash", hash((n, self.edges)))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def m(self) -> int:
        return len(self.edges)

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
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return self._hash

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


# ---------------------------------------------------------------------------
# constructors


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def empty_graph(n: int) -> Graph:
    return Graph(n)


def union(parts: Sequence[Graph]) -> Graph:
    """Disjoint union; vertices of each part are relabeled consecutively."""
    if not parts:
        raise InputError("union of zero graphs")
    edges = []
    offset = 0
    for g in parts:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return Graph(offset, edges)


def join(parts: Sequence[Graph]) -> Graph:
    """Disjoint union plus every edge between vertices of distinct parts."""
    if not parts:
        raise InputError("join of zero graphs")
    g = union(parts)
    edges = list(g.edges)
    spans = []
    offset = 0
    for p in parts:
        spans.append(range(offset, offset + p.n))
        offset += p.n
    for i in range(len(spans)):
        for j in range(i + 1, len(spans)):
            edges.extend((u, v) for u in spans[i] for v in spans[j])
    return Graph(g.n, edges)


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
    present = set(g.edges)
    return Graph(
        g.n, (e for e in combinations(range(g.n), 2) if e not in present)
    )


def line_graph(g: Graph) -> Graph:
    """One vertex per edge of g, in the canonical (lexicographic) edge order;
    adjacency means the two edges share exactly one endpoint."""
    edges = g.edges
    out = []
    for i in range(len(edges)):
        a, b = edges[i]
        for j in range(i + 1, len(edges)):
            c, d = edges[j]
            if len({a, b} & {c, d}) == 1:
                out.append((i, j))
    return Graph(len(edges), out)


def delete_vertices(g: Graph, s: Iterable[int]) -> Graph:
    drop = set(s)
    for v in drop:
        if not (0 <= v < g.n):
            raise InputError(f"vertex {v} out of range for order {g.n}")
    keep = [v for v in range(g.n) if v not in drop]
    relabel = {v: i for i, v in enumerate(keep)}
    return Graph(
        len(keep),
        (
            (relabel[u], relabel[v])
            for u, v in g.edges
            if u not in drop and v not in drop
        ),
    )


def delete_edges(g: Graph, s: Iterable[tuple[int, int]]) -> Graph:
    drop = set()
    present = set(g.edges)
    for u, v in s:
        e = (u, v) if u < v else (v, u)
        if e not in present:
            raise InputError(f"edge {e} not in graph")
        drop.add(e)
    return Graph(g.n, present - drop)


def permute(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel vertices: new graph has edge (perm[u], perm[v]) per edge (u, v)."""
    if sorted(perm) != list(range(g.n)):
        raise InputError("perm must be a permutation of 0..n-1")
    return Graph(g.n, ((perm[u], perm[v]) for u, v in g.edges))


def is_connected(g: Graph) -> bool:
    return len(component_masks(g.n, g.rows)) <= 1


# ---------------------------------------------------------------------------
# edge <-> bitmask indexing (row-major upper triangle)


def pair_table(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


def graph_from_mask(n: int, mask: int) -> Graph:
    pairs = pair_table(n)
    return Graph(n, (pairs[b] for b in iter_bits(mask)))


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
    edges = []
    bit = 0
    for idx in range(pos, pos + nchars):
        group = ord(s[idx]) - 63
        for shift in range(5, -1, -1):
            if bit >= nbits:
                if group >> shift & 1:
                    raise Graph6ParseError("nonzero graph6 padding bits", base + idx)
                continue
            if group >> shift & 1:
                edges.append(_column_order_pair(bit))
            bit += 1
    return Graph(n, edges)


def _column_order_pair(bit: int) -> tuple[int, int]:
    # bit index -> (u, v) for the column-order triangle x(0,1) x(0,2) x(1,2) ...
    v = 1
    while v * (v - 1) // 2 + v <= bit:
        v += 1
    u = bit - v * (v - 1) // 2
    return (u, v)


# ---------------------------------------------------------------------------
# exhaustive enumeration of isomorphism classes


_ENUM_CACHE: dict[int, tuple[Graph, ...]] = {}


def enumerate_graphs(n: int) -> tuple[Graph, ...]:
    """One canonical representative per isomorphism class on n vertices.

    Sweeps all 2^C(n,2) labeled graphs; each new class is certified once and
    its whole relabeling orbit is marked visited, so the certificate-level
    deduplication never recertifies a known class.  Output is sorted by
    certificate.  Capped at n = 7.
    """
    if n > ENUMERATION_CAP:
        raise CapacityError(
            f"enumeration is capped at n = {ENUMERATION_CAP}, got {n}"
        )
    if n < 0:
        raise InputError(f"vertex count must be >= 0, got {n}")
    if n in _ENUM_CACHE:
        return _ENUM_CACHE[n]
    from .canon import canonical_form, certificate

    nbits = n * (n - 1) // 2
    transforms = [_mask_transform_tables(n, p) for p in _sn_generators(n)]
    visited = bytearray(1 << nbits)
    found: dict[bytes, Graph] = {}
    for mask in range(1 << nbits):
        if visited[mask]:
            continue
        g = graph_from_mask(n, mask)
        found[certificate(g)] = canonical_form(g)
        visited[mask] = 1
        queue = [mask]
        while queue:
            cur = queue.pop()
            for tables in transforms:
                img = _apply_mask_transform(cur, tables)
                if not visited[img]:
                    visited[img] = 1
                    queue.append(img)
    result = tuple(found[c] for c in sorted(found))
    _ENUM_CACHE[n] = result
    return result


def _sn_generators(n: int) -> list[tuple[int, ...]]:
    if n < 2:
        return []
    swap = list(range(n))
    swap[0], swap[1] = 1, 0
    cycle = list(range(1, n)) + [0]
    return [tuple(swap), tuple(cycle)]


_CHUNK = 11


def _mask_transform_tables(n: int, perm: tuple[int, ...]) -> list[list[int]]:
    # Per-chunk lookup tables mapping 11 source bits to their permuted mask.
    nbits = n * (n - 1) // 2
    pairs = pair_table(n)
    index = {pair: b for b, pair in enumerate(pairs)}
    bitmap = [0] * nbits
    for b, (u, v) in enumerate(pairs):
        pu, pv = perm[u], perm[v]
        bitmap[b] = index[(pu, pv) if pu < pv else (pv, pu)]
    tables = []
    for lo in range(0, nbits, _CHUNK):
        width = min(_CHUNK, nbits - lo)
        table = [0] * (1 << width)
        for val in range(1 << width):
            out = 0
            rem = val
            while rem:
                low = rem & -rem
                out |= 1 << bitmap[lo + low.bit_length() - 1]
                rem ^= low
            table[val] = out
        tables.append(table)
    return tables


def _apply_mask_transform(mask: int, tables: list[list[int]]) -> int:
    out = 0
    for table in tables:
        out |= table[mask & (len(table) - 1)]
        mask >>= _CHUNK
    return out
