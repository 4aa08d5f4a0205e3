"""Exact graph-isomorphism decisions via canonical certificates.

certificate(g) is a relabeling-invariant encoding with the defining
property certificate(g) == certificate(h) iff g and h are isomorphic.
Concretely it is the graph6 line of a canonical representative, found by
individualization-refinement search with pruning by discovered
automorphisms, assembled component by component. Components go through
the same memo as whole graphs, so a labeled component that recurs across
cards, candidates or deletions is searched once, and a disconnected
graph's line is put together from its components' lines: each one's
triangle of graph6 bits is shifted into place column by column, with no
pass over the graph's edges (see _labeling_rows). An automorphism found
at a leaf makes the search jump back (see _Search): the line and rook
graphs the tests pin take at most n leaves in every labeling tried. A
node whose non-singleton cells are all twin classes ends the search
below it in one leaf, so edgeless and complete graphs, stars and
complete multipartite graphs whose parts differ in size take one leaf.
Refinement (_refine) holds one bitmask per cell, so a neighbor count is
one popcount, and gives the certificates of a neighbor-by-neighbor walk.
It is incremental (McKay 1981; McKay & Piperno 2014). After a round each
cell has uniform counts into every cell the round did not create, so the
next round probes only the fresh pieces. And the round after
individualizing a vertex v of an equitable partition splits each cell
into v's neighbors and the rest, in that order, with no signature.

A search also memoizes the canonical form C it finds, with the identity
labeling, so C itself (a catalog's representative, or the form a
certified graph's cards are deleted from) is never searched. That is the
labeling C's own search returns. Let sigma be the labeling found for a
connected G. Refinement is invariant under relabeling, so sigma maps G's
search tree onto C's, and G's best leaf onto the leaf of C whose
partition is ([0], ..., [n - 1]), the identity. Every ancestor of that
leaf has cells that are runs of consecutive vertices, in order, and the
vertex individualized toward the leaf takes its cell's first position,
so it is the cell's smallest vertex: the child `_descend` tries first,
and no pruning applies while nothing is explored. The twin leaf is
relabeling-invariant too, and its node's cells are runs, so splitting
them in vertex order gives the identity. So the first leaf of C's search
is the identity, with code C, the least code, and as the best leaf
changes only on a strictly smaller code the search returns it. A
disconnected C needs no entry of its own: its components are canonical
forms laid out in sorted order, so each one's labeling is the identity,
and the stable sort keeps equal ones in vertex order, so C assembles to
the identity too, from memo hits.

Each memo entry also keeps the automorphisms its search found: the
generators and the labeling of a connected graph's search, stored in the
searched graph's entry and in C's, or a disconnected graph's pieces, each
as (order, certificate, source); nothing where no automorphism but the
identity was found. `_orbit_labels` turns them, only when a deck asks,
into the least vertex of each Aut(C) orbit, so a certified graph's vertex
deck certifies one card per orbit. Each generator is an automorphism,
which is all that soundness needs; the generators of a search also span
Aut(G) (McKay 1981), and the twin leaf records twin transpositions, so
the orbits are never finer than the twin classes.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import CapacityError, _count_text
from .graph import Graph, _decode_triangle, _encode_triangle, _triangle
from .graph import component_masks, graph6_decode, iter_bits, relabel_rows

CERTIFICATE_ORDER_CAP = 64  # orders >= 64 are refused

_CACHE_LIMIT = 400_000
# (n, packed rows) -> (certificate, canonical labeling old -> new as bytes,
# generator source of the canonical form's automorphisms, see _orbit_labels)
_CERT_CACHE: dict[tuple[int, int], tuple[bytes, bytes, Optional[tuple]]] = {}
_IDENTITY = [bytes(range(n)) for n in range(CERTIFICATE_ORDER_CAP)]  # shared labelings


def clear_certificate_cache() -> None:
    _CERT_CACHE.clear()


# ---------------------------------------------------------------------------
# equitable refinement


def _refine(
    n: int,
    rows: Sequence[int],
    cells: list[list[int]],
    masks: list[int],
    fresh: Optional[int] = None,
) -> tuple[list[list[int]], list[int]]:
    """Refine an ordered partition, with the bitmask of each cell in
    `masks`, to the coarsest equitable one; return its cells and masks.

    A round gives each vertex of a non-singleton cell the signature
    (i, popcount(rows[v] & masks[i])) over the cells i it has neighbors
    in, in cell order, and splits the cell in place into pieces sorted by
    signature, all against the same round's masks, until a round splits
    nothing. This is the order of sorting all vertices by (cell index,
    sorted neighbor-cell counts): the cell index keeps each cell's pieces
    where the cell was, a singleton cannot split, and the pieces keep
    the cell's vertex order, ascending because the initial partition and
    every child `_descend` builds are. So the ordered partition depends
    only on the signatures and is invariant under vertex relabeling.

    Fresh cells. After a round, every cell has uniform counts into every
    cell the round started from, since its vertices shared a signature.
    So the next round can split a cell only on its counts into the pieces
    the round created, and it probes only those. It skips the largest
    piece of each split cell: the count into it is the count into the
    whole cell, uniform, minus the counts into the other pieces. A cell
    whose probe counts agree keeps its place, and one whose counts differ
    is signed in full as above, so its pieces come in the same order. A
    round that splits nothing leaves nothing to probe: the partition is
    equitable. The first round signs every cell; from the unit partition
    the signatures are the degrees, isolated vertices first.

    `fresh` = t says that `_descend` has just individualized v: cells[t]
    is [v] and cells[t + 1] the rest of v's cell, in a partition that was
    equitable before. Inside a cell the counts into every other cell are
    then uniform, and so is the count into [v] and the rest together, so
    only adjacency to v can differ. If it does, the cell's count into v's
    old cell is positive: a neighbor of v signs (t, 1) where a
    non-neighbor signs (t + 1, count), the rest of the signatures equal.
    So the first round splits each cell into v's neighbors, then the
    others, each in vertex order, with no signature, and probes the
    smaller piece of each.
    """
    probes = None  # the first round signs every cell
    if fresh is not None:
        adj = rows[cells[fresh][0]]
        out: list[list[int]] = []
        out_masks: list[int] = []
        probes = []
        for cell, mask in zip(cells, masks):
            hit = mask & adj
            if not hit or hit == mask:
                out.append(cell)
                out_masks.append(mask)
                continue
            near = [v for v in cell if adj >> v & 1]
            far = [v for v in cell if not adj >> v & 1]
            out += (near, far)
            out_masks += (hit, mask ^ hit)
            probes.append(hit if len(near) <= len(far) else mask ^ hit)
        cells, masks = out, out_masks
    while probes is None or probes:
        indexed = None
        out = []
        out_masks = []
        probes_next = []
        for cell, mask in zip(cells, masks):
            if len(cell) == 1 or probes and _uniform(rows, cell, probes):
                out.append(cell)
                out_masks.append(mask)
                continue
            groups: dict = {}
            if len(masks) == 1:  # the unit partition: sort by degree
                for v in cell:
                    groups.setdefault(rows[v].bit_count(), []).append(v)
            else:
                if indexed is None:
                    indexed = list(enumerate(masks))
                for v in cell:
                    row = rows[v]
                    sig = []
                    for i, other in indexed:
                        hit = row & other
                        if hit:
                            sig.append((i, hit.bit_count()))
                            row ^= hit
                            if not row:
                                break
                    groups.setdefault(tuple(sig), []).append(v)
            if len(groups) == 1:
                out.append(cell)
                out_masks.append(mask)
                continue
            largest = 0  # probe every piece but the (first) largest
            for key in sorted(groups):
                piece = groups[key]
                mask = 0
                for v in piece:
                    mask |= 1 << v
                out.append(piece)
                out_masks.append(mask)
                if len(piece) > largest:
                    largest = len(piece)
                    skip = len(probes_next)
                probes_next.append(mask)
            del probes_next[skip]
        if len(out) == len(cells):
            break
        cells, masks, probes = out, out_masks, probes_next
    return cells, masks


def _uniform(rows: Sequence[int], cell: list[int], probes: list[int]) -> bool:
    """Whether the cell's vertices have equal counts into every probed cell."""
    first = rows[cell[0]]
    for probe in probes:
        count = (first & probe).bit_count()
        for v in cell:
            if (rows[v] & probe).bit_count() != count:
                return False
    return True


def _twin_cell(rows: Sequence[int], cell: list[int]) -> bool:
    """Whether the cell's vertices are pairwise twins: all with one open
    neighbourhood, or all with one closed neighbourhood."""
    first = cell[0]
    if all(rows[v] == rows[first] for v in cell):
        return True
    closed = rows[first] | 1 << first
    return all(rows[v] | 1 << v == closed for v in cell)


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
    individualized prefix pointwise are skipped. Each node keeps one
    union-find of those orbits, a quick-find list from vertex to orbit,
    and before it tries its next sibling it unions in the cycles of the
    generators found since that fix its prefix. Twin leaves and repeated
    leaf matches find some generators again; `gens` keeps each once, so
    no node checks a copy's prefix.

    Twin cells end the search. Take a node whose every non-singleton
    cell is one twin class: all of its vertices share one open
    neighbourhood, or all share one closed neighbourhood. A vertex
    outside such a cell sees all of it or none of it, so in the equitable
    partition individualizing a vertex of the cell splits only that
    vertex off, and every leaf below is the first one up to a permutation
    inside the cells, an automorphism. That first leaf is built at once,
    each twin cell split into singletons in vertex order, with the cells'
    adjacent transpositions recorded as automorphisms. It is the leaf the
    level-by-level search reaches first, so certificates and canonical
    labelings keep their bytes. An individualized vertex of the prefix
    that is a twin of a cell's vertices is transposed with the cell's
    first vertex too, so the orbit pruning above skips its siblings in
    that twin class: any labeling of K10,10 takes 2 leaves, of K3,3,3 3.
    """

    def __init__(self, n: int, rows: Sequence[int]):
        self.n = n
        self.rows = rows
        self.first: Optional[tuple] = None  # (code, labeling, path)
        self.best: Optional[tuple] = None
        self.gens: list[bytes] = []  # each perm[v] is the image of v
        self._known: set[bytes] = set()

    def run(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The canonical labeling and the rows it relabels the graph to."""
        n = self.n
        self._descend(*_refine(n, self.rows, [list(range(n))], [(1 << n) - 1]), ())
        assert self.best is not None
        return tuple(self.best[1]), self.best[0]

    def _descend(
        self, cells: list[list[int]], masks: list[int], prefix: tuple[int, ...]
    ) -> int:
        """Search below the node `prefix`; return the depth to resume at."""
        depth = len(prefix)
        if all(len(c) == 1 or _twin_cell(self.rows, c) for c in cells):
            # a leaf, or twin cells only: the first leaf below at once
            leaf: list[list[int]] = []
            path = list(prefix)
            for c in cells:
                if len(c) == 1:
                    leaf.append(c)
                    continue
                leaf += ([v] for v in c)
                path += c[:-1]
                twins = [(p, c[0]) for p in prefix if _twin_cell(self.rows, [p, c[0]])]
                for a, b in list(zip(c, c[1:])) + twins:
                    swap = list(range(self.n))
                    swap[a], swap[b] = b, a
                    self._found(bytes(swap))
            return min(self._leaf(leaf, tuple(path)), depth - 1)
        target = next(i for i, c in enumerate(cells) if len(c) > 1)
        cell = cells[target]
        explored: list[int] = []
        orbit = list(range(self.n))  # v -> its orbit under gens fixing prefix
        applied = 0  # how many of self.gens have been looked at
        for v in cell:
            if explored:
                for g in self.gens[applied:]:
                    if all(g[x] == x for x in prefix):
                        for u, w in enumerate(g):
                            a, b = orbit[u], orbit[w]
                            if a != b:
                                orbit = [b if o == a else o for o in orbit]
                applied = len(self.gens)
                if any(orbit[u] == orbit[v] for u in explored):
                    continue
            bit = 1 << v
            child = (
                cells[:target]
                + [[v], [u for u in cell if u != v]]
                + cells[target + 1:]
            )
            child_masks = masks[:target] + [bit, masks[target] ^ bit] + masks[target + 1:]
            refined = _refine(self.n, self.rows, child, child_masks, target)
            resume = self._descend(*refined, prefix + (v,))
            if resume < depth:
                return resume
            explored.append(v)
        return depth - 1

    def _found(self, perm: bytes) -> None:
        """Record an automorphism, unless an earlier leaf found it."""
        if perm not in self._known:
            self._known.add(perm)
            self.gens.append(perm)

    def _leaf(self, cells: list[list[int]], path: tuple[int, ...]) -> int:
        n = self.n
        lab = [0] * n
        for i, cell in enumerate(cells):
            lab[cell[0]] = i
        code = relabel_rows(n, self.rows, lab)
        for other in (self.first, self.best):
            if other is not None and code == other[0]:
                _, other_lab, other_path = other
                # the automorphism sends the vertex at each position of this
                # leaf to the vertex at that position of the other leaf
                perm = [0] * n
                for w, i in enumerate(other_lab):
                    perm[cells[i][0]] = w
                self._found(bytes(perm))
                # perm fixes path[:k] and maps path[k] onto other_path[k]
                k = 0
                while path[k] == other_path[k]:
                    k += 1
                return k
        if self.best is None or code < self.best[0]:
            self.best = (code, lab, path)
            if self.first is None:
                self.first = self.best
        return len(path) - 1


# ---------------------------------------------------------------------------
# component assembly


def _induced_rows(rows: Sequence[int], comp: int) -> list[int]:
    """Rows of the subgraph induced on the vertex mask comp, gathered run
    by run of consecutive vertices: one shift per row for a component that
    `union` laid out."""
    runs = []  # (first vertex, width mask, first local index) per run
    local = 0
    while comp:
        first = (comp & -comp).bit_length() - 1
        block = comp >> first
        width = (block ^ block + 1) >> 1  # the run's mask, shifted to bit 0
        runs.append((first, width, local))
        local += width.bit_length()
        comp ^= width << first
    if len(runs) == 1:
        return [row >> first & width for row in rows[first:first + local]]
    out = []
    for start, size, _ in runs:
        for row in rows[start:start + size.bit_length()]:
            acc = 0
            for first, width, local in runs:
                acc |= (row >> first & width) << local
            out.append(acc)
    return out


def _labeling_rows(
    n: int, rows: Sequence[int]
) -> tuple[bytes, int, Optional[tuple[int, ...]], Optional[tuple]]:
    """Canonical labeling (old -> new) of an arbitrary rows-graph, the
    `_triangle` of the canonical representative, the representative's
    rows if the graph was searched, else None, and the generator source
    of the representative's automorphisms (see _orbit_labels), None if no
    automorphism but the identity was found.

    A connected graph is searched directly, and its source is the search's
    labeling and generators. Otherwise each component is canonicalized
    through the memo (a labeled component that recurs across graphs is
    searched once), and the pieces are laid out in order of (component
    order, component certificate), which makes the assembled labeled graph
    an isomorphism invariant of the whole graph. A piece's certificate is
    its canonical form's graph6 line, whose size prefix is one byte, as a
    piece has at most 62 vertices: the piece's triangle is decoded from it
    and shifted into place column by column. The source lists each
    piece's (order, certificate, source) in that order.
    """
    comps = component_masks(n, rows)
    if len(comps) == 1:
        search = _Search(n, rows)
        lab, code = search.run()
        lab = bytes(lab)
        return lab, _triangle(n, code), code, (lab, tuple(search.gens)) if search.gens else None
    pieces = []
    for comp in comps:
        verts = list(iter_bits(comp))
        cert, local, source = _canon_entry(len(verts), _induced_rows(rows, comp))
        pieces.append((len(verts), cert, source, verts, local))
    pieces.sort(key=lambda p: p[:2])
    lab = [0] * n
    tri = 0
    offset = 0
    for nc, cert, _, verts, local in pieces:
        for v, i in zip(verts, local):
            lab[v] = offset + i
        part = _decode_triangle(cert[1:])
        for j in range(offset + 1, offset + nc):  # piece column j - offset
            width = j - offset
            tri |= (part & (1 << width) - 1) << (j * (j - 1) >> 1) + offset
            part >>= width
        offset += nc
    source = None
    if any(p[2] for p in pieces) or any(p[:2] == q[:2] for p, q in zip(pieces, pieces[1:])):
        source = (None, tuple(p[:3] for p in pieces))
    return bytes(lab), tri, None, source


def _orbit_labels(n: int, source: Optional[tuple]) -> list[int]:
    """For each vertex of a memo entry's canonical form C, the least vertex
    of its orbit under Aut(C), from the entry's generator source.

    A source (lab, gens) holds generators of Aut(G) that the search of a
    connected G found, and the labeling lab that takes G to C. Their
    cycles join G's vertices into orbits, and lab maps each orbit of G
    onto one of C. A source (None, pieces) holds a disconnected C's pieces
    in layout order, each as (order, certificate, source). A piece's
    vertices keep its own orbits, shifted to its place, and equal
    consecutive pieces, whose position-by-position swap is an automorphism
    of C, share the first one's. No source: no automorphism was found.
    """
    if source is None:
        return list(range(n))
    lab, gens = source
    if lab is None:
        out: list[int] = []
        for (order, cert, piece), prev in zip(gens, (None,) + gens):
            if prev is not None and prev[:2] == (order, cert):
                out += out[-order:]  # the equal piece before, position by position
            else:
                offset = len(out)
                out += [offset + w for w in _orbit_labels(order, piece)]
        return out
    least = list(lab)  # per vertex of G: the least image in C of its orbit so far
    for perm in gens:
        for u, w in enumerate(perm):
            a, b = least[u], least[w]
            if a != b:
                low, high = (a, b) if a < b else (b, a)
                least = [low if x == high else x for x in least]
    out = [0] * n
    for v, w in enumerate(lab):
        out[w] = least[v]
    return out


def check_certificate_order(order: int, what: str = "order") -> None:
    """Refuse an order certificates cannot reach.  Builders of large graphs
    call it on the order they would build, before building anything."""
    if order >= CERTIFICATE_ORDER_CAP:
        raise CapacityError(
            f"certificates are capped below order {CERTIFICATE_ORDER_CAP}, "
            f"got {what} {_count_text(order)}"
        )


def _memo_key(n: int, rows: Sequence[int]) -> tuple[int, int]:
    mask = 0
    for v in range(n):
        mask = mask << n | rows[v]
    return n, mask


def _memoized(n: int, rows: Sequence[int]) -> Optional[tuple[bytes, bytes, Optional[tuple]]]:
    """The memo's (certificate, canonical labeling, generator source) of a
    rows-graph if it holds them: the graph was certified, or is the
    canonical form of a certified graph, since the memo was last cleared."""
    return _CERT_CACHE.get(_memo_key(n, rows))


def _canon_entry(n: int, rows: Sequence[int]) -> tuple[bytes, bytes, Optional[tuple]]:
    """(certificate, canonical labeling, generator source) of a rows-graph,
    memoized."""
    check_certificate_order(n)
    key = _memo_key(n, rows)
    cached = _CERT_CACHE.get(key)
    if cached is not None:
        return cached
    lab, tri, code, source = _labeling_rows(n, rows)
    entry = (_encode_triangle(n, tri), lab, source)
    if len(_CERT_CACHE) >= _CACHE_LIMIT:
        _CERT_CACHE.clear()
    _CERT_CACHE[key] = entry
    if code is not None and len(_CERT_CACHE) < _CACHE_LIMIT:
        # the canonical form's own search would return the identity
        _CERT_CACHE[_memo_key(n, code)] = (entry[0], _IDENTITY[n], source)
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
