"""Shared test helpers: brute-force oracles kept independent of the
library's canonical-labeling path."""

from itertools import permutations

import pytest

from reconkit.graph import Graph, enumerate_graphs, is_connected
from reconkit.canon import certificate


def brute_canonical_mask(g: Graph) -> int:
    """Minimum edge bitmask over all vertex permutations (exhaustive)."""
    n = g.n
    index = {}
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            index[(u, v)] = k
            k += 1
    best = None
    for p in permutations(range(n)):
        mask = 0
        for u, v in g.edges:
            pu, pv = (p[u], p[v]) if p[u] < p[v] else (p[v], p[u])
            mask |= 1 << index[(pu, pv)]
        if best is None or mask < best:
            best = mask
    return best if best is not None else 0


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    return brute_canonical_mask(g) == brute_canonical_mask(h)


def all_labeled_graphs(n: int):
    """Every labeled graph on n vertices (2^C(n,2) of them)."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        yield Graph(n, (pairs[b] for b in range(len(pairs)) if mask >> b & 1))


def random_graph(rng, n: int, p: float) -> Graph:
    """Each pair u < v, in lexicographic order, an edge with probability p."""
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def trees_of_order(n: int) -> list[Graph]:
    """All trees on n vertices, by leaf extension above the catalog cap."""
    if n <= 7:
        return [g for g in enumerate_graphs(n) if is_connected(g) and g.m == n - 1]
    seen = {}
    for t in trees_of_order(n - 1):
        for v in range(t.n):
            g = Graph(t.n + 1, list(t.edges) + [(v, t.n)])
            seen.setdefault(certificate(g), g)
    return list(seen.values())


@pytest.fixture(scope="session")
def small_catalog():
    return {n: enumerate_graphs(n) for n in range(0, 6)}
