"""Seeded inputs: relabelings, the symmetric corpus and stratified samples."""

from __future__ import annotations

import random

from reconkit import Graph, complete_graph, line_graph, permute

# The symmetric corpus is relabeled with labelings drawn from this constant
# seed, not from --seed: one graph's certificate time varies up to 100x with
# the labeling, so per-seed labelings would let the seed, not the code, set
# the workload's throughput.
SYMMETRIC_LABELING_SEED = 410021


def relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return permute(g, perm)


def hypercube(d: int) -> Graph:
    n = 1 << d
    return Graph(n, [(u, u ^ 1 << b) for u in range(n) for b in range(d) if u < u ^ 1 << b])


def paley(q: int) -> Graph:
    squares = {x * x % q for x in range(1, q)}
    return Graph(q, [(u, v) for u in range(q) for v in range(u + 1, q) if (v - u) % q in squares])


def rook(k: int) -> Graph:
    n = k * k
    return Graph(
        n,
        [(a, b) for a in range(n) for b in range(a + 1, n) if a // k == b // k or a % k == b % k],
    )


def icosahedron() -> Graph:
    # apex 0, upper ring 1..5, lower ring 6..10, apex 11
    edges = []
    for i in range(1, 6):
        j = i % 5 + 1
        edges += [(0, i), (i, j), (i, 5 + i), (i, 5 + j), (5 + i, 5 + j), (11, 5 + i)]
    return Graph(12, edges)


def buckyball() -> Graph:
    """C60, the truncated icosahedron: one vertex per arc u->v of the
    icosahedron; u->v meets v->u and the arcs u->w with w adjacent to v."""
    ico = icosahedron()
    arcs = [(u, v) for u in range(12) for v in ico.neighbors(u)]
    index = {arc: i for i, arc in enumerate(arcs)}
    edges = set()
    for u, v in arcs:
        edges.add(tuple(sorted((index[(u, v)], index[(v, u)]))))
        for w in ico.neighbors(u):
            if ico.has_edge(v, w):
                edges.add(tuple(sorted((index[(u, v)], index[(u, w)]))))
    return Graph(60, edges)


def symmetric_graphs() -> dict[str, Graph]:
    """Q5, Paley(29), Paley(37), the 6x6 rook graph, T(9) and C60."""
    return {
        "q5": hypercube(5),
        "paley29": paley(29),
        "paley37": paley(37),
        "rook6": rook(6),
        "t9": line_graph(complete_graph(9)),
        "c60": buckyball(),
    }


def symmetric_labelings(name: str) -> random.Random:
    """The labeling stream of one symmetric graph, independent of the others."""
    return random.Random(f"{SYMMETRIC_LABELING_SEED}:{name}")


def apportion(sizes: list[int], total: int) -> list[int]:
    """Largest-remainder quotas proportional to `sizes`, summing to `total`."""
    whole = sum(sizes)
    exact = [s * total / whole for s in sizes]
    quotas = [int(x) for x in exact]
    order = sorted(range(len(sizes)), key=lambda i: (-(exact[i] - quotas[i]), i))
    for i in order[: total - sum(quotas)]:
        quotas[i] += 1
    return quotas


def systematic(items: list, quota: int, offset: float) -> list:
    """`quota` items spread evenly over `items`, starting at `offset` in [0, 1)."""
    return [items[int((i + offset) * len(items) / quota)] for i in range(quota)]


def van_der_corput(p: int) -> float:
    """0, 1/2, 1/4, 3/4, 1/8, ...: offsets whose first 2^k values split
    [0, 1) evenly, so successive passes interleave."""
    x, scale = 0.0, 0.5
    while p:
        x += (p & 1) * scale
        p >>= 1
        scale /= 2
    return x
