"""References that reconkit did not produce.

Every check here works on plain vertex counts and edge lists, so it stays
independent of reconkit's certificates and search code.
"""

from __future__ import annotations

import hashlib
from itertools import permutations

# OEIS A000088: graphs on n unlabeled vertices, n = 0..7.
CLASS_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044)

BRUTE_ORDER_CAP = 5  # 5! = 120 permutations per graph


def brute_canonical_mask(n: int, edges) -> int:
    """Smallest upper-triangle edge bitmask over all n! relabelings."""
    if n > BRUTE_ORDER_CAP:
        raise ValueError(f"brute-force canonical form is capped at n = {BRUTE_ORDER_CAP}")
    index = {}
    for u in range(n):
        for v in range(u + 1, n):
            index[(u, v)] = len(index)
    best = None
    for p in permutations(range(n)):
        mask = 0
        for u, v in edges:
            a, b = p[u], p[v]
            mask |= 1 << index[(a, b) if a < b else (b, a)]
        if best is None or mask < best:
            best = mask
    return best or 0


def brute_isomorphic(g, h) -> bool:
    """Isomorphism by trying every relabeling of both graphs."""
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    return brute_canonical_mask(g.n, g.edges) == brute_canonical_mask(h.n, h.edges)


def is_isomorphism(f, g, h) -> bool:
    """Edge-by-edge check that f is a bijection V(g) -> V(h) mapping the
    edge set of g onto the edge set of h."""
    if f is None or len(f) != g.n or sorted(f) != list(range(h.n)):
        return False
    if len(g.edges) != len(h.edges):
        return False
    target = set(h.edges)
    for u, v in g.edges:
        a, b = f[u], f[v]
        if ((a, b) if a < b else (b, a)) not in target:
            return False
    return True


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]
