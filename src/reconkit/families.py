"""Explicit graph families with notable reconstruction behavior.

clique_union_pair: same-order clique unions that share many cards, which
separates the existential and universal vertex reconstruction numbers.

many_preimage_deck / many_preimage_graphs: k identical cards admitting
2^n pairwise nonisomorphic one-vertex preimages, built from a path, a set
of selector vertices, and per-path-position cliques whose vertices attach
to selector subsets of a chosen parity.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .canon import CERTIFICATE_ORDER_CAP, check_certificate_order
from .deck import Deck
from .errors import InputError
from .graph import (
    Graph,
    complete_graph,
    component_masks,
    copies,
    empty_graph,
    iter_bits,
    union,
)

FAMILY_ORDER_CAP = CERTIFICATE_ORDER_CAP - 1  # cards must be certifiable


def clique_union_pair(n: int) -> tuple[Graph, Graph]:
    """The order-n pair (K_{t+1} u K_{t-1}, 2K_t), t = n // 2, with an
    extra isolated vertex in each when n is odd."""
    if n < 4:
        raise InputError(f"the pair is defined for n >= 4, got {n}")
    check_certificate_order(n)
    t = n // 2
    first = union([complete_graph(t + 1), complete_graph(t - 1)])
    second = copies(complete_graph(t), 2)
    if n % 2:
        first = union([first, empty_graph(1)])
        second = union([second, empty_graph(1)])
    assert first.n == n and second.n == n
    return first, second


def _selector_subsets(
    selectors: Sequence[int], parity: int | None
) -> list[tuple[int, ...]]:
    # all subsets ordered by (size, lexicographic); parity 0 = even, 1 = odd
    out = []
    for size in range(len(selectors) + 1):
        if parity is not None and size % 2 != parity:
            continue
        out.extend(combinations(selectors, size))
    return out


def _selector_graph(
    path_len: int, selector_count: int, block_subsets: list[list[tuple[int, ...]]]
) -> Graph:
    """Path x_0..x_path_len, selector vertices, and one clique per inner
    path position; clique vertex j of block i attaches to x_i and to the
    selectors in block_subsets[i-1][j-1]."""
    n_path = path_len + 1
    block_size = len(block_subsets[0]) if block_subsets else 0
    order = n_path + selector_count + path_len * block_size
    edges: list[tuple[int, int]] = [(i, i + 1) for i in range(path_len)]
    for i in range(1, path_len + 1):
        start = n_path + selector_count + (i - 1) * block_size
        block = range(start, start + block_size)
        edges.extend(combinations(block, 2))
        edges.extend((i, z) for z in block)
        for j, subset in enumerate(block_subsets[i - 1]):
            edges.extend((start + j, y) for y in subset)
    return Graph(order, edges)


def many_preimage_deck(k: int, n: int) -> Deck:
    """k certificate-identical cards on (2^(k-1) + 1) n + k vertices."""
    if k < 2 or n < 1:
        raise InputError(f"need k >= 2 and n >= 1, got k={k}, n={n}")
    order = (2 ** (k - 1) + 1) * n + k
    check_certificate_order(order, "card order")
    selectors = tuple(range(n + 1, n + k))
    subsets = _selector_subsets(selectors, None)
    card = _selector_graph(n, k - 1, [subsets] * n)
    assert card.n == order
    return Deck("vertex", [card] * k)


def many_preimage_graphs(k: int, n: int) -> tuple[Graph, ...]:
    """2^n pairwise nonisomorphic preimages of many_preimage_deck(k, n).

    Preimages carry k selectors; per path position the clique attaches to
    all odd-size or all even-size selector subsets.  The list is ordered
    by the parity choice vector read as a binary number (odd = 0).
    """
    if k < 2 or n < 1:
        raise InputError(f"need k >= 2 and n >= 1, got k={k}, n={n}")
    order = (2 ** (k - 1) + 1) * n + k + 1
    check_certificate_order(order, "preimage order")
    selectors = tuple(range(n + 1, n + k + 1))
    by_parity = {
        0: _selector_subsets(selectors, 1),  # odd sizes encode bit 0
        1: _selector_subsets(selectors, 0),
    }
    out = []
    for vector in range(2 ** n):
        blocks = [
            by_parity[vector >> (n - i) & 1] for i in range(1, n + 1)
        ]
        graph = _selector_graph(n, k, blocks)
        assert graph.n == order
        out.append(graph)
    return tuple(out)


def is_clique_union(g: Graph) -> bool:
    """True when every connected component is a complete graph."""
    for comp in component_masks(g.n, g.rows):
        want = comp.bit_count() - 1
        for v in iter_bits(comp):
            if (g.rows[v] & comp).bit_count() != want:
                return False
    return True
