"""Equitable refinement as it stood before the popcount kernel, kept
unchanged as a slow differential oracle for `reconkit.canon._refine`.

Every round walks every neighbor of every vertex, singletons included,
and regroups all vertices by (old color, sorted neighbor-color counts).
The library computes the same ordered partition from one bitmask per
cell; the two must agree call for call.
"""

from __future__ import annotations

from typing import Sequence


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
