"""The graph6 codec as it stood before the triangle kernel, kept
unchanged as a slow differential oracle for `reconkit.graph`.

The encoder shifts the upper triangle out one bit at a time and the
decoder reads it back one bit at a time, with the same checks and the
same error positions.  The library packs the triangle into one int and
converts it through base64; lines, graphs and errors must agree exactly.
"""

from __future__ import annotations

from typing import Sequence

from reconkit.errors import CapacityError, Graph6ParseError
from reconkit.graph import Graph

_G6_HEADER = ">>graph6<<"


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
