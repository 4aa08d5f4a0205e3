"""Named verification sweeps; the full battery is the acceptance suite.

Every sweep cross-checks a construction against an independent brute-force
route and returns a (passed, detail) verdict; run_sweep names and times it
as a CriterionResult, so the CLI and the test suite share one
implementation.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from time import perf_counter
from typing import Callable, Optional

from .canon import are_isomorphic, certificate
from .deck import Deck, build_deck, deck_equal, subdeck_contained
from .deciders import legit_vertex, two_lvd
from .errors import InputError
from .families import (
    clique_union_pair,
    is_clique_union,
    many_preimage_deck,
    many_preimage_graphs,
)
from .graph import (
    Graph,
    complete_graph,
    empty_graph,
    enumerate_graphs,
    graph6_decode,
    graph6_encode,
    is_connected,
    line_graph,
    permute,
)
from .recon import recon_number
from .reductions import verify_reduction


Verdict = tuple[bool, str]  # (passed, detail) of one sweep


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail} ({self.elapsed:.1f}s)"


def check_deck_uniqueness() -> Verdict:
    """Nonisomorphic graphs on 3..6 vertices have different 1-vertex-decks."""
    collisions = []
    for n in (3, 4, 5, 6):
        decks = [build_deck(g, "vertex", 1).certs for g in enumerate_graphs(n)]
        for a, b in combinations(range(len(decks)), 2):
            if decks[a] == decks[b]:
                collisions.append((n, a, b))
    return (not collisions, f"{len(collisions)} deck collisions over n=3..6")


REDUCTION_CELLS = (
    ("gi_to_lvd", 1, None),
    ("gi_to_lvd", 2, None),
    ("gi_to_led", 1, None),
    ("gi_to_led", 2, None),
    ("gi_to_kedc", 1, 2),
    ("gi_to_kedc", 1, 3),
    ("gi_to_kedc", 2, 2),
    ("gi_to_kedc", 2, 3),
    ("gi_to_klvd", 1, 2),
    ("gi_to_klvd", 1, 3),
    ("gi_to_klvd", 2, 2),
    ("gi_to_klvd", 2, 3),
    ("gi_to_kled", 1, 2),
    ("gi_to_kled", 1, 3),
    ("gi_to_kled", 2, 2),
    ("gi_to_kled", 2, 3),
)


def check_reduction_iff(n_max: int = 5) -> Verdict:
    """Target decision == are_isomorphic for every gadget, over connected
    pairs up to order 4 (order 5 for the c=1 cells)."""
    violations = []
    skipped = []
    checked = 0
    for kind, c, k in REDUCTION_CELLS:
        cell_max = min(n_max, 4 if c > 1 else 5)
        report = verify_reduction(kind, cell_max, c, k)
        checked += report.checked
        violations.extend(
            f"{kind} c={c} k={k}: {v}" for v in report.violations
        )
        skipped.extend(f"{kind}: {s}" for s in report.skipped)
    detail = f"{checked} instances, {len(violations)} violations"
    if skipped:
        detail += f", {len(skipped)} cells skipped (capacity)"
    return (not violations, detail)


def check_edge_to_vertex_transfer(n_max: int = 4) -> Verdict:
    """k-EDC answers survive the hat/line-graph transfer to k-VDC."""
    report = verify_reduction("kedc_to_kvdc", min(n_max, 4), 1, 2)
    return (
        report.ok,
        f"{report.checked} instances, {len(report.violations)} violations",
    )


def check_line_graph_deck_identity() -> Verdict:
    """Edge-deck mapped through line graphs equals the line graph's
    vertex-deck, for n <= 5 and c in {1, 2}."""
    bad = 0
    for n in range(0, 6):
        for g in enumerate_graphs(n):
            for c in (1, 2):
                if c > g.m:
                    continue
                mapped = Deck(
                    "vertex",
                    [line_graph(card) for card in build_deck(g, "edge", c).cards],
                )
                if not deck_equal(mapped, build_deck(line_graph(g), "vertex", c)):
                    bad += 1
    return (bad == 0, f"{bad} identity failures")


def check_two_card_equivalence() -> Verdict:
    """two_lvd agrees with the exhaustive two-card subdeck search on all
    ordered pairs of graphs of orders 3 and 4, c in {1, 2}."""
    bad = 0
    checked = 0
    for n in (3, 4):
        gs = enumerate_graphs(n)
        for g1 in gs:
            for g2 in gs:
                for c in (1, 2):
                    checked += 1
                    if two_lvd(g1, g2, c) != legit_vertex(
                        Deck("vertex", [g1, g2]), c, "sub"
                    ):
                        bad += 1
    return (bad == 0, f"{checked} pairs, {bad} disagreements")


def check_rich_decks() -> Verdict:
    """The k-card family admits exactly 2^n pairwise nonisomorphic
    preimages, each containing the deck; card order matches the formula."""
    problems = []
    for k, n in ((2, 1), (2, 2), (3, 1)):
        deck = many_preimage_deck(k, n)
        preimages = many_preimage_graphs(k, n)
        want_order = (2 ** (k - 1) + 1) * n + k
        if deck.card_order != want_order or len(deck) != k:
            problems.append(f"(k={k},n={n}): bad deck shape")
        if len({certificate(p) for p in preimages}) != 2 ** n:
            problems.append(f"(k={k},n={n}): preimages not pairwise distinct")
        if len(preimages) != 2 ** n:
            problems.append(f"(k={k},n={n}): expected {2**n} preimages")
        for p in preimages:
            if not subdeck_contained(deck, build_deck(p, "vertex", 1)):
                problems.append(f"(k={k},n={n}): preimage misses the deck")
    return (not problems, "; ".join(problems) or "counts 2, 4, 2 verified")


def check_clique_pair_numbers() -> Verdict:
    """For n = 4..8 the clique-union pair has existential number 3,
    universal numbers floor(n/2)+2 on both sides, and the two decks share
    exactly floor(n/2)+1 cards."""
    problems = []
    for n in range(4, 9):
        t = n // 2
        first, second = clique_union_pair(n)
        ve = recon_number(first, "vertex", "exists").value
        va1 = recon_number(first, "vertex", "forall").value
        va2 = recon_number(second, "vertex", "forall").value
        if ve != 3:
            problems.append(f"n={n}: exists {ve} != 3")
        if va1 != t + 2 or va2 != t + 2:
            problems.append(f"n={n}: forall {va1},{va2} != {t + 2}")
        shared = Counter(build_deck(first, "vertex", 1).certs) & Counter(
            build_deck(second, "vertex", 1).certs
        )
        if sum(shared.values()) != t + 1:
            problems.append(
                f"n={n}: shared cards {sum(shared.values())} != {t + 1}"
            )
    return (not problems, "; ".join(problems) or "n=4..8 verified")


def check_clique_union_propagation() -> Verdict:
    """Four clique-union cards in a 1-vertex-deck force a clique-union
    graph, over every graph on 5..7 vertices."""
    bad = 0
    for n in (5, 6, 7):
        for g in enumerate_graphs(n):
            deck = build_deck(g, "vertex", 1)
            hits = sum(1 for card in deck.cards if is_clique_union(card))
            if hits >= 4 and not is_clique_union(g):
                bad += 1
    return (bad == 0, f"{bad} counterexamples over n=5..7")


def check_whitney() -> Verdict:
    """Line graphs separate connected nonisomorphic pairs on 4..5
    vertices; the triangle/3-star collision is the lone control."""
    bad = 0
    for n in (4, 5):
        conn = [g for g in enumerate_graphs(n) if is_connected(g)]
        certs = [certificate(line_graph(g)) for g in conn]
        for a, b in combinations(range(len(conn)), 2):
            if certs[a] == certs[b]:
                bad += 1
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    control = are_isomorphic(line_graph(complete_graph(3)), line_graph(star))
    return (
        bad == 0 and control,
        f"{bad} collisions; triangle/star control {'ok' if control else 'BROKEN'}",
    )


def check_iso_engine(seed: int = 0x5EED) -> Verdict:
    """Certificates are invariant under 100 random relabelings per graph
    (n <= 6) and pairwise distinct across the order-5 catalog."""
    rng = random.Random(seed)
    bad = 0
    for n in range(0, 7):
        for g in enumerate_graphs(n):
            want = certificate(g)
            for _ in range(100):
                perm = list(range(n))
                rng.shuffle(perm)
                if certificate(permute(g, perm)) != want:
                    bad += 1
    certs = [certificate(g) for g in enumerate_graphs(5)]
    distinct = len(set(certs)) == len(certs)
    return (
        bad == 0 and distinct,
        f"{bad} relabeling mismatches; order-5 certificates "
        + ("distinct" if distinct else "COLLIDE"),
    )


def check_graph6() -> Verdict:
    """Round-trip identity on every graph with n <= 5 plus the two
    hand-derived encodings."""
    bad = 0
    for n in range(0, 6):
        for g in enumerate_graphs(n):
            if graph6_decode(graph6_encode(g)) != g:
                bad += 1
    hand = (
        graph6_encode(complete_graph(3)) == "Bw"
        and graph6_encode(empty_graph(2)) == "A?"
    )
    return (
        bad == 0 and hand,
        f"{bad} round-trip failures; hand encodings "
        + ("ok" if hand else "BROKEN"),
    )


SWEEPS: dict[str, Callable[..., Verdict]] = {
    "deck-uniqueness": check_deck_uniqueness,
    "reduction-iff": check_reduction_iff,
    "edge-to-vertex-transfer": check_edge_to_vertex_transfer,
    "line-graph-deck-identity": check_line_graph_deck_identity,
    "two-card-equivalence": check_two_card_equivalence,
    "rich-decks": check_rich_decks,
    "clique-pair-numbers": check_clique_pair_numbers,
    "clique-union-propagation": check_clique_union_propagation,
    "whitney": check_whitney,
    "iso-engine": check_iso_engine,
    "graph6": check_graph6,
}
SCALED_SWEEPS = ("reduction-iff", "edge-to-vertex-transfer")  # take n_max


def _check_n_max(n_max: Optional[int]) -> None:
    # below order 2 no gadget has an instance, so a sweep would pass vacuously
    if n_max is not None and n_max < 2:
        raise InputError(f"n_max must be >= 2, got {n_max}")


def run_sweep(name: str, n_max: Optional[int] = None) -> CriterionResult:
    if name not in SWEEPS:
        raise InputError(
            f"unknown sweep {name!r}; choose from {', '.join(sorted(SWEEPS))}"
        )
    _check_n_max(n_max)
    if n_max is not None and name not in SCALED_SWEEPS:
        raise InputError(
            f"sweep {name!r} has no scale; n_max applies to "
            + " and ".join(SCALED_SWEEPS)
        )
    fn = SWEEPS[name]
    started = perf_counter()
    passed, detail = fn() if n_max is None else fn(n_max)
    return CriterionResult(name, passed, detail, perf_counter() - started)


def run_all(n_max: Optional[int] = None) -> list[CriterionResult]:
    """Every sweep; n_max scales the sweeps that take one."""
    _check_n_max(n_max)
    return [
        run_sweep(name, n_max if name in SCALED_SWEEPS else None) for name in SWEEPS
    ]
