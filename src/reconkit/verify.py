"""Named verification sweeps; the full battery is the acceptance suite.

Every sweep cross-checks a construction against an independent brute-force
route at one fixed scale and returns a (passed, detail) verdict; run_sweep
names and times it as a CriterionResult, so the CLI and the test suite
share one implementation.  The reduction harness (verify_reduction) lives
here too: it checks each gadget of `reductions` against are_isomorphic
over every connected source pair up to a given order.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, combinations_with_replacement, product, starmap
from math import comb
from time import perf_counter
from typing import Callable, NamedTuple, Optional

from .canon import are_isomorphic, certificate
from .deck import Deck, build_deck, deck_equal, subdeck_contained
from .deciders import (
    _search_preimages,
    legit_edge,
    legit_vertex,
    subdeck_check,
    two_lvd,
)
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
from .reductions import (
    REDUCTION_KINDS,
    TAKES_K,
    _min_order,
    gi_to_kedc,
    gi_to_kled,
    gi_to_klvd,
    gi_to_led,
    gi_to_lvd,
    kedc_to_kvdc,
)


Verdict = tuple[bool, str]  # (passed, detail) of one sweep


class CriterionResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail} ({self.elapsed:.1f}s)"


# ---------------------------------------------------------------------------
# reduction harness


class ReductionReport(NamedTuple):
    checked: int
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def _connected(n: int) -> list[Graph]:
    return [g for g in enumerate_graphs(n) if is_connected(g)]


def verify_reduction(
    kind: str,
    n_max: int,
    c: int,
    k: Optional[int] = None,
) -> ReductionReport:
    """Sweep every admissible instance family up to n_max and check that
    the target decision equals are_isomorphic; violations are reported,
    and a capacity refusal propagates."""
    if kind not in REDUCTION_KINDS:
        raise InputError(f"unknown reduction kind {kind!r}")
    if n_max > 5:
        raise InputError(f"verification sweeps are capped at n_max = 5, got {n_max}")
    if n_max < _min_order(kind, c):
        # no instance below the minimum order: the sweep would pass vacuously
        raise InputError(
            f"{kind} with c={c} needs n_max >= {_min_order(kind, c)}, got {n_max}"
        )
    if kind == "kedc_to_kvdc":
        return _verify_transfer(n_max, c, k or 2)
    if kind in TAKES_K and k is None:
        raise InputError(f"{kind} requires k")

    def decide(g: Graph, h: Graph) -> bool:
        if kind == "gi_to_lvd":
            return legit_vertex(gi_to_lvd(g, h, c), c, "pure")
        if kind == "gi_to_led":
            return legit_edge(gi_to_led(g, h, c), c, "pure")
        if kind == "gi_to_kedc":
            graph, deck = gi_to_kedc(g, h, c, k)
            return subdeck_check(graph, deck, c)
        if kind == "gi_to_kled":
            return legit_edge(gi_to_kled(g, h, c, k), c, "sub")
        return legit_vertex(gi_to_klvd(g, h, c, k), c, "sub")

    violations: list[str] = []
    checked = 0
    for n in range(_min_order(kind, c), n_max + 1):
        conn = _connected(n)
        for g, h in product(conn, conn):
            got = decide(g, h)
            checked += 1
            want = are_isomorphic(g, h)
            if got != want:
                violations.append(
                    f"n={n} g={graph6_encode(g)} h={graph6_encode(h)} "
                    f"expected={want} got={got}"
                )
    return ReductionReport(checked, tuple(violations))


def _verify_transfer(n_max: int, c: int, k: int) -> ReductionReport:
    """Membership transfer of kedc_to_kvdc: the k-EDC answer on <g, cards>
    must equal the k-VDC answer on the line-graph image, for card multisets
    drawn from true edge-cards and same-shape non-cards alike."""

    def check(g: Graph, cards: Deck) -> Optional[str]:
        source = subdeck_check(g, cards, c)
        graph_im, cards_im = kedc_to_kvdc(g, cards, c)
        image = subdeck_check(graph_im, cards_im, c)
        if source != image:
            return (
                f"g={graph6_encode(g)} cards="
                + ",".join(graph6_encode(x) for x in cards.cards)
                + f" source={source} image={image}"
            )
        return None

    instances = []
    for n in range(c + 1, n_max + 1):
        same_order = enumerate_graphs(n)
        for g in same_order:
            if g.m < c:
                continue
            deck = build_deck(g, "edge", c)
            pool = [cards[0] for _, cards in deck.classes()]
            deck_certs = set(deck.certs)
            non_cards = [
                other
                for other in same_order
                if other.m == g.m - c and certificate(other) not in deck_certs
            ]
            pool.extend(non_cards[:3])
            for chosen in combinations_with_replacement(pool, k):
                instances.append((g, Deck("edge", chosen)))
    violations = tuple(v for v in starmap(check, instances) if v is not None)
    return ReductionReport(len(instances), violations)


# ---------------------------------------------------------------------------
# sweeps


CLASS_COUNTS = {3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}  # A000088


def check_deck_uniqueness() -> Verdict:
    """Nonisomorphic graphs on 3..7 vertices have different 1-vertex-decks
    (all 1,044 classes on 7 vertices among them, McKay 1997).  The class
    counts are checked too: a lossy enumeration has fewer collisions."""
    collisions = 0  # pairs of classes with one deck
    short = []
    for n, want in CLASS_COUNTS.items():
        graphs = enumerate_graphs(n)
        if len(graphs) != want:
            short.append(f"{len(graphs)} classes on {n} vertices, not {want}")
        decks = Counter(build_deck(g, "vertex", 1).certs for g in graphs)
        collisions += sum(comb(k, 2) for k in decks.values())
    detail = f"{collisions} deck collisions over n=3..7"
    return (not collisions and not short, "; ".join([detail] + short))


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


def check_reduction_iff() -> Verdict:
    """Target decision == are_isomorphic for every gadget, over connected
    pairs up to order 5 (4 for the c=2 cells)."""
    violations = []
    checked = 0
    for kind, c, k in REDUCTION_CELLS:
        report = verify_reduction(kind, 5 if c == 1 else 4, c, k)
        checked += report.checked
        violations.extend(
            f"{kind} c={c} k={k}: {v}" for v in report.violations
        )
    return (not violations, f"{checked} instances, {len(violations)} violations")


def check_edge_to_vertex_transfer() -> Verdict:
    """k-EDC answers (k=2, c=1) survive the hat/line-graph transfer to
    k-VDC, over every graph up to order 4."""
    report = verify_reduction("kedc_to_kvdc", 4, 1, 2)
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
    ordered pairs of graphs of orders 3 and 4, c in {1, 2}.  The search
    is the preimage search itself, stopped at its first preimage, not
    legit_vertex: legit_vertex answers no on two card classes by the same
    pair test as two_lvd."""
    bad = 0
    checked = 0
    for n in (3, 4):
        gs = enumerate_graphs(n)
        for g1 in gs:
            for g2 in gs:
                for c in (1, 2):
                    checked += 1
                    found = _search_preimages(Deck("vertex", [g1, g2]), c, "sub")
                    if two_lvd(g1, g2, c) != (next(found, None) is not None):
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
        conn = _connected(n)
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


def check_iso_engine() -> Verdict:
    """Certificates are invariant under 100 random relabelings per graph
    (n <= 6) and pairwise distinct across the order-5 catalog."""
    rng = random.Random(0x5EED)
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


SWEEPS: dict[str, Callable[[], Verdict]] = {
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


def run_sweep(name: str) -> CriterionResult:
    if name not in SWEEPS:
        raise InputError(
            f"unknown sweep {name!r}; choose from {', '.join(sorted(SWEEPS))}"
        )
    started = perf_counter()
    passed, detail = SWEEPS[name]()
    return CriterionResult(name, passed, detail, perf_counter() - started)


def run_all() -> list[CriterionResult]:
    """Every sweep, in SWEEPS order."""
    return [run_sweep(name) for name in SWEEPS]
