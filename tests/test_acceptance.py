"""Acceptance battery: every criterion at its stated scale, exact answers.

Each test prints one PASS/FAIL line (run with -s to stream them) and
asserts the sweep verdict; the sweeps themselves live in reconkit.verify
so the CLI `verify` subcommand runs the identical checks.
"""

import pytest

import reconkit.verify as verify
from reconkit.verify import SWEEPS, run_sweep

CRITERIA = [
    # (criterion, sweep name, scale notes)
    (1, "deck-uniqueness", "1-vertex-decks differ across noniso graphs, n=3..7"),
    (2, "reduction-iff", "gadget decision == isomorphism, c in {1,2}, k in {2,3}"),
    (3, "edge-to-vertex-transfer", "hat/line-graph transfer, n<=4, c=1, k=2"),
    (4, "line-graph-deck-identity", "edge-deck through line graphs, n<=5, c in {1,2}"),
    (5, "two-card-equivalence", "pairwise decision == subdeck search, orders 3-4"),
    (6, "rich-decks", "2^n preimages for (k,n) in {(2,1),(2,2),(3,1)}"),
    (7, "clique-pair-numbers", "exists=3, forall=floor(n/2)+2, shared cards, n=4..8"),
    (8, "clique-union-propagation", "4 clique-union cards force clique union, n=5..7"),
    (9, "whitney", "line graphs separate connected pairs, n=4..5, plus control"),
    (10, "iso-engine", "certificate invariance and catalog distinctness"),
    (11, "graph6", "round-trips n<=5 and hand-derived encodings"),
]


@pytest.mark.parametrize(
    "number,sweep,note",
    CRITERIA,
    ids=[f"criterion-{num:02d}-{name}" for num, name, _ in CRITERIA],
)
def test_acceptance_criterion(number, sweep, note):
    result = run_sweep(sweep)
    print(f"[criterion {number:2d}] {result.line()}  -- {note}")
    assert result.passed, f"criterion {number} failed: {result.detail}"


def test_every_sweep_is_covered():
    assert {name for _, name, _ in CRITERIA} == set(SWEEPS)


def test_deck_uniqueness_fails_when_a_class_is_lost(monkeypatch):
    # a lossy enumeration has no more deck collisions, so only the class
    # counts (A000088) can catch it
    real = verify.enumerate_graphs
    monkeypatch.setattr(verify, "enumerate_graphs", lambda n: real(n)[1:] if n == 6 else real(n))
    passed, detail = verify.check_deck_uniqueness()
    assert not passed
    assert "155 classes on 6 vertices, not 156" in detail


def _faults():
    # (sweep, name `verify` imports, the faulty stand-in built from the real
    # one, a phrase of the failure report)
    from reconkit.deck import Deck
    from reconkit.graph import complement, empty_graph, graph6_encode, union

    return [
        ("line-graph-deck-identity", "line_graph",
         lambda real: lambda g: union([real(g), empty_graph(1)]), "identity failures"),
        ("two-card-equivalence", "two_lvd",
         lambda real: lambda g1, g2, c: True, "274 pairs, "),
        ("rich-decks", "many_preimage_deck",
         lambda real: lambda k, n: Deck("vertex", real(k, n).cards[1:]),
         "(k=2,n=1): bad deck shape"),
        ("rich-decks", "many_preimage_graphs",
         lambda real: lambda k, n: real(k, n)[:1] * 2**n,
         "(k=2,n=2): preimages not pairwise distinct"),
        ("rich-decks", "many_preimage_graphs",
         lambda real: lambda k, n: real(k, n)[1:], "(k=2,n=1): expected 2 preimages"),
        ("rich-decks", "many_preimage_graphs",
         lambda real: lambda k, n: tuple(map(complement, real(k, n))),
         "(k=2,n=2): preimage misses the deck"),
        ("clique-pair-numbers", "recon_number",
         lambda real: lambda g, kind, q: real(g, kind, q)._replace(
             value=real(g, kind, q).value + 1),
         "n=4: exists 4 != 3; n=4: forall 5,5 != 4"),
        ("clique-pair-numbers", "clique_union_pair",
         lambda real: lambda n: (real(n)[0],) * 2, "n=4: shared cards 4 != 3"),
        ("clique-union-propagation", "is_clique_union",
         lambda real: lambda g: g.n == 4 or real(g), "counterexamples over n=5..7"),
        ("whitney", "line_graph",
         lambda real: lambda g: empty_graph(g.m), "collisions; triangle/star control ok"),
        ("whitney", "are_isomorphic",
         lambda real: lambda g, h: False, "0 collisions; triangle/star control BROKEN"),
        ("iso-engine", "certificate",
         lambda real: lambda g: graph6_encode(g).encode(),
         "relabeling mismatches; order-5 certificates distinct"),
        ("graph6", "graph6_decode",
         lambda real: lambda line: complement(real(line)),
         "round-trip failures; hand encodings ok"),
    ]


FAULTS = _faults()


@pytest.mark.parametrize(
    "sweep, name, fault, report", FAULTS, ids=[f"{f[0]}-{f[1]}" for f in FAULTS]
)
def test_sweep_fails_on_a_planted_fault(monkeypatch, sweep, name, fault, report):
    # a sweep that cannot fail checks nothing: each one reports FAIL when a
    # name it imports is replaced by a faulty stand-in
    monkeypatch.setattr(verify, name, fault(getattr(verify, name)))
    result = run_sweep(sweep)
    assert not result.passed
    assert report in result.detail
