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
