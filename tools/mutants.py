"""Planted faults that named tests must catch.

    python3 tools/mutants.py [NAME ...]

Each entry of MUTANTS names a file of this checkout, an exact old text
that occurs once in it, the new text that plants a fault, and the test
node IDs that must fail once it is planted.  For each entry (or only the
named ones) the tool copies src/, tests/, conftest.py and pyproject.toml
into a fresh temporary directory, plants the fault there and runs pytest
on the entry's tests.  An entry is caught when pytest reports a failing
test (exit 1), SURVIVED when every named test passes, and an ERROR on any
other exit, such as a node ID that no longer exists.  The named tests are
first run once on an unplanted copy, which must pass.  The checkout itself
is never written to.  Exits 0 only when every entry is caught.

tests/test_package.py checks, without running anything, that each old
text still occurs exactly once, so that a refactor of the patched code
has to update the table.  A change that plants a new fault by hand adds
it here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "conftest.py", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the checkout
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "floor skip at the floor",
        "src/reconkit/recon.py",
        "if len(entries) < self.floor:",
        "if len(entries) <= self.floor:",
        ("tests/test_deciders.py::test_vertex_class_walk_matches_the_generic_walk",),
    ),
    Mutant(
        "floor of 1",
        "src/reconkit/recon.py",
        'self.floor = 2 if kind == "vertex" and g.n >= 3 else 0',
        'self.floor = 1 if kind == "vertex" and g.n >= 3 else 0',
        ("tests/test_deciders.py::test_vertex_class_walk_matches_the_generic_walk",),
    ),
    Mutant(
        "no (u, B) memo in the vertex walk",
        "src/reconkit/recon.py",
        "if at not in memo:",
        "if True:",
        ("tests/test_recon.py::test_vertex_walk_certifies_no_card_twice",),
    ),
    Mutant(
        "walks start from g's own card",
        "src/reconkit/recon.py",
        "start = Graph._from_rows(len(rows), rows)",
        "start = None",
        ("tests/test_recon.py::test_second_labeling_searches_only_its_own_certificate",),
    ),
    Mutant(
        "g certified after its deck",
        "src/reconkit/recon.py",
        "        self.own = certificate(g)\n        self.deck, self.starts = _build_deck(g, kind, 1)\n",
        "        self.deck, self.starts = _build_deck(g, kind, 1)\n        self.own = certificate(g)\n",
        ("tests/test_recon.py::test_second_labeling_searches_only_its_own_certificate",),
    ),
    Mutant(
        "profiles of floor cards asked of the walks",
        "src/reconkit/recon.py",
        "if size <= self.floor:",
        "if size < self.floor:",
        ("tests/test_recon.py::test_blockers_answer_every_profile_as_the_oracle_does",),
    ),
    Mutant(
        "no sum filter in the class walks",
        "src/reconkit/recon.py",
        "if sum(cov) > self.floor and cov not in seen:",
        "if cov not in seen:",
        ("tests/test_deciders.py::test_vertex_class_walk_matches_the_generic_walk",),
    ),
    Mutant(
        "g certified before the deletion-count check",
        "src/reconkit/recon.py",
        "        _deletion_sets(g, kind, 1)  # the deck's refusal comes before g's certificate\n",
        "",
        ("tests/test_recon.py::test_edgeless_graph_has_no_edge_deck",),
    ),
    Mutant(
        "hit profile without x's degree in its neighbours' sums",
        "src/reconkit/deciders.py",
        "lift = 1 << 12 | b",
        "lift = 1 << 12",
        ("tests/test_deciders.py::test_profile_tables_match_the_built_card",),
    ),
    Mutant(
        "x's neighbour-degree sum without b",
        "src/reconkit/deciders.py",
        "x = b << 12 | b",
        "x = b << 12",
        ("tests/test_deciders.py::test_profile_tables_match_the_built_card",),
    ),
    Mutant(
        "profile table masks vertex u + 1",
        "src/reconkit/deciders.py",
        "keep = ~(1 << u)",
        "keep = ~(1 << u + 1)",
        ("tests/test_deciders.py::test_profile_tables_match_the_built_card",),
    ),
    Mutant(
        "b off by one in the deletion-hit solve",
        "src/reconkit/deciders.py",
        "b, odd = divmod(total - cum_total, 2)",
        "b, odd = divmod(total - cum_total + 2, 2)",
        ("tests/test_deciders.py::test_deletion_hits_match_every_key",),
    ),
    Mutant(
        "deletion hits without the B | {u} entry",
        "src/reconkit/deciders.py",
        "                found.setdefault(a | 1 << u, []).append(entry)\n",
        "",
        ("tests/test_deciders.py::test_deletion_hits_match_every_key",),
    ),
    Mutant(
        "deletion-hit step [d >= b] one degree late",
        "src/reconkit/deciders.py",
        "beta[b:] = [x + 1 for x in beta[b:]]",
        "beta[b + 1:] = [x + 1 for x in beta[b + 1:]]",
        ("tests/test_deciders.py::test_deletion_hits_match_every_key",),
    ),
    Mutant(
        "deletion-hit prefix sign flipped",
        "src/reconkit/deciders.py",
        "beta = list(map(sub, have, cum))",
        "beta = list(map(sub, cum, have))",
        ("tests/test_deciders.py::test_deletion_hits_match_every_key",),
    ),
    Mutant(
        "C's last set per twin orbit",
        "src/reconkit/deck.py",
        "firsts.setdefault(key(moved), moved)",
        "firsts[key(moved)] = moved",
        ("tests/test_deck.py::test_certified_relabeling_builds_its_deck_without_search",),
    ),
    Mutant(
        "the greatest start per card class",
        "src/reconkit/deck.py",
        "moved < starts[cert][0]",
        "moved > starts[cert][0]",
        ("tests/test_deck.py::test_certified_relabeling_builds_its_deck_without_search",),
    ),
    Mutant(
        "no canonical-form memo entry",
        "src/reconkit/canon.py",
        "if code is not None and len(_CERT_CACHE) < _CACHE_LIMIT:",
        "if False:",
        ("tests/test_canon.py::test_certified_graph_needs_no_search_of_its_canonical_form",),
    ),
    Mutant(
        "no edge degree-sequence prefilter",
        "src/reconkit/deciders.py",
        "if exhaust:",
        "if False:",
        ("tests/test_deciders.py::test_edge_search_matcher_calls_are_bounded",),
    ),
    Mutant(
        "preimages sorted by rows",
        "src/reconkit/deciders.py",
        "found = sorted(_search_preimages(d, c, mode), key=lambda item: item[0])",
        "found = sorted(_search_preimages(d, c, mode), key=lambda item: item[1].rows)",
        ("tests/test_deciders.py::test_preimage_answer_bytes_are_pinned",),
    ),
    Mutant(
        "witnesses from the search alone",
        "src/reconkit/deciders.py",
        'if t.kind == "vertex" and mode == "sub" and len(t.cards) > 1:',
        "if False:",
        ("tests/test_deciders.py::test_preimage_answer_bytes_are_pinned",),
    ),
    # a spy left on the module the walks moved out of sees no calls
    Mutant(
        "edge walk spy on deciders' _extensions",
        "tests/test_recon.py",
        'monkeypatch.setattr(recon, "_extensions", extensions)',
        'monkeypatch.setattr(deciders, "_extensions", extensions)',
        ("tests/test_recon.py::test_one_walk_per_card_class",),
    ),
    Mutant(
        "vertex walk spy on deciders' _hit_profile",
        "tests/test_recon.py",
        'monkeypatch.setattr(recon, "_hit_profile", hit_profile)',
        'monkeypatch.setattr(deciders, "_hit_profile", hit_profile)',
        ("tests/test_recon.py::test_vertex_walk_certifies_no_card_twice",),
    ),
)


def copy_tree(into: Path) -> None:
    """The parts of the checkout that the tests read, without caches."""
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=ignore)
        else:
            shutil.copy2(source, into / name)


def run_tests(tree: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit code on the named tests of a copied tree."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    return done.returncode


def plant(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} times")
    path.write_text(text.replace(mutant.old, mutant.new))


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        control = Path(scratch) / "control"
        copy_tree(control)
        tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
        if run_tests(control, tests):
            print("the named tests fail without a planted fault", file=sys.stderr)
            return 2
        missed = 0
        for index, mutant in enumerate(chosen):
            tree = Path(scratch) / f"m{index}"
            copy_tree(tree)
            plant(tree, mutant)
            code = run_tests(tree, mutant.tests)
            verdict = "caught" if code == 1 else "SURVIVED" if code == 0 else f"ERROR ({code})"
            missed += code != 1
            print(f"{verdict:<10}  {mutant.name}  [{mutant.file}]", flush=True)
            shutil.rmtree(tree)
    print(f"{len(chosen) - missed} of {len(chosen)} caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
