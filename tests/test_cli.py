import json
import subprocess
import sys
from pathlib import Path

import pytest

from reconkit.canon import certificate
from reconkit.cli import main
from reconkit.deciders import subdeck_check
from reconkit.deck import Deck, deck_from_text
from reconkit.graph import (
    complete_graph,
    empty_graph,
    graph6_decode,
    graph6_encode,
    join,
    path_graph,
    union,
)

K3_LINE = "Bw\n"
DECK_K2X3 = "# kind=vertex c=1\nA_\nA_\nA_\n"


def run_cli(capsys, args, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_deck_subcommand(capsys, monkeypatch, tmp_path):
    gpath = tmp_path / "g.g6"
    gpath.write_text(K3_LINE)
    code, out, _ = run_cli(capsys, ["deck", "--kind", "vertex", "--c", "1", str(gpath)])
    assert code == 0
    deck, c = deck_from_text(out)
    assert c == 1 and len(deck) == 3


def test_legit_yes_with_preimage_witness(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, ["legit", "--mode", "pure", "--json", "-"],
        stdin=DECK_K2X3, monkeypatch=monkeypatch,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["answer"] is True
    assert payload["witness"] == ["Bw"]
    assert isinstance(payload["elapsed_ms"], int)
    # round-trip: witness graphs parse back to the same class
    assert certificate(graph6_decode(payload["witness"][0])) == certificate(
        complete_graph(3)
    )


def test_legit_prints_one_witness_without_enumerating(capsys, monkeypatch):
    # the one-card deck CT with c = 3 has many preimages; legit stops at the
    # first one the search finds (`preimages` is the command that lists all)
    import reconkit.deciders as deciders

    matched = []
    real = deciders._sub_match

    def spy(s, t):
        matched.append(s.n)
        return real(s, t)

    monkeypatch.setattr(deciders, "_sub_match", spy)
    code, out, _ = run_cli(
        capsys, ["legit", "--mode", "sub", "--c", "3", "-"],
        stdin="CT\n", monkeypatch=monkeypatch,
    )
    lines = out.split()
    assert code == 0 and lines[0] == "yes" and len(lines) == 2
    assert matched == [7]  # one candidate, not the 2^15 attachment patterns
    witness = graph6_decode(lines[1])
    assert subdeck_check(witness, Deck("vertex", [graph6_decode("CT")]), 3)


def test_legit_no_exit_code(capsys, monkeypatch):
    bogus = "# kind=vertex c=1\nBw\nB?\n"
    code, out, _ = run_cli(
        capsys, ["legit", "--mode", "sub", "-"], stdin=bogus, monkeypatch=monkeypatch
    )
    assert code == 1
    assert out.strip() == "no"


def test_legit_two_card(capsys, monkeypatch):
    two = "# kind=vertex c=1\nA_\nA?\n"
    code, out, _ = run_cli(
        capsys, ["legit", "--two-card", "--json", "-"],
        stdin=two, monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out)["problem"] == "2-lvd_1"


def test_two_card_star_deck_is_refused_after_cheap_certificates(
    capsys, monkeypatch, tmp_path
):
    # reading the deck certifies P40 and K1,39, whose 39 leaves are twins;
    # each search stays within its order, and then the deletion-set cap
    # refuses the sum of C(40, s) for s = 1..20 before any walk
    import reconkit.canon as canon

    searches = []
    run, leaf = canon._Search.run, canon._Search._leaf

    def counting_run(self):
        searches.append(0)
        return run(self)

    def counting_leaf(self, *args):
        searches[-1] += 1
        return leaf(self, *args)

    monkeypatch.setattr(canon._Search, "run", counting_run)
    monkeypatch.setattr(canon._Search, "_leaf", counting_leaf)
    star = join([empty_graph(1), empty_graph(39)])
    deck = tmp_path / "star.deck"
    deck.write_text(
        f"# kind=vertex c=20\n{graph6_encode(path_graph(40))}\n{graph6_encode(star)}\n"
    )
    canon.clear_certificate_cache()
    code, out, err = run_cli(capsys, ["legit", "--two-card", str(deck)])
    assert code == 3 and out == ""
    assert err == "capacity error: 618679078297 deletion sets exceed the 100000 cap\n"
    assert searches and max(searches) <= 40
    assert sum(searches) <= 2 * 40


# (deck file, extra flags, expected problem string): pure and sub mode
# over vertex and edge decks, c = 1 and c = 2
LEGIT_PROBLEMS = [
    ("# kind=vertex c=1\nA_\nA_\nA_\n", [], "lvd_1"),
    ("# kind=edge c=1\nBg\nBg\nBg\n", [], "led_1"),
    ("# kind=vertex c=2\n@\n@\n@\n", [], "lvd_2"),
    ("# kind=vertex\nA_\nA_\n", ["--mode", "sub", "--c", "1"], "2-lvd_1"),
    ("# kind=edge c=1\nBg\n", ["--mode", "sub"], "1-led_1"),
    ("# kind=edge c=2\nBO\nBO\n", ["--mode", "sub"], "2-led_2"),
]


@pytest.mark.parametrize(
    "deck,flags,problem", LEGIT_PROBLEMS, ids=[p for _, _, p in LEGIT_PROBLEMS]
)
def test_legit_problem_strings(capsys, monkeypatch, deck, flags, problem):
    code, out, _ = run_cli(
        capsys, ["legit", "--json", *flags, "-"], stdin=deck, monkeypatch=monkeypatch
    )
    payload = json.loads(out)
    assert code == 0 and payload["answer"] is True
    assert payload["problem"] == problem


@pytest.mark.parametrize(
    "flags", [["--c", "1"], ["--c", "1", "--mode", "sub"]], ids=["pure", "sub"]
)
def test_legit_refuses_endvertex_decks(capsys, monkeypatch, flags):
    deck = "# kind=endvertex\nBW\nBW\n"
    code, out, err = run_cli(
        capsys, ["legit", *flags, "-"], stdin=deck, monkeypatch=monkeypatch
    )
    assert code == 2 and out == ""
    assert "vertex or edge deck" in err


def test_check_subcommand(capsys, monkeypatch, tmp_path):
    gpath = tmp_path / "g.g6"
    gpath.write_text(K3_LINE)
    dpath = tmp_path / "deck.g6"
    run_cli(capsys, ["deck", "--c", "1", "--out", str(dpath), str(gpath)])
    code, out, _ = run_cli(capsys, ["check", str(gpath), str(dpath)])
    assert code == 0 and out.strip() == "yes"
    # against the wrong graph
    ppath = tmp_path / "p.g6"
    ppath.write_text(graph6_encode(graph6_decode("Bg")) + "\n")
    code, _, _ = run_cli(capsys, ["check", str(ppath), str(dpath)])
    assert code == 1


def test_rn_subcommand(capsys, monkeypatch):
    g6 = graph6_encode(union([complete_graph(3), empty_graph(1)]))
    code, out, _ = run_cli(
        capsys, ["rn", "--kind", "vertex", "--quantifier", "exists", "--json", "-"],
        stdin=g6 + "\n", monkeypatch=monkeypatch,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 3
    assert len(payload["witness"]) == 3
    # infinite value serialized as the token "inf"
    code, out, _ = run_cli(
        capsys, ["rn", "--kind", "vertex", "--quantifier", "exists", "--json", "-"],
        stdin="A_\n", monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out)["value"] == "inf"


def test_rn_threshold_exit_codes(capsys, monkeypatch):
    g6 = graph6_encode(union([complete_graph(3), empty_graph(1)]))
    code, _, _ = run_cli(
        capsys,
        ["rn", "--kind", "vertex", "--quantifier", "exists", "--threshold", "3", "-"],
        stdin=g6 + "\n", monkeypatch=monkeypatch,
    )
    assert code == 0
    code, _, _ = run_cli(
        capsys,
        ["rn", "--kind", "vertex", "--quantifier", "forall", "--threshold", "3", "-"],
        stdin=g6 + "\n", monkeypatch=monkeypatch,
    )
    assert code == 1


@pytest.mark.parametrize("quantifier", ["exists", "forall"])
def test_rn_edge_kind_refuses_an_edgeless_graph(capsys, monkeypatch, quantifier):
    code, out, err = run_cli(
        capsys, ["rn", "--kind", "edge", "--quantifier", quantifier, "-"],
        stdin="D??\n", monkeypatch=monkeypatch,
    )
    assert code == 2 and out == ""
    assert "cannot delete 1 edges from 0 edges" in err


def test_reduce_roundtrip(capsys, monkeypatch, tmp_path):
    gpath = tmp_path / "g.g6"
    gpath.write_text(K3_LINE)
    code, out, _ = run_cli(
        capsys, ["reduce", "--kind", "gi-to-lvd", "--c", "1", str(gpath), str(gpath)]
    )
    assert code == 0
    assert "reduction=gi-to-lvd c=1" in out
    code, _, _ = run_cli(
        capsys, ["legit", "--mode", "pure", "-"], stdin=out, monkeypatch=monkeypatch
    )
    assert code == 0


def test_family_subcommands(capsys, monkeypatch, tmp_path):
    code, out, _ = run_cli(capsys, ["family", "clique-pair", "--n", "6"])
    assert code == 0
    lines = [x for x in out.splitlines() if x and not x.startswith("#")]
    assert len(lines) == 2

    pre = tmp_path / "pre.g6"
    code, out, _ = run_cli(
        capsys,
        ["family", "rich-deck", "--k", "2", "--n", "1", "--emit-preimages", str(pre)],
    )
    assert code == 0
    deck, _ = deck_from_text(out)
    assert len(deck) == 2
    lines = [
        x for x in pre.read_text().splitlines() if x and not x.startswith("#")
    ]
    assert len(lines) == 2


def test_error_exit_codes(capsys, monkeypatch, tmp_path):
    # malformed deck file: exit 2, diagnostic names file and line
    bad = tmp_path / "bad.g6"
    bad.write_text("Bw\nB\x02w\n")
    code, _, err = run_cli(capsys, ["legit", str(bad)])
    assert code == 2
    assert "bad.g6:2" in err

    # capacity: exit 3
    big = graph6_encode(complete_graph(40))
    code, _, err = run_cli(
        capsys, ["rn", "--kind", "vertex", "--quantifier", "exists", "-"],
        stdin=big + "\n", monkeypatch=monkeypatch,
    )
    assert code == 3

    # usage error from argparse: exit 2
    with pytest.raises(SystemExit) as exc:
        main(["legit", "--mode", "nonsense", "x"])
    assert exc.value.code == 2


def test_family_clique_pair_cap(capsys):
    code, out, _ = run_cli(capsys, ["family", "clique-pair", "--n", "63"])
    assert code == 0 and len(out.splitlines()) == 3
    code, out, err = run_cli(capsys, ["family", "clique-pair", "--n", "64"])
    assert code == 3 and out == ""
    assert "capacity error" in err


def test_cli_import_leaves_pool_machinery_out():
    # a cold CLI call pays for every module it imports
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import reconkit.cli; "
        "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(src)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


def test_missing_c_is_input_error(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys, ["legit", "-"], stdin="A_\nA_\nA_\n", monkeypatch=monkeypatch
    )
    assert code == 2
    assert "deletion count" in err


def test_preimages_count(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, ["preimages", "--count-only", "-"],
        stdin=DECK_K2X3, monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out.strip() == "1"


def test_rich_deck_preimages_contain_deck_via_cli(capsys, monkeypatch, tmp_path):
    deck_path = tmp_path / "deck.g6"
    pre_path = tmp_path / "pre.g6"
    run_cli(
        capsys,
        [
            "family", "rich-deck", "--k", "2", "--n", "1",
            "--out", str(deck_path), "--emit-preimages", str(pre_path),
        ],
    )
    preimages = [
        line
        for line in pre_path.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    for g6 in preimages:
        gpath = tmp_path / "candidate.g6"
        gpath.write_text(g6 + "\n")
        code, _, _ = run_cli(capsys, ["check", "--sub", str(gpath), str(deck_path)])
        assert code == 0


def test_endvertex_deck_roundtrip(capsys, monkeypatch, tmp_path):
    gpath = tmp_path / "g.g6"
    gpath.write_text("Ch\n")  # the path on four vertices
    code, out, _ = run_cli(capsys, ["deck", "--kind", "endvertex", str(gpath)])
    assert code == 0
    deck, _ = deck_from_text(out)
    assert deck.kind == "endvertex" and len(deck) == 2


def test_verify_single_sweep(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["verify", "graph6"])
    assert code == 0
    assert out.startswith("PASS graph6: ")


def test_non_utf8_file_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_bytes(b"\xff\xfe\n")
    code, out, err = run_cli(
        capsys, ["rn", "--kind", "vertex", "--quantifier", "exists", str(bad)]
    )
    assert code == 2 and out == ""
    assert "bad.g6" in err and "UTF-8" in err


def test_non_utf8_stdin_is_input_error(capsys, monkeypatch):
    import io

    raw = io.TextIOWrapper(io.BytesIO(b"\xff\xfe\n"), encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stdin", raw)
    code, out, err = run_cli(capsys, ["legit", "--kind", "vertex", "--c", "1", "-"])
    assert code == 2 and out == ""
    assert "<stdin>" in err and "UTF-8" in err


def test_deletion_set_cap_exits_3(capsys, tmp_path):
    # C(40, 20) = 137,846,528,820 deletion sets: refused before the walk
    gpath = tmp_path / "p40.g6"
    gpath.write_text(graph6_encode(path_graph(40)) + "\n")
    card = tmp_path / "k20.deck"
    card.write_text("# kind=vertex c=20\n" + graph6_encode(complete_graph(20)) + "\n")
    for args in (
        ["check", "--sub", str(gpath), str(card)],
        ["deck", "--c", "20", str(gpath)],
    ):
        code, out, err = run_cli(capsys, args)
        assert code == 3 and out == ""
        assert "deletion sets exceed" in err


def test_reduce_refuses_an_oversized_gadget_with_exit_3(capsys, tmp_path):
    gpath = tmp_path / "g.g6"
    gpath.write_text(K3_LINE)
    code, out, err = run_cli(
        capsys,
        ["reduce", "--kind", "gi-to-klvd", "--c", "1", "--k", "100000", str(gpath), str(gpath)],
    )
    assert code == 3 and out == ""
    assert "capped below order 64, got gi_to_klvd card order" in err


def test_write_error_is_input_error(capsys, tmp_path):
    # --out names a directory: exit 2 with a message, not a traceback
    gpath = tmp_path / "g.g6"
    gpath.write_text(K3_LINE)
    for args in (
        ["deck", "--out", str(tmp_path), str(gpath)],
        ["family", "clique-pair", "--n", "6", "--out", str(tmp_path)],
    ):
        code, out, err = run_cli(capsys, args)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write")


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "reduction-iff", "--n-max", "0"],
        ["verify", "reduction-iff", "--n-max", "2"],  # floor 3
        ["verify", "edge-to-vertex-transfer", "--n-max", "-3"],
        ["verify", "edge-to-vertex-transfer", "--n-max", "1"],  # floor 2
        ["verify", "all", "--n-max", "1"],
        ["verify", "all", "--n-max", "2"],  # floor 3, from reduction-iff
        ["verify", "graph6", "--n-max", "2"],  # graph6 has no scale
    ],
)
def test_verify_refuses_vacuous_or_ignored_n_max(capsys, args):
    code, out, err = run_cli(capsys, args)
    assert code == 2 and out == ""
    assert "n_max" in err


@pytest.mark.parametrize(
    "sweep, floor", [("reduction-iff", 3), ("edge-to-vertex-transfer", 2)]
)
def test_verify_runs_at_the_n_max_floor(capsys, sweep, floor):
    # every cell of the sweep has an instance at its floor
    code, out, _ = run_cli(capsys, ["verify", sweep, "--n-max", str(floor)])
    assert code == 0 and out.startswith(f"PASS {sweep}: ")
    assert not out.split(": ")[1].startswith("0 instances")


def stub_sweeps(monkeypatch) -> list:
    """Replace every sweep by a stub; returns the (name, args) of each call."""
    import reconkit.verify as verify

    calls = []

    def stub(name):
        def sweep(*args):
            calls.append((name, args))
            return True, "stub"

        return sweep

    for name in list(verify.SWEEPS):
        monkeypatch.setitem(verify.SWEEPS, name, stub(name))
    return calls


def test_verify_floor_is_checked_before_any_sweep_starts(monkeypatch):
    import reconkit.verify as verify
    from reconkit.errors import InputError

    calls = stub_sweeps(monkeypatch)
    with pytest.raises(InputError):
        verify.run_all(2)
    with pytest.raises(InputError):
        verify.run_sweep("reduction-iff", 2)
    with pytest.raises(InputError):
        verify.run_sweep("edge-to-vertex-transfer", 1)
    assert calls == []
    verify.run_sweep("reduction-iff", 3)
    verify.run_sweep("edge-to-vertex-transfer", 2)
    assert calls == [("reduction-iff", (3,)), ("edge-to-vertex-transfer", (2,))]


def test_verify_all_passes_n_max_to_scaled_sweeps_only(capsys, monkeypatch):
    import reconkit.verify as verify

    calls = stub_sweeps(monkeypatch)
    code, out, _ = run_cli(capsys, ["verify", "all", "--n-max", "3"])
    assert code == 0 and len(out.splitlines()) == len(verify.SWEEPS)
    assert calls == [
        (name, (3,) if name in verify.SCALED_SWEEPS else ()) for name in verify.SWEEPS
    ]
