import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from reconkit.canon import certificate
from reconkit.cli import build_parser, main
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
    # malformed deck file, or a c= past the 4,300-digit int-from-string
    # limit: exit 2, diagnostic names file and line
    bad = tmp_path / "bad.g6"
    for text in ("Bw\nB\x02w\n", "Bw\n# kind=vertex c=" + "9" * 4301 + "\n"):
        bad.write_text(text)
        code, _, err = run_cli(capsys, ["legit", str(bad)])
        assert code == 2
        assert "bad.g6:2" in err and "Traceback" not in err

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


SRC = Path(__file__).resolve().parents[1] / "src"


def cold_call(args: list[str], cwd: Path) -> tuple[int, str, str, set[str]]:
    """One CLI call in a fresh interpreter: exit code, stdout, stderr and
    the modules it loaded beyond a bare interpreter's, reconkit's named
    without their package prefix."""
    probe = (
        "import sys; bare = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
        "from reconkit.cli import main; code = main(sys.argv[2:]); "
        "print(code, *sorted(set(sys.modules) - bare), file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(SRC), *args],
        cwd=cwd, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr  # nonzero only if main raised
    *err, last = proc.stderr.splitlines()
    code, *modules = last.split()
    loaded = {m.removeprefix("reconkit.") for m in modules}
    return int(code), proc.stdout, "\n".join(err), loaded


def test_cli_import_loads_only_errors():
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import reconkit.cli; "
        "print(*sorted(m for m in sys.modules if m.startswith('reconkit')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(SRC)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == ["reconkit", "reconkit.cli", "reconkit.errors"]


SEARCH_LAYERS = {"deciders", "recon", "reductions", "families"}


@pytest.mark.parametrize(
    "args, code, unloaded",
    [
        (["deck", "k3.g6"], 0, SEARCH_LAYERS),
        (["check", "k3.g6", "k2x3.deck"], 0, SEARCH_LAYERS - {"deciders"}),
        (["legit", "k2x3.deck"], 0, SEARCH_LAYERS - {"deciders"}),
        (["preimages", "--count-only", "k2x3.deck"], 0, SEARCH_LAYERS - {"deciders"}),
        (["rn", "--kind", "vertex", "--quantifier", "exists", "k3.g6"], 0,
         {"reductions", "families"}),
        (["rn", "--kind", "vertex", "--quantifier", "exists", "bad.g6"], 2,
         {"recon", "deciders"}),
        (["reduce", "--kind", "gi-to-lvd", "--c", "1", "k3.g6", "k3.g6"], 0,
         {"deciders", "recon", "families", "dataclasses", "inspect"}),
        (["family", "clique-pair", "--n", "4"], 0, {"deciders", "recon", "reductions"}),
        (["family", "rich-deck", "--k", "2", "--n", "1"], 0,
         {"deciders", "recon", "reductions"}),
    ],
    ids=["deck", "check", "legit", "preimages", "rn", "rn-malformed", "reduce",
         "clique-pair", "rich-deck"],
)
def test_each_subcommand_loads_only_its_layers(tmp_path, args, code, unloaded):
    (tmp_path / "k3.g6").write_text(K3_LINE)
    (tmp_path / "k2x3.deck").write_text(DECK_K2X3)
    (tmp_path / "bad.g6").write_text("!!\n")
    got, out, err, loaded = cold_call(args, tmp_path)
    assert got == code, err
    assert not loaded & (unloaded | {"verify"})


def test_verify_names_the_sweeps_of_an_unknown_one(tmp_path):
    import reconkit.verify as verify

    code, out, err, _ = cold_call(["verify", "bogus"], tmp_path)
    assert code == 2 and out == ""
    assert "unknown sweep 'bogus'" in err and "Traceback" not in err
    assert all(name in err for name in verify.SWEEPS)
    code, out, _, loaded = cold_call(["verify", "graph6"], tmp_path)
    assert code == 0 and out.startswith("PASS graph6: ")
    assert "verify" in loaded


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


def test_huge_parameters_exit_3_with_a_short_message(capsys, tmp_path):
    # orders past Python's 4,300-digit int-to-str limit are named by size
    gpath = tmp_path / "g.g6"
    gpath.write_text(K3_LINE)
    huge = "9" * 4300
    for args in (
        ["family", "rich-deck", "--k", "20000", "--n", "1"],
        ["family", "rich-deck", "--k", "14000", "--n", "1"],
        ["reduce", "--kind", "gi-to-klvd", "--c", "1", "--k", huge, str(gpath), str(gpath)],
        ["reduce", "--kind", "gi-to-kedc", "--c", huge, "--k", "2", str(gpath), str(gpath)],
    ):
        code, out, err = run_cli(capsys, args)
        assert code == 3 and out == ""
        assert "capped below order 64" in err and len(err) < 200, err[:200]
    # counts past that limit in the search and deletion-set caps
    ppath = tmp_path / "p3.g6"
    ppath.write_text("Bg\n")
    c = "9" * 4000
    for args in (
        ["legit", "--c", c, str(gpath)],
        ["legit", "--mode", "sub", "--c", c, str(gpath)],
        ["legit", "--kind", "edge", "--mode", "sub", "--c", c, str(ppath)],
        ["preimages", "--c", c, str(gpath)],
        ["preimages", "--mode", "sub", "--c", c, str(gpath)],
        ["preimages", "--kind", "edge", "--mode", "sub", "--c", c, str(ppath)],
    ):
        code, out, err = run_cli(capsys, args)
        assert code == 3 and out == ""
        assert len(err) < 200 and "Traceback" not in err, err[:200]
    # a pure one-card edge deck is decided at once: a full c-edge deck has
    # C(m + c, c) cards, so no graph has this one
    code, out, err = run_cli(capsys, ["legit", "--kind", "edge", "--c", c, str(ppath)])
    assert (code, out, err) == (1, "no\n", "")


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
    "sweep, top, instances",
    [("reduction-iff", 5, 4172), ("edge-to-vertex-transfer", 4, 32)],
)
def test_verify_runs_at_the_n_max_top(capsys, monkeypatch, sweep, top, instances):
    # a scaled sweep runs at one scale, the top of its order range:
    # reduction-iff to order 5 (4 for its c=2 cells), edge-to-vertex-transfer
    # to 4; there is no --n-max to change it
    import reconkit.verify as verify

    orders = []
    real = verify.verify_reduction

    def spy(kind, n_max, *args):
        orders.append(n_max)
        return real(kind, n_max, *args)

    monkeypatch.setattr(verify, "verify_reduction", spy)
    code, out, _ = run_cli(capsys, ["verify", sweep])
    assert code == 0 and out.startswith(f"PASS {sweep}: {instances} instances, ")
    assert max(orders) == top
    for name in (sweep, "all"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", name, "--n-max", str(top)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_commands_parse():
    # every `reconkit ...` line inside a fenced block of the README
    parser, fenced, parsed = build_parser(), False, 0
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("reconkit "):
            try:
                parser.parse_args(shlex.split(line, comments=True)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {line}")
            parsed += 1
    assert parsed >= 15
