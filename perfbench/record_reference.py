"""Regenerate reference.json: the fixed input pools of recon-enum and
cli-cold and their recorded answers.

    python3 perfbench/record_reference.py

The answers come from the reconkit checked out beside this directory, so
run it only at a commit whose answers are trusted; the benchmark then
checks every later commit against them. Both pools are fixed so that the
recorded answers cover every --seed: recon-enum relabels its pool graphs
per seed (the answers are labeling-invariant) and cli-cold picks its cases
per seed.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from reconkit import (  # noqa: E402
    Deck,
    Graph,
    build_deck,
    deck_to_text,
    enum_preimages,
    graph6_encode,
    is_connected,
    many_preimage_deck,
    recon_number,
)

from perfbench import oracles  # noqa: E402
from perfbench.workloads import RICH_DECKS, cli_command, cli_env, recorded_value  # noqa: E402

POOL_SEED = 2004
# (kind, order, edge probability, count): the vertex strata follow the
# recon-enum spec (n = 8..10); the edge stratum keeps at most 12 edges.
RECON_STRATA = (
    ("vertex", 8, 0.5, 4),
    ("vertex", 9, 0.5, 2),
    ("vertex", 10, 0.5, 1),
    ("edge", 6, 0.5, 3),
    ("edge", 7, 0.4, 3),
    ("edge", 8, 0.3, 2),
)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def recon_pool(rng: random.Random) -> list[dict]:
    pool = []
    for kind, n, p, count in RECON_STRATA:
        for _ in range(count):
            g = random_graph(rng, n, p)
            while kind == "edge" and not 3 <= g.m <= 12:
                g = random_graph(rng, n, p)
            pool.append(
                {
                    "graph": graph6_encode(g),
                    "kind": kind,
                    "exists": recorded_value(recon_number(g, kind, "exists").value),
                    "forall": recorded_value(recon_number(g, kind, "forall").value),
                }
            )
    return pool


def connected_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    g = random_graph(rng, n, p)
    while not is_connected(g):
        g = random_graph(rng, n, p)
    return g


def cli_cases(rng: random.Random) -> list[dict]:
    """Small inputs, four cases per subcommand, plus malformed graph6."""
    cases = []

    def add(call, args, files):
        cases.append({"call": call, "args": args, "files": files})

    def g6(g: Graph) -> str:
        return graph6_encode(g) + "\n"

    for i in range(4):
        name = f"deck{i}.g6"
        kind = "edge" if i == 3 else "vertex"
        add("deck", ["deck", "--kind", kind, "--c", "1", name], {name: g6(connected_graph(rng, 5 + i % 2))})
    for i in range(4):
        g = connected_graph(rng, 6)
        other = connected_graph(rng, 6) if i % 2 else g
        gname, dname = f"check{i}.g6", f"check{i}.deck"
        add("check", ["check", gname, dname],
            {gname: g6(g), dname: deck_to_text(build_deck(other, "vertex", 1), c=1)})
    for i in range(4):
        g = connected_graph(rng, 5)
        deck = build_deck(g, "vertex", 1)
        if i % 2:  # swap one card for a card of another graph: usually no
            deck = Deck("vertex", deck.cards[1:] + build_deck(connected_graph(rng, 5), "vertex", 1).cards[:1])
        name = f"legit{i}.deck"
        add("legit", ["legit", "--mode", "pure", name], {name: deck_to_text(deck, c=1)})
    for i in range(4):
        g = connected_graph(rng, 6)
        cards = Deck("vertex", build_deck(g, "vertex", 1).cards[: 2 + i % 2])
        name = f"preimages{i}.deck"
        add("preimages", ["preimages", "--mode", "sub", "--count-only", name],
            {name: deck_to_text(cards, c=1)})
    for i in range(4):
        kind, quantifier = (("vertex", "exists"), ("vertex", "forall"), ("edge", "exists"), ("edge", "forall"))[i]
        name = f"rn{i}.g6"
        add("rn", ["rn", "--kind", kind, "--quantifier", quantifier, name], {name: g6(connected_graph(rng, 6))})
    for i in range(4):
        gname, hname = f"reduce{i}_g.g6", f"reduce{i}_h.g6"
        g = connected_graph(rng, 4)
        h = g if i % 2 else connected_graph(rng, 4)
        add("reduce", ["reduce", "--kind", "gi-to-lvd", "--c", "1", gname, hname], {gname: g6(g), hname: g6(h)})
    for n in (4, 6, 8):
        add("family", ["family", "clique-pair", "--n", str(n)], {})
    add("family", ["family", "rich-deck", "--k", "2", "--n", "2"], {})
    for i, text in enumerate(("!!!\n", "Bw~\n", "# no graph here\n", "C\n")):
        name = f"bad{i}.g6"
        add("usage_error", ["rn", "--kind", "vertex", "--quantifier", "exists", name], {name: text})
    return cases


def record_cli(cases: list[dict]) -> None:
    work = HERE / ".out" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for case in cases:
            for name, text in case["files"].items():
                (work / name).write_text(text)
            proc = subprocess.run(
                cli_command(case["args"]), cwd=work, env=cli_env(ROOT),
                capture_output=True, text=True, timeout=120,
            )
            case["exit"] = proc.returncode
            case["stdout"] = oracles.digest(proc.stdout)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> None:
    rng = random.Random(POOL_SEED)
    cases = cli_cases(rng)
    record_cli(cases)
    reference = {
        "pool_seed": POOL_SEED,
        "recon_pool": recon_pool(rng),
        "rich_preimages": {
            f"{k},{n}": len(enum_preimages(many_preimage_deck(k, n), 1, "sub"))
            for k, n in RICH_DECKS
        },
        "cli_cases": cases,
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
