"""Command-line interface.

Decision subcommands exit 0 for yes and 1 for no; malformed input or
usage exits 2; capacity refusals exit 3.  Graphs travel as graph6 lines,
decks as graph6 files with '#' comments ("-" reads stdin).

Each handler imports the layers it runs, and the module itself imports
only ``errors``: every call starts a fresh interpreter, so a layer that
is loaded but not run is paid for on every call.  ``deck`` loads
graph/canon/deck, the deck problems add deciders, ``rn`` adds recon
once its graph has parsed, ``reduce`` loads reductions, ``family``
families and ``verify`` verify.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Optional

from .errors import CapacityError, InputError

if TYPE_CHECKING:
    from .deck import Deck
    from .graph import Graph


def _read_text(path: str) -> tuple[str, str]:
    name = "<stdin>" if path == "-" else path
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {name}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{name}: not UTF-8 text ({exc.reason})") from exc
    return text, name


def _read_graph(path: str) -> Graph:
    from .graph import graph6_decode

    text, name = _read_text(path)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            return graph6_decode(line)
        except InputError as exc:
            raise InputError(f"{name}:{lineno}: {exc}") from exc
    raise InputError(f"{name}: no graph6 line found")


def _read_deck(path: str, kind: Optional[str]) -> tuple[Deck, Optional[int]]:
    from .deck import deck_from_text

    text, name = _read_text(path)
    return deck_from_text(text, kind=kind, source=name)


def _read_deck_and_c(args) -> tuple[Deck, int]:
    """The deck argument and its deletion count: --c, else deck metadata."""
    deck, meta_c = _read_deck(args.deck, args.kind)
    c = args.c if args.c is not None else meta_c
    if c is None:
        raise InputError("deletion count needed: pass --c or use deck metadata")
    return deck, c


def _elapsed_ms(started: float) -> int:
    return int((perf_counter() - started) * 1000)


def _emit(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from exc


def _print_decision(
    args, problem: str, answer: bool, witness: list[Graph], started: float
) -> int:
    from .graph import graph6_encode

    if args.json:
        print(
            json.dumps(
                {
                    "problem": problem,
                    "answer": answer,
                    "witness": [graph6_encode(g) for g in witness],
                    "elapsed_ms": _elapsed_ms(started),
                }
            )
        )
    else:
        print("yes" if answer else "no")
        for g in witness:
            print(graph6_encode(g))
    return 0 if answer else 1


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_deck(args) -> int:
    from .deck import build_deck, deck_to_text, endvertex_deck

    g = _read_graph(args.graph)
    if args.kind == "endvertex":
        deck = endvertex_deck(g)
        c = None
    else:
        deck = build_deck(g, args.kind, args.c)
        c = args.c
    _emit(deck_to_text(deck, c=c), args.out)
    return 0


def _cmd_check(args) -> int:
    from .deciders import deck_check, subdeck_check

    started = perf_counter()
    g = _read_graph(args.graph)
    deck, c = _read_deck_and_c(args)
    if args.sub:
        answer = subdeck_check(g, deck, c)
        problem = f"{len(deck)}-{deck.kind[0]}dc_{c}"
    else:
        answer = deck_check(g, deck, c)
        problem = f"{deck.kind[0]}dc_{c}"
    return _print_decision(args, problem, answer, [], started)


def _cmd_legit(args) -> int:
    from .deciders import find_preimage, two_lvd

    started = perf_counter()
    deck, c = _read_deck_and_c(args)
    if args.two_card:
        if deck.kind != "vertex" or len(deck) != 2:
            raise InputError("--two-card needs a vertex deck with exactly 2 cards")
        answer = two_lvd(deck.cards[0], deck.cards[1], c)
        return _print_decision(args, f"2-lvd_{c}", answer, [], started)
    if deck.kind not in ("vertex", "edge"):
        raise InputError("legitimacy needs a vertex or edge deck")
    witness = find_preimage(deck, c, args.mode)
    problem = f"l{deck.kind[0]}d_{c}"
    if args.mode == "sub":
        problem = f"{len(deck)}-{problem}"
    found = [] if witness is None else [witness]
    return _print_decision(args, problem, bool(found), found, started)


def _cmd_preimages(args) -> int:
    from .deciders import enum_preimages

    started = perf_counter()
    deck, c = _read_deck_and_c(args)
    found = enum_preimages(deck, c, args.mode)
    if args.count_only:
        if args.json:
            print(
                json.dumps(
                    {
                        "problem": f"preimages-{deck.kind}-{args.mode}",
                        "count": len(found),
                        "elapsed_ms": _elapsed_ms(started),
                    }
                )
            )
        else:
            print(len(found))
        return 0 if len(found) else 1
    return _print_decision(
        args,
        f"preimages-{deck.kind}-{args.mode}",
        len(found) > 0,
        list(found.preimages),
        started,
    )


def _cmd_rn(args) -> int:
    started = perf_counter()
    g = _read_graph(args.graph)
    # imported after the read, so malformed input exits before the search layers load
    from .graph import graph6_encode
    from .recon import recon_number

    result = recon_number(g, args.kind, args.quantifier)
    value = "inf" if not result.finite else int(result.value)
    payload = {
        "problem": f"{'v' if args.kind == 'vertex' else 'e'}rn-{args.quantifier}",
        "value": value,
        "elapsed_ms": _elapsed_ms(started),
    }
    if result.witness is not None:
        payload["witness"] = [graph6_encode(x) for x in result.witness.cards]
    if result.counterexample is not None:
        payload["counterexample"] = [
            graph6_encode(x) for x in result.counterexample.cards
        ]
    if args.threshold is not None:
        answer = result.value <= args.threshold
        payload["answer"] = answer
        print(json.dumps(payload) if args.json else ("yes" if answer else "no"))
        return 0 if answer else 1
    if args.json:
        print(json.dumps(payload))
    else:
        print(value)
    return 0


# builder name in reductions, needs --k, returns (graph, deck)
_REDUCE_BUILDERS = {
    "gi-to-lvd": ("gi_to_lvd", False, False),
    "gi-to-led": ("gi_to_led", False, False),
    "gi-to-kedc": ("gi_to_kedc", True, True),
    "gi-to-klvd": ("gi_to_klvd", True, False),
    "gi-to-kled": ("gi_to_kled", True, False),
}


def _cmd_reduce(args) -> int:
    from . import reductions
    from .deck import deck_to_text
    from .graph import graph6_encode

    meta = [f"reduction={args.kind} c={args.c}"]
    if args.kind == "kedc-to-kvdc":
        g = _read_graph(args.source)
        cards, meta_c = _read_deck(args.target, "edge")
        image_graph, image_deck = reductions.kedc_to_kvdc(g, cards, args.c)
        meta.append(f"graph={graph6_encode(image_graph)}")
        _emit(deck_to_text(image_deck, c=args.c, comments=meta), args.out)
        return 0
    name, needs_k, is_instance = _REDUCE_BUILDERS[args.kind]
    builder = getattr(reductions, name)
    g = _read_graph(args.source)
    h = _read_graph(args.target)
    if needs_k:
        if args.k is None:
            raise InputError(f"{args.kind} requires --k")
        meta[0] += f" k={args.k}"
        out = builder(g, h, args.c, args.k)
    else:
        out = builder(g, h, args.c)
    if is_instance:
        graph, deck = out
        meta.append(f"graph={graph6_encode(graph)}")
    else:
        deck = out
    _emit(deck_to_text(deck, c=args.c, comments=meta), args.out)
    return 0


def _cmd_family(args) -> int:
    from .deck import deck_to_text
    from .families import clique_union_pair, many_preimage_deck, many_preimage_graphs
    from .graph import graph6_encode

    if args.family == "clique-pair":
        first, second = clique_union_pair(args.n)
        text = (
            f"# clique-union pair n={args.n}\n"
            + graph6_encode(first)
            + "\n"
            + graph6_encode(second)
            + "\n"
        )
        _emit(text, args.out)
        return 0
    deck = many_preimage_deck(args.k, args.n)
    _emit(
        deck_to_text(deck, c=1, comments=[f"rich-deck k={args.k} n={args.n}"]),
        args.out,
    )
    if args.emit_preimages is not None:
        lines = [f"# rich-deck preimages k={args.k} n={args.n}"]
        lines.extend(graph6_encode(p) for p in many_preimage_graphs(args.k, args.n))
        _emit("\n".join(lines) + "\n", args.emit_preimages)
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_all, run_sweep

    if args.sweep == "all":
        results = run_all()
    else:
        results = [run_sweep(args.sweep)]
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reconkit",
        description="graph reconstruction decks, deciders, reductions, numbers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("deck", help="build the deck of a graph")
    p.add_argument("--kind", choices=("vertex", "edge", "endvertex"), default="vertex")
    p.add_argument("--c", type=int, default=1, help="cards delete c elements")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("graph", help="graph6 file or -")
    p.set_defaults(func=_cmd_deck)

    p = sub.add_parser("check", help="deck checking (VDC/EDC, k-VDC/k-EDC)")
    p.add_argument("--kind", choices=("vertex", "edge"))
    p.add_argument("--c", type=int)
    p.add_argument("--sub", action="store_true", help="subdeck containment")
    p.add_argument("--json", action="store_true")
    p.add_argument("graph", help="graph6 file or -")
    p.add_argument("deck", help="deck file or -")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("legit", help="legitimate deck decisions (LVD/LED/k-*)")
    p.add_argument("--kind", choices=("vertex", "edge"))
    p.add_argument("--c", type=int)
    p.add_argument("--mode", choices=("pure", "sub"), default="pure")
    p.add_argument(
        "--two-card", action="store_true", help="two-card pairwise decision"
    )
    p.add_argument("--json", action="store_true")
    p.add_argument("deck", help="deck file or -")
    p.set_defaults(func=_cmd_legit)

    p = sub.add_parser("preimages", help="enumerate preimages of a deck")
    p.add_argument("--kind", choices=("vertex", "edge"))
    p.add_argument("--c", type=int)
    p.add_argument("--mode", choices=("pure", "sub"), default="pure")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("deck", help="deck file or -")
    p.set_defaults(func=_cmd_preimages)

    p = sub.add_parser("rn", help="reconstruction numbers and thresholds")
    p.add_argument("--kind", choices=("vertex", "edge"), required=True)
    p.add_argument("--quantifier", choices=("exists", "forall"), required=True)
    p.add_argument("--threshold", type=int, help="decide number <= threshold")
    p.add_argument("--json", action="store_true")
    p.add_argument("graph", help="graph6 file or -")
    p.set_defaults(func=_cmd_rn)

    p = sub.add_parser("reduce", help="build a reduction gadget instance")
    p.add_argument(
        "--kind",
        required=True,
        choices=tuple(_REDUCE_BUILDERS) + ("kedc-to-kvdc",),
    )
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("source", help="graph6 file or -")
    p.add_argument("target", help="graph6 file (deck file for kedc-to-kvdc)")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("family", help="emit a named graph family")
    fam = p.add_subparsers(dest="family", required=True)
    q = fam.add_parser("clique-pair", help="same-order clique-union pair")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--out")
    q.set_defaults(func=_cmd_family)
    q = fam.add_parser("rich-deck", help="k cards with 2^n preimages")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--out")
    q.add_argument("--emit-preimages", metavar="FILE")
    q.set_defaults(func=_cmd_family)

    p = sub.add_parser("verify", help="run named verification sweeps")
    p.add_argument("sweep", help="a sweep name, or all")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
