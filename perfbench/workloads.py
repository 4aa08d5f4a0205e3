"""The four workloads: gadget-iff, catalog-canon, recon-enum and cli-cold.

Each workload builds its inputs from the seed in `setup` and then serves
one pass of items, one after another. `run` makes the calls into reconkit
for one item and opens a span around each; `check` compares the outputs
with a reference that reconkit did not produce. Importing this module
imports reconkit, so the harness times the import as part of set-up.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
from math import comb
from pathlib import Path

import reconkit as rk
from reconkit.deciders import VERTEX_SEARCH_BITS_CAP
from reconkit.reductions import _min_order
from reconkit.verify import REDUCTION_CELLS

from . import corpus, oracles
from .metrics import CLI_CALLS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"

RICH_DECKS = ((2, 1), (2, 2), (3, 1))


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def recorded_value(x: float):
    return "inf" if x == math.inf else int(x)


def cli_env(root: Path) -> dict:
    """The caller's environment without RECONKIT_THREADS, importing
    reconkit from the checkout's src/."""
    env = {k: v for k, v in os.environ.items() if k not in ("RECONKIT_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def cli_command(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "reconkit.cli", *args]


def _plain(x):
    if isinstance(x, rk.Graph):
        return rk.graph6_encode(x)
    if isinstance(x, rk.Deck):
        return [x.kind, [rk.graph6_encode(card) for card in x.cards]]
    if isinstance(x, (tuple, list)):
        return [_plain(v) for v in x]
    if isinstance(x, frozenset):
        return sorted(_plain(v) for v in x)
    if isinstance(x, bytes):
        return x.decode()
    return x


def input_digest(items: list) -> str:
    """Digest of a pass's inputs, graphs as graph6."""
    return oracles.digest(json.dumps(_plain(items)))


class Workload:
    name = ""
    purpose = ""
    items_per_pass = 0
    # Nominal seconds of one pass at the reference machine speed. A run of
    # --seconds serves round(seconds / pass_seconds) passes, at least one,
    # however fast the machine is, so every run of a seed serves the same
    # items.
    pass_seconds = 1.0
    # Set-ups per run (this process plus children); setup_s is their median.
    setup_repeats = 7
    in_process = True

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.items: list = []
        self.setup_checks = 0  # reference checks made during set-up
        self.setup_failures = 0

    @classmethod
    def passes(cls, seconds: float) -> int:
        return max(1, round(seconds / cls.pass_seconds))

    def setup(self, tr) -> None:
        raise NotImplementedError

    def pass_items(self, p: int) -> list:
        """The items of pass p (0-based); every pass serves the same ones
        unless a workload says otherwise."""
        return self.items

    def run(self, item, tr):
        raise NotImplementedError

    def check(self, item, out) -> bool:
        raise NotImplementedError

    def probe(self, tr) -> None:
        """Extra traced calls that are not items (cli-cold only)."""

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# gadget-iff

# (kind, c, k, largest order): the reduction-iff cells decided today, each
# swept to the order check_reduction_iff uses (5 for c = 1, 4 otherwise).
# gi_to_klvd c=2 k=3 is refused over capacity and stays out.
GADGET_CELLS = tuple(
    (kind, c, k, 4 if c > 1 else 5)
    for kind, c, k in REDUCTION_CELLS
    if (kind, c, k) != ("gi_to_klvd", 2, 3)
)
# A pass is a 1/8 stratified sample of the 4,132 sweep instances; pass p
# shifts every stratum's offset by van_der_corput(p), so two passes make an
# evenly spread 1/4 sample.
GADGET_SHARE = 1 / 8


class GadgetIff(Workload):
    name = "gadget-iff"
    items_per_pass = 516
    pass_seconds = 11.0
    purpose = (
        "reduction-iff acceptance traffic: gadget build plus the preimage "
        "search of deciders, stratified by cell, order and answer"
    )

    def setup(self, tr) -> None:
        rng = random.Random(self.seed)
        self.conn: dict[int, list] = {}
        masks: dict[int, list[int]] = {}
        for n in range(2, 6):
            with tr.span("graph.enumerate_graphs"):
                classes = rk.enumerate_graphs(n)
            self.conn[n] = [g for g in classes if rk.is_connected(g)]
            masks[n] = [oracles.brute_canonical_mask(g.n, g.edges) for g in self.conn[n]]
        self.strata = []
        for ci, (kind, c, _k, top) in enumerate(GADGET_CELLS):
            low = _min_order(kind, c)
            for n in range(low, (3 if self.tiny else top) + 1):
                split: dict[bool, list] = {True: [], False: []}
                for gi, mg in enumerate(masks[n]):
                    for hi, mh in enumerate(masks[n]):
                        split[mg == mh].append((ci, n, gi, hi, mg == mh))
                # Sorted by edge count, so a systematic sample spreads evenly
                # over small and large gadgets whatever its offset.
                for pairs in split.values():
                    pairs.sort(key=lambda x: (self.conn[n][x[2]].m + self.conn[n][x[3]].m, x[2], x[3]))
                self.strata.extend(pairs for pairs in split.values() if pairs)
        sizes = [len(pairs) for pairs in self.strata]
        share = 1 / 2 if self.tiny else GADGET_SHARE
        self.quotas = corpus.apportion(sizes, round(sum(sizes) * share))
        self.offsets = [rng.random() for _ in self.strata]
        self.items = self.pass_items(0)

    def pass_items(self, p: int) -> list:
        chosen = []
        shift = corpus.van_der_corput(p)
        for pairs, quota, offset in zip(self.strata, self.quotas, self.offsets):
            chosen.extend(corpus.systematic(pairs, quota, (offset + shift) % 1))
        # Seeded order, not sweep order: cells interleave, so a few seconds
        # of a slow or fast machine fall on every cell alike.
        random.Random(f"{self.seed}:{p}").shuffle(chosen)
        return [
            (GADGET_CELLS[ci], self.conn[n][gi], self.conn[n][hi], answer)
            for ci, n, gi, hi, answer in chosen
        ]

    def run(self, item, tr):
        (kind, c, k, _top), g, h, _want = item
        build = getattr(rk, kind)
        with tr.span("reductions." + kind):
            built = build(g, h, c) if k is None else build(g, h, c, k)
        if kind == "gi_to_kedc":
            graph, deck = built
            with tr.span("deciders.subdeck_check") as s:
                answer = rk.subdeck_check(graph, deck, c)
        elif kind in ("gi_to_lvd", "gi_to_klvd"):
            deck = built
            mode = "pure" if kind == "gi_to_lvd" else "sub"
            bits = c * deck.card_order + c * (c - 1) // 2
            if kind == "gi_to_klvd" and k == 2 and bits > VERTEX_SEARCH_BITS_CAP:
                # the two-card route verify_reduction takes past the cap
                with tr.span("deciders.two_lvd") as s:
                    answer = rk.two_lvd(deck.cards[0], deck.cards[1], c)
            else:
                with tr.span(f"deciders.legit_vertex.{mode}", offered=2**bits) as s:
                    answer = rk.legit_vertex(deck, c, mode)
        else:
            deck = built
            mode = "pure" if kind == "gi_to_led" else "sub"
            base = deck.cards[0]
            offered = comb(comb(base.n, 2) - base.m, c)
            with tr.span(f"deciders.legit_edge.{mode}", offered=offered) as s:
                answer = rk.legit_edge(deck, c, mode)
        s.attrs["answer"] = answer
        return answer

    def check(self, item, out) -> bool:
        return out is item[3]


# ---------------------------------------------------------------------------
# catalog-canon

CATALOG_MAX_ORDER = 7  # 1,252 classes on 1 <= n <= 7
# Relabelings per symmetric graph, sized from the measured certificate
# times of the drawn labelings: rook6 and t9 take 0.2 to 13 s a labeling,
# the other four under 0.4 s. The 30 symmetric items outnumber the 12
# items above the tail percentile of a one-pass run, so the tail lands
# among them, in the cluster of six paley37 labelings (55 to 66 ms).
SYMMETRIC_LABELINGS = {"q5": 6, "paley29": 6, "paley37": 6, "rook6": 3, "t9": 3, "c60": 6}


class CatalogCanon(Workload):
    name = "catalog-canon"
    items_per_pass = 1252 + sum(SYMMETRIC_LABELINGS.values())
    pass_seconds = 24.0
    setup_repeats = 3  # each set-up enumerates the catalog, about 5 s
    purpose = (
        "canon, deck and graph: a seeded relabeling of every class on n<=7 "
        "(certificate, isomorphism, deck, graph6) plus relabeled symmetric "
        "graphs"
    )

    def setup(self, tr) -> None:
        rng = random.Random(self.seed)
        self.reps = []
        for n in range(1, 5 if self.tiny else CATALOG_MAX_ORDER + 1):
            with tr.span("graph.enumerate_graphs"):
                classes = rk.enumerate_graphs(n)
            self.setup_checks += 1
            if len(classes) != oracles.CLASS_COUNTS[n]:
                self.setup_failures += 1
            self.reps.extend(classes)
        self.rep_cert = [rk.certificate(g) for g in self.reps]
        self.rep_deck = [rk.build_deck(g, "vertex", 1) for g in self.reps]
        items = [("class", i, corpus.relabel(g, rng)) for i, g in enumerate(self.reps)]
        symmetric = corpus.symmetric_graphs()
        if self.tiny:
            symmetric = {"c60": symmetric["c60"]}
        self.sym_cert = {name: rk.certificate(g) for name, g in symmetric.items()}
        for name, g in symmetric.items():
            labelings = corpus.symmetric_labelings(name)
            for _ in range(SYMMETRIC_LABELINGS[name]):
                items.append(("sym", name, corpus.relabel(g, labelings)))
        rng.shuffle(items)
        self.items = items

    def run(self, item, tr):
        what, key, x = item
        if what == "sym":
            with tr.span("canon.certificate", sym=key):
                return rk.certificate(x)
        with tr.span("canon.certificate"):
            cert = rk.certificate(x)
        with tr.span("canon.find_isomorphism"):
            iso = rk.find_isomorphism(x, self.reps[key])
        with tr.span("deck.build_deck") as s:
            deck = rk.build_deck(x, "vertex", 1)
            s.attrs["cards"] = len(deck)
        with tr.span("deck.deck_equal"):
            same = rk.deck_equal(deck, self.rep_deck[key])
        with tr.span("graph.graph6_encode"):
            line = rk.graph6_encode(x)
        with tr.span("graph.graph6_decode"):
            back = rk.graph6_decode(line)
        return cert, iso, same, back

    def check(self, item, out) -> bool:
        what, key, x = item
        if what == "sym":
            return out == self.sym_cert[key]
        cert, iso, same, back = out
        return (
            cert == self.rep_cert[key]
            and oracles.is_isomorphism(iso, x, self.reps[key])
            and same is True
            and back == x
        )


# ---------------------------------------------------------------------------
# recon-enum

CLIQUE_PAIR_ORDERS = range(4, 9)


class ReconEnum(Workload):
    name = "recon-enum"
    items_per_pass = 48
    pass_seconds = 6.6
    purpose = (
        "exhaustive deciders search: recon_number on relabeled pool graphs "
        "(vertex n=8..10, edge m<=12, both quantifiers), clique pairs, "
        "enum_preimages on rich decks"
    )

    def setup(self, tr) -> None:
        reference = load_reference()
        pool = reference["recon_pool"]
        if self.tiny:
            pool = [e for e in pool if e["kind"] == "edge"][:2]
        self.base = []
        for entry in pool:
            g = rk.graph6_decode(entry["graph"])
            for quantifier in ("exists", "forall"):
                self.base.append(("rn", entry["kind"], quantifier, g, entry[quantifier]))
        for n in CLIQUE_PAIR_ORDERS if not self.tiny else (4,):
            with tr.span("families.clique_union_pair"):
                first, second = rk.clique_union_pair(n)
            t = n // 2
            self.base.append(("rn", "vertex", "exists", first, 3))
            self.base.append(("rn", "vertex", "forall", first, t + 2))
            self.base.append(("rn", "vertex", "forall", second, t + 2))
        for k, n in RICH_DECKS[:1] if self.tiny else RICH_DECKS:
            with tr.span("families.many_preimage_deck"):
                deck = rk.many_preimage_deck(k, n)
            with tr.span("families.many_preimage_graphs"):
                graphs = rk.many_preimage_graphs(k, n)
            want = frozenset(rk.certificate(p) for p in graphs)
            self.base.append(("rich", deck, want, reference["rich_preimages"][f"{k},{n}"]))
        self.items = self.pass_items(0)

    def pass_items(self, p: int) -> list:
        """The same graphs every pass, relabeled and ordered afresh, so the
        run's item times are not those of one labeling."""
        rng = random.Random(f"{self.seed}:{p}")
        items = []
        for item in self.base:
            if item[0] == "rich":
                _, deck, want, count = item
                card = corpus.relabel(deck.cards[0], rng)
                items.append(("rich", rk.Deck("vertex", [card] * len(deck)), want, count))
            else:
                kind, quantifier, g, value = item[1:]
                items.append(("rn", kind, quantifier, corpus.relabel(g, rng), value))
        rng.shuffle(items)
        return items

    def run(self, item, tr):
        if item[0] == "rich":
            deck = item[1]
            with tr.span("deciders.enum_preimages", offered=2**deck.card_order) as s:
                found = rk.enum_preimages(deck, 1, "sub")
                s.attrs["found"] = len(found)
            return found
        _, kind, quantifier, g, _want = item
        with tr.span(f"recon.{kind}_{quantifier}"):
            return rk.recon_number(g, kind, quantifier).value

    def check(self, item, out) -> bool:
        if item[0] == "rich":
            _, _deck, want, count = item
            got = {rk.certificate(p) for p in out.preimages}
            return len(out) == count and want <= got
        return recorded_value(out) == item[4]


# ---------------------------------------------------------------------------
# cli-cold

INTERPRETER_PROBES = 8


class CliCold(Workload):
    name = "cli-cold"
    items_per_pass = len(CLI_CALLS)
    pass_seconds = 2.0
    in_process = False
    purpose = (
        "fresh interpreter per call, one per subcommand plus one malformed "
        "input (exit 2): interpreter start, import and the cli layer"
    )

    def setup(self, tr) -> None:
        self.cases: dict[str, list] = {}
        for case in load_reference()["cli_cases"]:
            self.cases.setdefault(case["call"], []).append(case)
        self.workdir = OUT / f"cli-{os.getpid()}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        for group in self.cases.values():
            for case in group:
                for name, text in case["files"].items():
                    (self.workdir / name).write_text(text)
        self.env = cli_env(ROOT)
        self.items = self.pass_items(0)

    def pass_items(self, p: int) -> list:
        """One call per subcommand, each case drawn from its pool."""
        rng = random.Random(f"{self.seed}:{p}")
        return [rng.choice(self.cases[call]) for call in CLI_CALLS]

    def _call(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            argv,
            cwd=self.workdir,
            env=self.env,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def run(self, case, tr):
        with tr.span("cli." + case["call"]):
            proc = self._call(cli_command(case["args"]))
        return proc.returncode, oracles.digest(proc.stdout)

    def check(self, case, out) -> bool:
        return out == (case["exit"], case["stdout"])

    def probe(self, tr) -> None:
        """The floor under every call: a bare interpreter, and one that
        only imports reconkit.cli."""
        for _ in range(INTERPRETER_PROBES):
            with tr.span("cli.python_startup"):
                self._call([sys.executable, "-c", "pass"])
            with tr.span("cli.import"):
                self._call([sys.executable, "-c", "import reconkit.cli"])

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (GadgetIff, CatalogCanon, ReconEnum, CliCold)}
