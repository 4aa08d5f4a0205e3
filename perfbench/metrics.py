"""Metric names, units and bounds, and the per-layer metrics of a trace.

END_TO_END and PER_LAYER are the single source for BENCHMARK.json (see
manifest.py). Per-layer values come from the spans the benchmark records
around its own calls into each reconkit module, with every time scaled to
the reference machine speed. Every traced run reports every per-layer
metric, so a layer the workload does not call reads 0 there; README.md
lists the workload each metric belongs to.
"""

from __future__ import annotations

import math
import statistics

SYMMETRIC = ("q5", "paley29", "paley37", "rook6", "t9", "c60")
CLI_CALLS = ("deck", "check", "legit", "preimages", "rn", "reduce", "family", "usage_error")
DECIDE_PATHS = (
    "legit_vertex.sub",
    "legit_vertex.pure",
    "legit_edge.sub",
    "legit_edge.pure",
    "subdeck_check",
    "two_lvd",
)
RECON_PATHS = ("vertex_exists", "vertex_forall", "edge_exists", "edge_forall")

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("item_p50_ms", "ms", "lower", 0.25),
    ("item_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# (name, unit, better). Counts fixed by the inputs (calls made, answers,
# candidate space) say "higher" only because the key is required.
PER_LAYER = (
    ("graph.enumerate_s", "s", "lower"),
    ("graph.codec_s", "s", "lower"),
    ("canon.cert_calls", "count", "higher"),
    ("canon.cert_s", "s", "lower"),
    ("canon.certs_per_s", "1/s", "higher"),
    ("canon.cert_p50_ms", "ms", "lower"),
    ("canon.cert_tail_ms", "ms", "lower"),
    ("canon.find_iso_s", "s", "lower"),
    *((f"canon.sym_cert_ms.{g}", "ms", "lower") for g in SYMMETRIC),
    *((f"canon.sym_cert_spread.{g}", "ratio", "lower") for g in SYMMETRIC),
    ("deck.build_s", "s", "lower"),
    ("deck.cards_per_s", "1/s", "higher"),
    ("deck.compare_s", "s", "lower"),
    ("reductions.gadget_s", "s", "lower"),
    ("deciders.decide_s", "s", "lower"),
    ("deciders.decide_p50_ms", "ms", "lower"),
    ("deciders.decide_tail_ms", "ms", "lower"),
    *((f"deciders.{p}_s", "s", "lower") for p in DECIDE_PATHS),
    ("deciders.yes_s", "s", "lower"),
    ("deciders.no_s", "s", "lower"),
    ("deciders.yes_count", "count", "higher"),
    ("deciders.offered_candidates", "count", "higher"),
    ("deciders.offered_per_s", "1/s", "higher"),
    ("deciders.enum_preimages_s", "s", "lower"),
    ("deciders.preimages_found", "count", "higher"),
    *((f"recon.{p}_s", "s", "lower") for p in RECON_PATHS),
    ("recon.rn_p50_ms", "ms", "lower"),
    ("recon.rn_tail_ms", "ms", "lower"),
    ("families.build_s", "s", "lower"),
    ("cli.python_startup_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    *((f"cli.{c}_ms", "ms", "lower") for c in CLI_CALLS),
    ("bench.self_s", "s", "lower"),
    ("bench.self_pct", "%", "lower"),
    ("bench.calibration_ms", "ms", "lower"),
    ("trace.spans", "count", "higher"),
    ("trace.untraced_items_per_s", "1/s", "higher"),
    ("trace.traced_items_per_s", "1/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)


def tail_fraction(count: int) -> float:
    """Highest whole percentile that leaves at least ten samples above it."""
    if count <= 10:
        return 1.0
    return math.floor(100 * (1 - 10 / count)) / 100


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> float:
    return percentile(values, tail_fraction(len(values)))


def per_layer(spans, durations, self_times, extra: dict) -> dict:
    """Every PER_LAYER metric from the spans of one traced run.

    `durations` and `self_times` are the spans' scaled times, in span
    order. `extra` supplies the values that are not span aggregates: the
    trace overhead and the calibration.
    """
    own: dict[str, float] = {}
    by_name: dict[str, list[float]] = {}
    for span, d, t in zip(spans, durations, self_times):
        own[span.name] = own.get(span.name, 0.0) + t
        by_name.setdefault(span.name, []).append(d)

    def total(*names) -> float:
        return sum(own.get(n, 0.0) for n in names)

    def where(test) -> list:
        """(span, duration, self time) of every span that passes `test`."""
        return [x for x in zip(spans, durations, self_times) if test(x[0])]

    def attr_sum(prefix: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in spans if s.name.startswith(prefix))

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    out: dict[str, float] = {}
    out["graph.enumerate_s"] = total("graph.enumerate_graphs")
    out["graph.codec_s"] = total("graph.graph6_encode", "graph.graph6_decode")

    certs = by_name.get("canon.certificate", [])
    out["canon.cert_calls"] = len(certs)
    out["canon.cert_s"] = total("canon.certificate")
    out["canon.certs_per_s"] = rate(len(certs), out["canon.cert_s"])
    out["canon.cert_p50_ms"] = 1e3 * median(certs)
    out["canon.cert_tail_ms"] = 1e3 * tail(certs)
    out["canon.find_iso_s"] = total("canon.find_isomorphism")
    for g in SYMMETRIC:
        times = [
            d for _, d, _ in where(lambda s: s.name == "canon.certificate" and s.attrs.get("sym") == g)
        ]
        out[f"canon.sym_cert_ms.{g}"] = 1e3 * median(times)
        out[f"canon.sym_cert_spread.{g}"] = max(times) / min(times) if times else 0.0

    out["deck.build_s"] = total("deck.build_deck")
    out["deck.cards_per_s"] = rate(attr_sum("deck.build_deck", "cards"), out["deck.build_s"])
    out["deck.compare_s"] = total("deck.deck_equal")
    out["reductions.gadget_s"] = sum(t for *_, t in where(lambda s: s.name.startswith("reductions.")))

    decide_names = [f"deciders.{p}" for p in DECIDE_PATHS]
    decides = where(lambda s: s.name in decide_names)
    out["deciders.decide_s"] = total(*decide_names)
    out["deciders.decide_p50_ms"] = 1e3 * median([d for _, d, _ in decides])
    out["deciders.decide_tail_ms"] = 1e3 * tail([d for _, d, _ in decides])
    for p in DECIDE_PATHS:
        out[f"deciders.{p}_s"] = total(f"deciders.{p}")
    out["deciders.yes_s"] = sum(d for s, d, _ in decides if s.attrs.get("answer"))
    out["deciders.no_s"] = sum(d for s, d, _ in decides if not s.attrs.get("answer"))
    out["deciders.yes_count"] = sum(1 for s, _, _ in decides if s.attrs.get("answer"))
    offered = attr_sum("deciders.", "offered")
    out["deciders.offered_candidates"] = offered
    searches = [f"deciders.{p}" for p in DECIDE_PATHS if p.startswith("legit_")]
    out["deciders.offered_per_s"] = rate(offered, total(*searches, "deciders.enum_preimages"))
    out["deciders.enum_preimages_s"] = total("deciders.enum_preimages")
    out["deciders.preimages_found"] = attr_sum("deciders.enum_preimages", "found")

    rn = []
    for p in RECON_PATHS:
        out[f"recon.{p}_s"] = total(f"recon.{p}")
        rn.extend(by_name.get(f"recon.{p}", []))
    out["recon.rn_p50_ms"] = 1e3 * median(rn)
    out["recon.rn_tail_ms"] = 1e3 * tail(rn)
    out["families.build_s"] = sum(t for *_, t in where(lambda s: s.name.startswith("families.")))

    startup = median(by_name.get("cli.python_startup", []))
    out["cli.python_startup_ms"] = 1e3 * startup
    imported = by_name.get("cli.import", [])
    out["cli.import_ms"] = 1e3 * (median(imported) - startup) if imported else 0.0
    for c in CLI_CALLS:
        out[f"cli.{c}_ms"] = 1e3 * median(by_name.get(f"cli.{c}", []))

    out["bench.self_s"] = total("item")
    items = sum(by_name.get("item", []))
    out["bench.self_pct"] = 100 * out["bench.self_s"] / items if items else 0.0
    out["trace.spans"] = len(spans)
    out.update(extra)
    missing = {name for name, _, _ in PER_LAYER} - set(out)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return out
