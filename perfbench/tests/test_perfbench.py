"""Tests of the benchmark itself: oracles, seeded inputs, metric names and
tiny runs of every workload.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter, sleep

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from reconkit import Graph, are_isomorphic, enumerate_graphs, is_connected  # noqa: E402

from perfbench import manifest, metrics, oracles, run, workloads  # noqa: E402
from perfbench.calibration import REFERENCE_S, Calibrator  # noqa: E402
from perfbench.tracer import NullTracer, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def tiny(name, seed=1, tr=None):
    wl = workloads.WORKLOADS[name](seed, tiny=True)
    wl.setup(tr or NullTracer())
    return wl


def test_brute_oracle_agrees_with_are_isomorphic():
    pairs = 0
    for n in range(1, 6):
        conn = [g for g in enumerate_graphs(n) if is_connected(g)]
        for g in conn:
            for h in conn:
                assert oracles.brute_isomorphic(g, h) == are_isomorphic(g, h)
                pairs += 1
    assert pairs == 1 + 1 + 4 + 36 + 441


def test_is_isomorphism_rejects_a_wrong_bijection():
    path = Graph(3, [(0, 1), (1, 2)])
    assert oracles.is_isomorphism((2, 1, 0), path, path)
    assert not oracles.is_isomorphism((1, 0, 2), path, path)
    assert not oracles.is_isomorphism((0, 0, 1), path, path)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_fixes_the_inputs(name):
    first = workloads.input_digest(tiny(name, seed=1).items)
    again = workloads.input_digest(tiny(name, seed=1).items)
    other = workloads.input_digest(tiny(name, seed=2).items)
    assert first == again
    assert first != other


def test_metric_names_and_units():
    named = [(n, u) for n, u, _, _ in metrics.END_TO_END]
    named += [(n, u) for n, u, _ in metrics.PER_LAYER]
    names = [n for n, _ in named]
    assert len(names) == len(set(names))
    for name, unit in named:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)
    assert "setup_s" in names
    assert all(0 < bound <= 0.25 for *_, bound in metrics.END_TO_END)


def test_benchmark_json_matches_the_code():
    written = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert written == manifest.manifest()
    for w in written["workloads"]:
        assert NAME.fullmatch(w["name"]) and len(w["why"]) <= 200


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_runs_without_errors(name):
    wl = tiny(name)
    try:
        phase = run.serve(wl, NullTracer(), Calibrator(), 1)
    finally:
        wl.close()
    assert phase.attempted == len(wl.items) > 0
    assert phase.failed == 0, phase.errors
    assert wl.setup_failures == 0


@pytest.mark.parametrize("name", ["gadget-iff", "catalog-canon", "recon-enum"])
def test_traced_spans_nest_in_their_items(name):
    tr = Tracer()
    wl = tiny(name, tr=tr)
    phase = run.serve(wl, tr, Calibrator(), 1)
    assert phase.failed == 0, phase.errors
    assert tr.nesting_residual() < 1e-9
    durations = [s.duration for s in tr.spans]
    values = metrics.per_layer(tr.spans, durations, tr.self_times(), {
        "bench.calibration_ms": 1.0,
        "trace.untraced_items_per_s": 1.0,
        "trace.traced_items_per_s": 1.0,
        "trace.overhead_pct": 0.0,
    })
    assert set(values) == {n for n, _, _ in metrics.PER_LAYER}
    assert 0 <= values["bench.self_pct"] < 100


def test_nesting_residual_catches_a_span_outside_its_item():
    tr = Tracer()
    tr.item = 0
    with tr.span("item"):
        pass
    with tr.span("canon.certificate"):  # tagged with item 0, not inside it
        sum(range(10000))
    assert tr.nesting_residual() > 0


def test_scaled_time_follows_the_calibration():
    cal = Calibrator()
    cal.samples = [2 * REFERENCE_S, 2 * REFERENCE_S, 4 * REFERENCE_S]
    cal.at = [1.0, 2.0, 3.0]
    # a short item between two samples, on a machine at half the speed
    assert cal.factor(1.2, 1.3) == 0.5
    # a long item takes every sample from just before it to just after it
    assert cal.factor(1.5, 2.6) == pytest.approx((0.5 + 0.5 + 0.25) / 3)
    # outside the samples the window is clipped
    assert cal.factor(0.0, 0.5) == 0.5
    assert cal.factor(3.5, 4.0) == 0.25
    phase = run.Phase()
    phase.raw, phase.scale, phase.attempted = [0.2, 0.4], [0.5, 0.5], 2
    assert phase.latencies == [0.1, 0.2]
    assert phase.items_per_s == pytest.approx(2 / 0.3)


def test_sampling_runs_on_a_timer_and_stays_off_the_clock():
    cal = Calibrator()
    wall, clock = perf_counter(), cal.now()
    with cal.sampling():
        sleep(0.3)
    wall, clock = perf_counter() - wall, cal.now() - clock
    assert len(cal.samples) >= 4  # one on entry, one on exit, the rest timed
    assert wall - clock == pytest.approx(sum(cal.samples), abs=1e-4)


def test_pass_count_does_not_depend_on_machine_speed():
    for w in workloads.WORKLOADS.values():
        assert w.passes(0) == 1
        assert w.passes(manifest.RUN_SECONDS) >= 1
        assert w.passes(4 * w.pass_seconds) == 4


def test_tail_fraction_leaves_ten_samples():
    for count in (11, 64, 96, 144, 516, 1032, 1270):
        beyond = count - metrics.math.ceil(metrics.tail_fraction(count) * count)
        assert beyond >= 10


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gadget-iff",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
