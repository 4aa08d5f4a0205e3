"""Run one reconkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gadget-iff --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: reconkit is imported from its src/.
Workloads are gadget-iff, catalog-canon, recon-enum and cli-cold (see
README.md). One client serves items one after another in whole passes,
each pass starting from an empty certificate cache. The number of passes
is fixed by --seconds and the workload's nominal pass time, never by how
fast the machine happens to be, so every run of a seed serves the same
items. Every measured time is scaled to a reference machine speed (see
calibration.py).

--trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
metrics: it serves half as many passes once untraced and once with spans
around every call into reconkit, reports the gap as the tracing overhead,
and writes the spans to perfbench/.out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CALL_ROUNDS = 3  # calibration loops between two calls of a child-process workload


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup(name: str, seed: int, tr, cal):
    """Import reconkit, build the workload's inputs and references.
    Returns the workload, the set-up's measured seconds and the machine's
    speed factor over them."""
    with cal.sampling():
        tr.item = "setup"
        started = cal.now()
        from perfbench import workloads

        if name not in workloads.WORKLOADS:
            raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(workloads.WORKLOADS)}")
        wl = workloads.WORKLOADS[name](seed)
        wl.setup(tr)
        ended = cal.now()
        tr.item = None
    return wl, ended - started, cal.factor(started, ended)


class Phase:
    """Outcome of serving whole passes of a workload."""

    def __init__(self):
        self.raw: list[float] = []  # measured seconds per item
        self.scale: list[float] = []  # machine speed factor per item
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.errors: list[str] = []

    @property
    def latencies(self) -> list[float]:
        """Seconds per item at the reference machine speed."""
        return [t * f for t, f in zip(self.raw, self.scale)]

    @property
    def items_per_s(self) -> float:
        """Items per scaled second spent serving them."""
        return self.attempted / sum(self.latencies)

    @property
    def raw_items_per_s(self) -> float:
        return self.attempted / sum(self.raw)


def serve(wl, tr, cal, passes: int) -> Phase:
    """Serve `passes` whole passes while the calibrator samples the
    machine's speed, and scale each item by the speed around it. A
    workload that runs child processes is sampled between items only."""
    import reconkit

    phase = Phase()
    spans: list[tuple[float, float]] = []
    with cal.sampling(timer=wl.in_process):
        for p in range(passes):
            items = wl.pass_items(p)
            if wl.in_process:
                reconkit.clear_certificate_cache()
            for index, item in enumerate(items):
                tr.item = phase.attempted
                t0 = cal.now()
                try:
                    with tr.span("item"):
                        out = wl.run(item, tr)
                except Exception as exc:  # raised or refused: counted as failed
                    t1 = cal.now()
                    phase.failed += 1
                    phase.errors.append("".join(traceback.format_exception_only(exc)).strip())
                else:
                    t1 = cal.now()
                    if not wl.check(item, out):
                        phase.failed += 1
                        phase.errors.append(f"wrong answer on item {index}")
                phase.raw.append(t1 - t0)
                spans.append((t0, t1))
                phase.attempted += 1
                if not wl.in_process:
                    # no timer here, so a longer sample between calls
                    cal.sample(rounds=CALL_ROUNDS)
            tr.item = None
            phase.passes += 1
    phase.scale = [cal.factor(t0, t1) for t0, t1 in spans]
    return phase


def _setup_samples(args, first: float, repeats: int) -> list[float]:
    """The scaled set-up time of this process plus fresh child processes."""
    samples = [first]
    env = {k: v for k, v in os.environ.items() if k != "RECONKIT_THREADS"}
    for _ in range(repeats - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    args = _parse(argv)
    os.environ.pop("RECONKIT_THREADS", None)  # keeps reductions' thread pool off
    # One CPU for the benchmark and every child it starts, so the
    # calibration loop runs where the measured work runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (SRC / "reconkit" / "__init__.py").is_file():
        print(f"error: no reconkit package under {SRC}; run from a reconkit checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import metrics
    from perfbench.calibration import Calibrator
    from perfbench.tracer import NullTracer, Tracer

    cal = Calibrator()
    tr = Tracer(cal.now) if args.trace else NullTracer()
    wl, setup_raw, setup_factor = _setup(args.workload, args.seed, tr, cal)
    import reconkit

    if Path(reconkit.__file__).resolve().parent != SRC / "reconkit":
        print(f"error: imported reconkit from {reconkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        wl.close()
        print(json.dumps({"setup_s": setup_raw * setup_factor}))
        return 0
    if len(wl.items) != wl.items_per_pass:
        print(f"error: {len(wl.items)} items per pass, expected {wl.items_per_pass}", file=sys.stderr)
        return 2

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    from perfbench import workloads

    passes = wl.passes(args.seconds)
    print(f"workload={wl.name} seed={args.seed} items/pass={len(wl.items)} passes={passes} "
          f"inputs={workloads.input_digest(wl.items)} env={json.dumps(env)}")
    try:
        if args.trace:
            # each phase serves half the passes of an untraced run
            half = max(1, round(passes / 2))
            untraced = serve(wl, NullTracer(), cal, half)
            traced = serve(wl, tr, cal, half)
            with cal.sampling(timer=False):
                tr.item = "probe"
                started = cal.now()
                wl.probe(tr)
                ended = cal.now()
                tr.item = None
            scale = {i: f for i, f in enumerate(traced.scale)}
            scale["setup"] = setup_factor
            scale["probe"] = cal.factor(started, ended)
            residual = tr.nesting_residual()
            if residual > 1e-6:
                traced.failed += 1
                traced.errors.append(f"spans of an item overrun its item span by {residual:.3g} s")
            extra = {
                "bench.calibration_ms": 1e3 * metrics.median(cal.samples),
                "trace.untraced_items_per_s": untraced.items_per_s,
                "trace.traced_items_per_s": traced.items_per_s,
                "trace.overhead_pct": 100 * (1 - traced.items_per_s / untraced.items_per_s),
            }
            factors = [scale.get(s.item, setup_factor) for s in tr.spans]
            values = metrics.per_layer(
                tr.spans,
                [s.duration * f for s, f in zip(tr.spans, factors)],
                [t * f for t, f in zip(tr.self_times(), factors)],
                extra,
            )
            units = {name: unit for name, unit, _ in metrics.PER_LAYER}
            phases = (untraced, traced)
            workloads.OUT.mkdir(exist_ok=True)
            trace_file = workloads.OUT / f"trace-{wl.name}-seed{args.seed}.json"
            tr.dump(trace_file, {"workload": wl.name, "seed": args.seed, "env": env, "scale": scale})
            print(f"spans written to {trace_file.relative_to(ROOT)}")
        else:
            run = serve(wl, tr, cal, passes)
            peak = _peak_rss_mb(wl.in_process)
            setups = _setup_samples(args, setup_raw * setup_factor, wl.setup_repeats)
            latencies = run.latencies
            values = {
                "setup_s": metrics.median(setups),
                "items_per_s": run.items_per_s,
                "item_p50_ms": 1e3 * metrics.median(latencies),
                "item_tail_ms": 1e3 * metrics.tail(latencies),
                "peak_rss_mb": peak,
            }
            units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
            phases = (run,)
            print(f"unscaled: items_per_s={run.raw_items_per_s:.6g} "
                  f"item_p50_ms={1e3 * metrics.median(run.raw):.6g} "
                  f"item_tail_ms={1e3 * metrics.tail(run.raw):.6g} "
                  f"setup_s={setup_raw:.6g} speed={metrics.median(run.scale):.4g} "
                  f"calibration_ms={1e3 * metrics.median(cal.samples):.4g}")
    finally:
        wl.close()

    attempted = sum(p.attempted for p in phases) + wl.setup_checks
    failed = sum(p.failed for p in phases) + wl.setup_failures
    for p in phases:
        for err in p.errors[:5]:
            print(f"failure: {err}", file=sys.stderr)
    if wl.setup_failures:
        print(f"failure: {wl.setup_failures} set-up reference checks failed", file=sys.stderr)
    print(f"passes={phases[-1].passes} attempted={attempted} failed={failed} "
          f"error_rate={failed / attempted:.6f}")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
