"""Sums of per-item minima of one perfbench workload, per cell, or the
spread of its set-up time.

    python3 tools/minima.py CHECKOUT WORKLOAD [--passes N] [--seed S]
    python3 tools/minima.py CHECKOUT WORKLOAD --setups N [--seed S]

imports reconkit from CHECKOUT/src and the workload from CHECKOUT/perfbench,
sets the workload up with seed S (default 1), and serves the items of its
first pass N times (default 3) in this process, untraced, each time after
emptying canon's certificate memo.  For each cell (the items of one kind of
call, such as recon-enum's vertex forall items) it prints the number of
items and the sum of each item's least time over the N passes, unscaled
wall-clock milliseconds, largest sum first, then the total.  A minimum
drops most of the noise of a shared machine, which is why it is the number
to compare between two checkouts, run one after the other.

With --setups N it serves no item.  It runs N children of CHECKOUT's
`perfbench/run.py --workload WORKLOAD --seed S --seconds 0 --setup-only`,
one after the other, with PYTHONDONTWRITEBYTECODE=1, and prints the
minimum, lower quartile, median and upper quartile of the scaled `setup_s`
they report, in seconds: more samples of the set-up than perfbench's own
median of a few.

Nothing is written into CHECKOUT: no bytecode cache, and only in-process
workloads are served or set up (cli-cold starts a child per item, and its
set-up writes under perfbench/, so it is refused).  Each item run that
raises or fails its workload's check, and each set-up child that fails, is
reported on stderr, and the command then exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import quantiles
from time import perf_counter
from traceback import format_exception_only
from typing import Callable


def cell_of(workload: str, item) -> str:
    """The cell an item of the named workload belongs to."""
    if workload == "recon-enum":
        return "rich decks" if item[0] == "rich" else f"{item[1]} {item[2]}"
    if workload == "gadget-iff":
        kind, c, k, _top = item[0]
        return f"{kind} c={c}" + ("" if k is None else f" k={k}")
    if workload == "catalog-canon":
        what, key, x = item
        return f"sym {key}" if what == "sym" else f"class n={x.n}"
    return workload


def serve(wl, passes: int, clear: Callable[[], None], tracer, clock=perf_counter):
    """Seconds per item of wl's first pass in each of `passes` passes, each
    pass after clear(), and one line per item run that raised or failed
    wl.check."""
    items = wl.pass_items(0)
    times: list[list[float]] = [[] for _ in items]
    failures: list[str] = []
    for _ in range(passes):
        clear()
        for index, (item, spent) in enumerate(zip(items, times)):
            t0 = clock()
            try:
                out = wl.run(item, tracer)
            except Exception as exc:  # refused or raised: timed, and reported
                spent.append(clock() - t0)
                failures.append(f"item {index}: " + "".join(format_exception_only(exc)).strip())
                continue
            spent.append(clock() - t0)
            if not wl.check(item, out):
                failures.append(f"item {index}: wrong answer")
    return items, times, failures


def minima(cells: list[str], times: list[list[float]]) -> dict[str, tuple[int, float]]:
    """cell -> (items, sum over its items of each one's least seconds)."""
    out: dict[str, tuple[int, float]] = {}
    for cell, spent in zip(cells, times):
        count, total = out.get(cell, (0, 0.0))
        out[cell] = count + 1, total + min(spent)
    return out


def report(sums: dict[str, tuple[int, float]]) -> list[str]:
    """One line per cell, largest sum first, then the total, in ms."""
    rows = sorted(sums.items(), key=lambda kv: (-kv[1][1], kv[0]))
    rows.append(("total", (sum(n for n, _ in sums.values()), sum(t for _, t in sums.values()))))
    width = max(len(name) for name, _ in rows)
    return [f"{name:<{width}}  {n:>5} items  {1e3 * t:>9.1f} ms" for name, (n, t) in rows]


def setups(root: Path, workload: str, seed: int, count: int, runner=subprocess.run):
    """The scaled `setup_s` of `count` set-up-only children of root's
    perfbench, and one line per child that failed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--setup-only"]
    samples: list[float] = []
    failures: list[str] = []
    for index in range(count):
        proc = runner(argv, cwd=root, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            failures.append(f"set-up {index}: exit {proc.returncode}: {proc.stderr.strip()}")
            continue
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples, failures


def spread(samples: list[float]) -> str:
    """Minimum, quartiles and median of at least two samples, in seconds."""
    q1, median, q3 = quantiles(samples, n=4, method="inclusive")
    return (f"setup_s  min {min(samples):.4f}  q1 {q1:.4f}  median {median:.4f}  "
            f"q3 {q3:.4f}  s")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("workload")
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--setups", type=int, help="time N set-up children instead")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    if args.setups is not None and args.setups < 2:
        parser.error("--setups must be at least 2")
    root = args.checkout.resolve()
    if not (root / "src" / "reconkit" / "__init__.py").is_file():
        parser.error(f"no reconkit package under {root / 'src'}")
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root)]
    import reconkit
    from perfbench.tracer import NullTracer
    from perfbench.workloads import WORKLOADS

    if Path(reconkit.__file__).resolve().parent != root / "src" / "reconkit":
        parser.error(f"imported reconkit from {reconkit.__file__}, not {root / 'src'}")
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)
    if not wl.in_process:
        parser.error(f"{args.workload} runs its items in child processes")
    if args.setups is not None:
        samples, failures = setups(root, args.workload, args.seed, args.setups)
        print(f"{args.workload} seed={args.seed} setups={len(samples)} of {args.setups}")
        if len(samples) >= 2:
            print(spread(samples))
        for line in failures:
            print(f"failed: {line}", file=sys.stderr)
        return 1 if failures else 0
    tracer = NullTracer()
    wl.setup(tracer)
    items, times, failures = serve(wl, args.passes, reconkit.clear_certificate_cache, tracer)
    cells = [cell_of(args.workload, item) for item in items]
    print(f"{args.workload} seed={args.seed} passes={args.passes} items={len(items)}")
    print("\n".join(report(minima(cells, times))))
    for line in failures:
        print(f"failed: {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
