"""Sums of per-item minima of one perfbench workload, per cell.

    python3 tools/minima.py CHECKOUT WORKLOAD [--passes N] [--seed S]

imports reconkit from CHECKOUT/src and the workload from CHECKOUT/perfbench,
sets the workload up with seed S (default 1), and serves the items of its
first pass N times (default 3) in this process, untraced, each time after
emptying canon's certificate memo.  For each cell (the items of one kind of
call, such as recon-enum's vertex forall items) it prints the number of
items and the sum of each item's least time over the N passes, unscaled
wall-clock milliseconds, largest sum first, then the total.  A minimum
drops most of the noise of a shared machine, which is why it is the number
to compare between two checkouts, run one after the other.

Nothing is written into CHECKOUT: no bytecode cache, and only in-process
workloads are served (cli-cold starts a child per item and is refused).
Each item run that raises or fails its workload's check is reported on
stderr, and the command then exits 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
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


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("workload")
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
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
