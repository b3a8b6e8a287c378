"""Run a benchmark workload in alternating parent/change pairs.

    python tools/pairs.py PARENT CHANGE --workload W --seed S --pairs N
                          [--seconds T] [--work DIR]

Copies both source trees to ``parent`` and ``change`` in one temporary
directory, so their paths have equal length (the checkout name's length
moves heap layout, and with it ``peak_rss_mb``), then runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` in each
copy, N times, alternating which tree runs first: pair 0 runs the parent
first, pair 1 the change, and so on. Each run's minor page faults are read
from ``resource.getrusage(RUSAGE_CHILDREN)`` around it.

For each end-to-end metric of the parent's ``BENCHMARK.json``, and for the
minor faults, it prints a Markdown table row: each tree's median and
quartiles (``statistics.quantiles``, inclusive method), the change's
median against the parent's, the pairs the change won (strictly better in
the metric's direction), the parent's quartile distance, and whether a
claim on that metric clears: at least nine in ten pairs won and a median
gain larger than the parent's quartile distance. The exit status is 1 if
any run fails (non-zero exit or a failed check), 0 otherwise. Nothing in
either tree is edited; the copies are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                ".hypothesis", "results")
FAULTS = ("minor_faults", "count", "lower")


def run_benchmark(tree: Path, workload: str, seed: int,
                  seconds: float) -> tuple[dict, int, bool]:
    """Run ``perfbench/run.py`` untraced in ``tree``; returns (end-to-end
    values by name, minor page faults, whether the run passed)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    try:
        last = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        return {}, faults, False
    values = {k: m["value"] for k, m in last["metrics"].items()}
    return values, faults, proc.returncode == 0 and last["correct"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def metric_row(name: str, unit: str, better: str, parent: list[float],
               change: list[float]) -> str:
    """One Markdown table row comparing a metric's runs, pair by pair."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    iqr = p3 - p1
    clears = wins >= 0.9 * len(parent) and sign * (cm - pm) > iqr
    rel = f"{100.0 * (cm - pm) / pm:+.1f}%" if pm else "n/a"
    return (f"| {name} ({unit}) | {pm:.4g} [{p1:.4g}, {p3:.4g}] "
            f"| {cm:.4g} [{c1:.4g}, {c3:.4g}] | {rel} "
            f"| {wins}/{len(parent)} | {iqr:.4g} "
            f"| {'yes' if clears else 'no'} |")


def main(argv=None, runner=run_benchmark) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--work", type=Path, default=None,
                   help="directory for the two copies (default: the "
                        "system's temporary directory)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    if args.work is not None and not args.work.is_dir():
        p.error(f"--work {args.work} is not a directory")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["unit"], m["better"])
               for m in spec["end_to_end"]] + [FAULTS]
    runs = {"parent": [], "change": []}
    failed = 0
    with tempfile.TemporaryDirectory(dir=args.work) as work:
        trees = {}
        for label in runs:
            trees[label] = Path(work) / label
            shutil.copytree(getattr(args, label), trees[label], ignore=IGNORE)
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else (
                "change", "parent")
            for label in order:
                values, faults, ok = runner(trees[label], args.workload,
                                            args.seed, args.seconds)
                failed += not ok
                runs[label].append({**values, FAULTS[0]: faults})
                print(f"# pair {pair} {label}: "
                      + " ".join(f"{k}={v:.6g}"
                                 for k, v in runs[label][-1].items())
                      + ("" if ok else " FAILED"), flush=True)
    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs at "
          f"--seconds {args.seconds:g} (median [quartiles]):\n")
    print("| metric | parent | change | change vs parent | change won "
          "| parent quartile distance | claim clears |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for name, unit, better in metrics:
        if all(name in r for r in runs["parent"] + runs["change"]):
            print(metric_row(name, unit, better,
                             [r[name] for r in runs["parent"]],
                             [r[name] for r in runs["change"]]))
    if failed:
        print(f"# {failed} run(s) failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
