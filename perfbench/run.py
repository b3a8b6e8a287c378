"""Benchmark of the fhmimo Monte-Carlo workloads.

Run from the repository root:

    python3 perfbench/run.py --workload ber --seed 1 --seconds 20 --trace 0

Each run is one process and one closed loop: a unit starts when the previous
one ends. Set-up (imports, configuration, input generation and one warm-up
unit) is repeated and timed apart from the timed phase. The timed phase
runs a fixed number of whole rounds of the workload's unit cycle,
``round(share * seconds / round_s)``, so every run of a seed does the same
work and its counts and answers repeat exactly. No round starts after
``SLOW_STOP`` times ``share * seconds``; on a machine that slow the record
shows fewer rounds.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` the library's public functions are wrapped from
``tracer.py`` and the last line holds the per-layer metrics. Earlier lines
print every metric by name with its unit, the accuracy of the answers and
the environment. Each run appends its record to
``perfbench/results/trajectory.jsonl``.

The exit code is 0 when every output check passed, 1 when one failed and 2
when the library cannot be imported from ``src/``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
BLAS_THREADS = "1"
SETUP_REPS = 3
SLOW_STOP = 2.5
TAIL_BEYOND = 10

END_TO_END = (
    ("prt_per_s", "PRT/s"),
    ("unit_s_p50", "s"),
    ("unit_s_tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    ``TAIL_BEYOND`` units beyond it. With too few units for that
    percentile to lie above the median, the maximum."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 2 * TAIL_BEYOND:
        return lat[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return lat[k], 100.0 * (k + 1) / n


def environment(workload, seed: int) -> dict:
    import numpy as np
    from workloads import config_hash
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workload": workload.name,
        "seed": seed,
        "config_hash": config_hash(workload),
    }


def run(args) -> tuple[dict, dict]:
    """Run one workload; returns (last-line result, full record)."""
    from workloads import WORKLOADS, CheckFailed
    import_s = time.perf_counter() - T_START
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir()
    tracer = None
    try:
        # --- set-up: repeated, the median is reported ---------------------
        setup_times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            state = wl.setup(args.seed, str(workdir))
            wl.run_unit(state, args.seed, 0, 0)
            setup_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_times)

        if args.trace:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracer.install()

        # --- timed phase: a fixed number of whole rounds ------------------
        n_slots = len(wl.cycle)
        planned_s = wl.share * args.seconds
        rounds = max(1, round(planned_s / wl.round_s))
        latencies, errors = [], []
        acc = wl.new_accuracy()
        attempted = failed = prts = 0
        t_begin = time.perf_counter()
        for rnd in range(rounds):
            if time.perf_counter() - t_begin > SLOW_STOP * planned_s:
                rounds = rnd
                break
            for slot in range(n_slots):
                unit = rnd * n_slots + slot
                t0 = time.perf_counter()
                with (tracer.unit_span(unit) if tracer is not None
                      else contextlib.nullcontext()):
                    try:
                        n_prt, out = wl.run_unit(state, args.seed, rnd, slot)
                    except Exception as exc:  # counted as a failed unit
                        n_prt, out = 0, None
                        errors.append(f"unit {unit}: {exc!r}")
                        if not isinstance(exc, CheckFailed):
                            traceback.print_exc()
                latencies.append(time.perf_counter() - t0)
                attempted += 1
                prts += n_prt
                if out is None:
                    failed += 1
                else:
                    acc = wl.accumulate(acc, out)
        wall = time.perf_counter() - t_begin
        if tracer is not None:
            tracer.uninstall()  # the oracle and everything after run bare

        # --- oracle unit (untimed) ----------------------------------------
        if wl.oracle is not None:
            attempted += 1
            try:
                wl.oracle(state, args.seed, str(workdir))
            except Exception as exc:
                failed += 1
                errors.append(f"oracle: {exc}")
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    tail_s, tail_pct = tail(latencies)
    end_to_end = {
        "prt_per_s": prts / wall,
        "unit_s_p50": statistics.median(latencies),
        "unit_s_tail": tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    units = dict(END_TO_END)
    report = {k: {"value": v, "unit": units[k]} for k, v in end_to_end.items()}
    layers = None
    if tracer is not None:
        layers = tracer.layer_metrics(len(latencies),
                                      tracing.overhead_per_span())
    try:
        accuracy = wl.accuracy(acc, layers)
    except Exception as exc:  # no successful unit
        accuracy = {}
        errors.append(f"accuracy: {exc!r}")
    for name, (val, unit) in accuracy.items():
        report[name] = {"value": val, "unit": unit}
    report["failed_frac"] = {"value": failed / attempted, "unit": "ratio"}
    nonfinite = [k for k, v in report.items()
                 if not isinstance(v["value"], (int, float))
                 or v["value"] != v["value"]
                 or abs(v["value"]) == float("inf")]
    if nonfinite:
        errors.append(f"non-finite outputs: {nonfinite}")
    correct = failed == 0 and not errors

    info = {"units": len(latencies), "rounds": rounds, "prts": prts,
            "timed_s": wall, "tail_percentile": tail_pct,
            "unit_s": latencies,
            "setup_reps_s": setup_times, "import_s": import_s}
    record = {"time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
              "trace": args.trace, "seconds": args.seconds,
              "env": environment(wl, args.seed), "info": info,
              "correct": correct, "attempted": attempted, "failed": failed,
              "errors": errors, "metrics": report,
              "layers": layers}
    metrics = layers if layers is not None else {
        k: report[k] for k, _ in END_TO_END}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if tracer is not None:
        tracer.write_spans(RESULTS / f"spans-{wl.name}-seed{args.seed}.csv.gz")
    return result, record


def print_report(record: dict) -> None:
    info = record["info"]
    print(f"# env {json.dumps(record['env'], sort_keys=True)}")
    print(f"# {info['units']} units in {info['rounds']} rounds, "
          f"{info['prts']} PRTs in {info['timed_s']:.3f} s")
    notes = {"unit_s_p50": f"n={info['units']}",
             "unit_s_tail": (f"p{info['tail_percentile']:.1f}, "
                             f"{TAIL_BEYOND} units beyond"
                             if info["tail_percentile"] < 100 else
                             f"maximum, fewer than {2 * TAIL_BEYOND + 1} "
                             "units"),
             "setup_s": f"median of {SETUP_REPS}"}
    for name, m in record["metrics"].items():
        print(f"{name:24s} {m['value']:<14.6g} {m['unit']:8s} "
              f"{notes.get(name, '')}".rstrip())
    for name, m in (record["layers"] or {}).items():
        print(f"{name:44s} {m['value']:<14.6g} {m['unit']}")
    for e in record["errors"]:
        print(f"# FAILED {e}")


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import numpy  # noqa: F401
        import fhmimo
    except ImportError as exc:
        print(f"cannot import the library from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(fhmimo.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported fhmimo from {fhmimo.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    result, record = run(args)
    with open(RESULTS / "trajectory.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    print_report(record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
