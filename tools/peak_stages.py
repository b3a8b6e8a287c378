"""Name the library calls that raise a benchmark workload's peak RSS.

    python tools/peak_stages.py WORKLOAD [--seed N] [--rounds R]

Runs one workload of ``perfbench/workloads.py`` in this process as
``perfbench/run.py`` does: three set-ups, each followed by the warm-up unit
(round 0, slot 0), then ``--rounds`` whole rounds of its unit cycle (1 by
default), then its oracle unit, with one BLAS thread. A profile hook
(``sys.setprofile``) reads the process's high-water mark (``ru_maxrss``)
as each public function or method of the ``fhmimo`` package is entered and
left; a function wrapper would hold every call's arguments and so keep
alive the arrays the library frees early. A call during which the mark
rose by more than its own traced callees account for is printed with its
call path, that rise and the mark after it; the last line names the call
that set the peak, which is what ``peak_rss_mb`` reports. The mark is read
only at call boundaries of the calling thread, so a rise in a call's own
body, or in a private helper or thread it runs, is that call's. Nothing
under ``perfbench/`` is edited. The numbers are this process's alone,
and heap layout moves them by a few MB: a run of ``perfbench/run.py`` on
the same seed peaks at the same call, not always at the same figure.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3        # perfbench/run.py's set-up repetitions


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class PeakTrace:
    """Profile hook that records the calls of the library under ``src``
    that raised the high-water mark, each as (path, rise in MB, mark after
    in MB)."""

    def __init__(self, src: Path):
        self.src = str(src)
        self.names = {}       # code object -> stage name, or None if skipped
        # per open stage: [name, mark on entry, MB its callees raised]
        self.stack = []
        self.phase = ""
        self.rises = []

    def _name(self, code):
        if code not in self.names:
            qual = getattr(code, "co_qualname", code.co_name)
            public = not any(part.startswith(("_", "<"))
                             for part in qual.split("."))
            self.names[code] = (
                f"{Path(code.co_filename).stem}.{qual}"
                if public and code.co_filename.startswith(self.src)
                else None)
        return self.names[code]

    def __call__(self, frame, event, arg):
        if event not in ("call", "return"):
            return
        name = self._name(frame.f_code)
        if name is None:
            return
        if event == "call":
            self.stack.append([name, _maxrss_mb(), 0.0])
            return
        after = _maxrss_mb()
        path = " > ".join(n for n, _, _ in self.stack)
        _, before, inner = self.stack.pop()
        if self.stack:
            self.stack[-1][2] += after - before
        if after - before > inner:
            self.rises.append((f"{self.phase} {path}",
                               after - before - inner, after))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--rounds", type=int, default=1)
    args = p.parse_args(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import fhmimo
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from "
                f"{sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    trace = PeakTrace(Path(fhmimo.__file__).parent)
    sys.setprofile(trace)
    try:
        with tempfile.TemporaryDirectory() as workdir:
            for rep in range(SETUP_REPS):
                trace.phase = f"setup {rep}"
                state = wl.setup(args.seed, workdir)
                trace.phase = f"warm-up {rep}"
                wl.run_unit(state, args.seed, 0, 0)
            for rnd in range(args.rounds):
                for slot in range(len(wl.cycle)):
                    trace.phase = f"unit r{rnd}s{slot}"
                    wl.run_unit(state, args.seed, rnd, slot)
            if wl.oracle is not None:
                trace.phase = "oracle"
                wl.oracle(state, args.seed, workdir)
    finally:
        sys.setprofile(None)
    print(f"# {wl.name}, seed {args.seed}: calls that raised ru_maxrss "
          f"(rise, then the mark after it, in MB)")
    for where, rise, after in trace.rises:
        print(f"{rise:+8.1f} {after:8.1f}  {where}")
    if trace.rises:
        where, _, after = max(trace.rises, key=lambda r: r[2])
        print(f"peak {after:.1f} MB set in: {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
