"""Tests of the benchmark's runner and tracer.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import inspect
import json
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from fhmimo import bench, commrx, impairments, radarrx  # noqa: E402
from fhmimo.config import RadarConfig  # noqa: E402


class FakeClock:
    """Clock that advances one second per reading."""

    def __init__(self):
        self.t = -1.0

    def __call__(self):
        self.t += 1.0
        return self.t


class Fake:
    """Two-slot workload of trivial units; ``fail_at`` = (round, slot)."""

    name = "fake"
    cycle = [0, 1]
    round_s = 1.0
    share = 1.0
    oracle = None

    def __init__(self, fail_at=None):
        self.fail_at = fail_at

    def config(self):
        return {"cycle": self.cycle}

    def setup(self, seed, workdir):
        return None

    def run_unit(self, state, seed, rnd, slot):
        if (rnd, slot) == self.fail_at:
            raise workloads.CheckFailed("wrong answer")
        return 10, 1.0

    def new_accuracy(self):
        return 0.0

    def accumulate(self, acc, out):
        return acc + out

    def accuracy(self, acc, layers=None):
        return {"answer": (acc, "count")}


def test_self_time_subtracts_child_spans():
    ns = types.ModuleType("fakelib.mod")

    def inner():
        return 1

    def outer():
        return ns.inner() + 1

    ns.inner, ns.outer = inner, outer
    sys.modules["fakelib"] = types.ModuleType("fakelib")
    sys.modules["fakelib.mod"] = ns
    try:
        tr = tracing.Tracer(clock=FakeClock())
        tr.install([tracing.Target("fakelib.mod", "outer"),
                    tracing.Target("fakelib.mod", "inner")],
                   package="fakelib")
        with tr.unit_span(0):          # opens at t=0
            assert ns.outer() == 2     # outer 1..4, inner 2..3
        tr.uninstall()                 # unit closes at t=5
    finally:
        del sys.modules["fakelib"], sys.modules["fakelib.mod"]
    names = [s[0] for s in tr.spans]
    assert names == ["unit", "mod.outer", "mod.inner"]
    assert [s[3] for s in tr.spans] == [-1, 0, 1]
    assert tr.self_times() == [2.0, 2.0, 1.0]
    assert ns.outer is outer and ns.inner is inner


def test_rebound_names_are_patched_and_restored():
    originals = {(t.module, t.func): getattr(sys.modules[t.module], t.func)
                 for t in tracing.LAYER_TARGETS}
    tr = tracing.Tracer()
    tr.install()
    try:
        assert bench.apply is impairments.apply
        assert bench.apply.__module__ == "tracer"
        assert bench.apply.__wrapped__ is originals[
            ("fhmimo.impairments", "apply")]
        for mod, attr in ((bench, "plan_hops"), (bench, "synthesize"),
                          (bench, "make_psk_grid"), (radarrx, "synthesize"),
                          (commrx, "hop_groups"),
                          (commrx, "expected_hop_peak")):
            assert hasattr(getattr(mod, attr), "__wrapped__"), attr
        cfg = RadarConfig()
        sweep = bench.SweepSpec(comm_mode="estimated", chunk_prt=40)
        with tr.unit_span(0):
            bench.ber_point(cfg, 3, 10.0, sweep, 7, min_symbols=1)
    finally:
        tr.uninstall()
    by_name = {}
    for s in tr.spans:
        by_name.setdefault(s[0], []).append(s)
    parent = {n: {tr.spans[s[3]][0] for s in spans}
              for n, spans in by_name.items()}
    for name in ("waveform.plan_hops", "waveform.make_psk_grid",
                 "waveform.synthesize", "impairments.apply",
                 "commrx.demodulate.estimated", "commrx.score_report"):
        assert parent[name] == {"bench.ber_point"}, name
    assert "commrx.demodulate.estimated" in parent["waveform.hop_groups"]
    for (mod, func), fn in originals.items():
        assert getattr(sys.modules[mod], func) is fn
    assert bench.apply is originals[("fhmimo.impairments", "apply")]


def test_untraced_run_patches_nothing(tmp_path):
    code = textwrap.dedent(f"""
        import sys
        sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH)!r}]
        import run, workloads
        from pathlib import Path
    """) + inspect.getsource(Fake) + textwrap.dedent(f"""
        run.RESULTS = Path({str(tmp_path)!r})
        workloads.WORKLOADS["fake"] = Fake()
        assert run.main(["--workload", "fake", "--seed", "1",
                         "--seconds", "1", "--trace", "0"]) == 0
        assert "tracer" not in sys.modules
        import fhmimo
        for name, mod in list(sys.modules.items()):
            if name.startswith("fhmimo"):
                for val in vars(mod).values():
                    assert getattr(val, "__module__", "") != "tracer", val
    """)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["attempted"] == 2


def test_failed_check_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    monkeypatch.setitem(workloads.WORKLOADS, "fake", Fake(fail_at=(0, 1)))
    rc = run.main(["--workload", "fake", "--seed", "1", "--seconds", "1"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1
    assert last == {"correct": False, "attempted": 2, "failed": 1,
                    "metrics": last["metrics"]}
    assert set(last["metrics"]) == {n for n, _ in run.END_TO_END}


def test_tail_percentile_keeps_ten_units_beyond():
    lat = list(np.arange(1.0, 41.0))
    value, pct = run.tail(lat)
    assert sum(x > value for x in lat) == run.TAIL_BEYOND
    assert pct == pytest.approx(100 * 30 / 40)
    assert run.tail(lat[:15]) == (15.0, 100.0)


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracing.metric_specs()
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
