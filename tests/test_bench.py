import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from fhmimo import bench, commrx, impairments, iqfile
from fhmimo.config import ConfigError, RadarConfig
from fhmimo.impairments import NOISE_CHUNK, apply, complex_noise, slot_gain
from fhmimo import radarrx as rrx
from fhmimo import waveform as wf

ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# Data rate
# ---------------------------------------------------------------------------

def test_nominal_rates_match_published_numbers(cfg):
    # (35 + 10x)/T_p: 0.875 + 0.25x Mbps
    for x, mbps in ((0, 0.875), (1, 1.125), (2, 1.375), (3, 1.625),
                    (4, 1.875)):
        nominal, _ = bench.data_rate(x, cfg)
        assert nominal == pytest.approx(mbps * 1e6)


def test_effective_rate_from_slot_enumeration(cfg):
    # oracle: count free slots and per-hop capacities directly from a
    # generated plan over one pilot cycle
    plan = wf.plan_hops(cfg, n_prt=20, rng=1)
    fhcs_bits = wf.extract_payload_bits(plan, cfg).size
    psk_slots = int((~plan.pinned).sum())
    for x in (0, 2, 4):
        _, effective = bench.data_rate(x, cfg)
        expect = (fhcs_bits + x * psk_slots) / (20 * cfg.prt_duration)
        assert effective == pytest.approx(expect)
    nominal, effective = bench.data_rate(2, cfg)
    assert effective < nominal  # pilot overhead

    with pytest.raises(ValueError):
        bench.data_rate(-1, cfg)


def test_wilson_interval_basics():
    lo, hi = bench.wilson_interval(0, 1000)
    assert lo == 0.0 and hi < 0.005
    lo, hi = bench.wilson_interval(500, 1000)
    assert lo < 0.5 < hi and (hi - lo) < 0.07
    # nothing counted, nothing measured: no interval either
    assert np.isnan(bench.wilson_interval(0, 0)).all()


# ---------------------------------------------------------------------------
# Hop-duration config derivation
# ---------------------------------------------------------------------------

def test_config_for_hop_duration(cfg):
    c1 = bench.config_for_hop_duration(cfg, 1e-6)
    assert c1 == cfg
    c05 = bench.config_for_hop_duration(cfg, 0.5e-6)
    # keeps the codebook (same K), restores integer cycles per hop
    assert c05.n_subbands == 20
    assert c05.cycles_per_hop == pytest.approx(1.0)
    assert c05.samples_per_hop == 20
    assert c05.samples_per_prt == cfg.samples_per_prt


# ---------------------------------------------------------------------------
# BER sweep
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", ["chunk_prt", "trials", "min_symbols"])
def test_sweep_spec_rejects_empty_counts(field):
    # chunk_prt = 0 made ber_point loop forever; zero trials or symbols
    # wrote NaN or empty rows
    for value in (0, -1):
        with pytest.raises(ConfigError):
            bench.SweepSpec(**{field: value})
    assert getattr(bench.SweepSpec(**{field: 1}), field) == 1


def test_sweep_spec_checks_the_target_count_and_psk_orders():
    # a negative count was refused only by the radar sweep's scene draw,
    # and a PSK order outside [0, 32] only by the study that ran it
    with pytest.raises(ConfigError, match="sweep.n_targets"):
        bench.SweepSpec(n_targets=-1)
    for orders in ((3, 33), (-1,)):
        with pytest.raises(ConfigError, match="sweep.modulations: order_bits"):
            bench.SweepSpec(modulations=orders)
    assert bench.SweepSpec(n_targets=0, modulations=(0, 32)).n_targets == 0


def test_sweep_spec_refuses_a_negative_seed():
    # SeedSequence takes no negative entropy; the CLI refuses run.seed < 0
    # before it builds the spec, so only a library caller reaches this
    with pytest.raises(ConfigError, match="sweep.seed must be >= 0, got -1"):
        bench.SweepSpec(seed=-1)


def test_ber_point_random_guess_baseline(cfg):
    # deep noise: PSK bits are coin flips (BER ~ 0.5 within CI)
    sweep = bench.SweepSpec(min_symbols=4000, seed=5)
    acc = bench.ber_point(cfg, 3, -40.0, sweep, seed=5)
    lo, hi = bench.wilson_interval(acc.psk_bit_errors, acc.psk_bits, z=3.3)
    assert lo <= 0.5 <= hi


def test_ber_point_noise_stream_is_its_own(cfg, monkeypatch):
    # a chunk's noise comes from the first spawned child of its seed
    # sequence [seed, snr_code, chunk]: the same stream for every PSK
    # order, and apart from the impairment and plan draws. The stream is
    # read as the chunk starts its noise draw
    seen = []

    def spy(cfg_, n_prt, noise_var, rng, real=bench.NoiseDraw):
        seen.append(rng.bit_generator.state)
        return real(cfg_, n_prt, noise_var, rng)

    monkeypatch.setattr(bench, "NoiseDraw", spy)
    sweep = bench.SweepSpec(chunk_prt=40)
    for order_bits in (1, 3, 4):
        bench.ber_point(cfg, order_bits, 6.0, sweep, 5, min_symbols=1)
    child = np.random.SeedSequence([5, 60, 0]).spawn(1)[0]   # 6 dB: code 60
    assert seen == [np.random.default_rng(child).bit_generator.state] * 3


def test_a_refused_ber_point_starts_no_draw(cfg, monkeypatch):
    # the clock span is checked before a chunk starts its noise draw: a
    # span past the unambiguous CFO is a ConfigError with no draw made
    # and no thread started
    monkeypatch.setattr(impairments, "usable_cpus", lambda: 2)
    draws = []
    monkeypatch.setattr(bench, "NoiseDraw",
                        lambda *args: draws.append(args))
    threads = threading.active_count()
    sweep = bench.SweepSpec(rho_span=(1e-6, 3e-6), chunk_prt=40)
    with pytest.raises(ConfigError, match="sweep.rho_span"):
        bench.ber_point(cfg, 3, 6.0, sweep, 5, min_symbols=1)
    assert draws == []
    assert threading.active_count() == threads


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_ber_point_frames_are_the_whole_array_reference(cfg, monkeypatch,
                                                         cpus):
    # each chunk's received frame, its noise drawn while the transmit side
    # is built, is the whole-array mix x ramp plus one complex_noise draw
    # of the chunk's noise stream, byte for byte, on any number of usable
    # CPUs; 439 PRTs (a prime) leave a short last block. Each chunk's draw
    # starts a thread of its own with two or more CPUs, and none with one
    monkeypatch.setattr(impairments, "usable_cpus", lambda: cpus)
    M, H, n_hop = cfg.n_tx, cfg.hops_per_pulse, cfg.samples_per_hop
    checked, started = [], []

    def start(thread, real=threading.Thread.start):
        started.append(thread)
        real(thread)

    monkeypatch.setattr(threading.Thread, "start", start)

    def spy(frame, plan, psk, spec, cfg_, rng=None):
        gains = slot_gain(plan.prt_indices()[:, None, None],
                          np.arange(H)[:, None], np.arange(M), plan.subband,
                          spec, cfg_)
        ramp = np.exp(1j * spec.cfo * np.arange(n_hop) / cfg_.sample_rate)
        expect = np.einsum("mihn,ihm->ihn", frame.hops(cfg_, M), gains)
        expect *= ramp
        child = np.random.SeedSequence([5, 60, len(checked)]).spawn(1)[0]
        expect += complex_noise(expect.shape, spec.noise_var, child)
        rx = apply(frame, plan, psk, spec, cfg_, rng=rng)
        checked.append(rx.hops(cfg_, 1)[0].tobytes() == expect.tobytes())
        return rx

    monkeypatch.setattr(bench, "apply", spy)
    sweep = bench.SweepSpec(chunk_prt=439, comm_mode="estimated")
    bench.ber_point(cfg, 3, 6.0, sweep, 5, min_symbols=2 * 439 * 4)
    assert checked == [True, True]
    assert len(started) == 2 * (cpus > 1)


def test_ber_sweep_without_psk_bits_reports_nan(cfg):
    # with modulations [0] the slots carry no PSK bit: psk_ber and its
    # interval measured nothing, so they are NaN, not a perfect 0 in
    # [0, 1]; the FHCS columns are measured as usual
    empty = commrx.ErrorCounts()
    assert np.isnan([empty.psk_ber, empty.psk_ser, empty.fhcs_ber]).all()
    sweep = bench.SweepSpec(chunk_prt=40, min_symbols=200,
                            snr_grid_db=(10.0,), modulations=(0,),
                            hop_durations=(cfg.hop_duration,))
    rep = bench.run_ber_sweep(cfg, sweep)
    row = dict(zip(rep.columns, rep.rows[0]))
    assert row["psk_bits"] == 0
    assert np.isnan([row["psk_ber"], row["psk_ber_lo"],
                     row["psk_ber_hi"]]).all()
    assert row["fhcs_bits"] > 0
    assert row["fhcs_ber_lo"] <= row["fhcs_ber"] <= row["fhcs_ber_hi"]


@pytest.mark.parametrize("K", [2, 3])
def test_ber_point_ends_without_fhcs_payload(K):
    # with K = M every hop's free antennas take the whole pool, so no chunk
    # carries an FHCS codeword and a codeword budget is never met; run in a
    # child process so that a loop that never ends fails instead of hanging.
    # The sweep row then has no FHCS measurement to plot: NaN, not 0.
    code = (
        "import json\n"
        "from fhmimo import bench\n"
        "from fhmimo.config import RadarConfig\n"
        f"cfg = RadarConfig(n_subbands={K}, n_tx={K}, hops_per_pulse={K + 1},"
        f" bandwidth={K}e6)\n"
        "sweep = bench.SweepSpec(chunk_prt=20, min_symbols=10,"
        " snr_grid_db=(10.0,), modulations=(2,),"
        " hop_durations=(cfg.hop_duration,))\n"
        "acc = bench.ber_point(cfg, 2, 10.0, sweep, 0)\n"
        "print(acc.psk_symbols, acc.fhcs_codewords, acc.fhcs_bits)\n"
        "rep = bench.run_ber_sweep(cfg, sweep)\n"
        "print(json.dumps(dict(zip(rep.columns, rep.rows[0]))))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("ber_point did not return within 60 s")
    assert proc.returncode == 0, proc.stderr
    counts, row = proc.stdout.splitlines()
    n_psk, n_cw, n_bits = map(int, counts.split())
    assert n_psk >= 10 and n_cw == 0 and n_bits == 0
    row = json.loads(row)
    assert row["psk_bits"] >= 20 and row["fhcs_bits"] == 0
    assert all(np.isnan(row[c])
               for c in ("fhcs_ber", "fhcs_ber_lo", "fhcs_ber_hi"))


def test_ber_sweep_report_shape_and_orderings(cfg):
    sweep = bench.SweepSpec(snr_grid_db=(-2, 4), modulations=(3,),
                            hop_durations=(0.5e-6, 1e-6),
                            min_symbols=4000, seed=2)
    rep = bench.run_ber_sweep(cfg, sweep)
    assert len(rep.rows) == 4
    idx = {c: i for i, c in enumerate(rep.columns)}
    by_key = {(r[idx["hop_duration"]], r[idx["snr_db"]]): r
              for r in rep.rows}
    for snr in (-2.0, 4.0):
        short = by_key[(0.5e-6, snr)]
        long_ = by_key[(1e-6, snr)]
        # doubling the hop duration helps both modulations
        assert long_[idx["psk_ber"]] <= short[idx["psk_ber"]]
        assert long_[idx["fhcs_ber"]] <= short[idx["fhcs_ber"]]
        # FHCS at or below PSK
        assert long_[idx["fhcs_ber"]] <= long_[idx["psk_ber"]] + 1e-12


def test_ber_sweep_deterministic(cfg, tmp_path):
    sweep = bench.SweepSpec(snr_grid_db=(0,), modulations=(3,),
                            hop_durations=(1e-6,), min_symbols=2000, seed=9)
    r1 = bench.run_ber_sweep(cfg, sweep)
    r2 = bench.run_ber_sweep(cfg, sweep)
    iqfile.write_csv(tmp_path / "a.csv", r1.columns, r1.rows, "h")
    iqfile.write_csv(tmp_path / "b.csv", r2.columns, r2.rows, "h")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


# ---------------------------------------------------------------------------
# Method comparison
# ---------------------------------------------------------------------------

def test_method_comparison_ordering(cfg):
    sweep = bench.SweepSpec(seed=4)
    rep = bench.run_method_comparison(cfg, sweep, n_prt=400)
    idx = {c: i for i, c in enumerate(rep.columns)}
    ser = {r[0]: r[idx["ser"]] for r in rep.rows}
    resid = {r[0]: r[idx["mean_abs_residual"]] for r in rep.rows}
    assert ser["flat"] >= ser["estimated"] >= ser["averaged"]
    assert ser["flat"] > 5 * max(ser["estimated"], 1e-12)
    assert resid["averaged"] <= resid["estimated"] < resid["flat"]


def test_method_comparison_deterministic(cfg):
    sweep = bench.SweepSpec(seed=4)
    r1 = bench.run_method_comparison(cfg, sweep, n_prt=200)
    r2 = bench.run_method_comparison(cfg, sweep, n_prt=200)
    assert r1.rows == r2.rows


# ---------------------------------------------------------------------------
# Radar sweep
# ---------------------------------------------------------------------------

def _dets(rows):
    """DetectionList from (range_bin, doppler_bin, azimuth_deg, statistic,
    range_m) rows; velocity and threshold are zero."""
    range_bin, doppler_bin, azimuth_deg, statistic, range_m = (
        np.array(c) for c in zip(*rows))
    zeros = np.zeros(len(rows))
    return rrx.DetectionList(doppler_bin, range_bin, statistic, zeros,
                             range_m, zeros, azimuth_deg)


def _rdm(cfg):
    """Empty range-Doppler map with 128 Doppler bins: the grid the
    detections of ``_dets`` lie on."""
    return rrx.RangeDopplerMap(np.zeros((128, 0, 0), dtype=complex), cfg)


def test_associate_tie_break_and_no_reuse(cfg):
    # a target at 1500 m and 0 m/s sits in range bin 200, Doppler bin 64;
    # range_m tags each detection with its index
    dets = _dets([
        (200, 64, 0.0, 5.0, 0.0),
        (201, 64, 0.5, 7.0, 1.0),
        (199, 65, -0.5, 7.0, 2.0),    # ties with 1
        (250, 64, 0.0, 99.0, 3.0),    # outside range gate
        (200, 64, 3.0, 99.0, 4.0),    # outside angle gate
    ])
    scene = (rrx.Target(1500.0, 0.0, 0.0),) * 4
    out = bench._associate(dets, scene, _rdm(cfg))
    # highest statistic first, lowest index on ties, never reused
    assert [r[0] for r in out] == [True, True, True, False]
    assert [r[1] + 1500.0 for r in out[:3]] == [1.0, 2.0, 0.0]


def test_associate_matches_loop_reference(cfg):
    # the per-detection loop the vectorized association replaced
    def loop(dets, scene):
        out, used = [], set()
        for t in scene:
            rb_t = round(t.delay() * cfg.sample_rate) - cfg.samples_per_pulse
            db_t = round(t.doppler(cfg.wavelength) / cfg.doppler_bin) + 64
            best = None
            for j in range(len(dets)):
                if (j not in used
                        and abs(dets.range_bin[j] - rb_t) <= 3
                        and abs(dets.doppler_bin[j] - db_t) <= 2
                        and abs(dets.azimuth_deg[j] - t.azimuth_deg) <= 2.0
                        and (best is None or dets.statistic[j]
                             > dets.statistic[best])):
                    best = j
            if best is None:
                out.append((False, 0.0, 0.0, 0.0))
                continue
            used.add(best)
            out.append((True, float(dets.range_m[best]) - t.range_m,
                        float(dets.velocity[best]) - t.velocity,
                        float(dets.azimuth_deg[best]) - t.azimuth_deg))
        return out

    rng = np.random.default_rng(4)
    scene = tuple(rrx.Target(1500.0 + 3.75 * rng.integers(-4, 5), 0.0,
                             rng.uniform(-2, 2)) for _ in range(40))
    # few distinct statistics so ties are common
    dets = _dets([
        (200 + int(rng.integers(-6, 7)), 64 + int(rng.integers(-3, 4)),
         rng.uniform(-4, 4), float(rng.integers(0, 3)),
         rng.uniform(1400, 1600)) for _ in range(60)])
    out = bench._associate(dets, scene, _rdm(cfg))
    assert out == loop(dets, scene)
    assert 0 < sum(r[0] for r in out) < len(out)


def test_radar_trial_plan_and_psk_streams_differ(cfg, monkeypatch):
    # the FHCS bits (plan_hops) and PSK bits (make_psk_grid) of a pilot
    # trial must not be drawn from one stream seeded twice
    states = {}

    def spy(name, fn):
        def wrapped(*args, rng, **kwargs):
            states[name] = rng.bit_generator.state
            return fn(*args, rng=rng, **kwargs)
        return wrapped

    monkeypatch.setattr(bench, "plan_hops", spy("plan", bench.plan_hops))
    monkeypatch.setattr(bench, "make_psk_grid",
                        spy("psk", bench.make_psk_grid))
    small = dataclasses.replace(cfg, prts_per_cpi=20)
    bench.radar_trial(small, bench.SweepSpec(n_targets=2), -10.0, [1, 2],
                      "dfrc")
    assert states["plan"]["state"] != states["psk"]["state"]


def test_radar_cpi_refuses_a_one_channel_array_before_the_echo():
    # n_tx 1 with n_rx 1 (fhmimo radar's config) synthesized and
    # compressed a whole CPI before process_cpi refused it: now the
    # refused call traces less than 1 MB (the default CPI's profiles are
    # 2.9 MB, its pulse spectra 3.3 MB) and draws nothing
    cfg = RadarConfig(n_tx=1)
    plan = wf.plan_hops(cfg, n_prt=cfg.prts_per_cpi, rng=1)
    psk = wf.make_psk_grid(cfg, plan, 3, rng=2)
    g = np.random.default_rng(3)
    state = g.bit_generator.state
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"n_tx\*n_rx = 1.*>= 2"):
            bench.radar_cpi(cfg, bench.SweepSpec(), plan, psk,
                            (rrx.Target(2000.0),), rrx.ArrayModel(n_rx=1),
                            1.0, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert g.bit_generator.state == state


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="CPython 3.10 keeps a call's arguments on the "
                           "caller's stack until the call returns")
def test_radar_trial_peaks_at_the_echo_and_the_cube(cfg, monkeypatch):
    # the default 50-target scene at -8 dB (about 4,800 detections), from
    # scene to detections through bench.radar_cpi on one chain thread: the
    # echo is written into the profile buffer that becomes the cube, so
    # the echo and the cube share one cube-sized buffer, no (N, n_prt,
    # samples_per_prt) echo array is built, and the traced peak is that
    # buffer and the CFAR's maps (1.26x measured), below 1.3x. An echo
    # array (0.57 cubes) next to the profiles made it 1.70x. Each further
    # chain thread adds two 1-MiB blocks
    monkeypatch.setattr(rrx, "usable_cpus", lambda: 1)
    cube = (cfg.prts_per_cpi * cfg.n_tx * rrx.ArrayModel().n_rx
            * (cfg.samples_per_prt - cfg.samples_per_pulse) * 16)
    tracemalloc.start()
    try:
        bench.radar_trial(cfg, bench.SweepSpec(), -8.0, [1, 0, 3], "dfrc")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cube < peak < 1.3 * cube


def test_ber_chunk_drops_the_transmit_frame_before_the_receiver(
        cfg, monkeypatch):
    # one 2000-PRT chunk (the ber benchmark's unit) holds either the
    # transmit frame with the received one and one noise buffer (synthesize
    # and apply), or the received frame with the receiver's own peak, never
    # the frame and the receiver at once. The receiver's peak is measured
    # on a fresh frame over the same samples. The 2 MiB margin is what else
    # the chunk holds as the receiver starts (its plan, PSK grid and
    # impairments: 1.2 MiB measured). Holding the frame through demodulate
    # added its 12.2 MiB
    sweep = bench.SweepSpec(comm_mode="estimated", chunk_prt=2000)
    seen = []
    demodulate = commrx.demodulate

    def spy(rx, *args, **kwargs):
        seen.append((rx, args, kwargs))
        return demodulate(rx, *args, **kwargs)

    monkeypatch.setattr(commrx, "demodulate", spy)
    tracemalloc.start()
    try:
        bench.ber_point(cfg, 3, 6.0, sweep, 7, min_symbols=1)
        chunk = tracemalloc.get_traced_memory()[1]
        (rx, args, kwargs), = seen
        rx = dataclasses.replace(rx)         # a new memo key
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        demodulate(rx, *args, **kwargs)
        receiver = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    rx_bytes = rx.data.nbytes
    frame = cfg.n_tx * rx_bytes
    assert rx_bytes == sweep.chunk_prt * cfg.samples_per_pulse * 16
    bound = max(frame + rx_bytes + 8 * NOISE_CHUNK,
                rx_bytes + receiver) + 2 ** 21
    assert chunk < bound < frame + rx_bytes + receiver


def test_radar_sweep_small(cfg):
    sweep = bench.SweepSpec(trials=2, n_targets=5,
                            radar_snr_grid_db=(-30, -16), seed=6,
                            angle_grid_points=512)
    rep = bench.run_radar_sweep(cfg, sweep)
    assert len(rep.rows) == 4  # 2 SNRs x 2 waveforms
    idx = {c: i for i, c in enumerate(rep.columns)}
    for row in rep.rows:
        assert row[idx["detection_rate"]] >= 0.8
        assert row[idx["n_matched"]] <= row[idx["n_targets"]]
        assert row[idx["rmse_range"]] < 4.0
    # paired trials: pilot and random rows at one SNR share scenes/noise
    assert ("paired_mse" in rep.meta)


@pytest.mark.parametrize("trials, snr_db, nan_cols", [
    (2, -10.0, ()),
    (1, -10.0, ("se_mse_range", "se_mse_velocity", "se_mse_angle")),
    (2, -90.0, ("rmse_range", "rmse_velocity", "rmse_angle",
                "se_mse_range", "se_mse_velocity", "se_mse_angle"))],
    ids=["two-trials", "one-trial", "nothing-matched"])
def test_radar_sweep_worker_pool_matches_serial(cfg, monkeypatch, trials,
                                                snr_db, nan_cols):
    # trials run in a process pool are merged in trial order, so the
    # report equals the serial one exactly; a standard error needs two
    # matched trials and an RMSE one, and with fewer the column is NaN
    # without a RuntimeWarning (an error in the tests)
    small = dataclasses.replace(cfg, prts_per_cpi=16)
    sweep = bench.SweepSpec(trials=trials, n_targets=3,
                            radar_snr_grid_db=(snr_db,),
                            angle_grid_points=64, seed=9)
    serial, pooled = _serial_and_pooled(monkeypatch, bench.run_radar_sweep,
                                        small, sweep)
    _assert_same_rows(pooled, serial)
    np.testing.assert_equal(pooled.meta["paired_mse"],
                            serial.meta["paired_mse"])
    idx = {c: i for i, c in enumerate(serial.columns)}
    for row in serial.rows:
        for col in idx:
            if col.startswith(("rmse_", "se_mse_")):
                assert np.isnan(row[idx[col]]) == (col in nan_cols), col


def test_ber_sweep_worker_pool_matches_serial(cfg, monkeypatch):
    # every (hop, order, SNR) point seeds itself, so the points mapped
    # through a process pool give the serial rows, in the same order and
    # of the same types; order 0 gives NaN PSK columns
    sweep = bench.SweepSpec(snr_grid_db=(-4, 6.0), modulations=(0, 2),
                            hop_durations=(0.5e-6, 1e-6), chunk_prt=40,
                            min_symbols=300, seed=4)
    serial, pooled = _serial_and_pooled(monkeypatch, bench.run_ber_sweep,
                                        cfg, sweep)
    assert len(serial.rows) == 8
    _assert_same_rows(pooled, serial)
    assert [r[:3] for r in serial.rows] == [
        [h, j, float(s)] for h in sweep.hop_durations
        for j in sweep.modulations for s in sweep.snr_grid_db]


def _serial_and_pooled(monkeypatch, run, *args):
    """``run(*args)`` on one usable CPU (in this process) and on two (a
    process pool)."""
    monkeypatch.setattr(bench, "usable_cpus", lambda: 1)
    monkeypatch.setattr(bench, "ProcessPoolExecutor", _no_pool)
    serial = run(*args)
    monkeypatch.undo()
    monkeypatch.setattr(bench, "usable_cpus", lambda: 2)
    return serial, run(*args)


def _no_pool(*args, **kwargs):
    raise AssertionError("one usable CPU must not start a process pool")


def _assert_same_rows(a, b):
    assert a.columns == b.columns and len(a.rows) == len(b.rows)
    for ra, rb in zip(a.rows, b.rows):
        assert [type(v) for v in ra] == [type(v) for v in rb]
        np.testing.assert_equal(ra, rb)


class _RecordingExecutor:
    """Stands in for the process pool: records ``max_workers`` and maps in
    this process, so no process is started."""
    max_workers = []

    def __init__(self, max_workers, mp_context):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("n_calls", [1, 2, 3, 7])
def test_point_map_uses_one_worker_per_call_up_to_the_cpus(monkeypatch,
                                                            n_calls):
    # 10,000 claimed CPUs: the pool is sized to the calls it maps, and
    # one call runs in this process without any pool
    monkeypatch.setattr(bench, "usable_cpus", lambda: 10_000)
    monkeypatch.setattr(bench, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(_RecordingExecutor, "max_workers", [])
    calls = [(i, 10 * i) for i in range(n_calls)]
    assert bench._map_points(pow, calls) == [pow(*c) for c in calls]
    assert _RecordingExecutor.max_workers == ([n_calls] if n_calls > 1
                                              else [])
    # and a machine with fewer CPUs than calls caps the pool at its CPUs
    monkeypatch.setattr(bench, "usable_cpus", lambda: 2)
    bench._map_points(pow, calls)
    assert _RecordingExecutor.max_workers[-1:] == ([2] if n_calls > 1
                                                   else [])


def _threads_and_env(var):
    """OS threads of this process, its BLAS pool included, and ``var``."""
    return len(os.listdir("/proc/self/task")), os.environ.get(var)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts a process's threads under /proc")
def test_mapped_calls_see_one_blas_thread(monkeypatch):
    # a spawned worker imports NumPy with one BLAS thread, so it runs one
    # thread; a count the caller set reaches the workers unchanged, and
    # the caller's environment is as it was after the map
    for var in bench._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(bench, "usable_cpus", lambda: 2)
    calls = [("OPENBLAS_NUM_THREADS",), ("OMP_NUM_THREADS",)]
    assert bench._map_points(_threads_and_env, calls) == [(1, "1")] * 2
    assert not set(bench._BLAS_THREAD_VARS) & set(os.environ)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    got = bench._map_points(_threads_and_env, calls)
    assert [env for _, env in got] == ["2", "1"]
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    assert "OMP_NUM_THREADS" not in os.environ


def _chain_threads(n):
    """Distinct threads that the radar chain's ``_each`` runs n calls on
    in this process."""
    ids = set()
    rrx._each(lambda i, work: ids.add(threading.get_ident()), n, ())
    return len(ids)


def test_mapped_calls_run_the_radar_chain_on_one_thread(monkeypatch):
    # the sweep's processes already split the CPUs, so each worker runs
    # the chain's FFTs on one thread (on a box of one CPU, it would anyway)
    monkeypatch.setattr(bench, "usable_cpus", lambda: 2)
    assert bench._map_points(_chain_threads, [(4,), (4,)]) == [1, 1]


def test_a_callers_own_pool_runs_the_radar_chain_on_one_thread():
    # a pool of radar_trial or process_cpi calls that the caller starts
    # itself splits the CPUs as the sweep's does
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(2, mp_context=spawn) as pool:
        assert list(pool.map(_chain_threads, [4, 4])) == [1, 1]


def _nested_map(n_calls):
    """This process's PID and the PIDs of n calls that ``_map_points`` maps
    from it, with process pools refused."""
    with mock.patch.object(bench, "ProcessPoolExecutor", _no_pool):
        return os.getpid(), bench._map_points(os.getpid, [()] * n_calls)


def test_a_map_inside_a_mapped_call_runs_in_that_worker(monkeypatch):
    # a worker's siblings already split the CPUs, so a map it makes starts
    # no nested pool and runs every call in the worker itself
    monkeypatch.setattr(bench, "usable_cpus", lambda: 2)
    got = bench._map_points(_nested_map, [(3,), (3,)])
    assert all(calls == [pid] * 3 and pid != os.getpid()
               for pid, calls in got)


def test_sweeps_map_every_point_at_once(cfg, monkeypatch):
    # one pool per sweep, sized to all of its calls: every (hop, order,
    # SNR) point of a BER sweep, every (SNR, waveform, trial) radar call
    monkeypatch.setattr(bench, "usable_cpus", lambda: 10_000)
    monkeypatch.setattr(bench, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(_RecordingExecutor, "max_workers", [])
    bench.run_ber_sweep(cfg, bench.SweepSpec(
        snr_grid_db=(10.0, 20.0, 30.0), modulations=(1,),
        hop_durations=(0.5e-6, 1e-6), chunk_prt=40, min_symbols=10))
    bench.run_radar_sweep(dataclasses.replace(cfg, prts_per_cpi=16),
                          bench.SweepSpec(trials=3, n_targets=1,
                                          radar_snr_grid_db=(-10.0, 0.0),
                                          angle_grid_points=16))
    assert _RecordingExecutor.max_workers == [6, 12]


def test_radar_sweep_without_targets_has_no_detection_rate(cfg):
    # with no target there is nothing to detect: the rate is NaN, like
    # the RMSEs beside it, not 0.0 over 0 targets
    sweep = bench.SweepSpec(trials=2, n_targets=0,
                            radar_snr_grid_db=(-10.0,),
                            angle_grid_points=64, seed=3)
    rep = bench.run_radar_sweep(dataclasses.replace(cfg, prts_per_cpi=16),
                                sweep)
    assert len(rep.rows) == 2
    for row in rep.rows:
        row = dict(zip(rep.columns, row))
        assert row["n_targets"] == 0 and row["n_matched"] == 0
        assert np.isnan(row["detection_rate"])
        assert np.isnan(row["rmse_range"])
