"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Statistical checks run from fixed seeds, so every verdict is reproducible.
"""

import dataclasses
import json

import numpy as np
import pytest

from fhmimo.config import RadarConfig
from fhmimo import bench, cli, commrx as crx, radarrx as rrx
from fhmimo import impairments as imp
from fhmimo import waveform as wf

SEED = 20260810


def _verdict(criterion, description, conditions):
    ok = all(bool(c) for c, _ in conditions)
    print(f"\n[acceptance] criterion {criterion}: "
          f"{'PASS' if ok else 'FAIL'} - {description}")
    for c, msg in conditions:
        if not c:
            print(f"    failed: {msg}")
    assert ok, f"criterion {criterion}: " + "; ".join(
        m for c, m in conditions if not c)


# ---------------------------------------------------------------------------

def test_criterion_1_parameter_fidelity():
    cfg = RadarConfig()
    freqs = cfg.subband_frequency(np.arange(20)) / 1e6
    checks = [
        (cfg.samples_per_prt == 1600, "samples per PRT != 1600"),
        (cfg.samples_per_hop == 40, "samples per hop != 40"),
        (np.array_equal(freqs, np.arange(-10, 10)),
         "sub-bands != -10..+9 MHz"),
        (cfg.blind_range == 750.0, "blind zone != 750 m"),
        (cfg.n_tx * rrx.ArrayModel().n_rx == 24,
         "virtual channels != 24"),
    ]
    _verdict(1, "experiment parameters reproduced exactly", checks)


def test_criterion_2_data_rate():
    cfg = RadarConfig()
    expect = {1: 1.125e6, 2: 1.375e6, 3: 1.625e6, 4: 1.875e6}
    checks = []
    for x, rate in expect.items():
        nominal, effective = bench.data_rate(x, cfg)
        checks.append((nominal == pytest.approx(rate, abs=1e-6),
                       f"nominal rate at x={x}: {nominal} != {rate}"))
        checks.append((effective < nominal,
                       f"effective rate not below nominal at x={x}"))
    _verdict(2, "nominal data rate 1.125/1.375/1.625/1.875 Mbps for x=1..4",
             checks)


def test_criterion_3_zero_impairment_oracle():
    cfg = RadarConfig()
    ident = imp.ImpairmentSpec()
    totals = {}
    for order_bits in (3, 4):
        acc = crx.ErrorCounts()
        chunk = 0
        while acc.psk_symbols < 100_000 or acc.fhcs_codewords < 100_000:
            rng = np.random.default_rng([SEED, 3, order_bits, chunk])
            chunk += 1
            plan = wf.plan_hops(cfg, n_prt=4000, rng=rng)
            psk = wf.make_psk_grid(cfg, plan, order_bits, rng=rng)
            frame = wf.synthesize(plan, psk, cfg)
            rx = imp.apply(frame, plan, psk, ident, cfg)
            rep = crx.demodulate(rx, cfg, order_bits, mode="estimated")
            acc = acc.merge(crx.score_report(rep, plan, psk, cfg))
        totals[order_bits] = acc
    checks = []
    for order_bits, acc in totals.items():
        name = f"{1 << order_bits}PSK"
        checks.append((acc.psk_symbols >= 100_000,
                       f"{name}: only {acc.psk_symbols} symbols"))
        checks.append((acc.psk_bit_errors == 0, f"{name}: BER != 0"))
        checks.append((acc.fhcs_codewords >= 100_000,
                       f"FHCS: only {acc.fhcs_codewords} codewords"))
        checks.append((acc.fhcs_bit_errors == 0, "FHCS: BER != 0"))
    _verdict(3, "identity channel demodulates >= 1e5 symbols with zero "
                "errors (FHCS, 8PSK, 16PSK)", checks)


def test_criterion_4_estimator_accuracy():
    cfg = RadarConfig()
    n_prt = 384
    worst = {"cfo": 0.0, "rho": 0.0, "dts": 0.0}
    for draw in range(100):
        rng = np.random.default_rng([SEED, 4, draw])
        rho = rng.uniform(1e-6, 2.2e-6) * rng.choice((-1.0, 1.0))
        spec = imp.ImpairmentSpec.from_clock(
            rho, cfg, sto_initial=rng.uniform(0, 1) / cfg.sample_rate,
            front_end=imp.FrontEndProfile.rippled(cfg, rng=rng))
        plan = wf.plan_hops(cfg, n_prt=n_prt, rng=rng)
        psk = wf.make_psk_grid(cfg, plan, 3, rng=rng)
        frame = wf.synthesize(plan, psk, cfg)
        rx = imp.apply(frame, plan, psk, spec, cfg)
        _, sub_vals = crx._batch_spectra(rx, cfg)
        pilots = sub_vals[:, np.arange(cfg.n_tx), cfg.zero_subband]
        cfo_hat = crx.estimate_cfo(pilots, cfg,
                                   np.ones(pilots.shape, dtype=bool))
        rho_hat, dts_hat = crx.estimate_clock(cfo_hat, cfg)
        worst["cfo"] = max(worst["cfo"], abs(cfo_hat - spec.cfo)
                           / abs(spec.cfo))
        worst["rho"] = max(worst["rho"], abs(rho_hat - rho) / abs(rho))
        worst["dts"] = max(worst["dts"],
                           abs(dts_hat - spec.sample_time_offset)
                           / abs(spec.sample_time_offset))
    checks = [
        (worst["cfo"] < 1e-4, f"worst CFO rel err {worst['cfo']:.2e}"),
        (worst["rho"] < 1e-4, f"worst rho rel err {worst['rho']:.2e}"),
        (worst["dts"] < 1e-2, f"worst dTs rel err {worst['dts']:.2e}"),
    ]
    _verdict(4, "noiseless CFO/clock/timing recovery within 1e-4/1e-4/1e-2 "
                "relative over 100 draws", checks)


@pytest.fixture(scope="module")
def ber_report():
    # 120,000 symbols per point at -10...-4 dB, where the curves run close
    # and need tighter intervals, 10,000 above; a point's chunks are seeded
    # from (seed, SNR, chunk), so splitting the grid leaves its rows as
    # they are
    cfg = RadarConfig()
    sweep = bench.SweepSpec(modulations=(3, 4),
                            hop_durations=(0.5e-6, 1e-6),
                            comm_mode="known", seed=SEED)
    low = bench.run_ber_sweep(cfg, dataclasses.replace(
        sweep, snr_grid_db=tuple(range(-10, -2, 2)), min_symbols=120_000))
    high = bench.run_ber_sweep(cfg, dataclasses.replace(
        sweep, snr_grid_db=tuple(range(-2, 22, 2)), min_symbols=10_000))
    return dataclasses.replace(low, rows=low.rows + high.rows)


def test_criterion_5_ber_curve_shapes(ber_report):
    idx = {c: i for i, c in enumerate(ber_report.columns)}

    def cell(hop, order, snr):
        for r in ber_report.rows:
            if (r[idx["hop_duration"]] == hop
                    and r[idx["order_bits"]] == order
                    and r[idx["snr_db"]] == snr):
                return r
        raise KeyError((hop, order, snr))

    checks = []
    snrs = [float(s) for s in range(-10, 22, 2)]

    # (a) FHCS at or below PSK everywhere
    for hop in (0.5e-6, 1e-6):
        for order in (3, 4):
            for snr in snrs:
                r = cell(hop, order, snr)
                ok = r[idx["fhcs_ber"]] <= r[idx["psk_ber"]] + 1e-12
                checks.append(
                    (ok, f"(a) fhcs {r[idx['fhcs_ber']]:.4g} > psk "
                         f"{r[idx['psk_ber']]:.4g} at T={hop}, J={order}, "
                         f"snr={snr}"))

    # (b) doubling the hop duration strictly improves BER in the
    #     [1e-4, 0.3] band
    for order in (3, 4):
        for snr in snrs:
            short = cell(0.5e-6, order, snr)
            long_ = cell(1e-6, order, snr)
            for kind in ("psk_ber", "fhcs_ber"):
                lo_v, hi_v = long_[idx[kind]], short[idx[kind]]
                if any(1e-4 <= v <= 0.3 for v in (lo_v, hi_v)):
                    checks.append(
                        (lo_v < hi_v,
                         f"(b) {kind} not improved at J={order}, snr={snr}:"
                         f" {lo_v:.4g} !< {hi_v:.4g}"))

    # (c) FHCS curves from the 8PSK and 16PSK runs coincide within the
    #     (familywise-widened, z=3.29) binomial interval
    for hop in (0.5e-6, 1e-6):
        for snr in snrs:
            a = cell(hop, 3, snr)
            b = cell(hop, 4, snr)
            p1, n1 = a[idx["fhcs_ber"]], a[idx["fhcs_bits"]]
            p2, n2 = b[idx["fhcs_ber"]], b[idx["fhcs_bits"]]
            se = np.sqrt(p1 * (1 - p1) / n1 + p2 * (1 - p2) / n2)
            ok = abs(p1 - p2) <= 3.29 * se + 1e-12
            checks.append(
                (ok, f"(c) fhcs curves diverge at T={hop}, snr={snr}: "
                     f"{p1:.4g} vs {p2:.4g} (3.29se={3.29 * se:.4g})"))

    _verdict(5, "BER study orderings: FHCS<=PSK everywhere, hop doubling "
                "helps in [1e-4,0.3], FHCS invariant to PSK order", checks)


def test_criterion_6_method_contrast():
    cfg = RadarConfig()
    sweep = bench.SweepSpec(seed=SEED, ripple_db=1.0, ripple_rad=0.2)
    rep = bench.run_method_comparison(cfg, sweep, n_prt=3000)
    idx = {c: i for i, c in enumerate(rep.columns)}
    ser = {r[0]: r[idx["ser"]] for r in rep.rows}
    n = {r[0]: r[idx["n_symbols"]] for r in rep.rows}
    floor_alg1 = max(ser["estimated"], 1.0 / n["estimated"])
    checks = [
        (ser["flat"] > 0, "flat-gain method made no errors"),
        (ser["flat"] >= 5 * floor_alg1,
         f"flat {ser['flat']:.4g} < 5x blind pipeline {floor_alg1:.4g}"),
        (ser["averaged"] <= ser["estimated"] + 1e-12,
         f"averaging hurt: {ser['averaged']:.4g} > {ser['estimated']:.4g}"),
    ]
    _verdict(6, "front-end ripple: flat-gain SER >= 5x the blind pipeline; "
                "correction-averaging never hurts", checks)


@pytest.fixture(scope="module")
def radar_report():
    cfg = RadarConfig()
    sweep = bench.SweepSpec(trials=30, n_targets=10,
                            radar_snr_grid_db=(-40, -32, -24, -16, -8),
                            angle_grid_points=160, seed=SEED)
    return cfg, sweep, bench.run_radar_sweep(cfg, sweep)


def test_criterion_7_waveform_equivalence_and_floors(radar_report):
    cfg, sweep, rep = radar_report
    idx = {c: i for i, c in enumerate(rep.columns)}
    snrs = list(sweep.radar_snr_grid_db)
    floors = {"rmse_range": cfg.range_bin / np.sqrt(12),
              "rmse_velocity": cfg.velocity_bin / np.sqrt(12),
              "rmse_angle": (2 * sweep.angle_fov_deg
                             / sweep.angle_grid_points) / np.sqrt(12)}
    key_of = {"rmse_range": "r", "rmse_velocity": "v", "rmse_angle": "a"}
    rows = {(r[idx["snr_db"]], r[idx["waveform"]]): r for r in rep.rows}
    checks = []

    # paired equivalence: per-trial MSE differences within 2 SE
    for snr in snrs:
        for col, key in key_of.items():
            a = rep.meta["paired_mse"][(snr, "pilot")][key]
            b = rep.meta["paired_mse"][(snr, "random")][key]
            d = a - b
            d = d[~np.isnan(d)]
            se = np.std(d, ddof=1) / np.sqrt(d.size)
            ok = abs(np.mean(d)) <= 2 * se + 1e-15
            checks.append(
                (ok, f"paired {col} differs at snr={snr}: "
                     f"mean={np.mean(d):.3g}, 2se={2 * se:.3g}"))

    # monotone non-increasing within sampling noise, then floored
    se_col = {"r": "se_mse_range", "v": "se_mse_velocity",
              "a": "se_mse_angle"}
    for wfm in ("pilot", "random"):
        for col, key in key_of.items():
            vals = [rows[(float(s), wfm)][idx[col]] for s in snrs]
            ses = [rows[(float(s), wfm)][idx[se_col[key]]] for s in snrs]
            for j in range(len(snrs) - 1):
                # step tolerance: 3 combined standard errors mapped from the
                # MSE to the RMSE domain (dRMSE ~ dMSE / (2 RMSE))
                se_step = np.sqrt(ses[j] ** 2 + ses[j + 1] ** 2) \
                    / (2 * max(vals[j + 1], 1e-12))
                ok = vals[j + 1] <= vals[j] + 3 * se_step
                checks.append(
                    (ok, f"{wfm}/{col} increases {vals[j]:.4g}->"
                         f"{vals[j + 1]:.4g} at snr step {snrs[j]}->"
                         f"{snrs[j + 1]} (3se={3 * se_step:.2g})"))
            ratio = vals[-1] / floors[col]
            checks.append(
                (0.8 <= ratio <= 1.2,
                 f"{wfm}/{col} final point {vals[-1]:.4g} is "
                 f"{ratio:.2f}x the quantization floor"))
    _verdict(7, "pilot waveform matches the traditional one (paired, 2 SE); "
                "RMSEs fall then floor at the quantization limits", checks)


def test_criterion_8_property_suite():
    cfg = RadarConfig()
    checks = []

    # hop orthogonality, exact
    plan = wf.plan_hops(cfg, n_prt=2000, rng=np.random.default_rng([SEED, 81]))
    psk = wf.make_psk_grid(cfg, plan, 4, rng=np.random.default_rng([SEED, 82]))
    frame = wf.synthesize(plan, psk, cfg)
    hops = frame.hops(cfg, 2)
    inner = np.einsum("ihn,ihn->ih", hops[0], hops[1].conj())
    checks.append((np.max(np.abs(inner)) < 1e-9,
                   "hop cross-correlation not zero"))

    # FHCS round-trip identity
    bits = np.random.default_rng([SEED, 83]).integers(
        0, 2, size=50_000, dtype=np.uint8)
    plan2 = wf.plan_hops(cfg, fhcs_bits=bits, n_prt=2000)
    back = wf.extract_payload_bits(plan2, cfg)
    checks.append((np.array_equal(back, bits[:back.size]),
                   "FHCS round-trip not the identity"))

    # front-end stability of pilot ratios (equality with a stable
    # profile, inequality after a profile change)
    rng = np.random.default_rng([SEED, 84])
    fe1 = imp.FrontEndProfile.rippled(cfg, rng=rng)
    fe2 = imp.FrontEndProfile.rippled(cfg, rng=rng)
    dts = -3e-13
    sync = crx.SyncEstimate(0.0, 0.0, dts)
    plan3 = wf.plan_hops(cfg, n_prt=40, rng=np.random.default_rng([SEED, 85]))
    psk3 = wf.make_psk_grid(cfg, plan3, 0)
    frame3 = wf.synthesize(plan3, psk3, cfg)

    def table_pair(fe_a, fe_b):
        sa = imp.ImpairmentSpec(sto_initial=5e-9, sample_time_offset=dts,
                                front_end=fe_a)
        sb = imp.ImpairmentSpec(sto_initial=5e-9, sample_time_offset=dts,
                                front_end=fe_b)
        _, va = crx._batch_spectra(imp.apply(frame3, plan3, psk3, sa, cfg),
                                   cfg)
        _, vb = crx._batch_spectra(imp.apply(frame3, plan3, psk3, sb, cfg),
                                   cfg)
        # group 0: first pilot cycle through a; group 1: second through b;
        # antenna m's pilots: hop m at the zero sub-band, hop m+1 cycled
        sv = np.concatenate([va[:20], vb[20:]])
        ants, rows = np.arange(cfg.n_tx), np.arange(40)
        zero = sv[:, ants, cfg.zero_subband]
        cycled = sv[rows[:, None], ants + 1,
                    cfg.pilot_subband(rows)[:, None]]
        # residuals (correction factor removed) of the two groups
        t = crx.build_pilot_ratios(zero, cycled, 0, sync, cfg,
                                   np.ones(zero.shape, dtype=bool))
        a, b = t.values[0, :, 1:], t.values[1, :, 1:]
        return np.abs(b - a) / np.abs(a)

    same = table_pair(fe1, fe1)
    diff = table_pair(fe1, fe2)
    checks.append((np.max(same) < 1e-6,
                   f"stable front end: ratios deviate {np.max(same):.2e}"))
    checks.append((np.median(diff) > 1e-3,
                   "profile change did not break ratio equality"))

    # CFO averaging variance monotonicity (1 vs 16 vs 127 pairs)
    spec_t = imp.ImpairmentSpec.from_clock(1.5e-6, cfg,
                                           noise_var=10 ** (-10 / 10))
    est = {1: [], 16: [], 127: []}
    for trial in range(25):
        rng = np.random.default_rng([SEED, 86, trial])
        plan4 = wf.plan_hops(cfg, n_prt=128, rng=rng)
        psk4 = wf.make_psk_grid(cfg, plan4, 3, rng=rng)
        fr4 = wf.synthesize(plan4, psk4, cfg)
        rx4 = imp.apply(fr4, plan4, psk4, spec_t, cfg, rng=rng)
        _, sv = crx._batch_spectra(rx4, cfg)
        pilots = sv[:, np.arange(2), cfg.zero_subband]
        valid = np.ones(pilots.shape, dtype=bool)
        for n_pairs in est:
            est[n_pairs].append(crx.estimate_cfo(
                pilots[:n_pairs + 1], cfg, valid[:n_pairs + 1]))
    v = {n: np.var(est[n]) for n in est}
    checks.append((v[1] > v[16] > v[127],
                   f"CFO variance not monotone: {v}"))

    # CFAR false-alarm calibration within 3x at 1e-3 and 1e-4
    arr = rrx.ArrayModel()
    plan5 = wf.plan_hops(cfg, n_prt=128, rng=np.random.default_rng([SEED, 87]))
    psk5 = wf.make_psk_grid(cfg, plan5, 3, rng=np.random.default_rng([SEED, 88]))
    counts = {1e-3: 0, 1e-4: 0}
    cells = 0
    for trial in range(6):
        rx5 = rrx.synthesize_echo(plan5, psk5, (), arr,
                                  cfg, noise_var=1.0,
                                  rng=np.random.default_rng([SEED, 89, trial]))
        rdm = rrx.mtd(rrx.matched_filter(rx5, plan5, psk5, cfg), cfg)
        stat = rdm.detection_statistic()
        sat = np.zeros((stat.shape[0] + 1, stat.shape[1] + 1))
        sat[1:, 1:] = stat.cumsum(axis=0).cumsum(axis=1)
        s_out, c_out = rrx._box_mean(sat, 10)
        s_in, c_in = rrx._box_mean(sat, 2)
        train = (s_out - s_in) / np.maximum(c_out - c_in, 1)
        for pfa in counts:
            alpha = rrx.cfar_threshold_scale(24, pfa)
            counts[pfa] += int((stat > alpha * train).sum())
        cells += stat.size
    checks.append((cells >= 1_000_000, "fewer than 1e6 CFAR cells"))
    for pfa, cnt in counts.items():
        ratio = (cnt / cells) / pfa
        checks.append((1 / 3 < ratio < 3,
                       f"CFAR Pfa={pfa:g} off by {ratio:.2f}x"))

    # energy identities: slow-time DFT Parseval + correlator energy
    rng = np.random.default_rng([SEED, 90])
    rx6 = (rng.standard_normal((2, 8, 1600))
           + 1j * rng.standard_normal((2, 8, 1600)))
    plan6 = wf.plan_hops(cfg, n_prt=8, rng=rng)
    psk6 = wf.make_psk_grid(cfg, plan6, 3, rng=rng)
    prof = rrx.matched_filter(rx6, plan6, psk6, cfg)
    rhs = prof.shape[0] * np.sum(np.abs(prof) ** 2)
    rdm6 = rrx.mtd(prof, cfg)     # overwrites prof
    lhs = np.sum(np.abs(rdm6.cube) ** 2)
    checks.append((abs(lhs - rhs) / rhs < 1e-12, "MTD Parseval violated"))

    _verdict(8, "property suite: orthogonality, round-trip, front-end "
                "stability pair, CFO averaging, CFAR calibration, Parseval",
             checks)


def test_criterion_9_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "radar": {"prts_per_cpi": 20},
        "impairment": {"rho": 1.5e-6, "sto_initial": 6e-9, "snr_db": 18,
                       "front_end": "rippled"},
        "sweep": {"snr_grid_db": [0, 6], "modulations": [3],
                  "hop_durations": [1e-6], "min_symbols": 2000,
                  "trials": 1, "n_targets": 4,
                  "radar_snr_grid_db": [-24], "angle_grid_points": 256},
        "run": {"seed": 7, "n_prt": 20},
    }))
    pairs = []
    for cmd, files in (
            (["txgen"], ["tx.iq", "plan.txt"]),
            (["comm", "--mode", "estimated"], ["demod.csv", "summary.json"]),
            (["radar"], ["detections.csv", "rdm.bin", "scene.csv"]),
            (["sweep", "--kind", "ber"], ["ber_sweep.csv"])):
        blobs = []
        for rep in ("a", "b"):
            out = tmp_path / f"{cmd[0]}_{rep}"
            rc = cli.main(["--config", str(cfg_path), "--out", str(out)]
                          + cmd)
            assert rc == 0
            blobs.append({f: (out / f).read_bytes() for f in files})
        pairs.append((cmd[0], blobs[0] == blobs[1]))
    checks = [(same, f"{name}: outputs differ between identical runs")
              for name, same in pairs]
    _verdict(9, "identical config+seed reproduce byte-identical outputs "
                "for all subcommands", checks)
