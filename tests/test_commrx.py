import dataclasses
import gc
import itertools
import weakref

import numpy as np
import pytest

from fhmimo.config import MAX_ORDER_BITS, ConfigError, RadarConfig
from fhmimo import commrx as crx
from fhmimo import impairments as imp
from fhmimo import waveform as wf
from fhmimo.iqfile import read_iq, write_iq


def _chain(cfg, n_prt, rng, order_bits=3, spec=None, noise_rng=None):
    plan = wf.plan_hops(cfg, n_prt=n_prt, rng=rng)
    psk = wf.make_psk_grid(cfg, plan, order_bits, rng=rng)
    frame = wf.synthesize(plan, psk, cfg)
    spec = spec or imp.ImpairmentSpec()
    rx = imp.apply(frame, plan, psk, spec, cfg, rng=noise_rng)
    return plan, psk, rx


# ---------------------------------------------------------------------------
# Hop spectra and peak assignment
# ---------------------------------------------------------------------------

def test_single_tone_bin_and_magnitude(cfg):
    # a noiseless tone on sub-band k peaks at its bin with magnitude N_h
    plan = wf.plan_hops(RadarConfig(n_tx=1), n_prt=1, rng=0)
    cfg1 = RadarConfig(n_tx=1)
    psk = wf.make_psk_grid(cfg1, plan, 0)
    frame = wf.synthesize(plan, psk, cfg1)
    rx = imp.apply(frame, plan, psk, imp.ImpairmentSpec(), cfg1)
    spectra, sub_vals = crx._batch_spectra(rx, cfg1)
    for h in range(cfg1.hops_per_pulse):
        k = int(plan.subband[0, h, 0])
        b = cfg1.subband_bin(k)
        assert np.argmax(np.abs(spectra[0, h])) == b
        assert np.abs(spectra[0, h, b]) == pytest.approx(40.0)
        assert sub_vals[0, h, k] == spectra[0, h, b]


def test_zero_subband_maps_to_bin_zero(cfg):
    assert cfg.subband_bin(cfg.zero_subband) == 0


def _peaks_of_one_hop(cfg, prt, hop, spectrum, median):
    """Detected sub-bands and erasure of hop ``hop`` of one PRT that holds
    ``spectrum``: assign_peaks, then the floor test of slot_peaks."""
    bins = cfg.subband_bin(np.arange(cfg.n_subbands))
    sub_vals = np.zeros((1, cfg.hops_per_pulse, cfg.n_subbands), complex)
    sub_vals[0, hop] = spectrum[bins]
    median_mag = np.full((1, cfg.hops_per_pulse), median)
    det = crx.assign_peaks(sub_vals, cfg, first_prt=prt)
    _, peak_ok = crx.slot_peaks(sub_vals, median_mag, det)
    return det.subband[0, hop], not peak_ok[0, hop].all()


def test_assign_peaks_orders_by_frequency(cfg):
    # peaks at bins {6, 30}: bin 30 holds a negative-frequency tone
    # (-10 MHz), so it belongs to the lower-frequency antenna 0 even though
    # the other peak is stronger; hop 3 pins no antenna
    spectrum = np.zeros(40, dtype=complex)
    spectrum[6] = 10.0
    spectrum[30] = 9.0
    out, erased = _peaks_of_one_hop(cfg, 1, 3, spectrum, 0.01)
    assert not erased
    freqs = cfg.subband_frequency(out)
    assert freqs[0] == pytest.approx(-10e6)  # bin 30
    assert freqs[1] == pytest.approx(6e6)    # bin 6
    assert freqs[0] < freqs[1]


def test_assign_peaks_pinned_override(cfg):
    # hop 1 of a zero-offset PRT pins only antenna 1, to the zero sub-band
    spectrum = np.zeros(40, dtype=complex)
    spectrum[0] = 0.5          # weak zero pilot still wins by pinning
    spectrum[2] = 10.0
    spectrum[4] = 8.0
    out, erased = _peaks_of_one_hop(cfg, 0, 1, spectrum, 0.001)
    assert out[1] == cfg.zero_subband
    assert out[0] in (11, 12)  # strongest remaining bins are positive freqs
    assert not erased


def test_assign_peaks_erasure_flag(cfg):
    # hop 0 pins antenna 0 to the zero sub-band
    spectrum = np.full(40, 1.0 + 0j)    # flat: nothing exceeds 3x median
    _, erased = _peaks_of_one_hop(cfg, 1, 0, spectrum, 1.0)
    assert erased


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [40, 20, 7])
def test_lane_median_equals_numpy_median_bit_for_bit(dtype, n):
    # the noise floor's one-sort median, on hop magnitudes: every lane is
    # np.median's, also with NaN (the lane gives NaN) and +-inf in it
    a = np.abs(np.random.default_rng(n).standard_normal((200, n)))
    a = a.astype(dtype)
    a[0, 3], a[1, :2], a[2, 1] = np.nan, np.nan, np.inf
    a[3, ::2], a[4, :] = np.inf, np.inf
    a[5, 0], a[5, -1] = -np.inf, np.nan
    a[6, 2] = -np.inf
    ref = np.median(a, axis=-1)
    got = crx._lane_median(a)
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    grid = a[:196].reshape(7, 4, 7, n)
    assert crx._lane_median(grid).tobytes() == \
        np.median(grid, axis=-1).tobytes()


def test_peak_assignment_inverts_generator(cfg, rng):
    # noiseless round trip over 1e4 random hops: detected sub-bands per
    # antenna equal the planned ones
    plan, psk, rx = _chain(cfg, 2000, rng)
    rep = crx.demodulate(rx, cfg, 3, mode="known", spec=imp.ImpairmentSpec())
    truth = plan.subband[~plan.pinned]
    assert np.array_equal(rep.slots[:, 3], truth)


# ---------------------------------------------------------------------------
# CFO / clock estimation
# ---------------------------------------------------------------------------

def test_cfo_estimate_closed_form(cfg, rng):
    # cfo = 2*pi*100 rad/s: pairwise pilot phase = cfo*T_p = 0.025133
    cfo = 2 * np.pi * 100.0
    spec = imp.ImpairmentSpec(cfo=cfo)
    plan, psk, rx = _chain(RadarConfig(n_tx=1), 40, rng, spec=spec)
    cfg1 = RadarConfig(n_tx=1)
    _, sub_vals = crx._batch_spectra(rx, cfg1)
    pilots = sub_vals[:, np.arange(1), cfg1.zero_subband]
    cfo_hat = crx.estimate_cfo(pilots, cfg1,
                               np.ones(pilots.shape, dtype=bool))
    assert cfo_hat * cfg1.prt_duration == pytest.approx(0.0251327, abs=1e-6)
    assert cfo_hat == pytest.approx(cfo, rel=1e-6)


def test_cfo_zero_exact(cfg, rng):
    plan, psk, rx = _chain(cfg, 8, rng)
    rep = crx.demodulate(rx, cfg, 3)
    assert abs(rep.sync.cfo) < 1e-6


def test_clock_estimates(cfg):
    rho, dts = crx.estimate_clock(2 * np.pi * 5.5e3, cfg)
    assert rho == pytest.approx(1e-6)
    assert dts == pytest.approx(imp.sto_from_rho(1e-6, cfg.sample_rate))
    assert crx.estimate_clock(0.0, cfg) == (0.0, 0.0)


def test_clock_roundtrip_through_channel(cfg, rng):
    rho = 1e-6
    spec = imp.ImpairmentSpec.from_clock(rho, cfg, sto_initial=4e-9)
    plan, psk, rx = _chain(cfg, 128, rng, spec=spec)
    rep = crx.demodulate(rx, cfg, 3)
    assert rep.sync.sample_time_offset == pytest.approx(
        spec.sample_time_offset, rel=0.01)


def test_cfo_averaging_variance_monotone(cfg):
    # variance of the estimate shrinks as more PRT pairs are averaged
    spec_t = imp.ImpairmentSpec.from_clock(1.5e-6, cfg,
                                           noise_var=10 ** (-10 / 10))
    estimates = {1: [], 16: [], 127: []}
    for trial in range(40):
        rng = np.random.default_rng([trial, 99])
        plan, psk, rx = _chain(cfg, 128, rng, spec=spec_t, noise_rng=rng)
        _, sub_vals = crx._batch_spectra(rx, cfg)
        pilots = sub_vals[:, np.arange(cfg.n_tx), cfg.zero_subband]
        valid = np.ones(pilots.shape, dtype=bool)
        for n_pairs in estimates:
            cfo_hat = crx.estimate_cfo(pilots[:n_pairs + 1], cfg,
                                       valid[:n_pairs + 1])
            estimates[n_pairs].append(cfo_hat)
    v1, v16, v127 = (np.var(estimates[n]) for n in (1, 16, 127))
    assert v1 > v16 > v127


# ---------------------------------------------------------------------------
# Pilot ratios and the correction factor
# ---------------------------------------------------------------------------

def _table(sub_vals, first_prt, sync, cfg, valid=None):
    """Pilot table of a batch of PRTs ``first_prt`` onwards: antenna m's
    pilot peaks read at the layout's sub-bands, hop m on the zero sub-band
    and hop m+1 on the PRT's cycled sub-band; all of them usable unless
    ``valid`` (n_prt, M) says otherwise."""
    n, ants = sub_vals.shape[0], np.arange(cfg.n_tx)
    zero = sub_vals[:, ants, cfg.zero_subband]
    cycled = sub_vals[np.arange(n)[:, None], ants + 1,
                      cfg.pilot_subband(first_prt + np.arange(n))[:, None]]
    if valid is None:
        valid = np.ones((n, cfg.n_tx), dtype=bool)
    return crx.build_pilot_ratios(zero, cycled, first_prt, sync, cfg, valid)


def test_pilot_ratios_unity_for_clean_channel(cfg, rng):
    plan, psk, rx = _chain(cfg, 20, rng)
    _, sub_vals = crx._batch_spectra(rx, cfg)
    sync = crx.SyncEstimate(0.0, 0.0, 0.0)
    table = _table(sub_vals, 0, sync, cfg)
    assert table.measured.all()
    assert np.allclose(table.values, 1.0, atol=1e-9)


def test_pilot_ratio_phase_from_initial_offset(cfg, rng):
    # pure sub-sample timing offset: arg d(m, kappa) = w_k * dt0, evaluated
    # from first principles via the slot's physical tone frequency
    dt0 = 0.3 / cfg.sample_rate
    spec = imp.ImpairmentSpec(sto_initial=dt0)
    plan, psk, rx = _chain(cfg, 20, rng, spec=spec)
    _, sub_vals = crx._batch_spectra(rx, cfg)
    sync = crx.SyncEstimate(0.0, 0.0, 0.0)
    table = _table(sub_vals, 0, sync, cfg)
    for kappa in range(1, 20):
        k = (cfg.zero_subband + kappa) % 20
        want = 2 * np.pi * cfg.subband_frequency(k) * dt0
        for m in range(2):
            got = np.angle(table.values[0, m, kappa])
            assert abs((got - want + np.pi) % (2 * np.pi) - np.pi) < 1e-9

    # every impairment (rippled front end, clock drift and CFO, initial
    # offset), pilot cycles from PRT 13, true sync: each entry is the
    # front-end gain ratio times the initial-timing phase and nothing else;
    # one antenna, so no other tone leaks into the pilots through the CFO
    for cfg1 in (RadarConfig(n_tx=1),
                 RadarConfig(n_subbands=7, n_tx=1, bandwidth=14e6,
                             sample_rate=28e6)):
        K, k0 = cfg1.n_subbands, cfg1.zero_subband
        fe = imp.FrontEndProfile.rippled(cfg1, rng=rng)
        spec = imp.ImpairmentSpec.from_clock(1.8e-6, cfg1, sto_initial=dt0,
                                             front_end=fe)
        plan = wf.plan_hops(cfg1, n_prt=2 * K, rng=rng, first_prt=13)
        psk = wf.make_psk_grid(cfg1, plan, 0)
        rx = imp.apply(wf.synthesize(plan, psk, cfg1), plan, psk, spec, cfg1)
        _, sub_vals = crx._batch_spectra(rx, cfg1)
        table = _table(sub_vals, 13, crx.SyncEstimate.from_spec(spec, cfg1),
                       cfg1)
        ks = (k0 + np.arange(K)) % K
        want = (fe.gains[0, ks] / fe.gains[0, k0]
                * np.exp(2j * np.pi * cfg1.subband_frequency(ks) * dt0))
        assert table.measured.all()
        assert np.max(np.abs(table.values - want)) < 1e-12


def test_pilot_ratio_phase_increases_with_prt(cfg, rng):
    # a positive sub-sample timing offset makes the ratio phase advance
    # with the PRT index within a cycle (the pilot frequency grows with the
    # offset index, so the w_k*dt0 term grows too)
    spec = imp.ImpairmentSpec.from_clock(1e-6, cfg,
                                         sto_initial=0.3 / cfg.sample_rate)
    plan, psk, rx = _chain(cfg, 20, rng, spec=spec)
    _, sub_vals = crx._batch_spectra(rx, cfg)
    sync = crx.SyncEstimate(spec.cfo, 1e-6, spec.sample_time_offset)
    table = _table(sub_vals, 0, sync, cfg)
    phases = np.angle(table.values[0, 0, 1:10])  # positive-frequency pilots
    assert np.all(np.diff(phases) > 0)


def _pilot_tables_by_loop(sub_vals, first_prt, sync, cfg, valid):
    """Reference: row-by-row, antenna-by-antenna fill of each group of K
    rows with raw pilot ratios, then one correction-factor call that turns
    every measured ratio into its residual. Returns (values, measured)."""
    M, K, k0 = cfg.n_tx, cfg.n_subbands, cfg.zero_subband
    G = -(-len(sub_vals) // K)
    values = np.ones((G, M, K), dtype=complex)
    source = np.zeros((G, M, K), dtype=np.int64)
    measured = np.zeros((G, M, K), dtype=bool)
    for row in range(len(sub_vals)):
        g, i_abs = row // K, first_prt + row
        kappa = int(cfg.pilot_offset(i_abs))
        for m in range(M):
            den = sub_vals[row, m, k0]
            if not valid[row, m] or (kappa != 0 and den == 0):
                continue
            measured[g, m, kappa] = True
            if kappa != 0:
                values[g, m, kappa] = (sub_vals[row, m + 1, (k0 + kappa) % K]
                                       / den)
                source[g, m, kappa] = i_abs
    g, m, kappa = np.nonzero(measured[..., 1:])
    values[g, m, kappa + 1] *= np.conj(crx.correction_factor(
        source[g, m, kappa + 1], m + 1, m, (k0 + kappa + 1) % K, sync, cfg))
    return values, measured


def _carry_by_loop(values, measured):
    """Reference carry: group by group, a hole takes the entry of the
    group before it (which may itself be carried)."""
    values, measured = values.copy(), measured.copy()
    for g in range(1, len(values)):
        hole = ~measured[g]
        values[g][hole] = values[g - 1][hole]
        measured[g][hole] = measured[g - 1][hole]
    return values, measured


def _average_by_loop(values, measured):
    """Reference CPI average: per (antenna, offset), the running sum of the
    measured entries over the groups divided by their count; 1 when none
    was measured."""
    G, M, K = values.shape
    avg, seen = np.ones((M, K), dtype=complex), np.zeros((M, K), dtype=bool)
    for m in range(M):
        for kappa in range(K):
            total, n = 0j, 0
            for g in range(G):
                if measured[g, m, kappa]:
                    total, n = total + values[g, m, kappa], n + 1
            if n:
                avg[m, kappa], seen[m, kappa] = total / n, True
    return (np.broadcast_to(avg, values.shape),
            np.broadcast_to(seen, values.shape))


def _check_tables_against_loop(cfg, n, first_prt, rng):
    """Random pilots from PRT ``first_prt`` on, with unusable (row,
    antenna) pairs and zero pilots: the measured table, the carried table
    and the CPI average all match the reference loops exactly."""
    shape = (n, cfg.hops_per_pulse, cfg.n_subbands)
    sub_vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    sub_vals[rng.random(n) < 0.2, 0, cfg.zero_subband] = 0.0
    valid = rng.random((n, cfg.n_tx)) > 0.3
    sync = crx.SyncEstimate(2e3, 5e-8, -3e-13)
    table = _table(sub_vals, first_prt, sync, cfg, valid)
    values, measured = _pilot_tables_by_loop(sub_vals, first_prt, sync, cfg,
                                             valid)
    assert np.array_equal(table.measured, measured)
    assert np.array_equal(table.values, values)
    assert (~measured).any() and measured[..., 1:].any()
    for got, want in ((crx._carried_table(table),
                       _carry_by_loop(values, measured)),
                      (crx._averaged_table(table),
                       _average_by_loop(values, measured))):
        assert np.array_equal(got.measured, want[1])
        assert np.array_equal(got.values, want[0])


def test_pilot_tables_match_row_by_row_fill(cfg):
    rng = np.random.default_rng(41)
    _check_tables_against_loop(cfg, 70, int(rng.integers(0, 1000)), rng)


def test_pilot_tables_match_loops_beyond_default_config():
    # M = 3, K = 7, H = 4 from PRT 5; 40 rows leave a partial last group
    cfg = RadarConfig(n_subbands=7, n_tx=3, hops_per_pulse=4,
                      bandwidth=7e6, sample_rate=14e6, prt_duration=8e-6)
    _check_tables_against_loop(cfg, 40, 5, np.random.default_rng(43))


def test_averaged_table_counts_each_measurement_once(cfg):
    # the pilots of group 1 are unusable, so the carried table repeats
    # group 0's entries there; the CPI average counts each measurement
    # once: ratios 1 (group 0) and 2 (group 2) average to 1.5, not 4/3
    n, M, K = 60, cfg.n_tx, cfg.n_subbands
    rows = np.arange(n)
    sub_vals = np.zeros((n, cfg.hops_per_pulse, K), dtype=complex)
    sub_vals[:, :M, cfg.zero_subband] = 1.0
    cycled = (cfg.zero_subband + rows) % K
    sub_vals[rows[:, None], np.arange(1, M + 1), cycled[:, None]] = \
        np.where(rows < 20, 1.0, 2.0)[:, None]
    sync = crx.SyncEstimate(0.0, 0.0, 0.0)
    valid = np.broadcast_to((rows // K != 1)[:, None], (n, M))
    table = _table(sub_vals, 0, sync, cfg, valid)
    assert not table.measured[1].any() and table.measured[[0, 2]].all()
    assert np.allclose(table.values[2, :, 1:], 2.0)
    carried = crx._carried_table(table)
    assert carried.measured.all()
    assert np.array_equal(carried.values[1], table.values[0])
    avg = crx._averaged_table(table)
    assert avg.measured.all()
    assert np.allclose(avg.values[:, :, 1:], 1.5)


def test_correction_factor_trivial_cases(cfg):
    # no sync error: nothing to predict
    sync = crx.SyncEstimate(0.0, 0.0, 0.0)
    assert crx.correction_factor(9, 4, 1, 5, sync, cfg) == 1.0
    # antenna m's own zero pilot is the reference: 0 Hz, no hops between
    sync = crx.SyncEstimate(1e4, 1e-6, -2.5e-13)
    assert crx.correction_factor(7, 2, 2, cfg.zero_subband, sync, cfg) == 1.0


def test_correction_factor_against_bruteforce_pilots(cfg):
    """Oracle: synthesize two pilots of the same sub-band at different
    (PRT, hop) slots through the impaired channel and measure each one's
    ratio to its PRT's zero pilot (hop 0); the correction factors must
    reproduce the ratio of ratios, and each ratio with its correction
    factor removed must leave the initial-timing phase only."""
    spec = imp.ImpairmentSpec.from_clock(1.7e-6, cfg, sto_initial=6e-9)
    sync = crx.SyncEstimate(spec.cfo, 1.7e-6, spec.sample_time_offset)
    k = 14
    i1, h1, i2, h2 = 4, 1, 17, 3
    # build two PRTs whose hop (h1|h2) carries antenna 0 on sub-band k and
    # hop 0 the zero pilot; measure (S_breve/S_tilde) at both and divide
    cfg1 = RadarConfig(n_tx=1)
    sub = np.zeros((18, cfg1.hops_per_pulse, 1), dtype=np.int64)
    sub[:, 0, 0] = cfg1.zero_subband
    sub[i1, h1, 0] = k
    sub[i2, h2, 0] = k
    plan = wf.HopPlan(sub, np.zeros_like(sub, dtype=bool))
    psk = wf.make_psk_grid(cfg1, plan, 0)
    frame = wf.synthesize(plan, psk, cfg1)
    rx = imp.apply(frame, plan, psk, spec, cfg1)
    _, sv = crx._batch_spectra(rx, cfg1)
    r1 = sv[i1, h1, k] / sv[i1, 0, cfg1.zero_subband]
    r2 = sv[i2, h2, k] / sv[i2, 0, cfg1.zero_subband]
    c1 = crx.correction_factor(i1, h1, 0, k, sync, cfg1)
    c2 = crx.correction_factor(i2, h2, 0, k, sync, cfg1)
    assert r2 / r1 == pytest.approx(c2 / c1, rel=1e-9)
    want = np.exp(2j * np.pi * cfg1.subband_frequency(k) * spec.sto_initial)
    for r, c in ((r1, c1), (r2, c2)):
        assert r * np.conj(c) == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# Demodulation end to end
# ---------------------------------------------------------------------------

def test_identity_end_to_end_bit_exact_many_seeds(cfg):
    # clean channel: recovered payloads are bit-exact for FHCS and PSK
    # across modulations and 1000 random seeds
    for seed in range(1000):
        order_bits = (seed % 4) + 1
        rng = np.random.default_rng([seed, 7])
        plan, psk, rx = _chain(cfg, 2, rng, order_bits=order_bits)
        rep = crx.demodulate(rx, cfg, order_bits, mode="known",
                             spec=imp.ImpairmentSpec())
        sc = crx.score_report(rep, plan, psk, cfg)
        assert sc.psk_bit_errors == 0 and sc.fhcs_bit_errors == 0, seed


def test_full_impairments_noiseless_recovery(cfg, rng):
    fe = imp.FrontEndProfile.rippled(cfg, rng=rng)
    spec = imp.ImpairmentSpec.from_clock(-1.9e-6, cfg, sto_initial=1.2e-8,
                                         front_end=fe)
    for mode in ("estimated", "averaged"):
        plan, psk, rx = _chain(cfg, 128, np.random.default_rng(3),
                               order_bits=4, spec=spec)
        rep = crx.demodulate(rx, cfg, 4, mode=mode)
        sc = crx.score_report(rep, plan, psk, cfg)
        assert sc.psk_bit_errors == 0 and sc.fhcs_bit_errors == 0
        assert rep.sync.cfo == pytest.approx(spec.cfo, rel=1e-4)


def test_cfo_estimator_accuracy_across_range(cfg):
    # noiseless relative accuracy over the allowed CFO range
    for frac in (0.05, 0.3, 0.8):
        cfo = frac * np.pi / cfg.prt_duration
        spec = imp.ImpairmentSpec(cfo=cfo)
        plan, psk, rx = _chain(cfg, 256, np.random.default_rng(11),
                               spec=spec)
        rep = crx.demodulate(rx, cfg, 3)
        assert abs(rep.sync.cfo - cfo) / cfo < 1e-4


def test_front_end_stability_of_pilot_ratios(cfg):
    """With the front-end profile held fixed, the pilot-ratio residual
    (correction factor removed) measured in one PRT equals the one
    measured in another PRT; changing the profile mid-run breaks it."""
    rng = np.random.default_rng(21)
    fe1 = imp.FrontEndProfile.rippled(cfg, rng=rng)
    fe2 = imp.FrontEndProfile.rippled(cfg, rng=rng)
    dt0 = 0.4 / cfg.sample_rate
    dts = -3e-13
    spec1 = imp.ImpairmentSpec(sto_initial=dt0, sample_time_offset=dts,
                               front_end=fe1)
    spec2 = imp.ImpairmentSpec(sto_initial=dt0, sample_time_offset=dts,
                               front_end=fe2)
    sync = crx.SyncEstimate(0.0, 0.0, dts)

    plan = wf.plan_hops(cfg, n_prt=40, rng=np.random.default_rng(4))
    psk = wf.make_psk_grid(cfg, plan, 0)
    frame = wf.synthesize(plan, psk, cfg)

    def ratio_tables(spec_a, spec_b):
        # first pilot cycle (group 0) through profile a, second (group 1)
        # through profile b
        rx_a = imp.apply(frame, plan, psk, spec_a, cfg)
        rx_b = imp.apply(frame, plan, psk, spec_b, cfg)
        _, sv_a = crx._batch_spectra(rx_a, cfg)
        _, sv_b = crx._batch_spectra(rx_b, cfg)
        return _table(np.concatenate([sv_a[:20], sv_b[20:]]), 0, sync, cfg)

    # same profile: the two groups' residuals agree
    t = ratio_tables(spec1, spec1)
    assert t.measured.all()
    lhs, rhs = t.values[1, :, 1:], t.values[0, :, 1:]
    assert np.all(np.abs(lhs - rhs) / np.abs(rhs) < 1e-6)

    # profile switch: equality must break for most entries
    t = ratio_tables(spec1, spec2)
    diffs = np.abs(t.values[1, :, 1:] - t.values[0, :, 1:])
    assert np.median(diffs) > 1e-3


def test_flat_gain_assumption_increases_errors(cfg):
    # rippled front end, no timing/CFO error: disabling the per-sub-band
    # correction must strictly increase the symbol error rate
    fe = imp.FrontEndProfile.rippled(cfg, rng=np.random.default_rng(13))
    # a ripple below the 16PSK half-distance (pi/16) provably cannot cause
    # errors at high SNR; assert this draw crosses the threshold
    rel = fe.gains / fe.gains[:, cfg.zero_subband:cfg.zero_subband + 1]
    assert np.max(np.abs(np.angle(rel))) > np.pi / 16
    spec = imp.ImpairmentSpec(noise_var=10 ** (-20 / 10), front_end=fe)
    plan, psk, rx = _chain(cfg, 400, np.random.default_rng(5),
                           order_bits=4, spec=spec,
                           noise_rng=np.random.default_rng(6))
    ser = {}
    for mode in ("estimated", "flat"):
        rep = crx.demodulate(rx, cfg, 4, mode=mode)
        ser[mode] = crx.score_report(rep, plan, psk, cfg).psk_ser
    assert ser["flat"] > ser["estimated"]


def test_fhcs_invariant_to_psk_content(cfg):
    # same plan and noise, different PSK payloads: identical FHCS decisions
    spec = imp.ImpairmentSpec.from_clock(1e-6, cfg,
                                         noise_var=10 ** (-5 / 10))
    plan = wf.plan_hops(cfg, n_prt=100, rng=np.random.default_rng(8))
    rows = []
    for trial in (0, 1):
        psk = wf.make_psk_grid(cfg, plan, 4,
                               rng=np.random.default_rng([trial, 13]))
        frame = wf.synthesize(plan, psk, cfg)
        rx = imp.apply(frame, plan, psk, spec, cfg,
                       rng=np.random.default_rng(55))
        rep = crx.demodulate(rx, cfg, 4, mode="known", spec=spec)
        rows.append(rep.fhcs_rows)
    assert np.array_equal(rows[0], rows[1])


def test_scatter_concentration_at_20db(cfg):
    # full impairments at 20 dB hop SNR: 8PSK symbol clusters concentrate
    # (mean absolute residual < 2*pi/16)
    rng = np.random.default_rng(17)
    fe = imp.FrontEndProfile.rippled(cfg, rng=rng)
    spec = imp.ImpairmentSpec.from_clock(1.2e-6, cfg, sto_initial=8e-9,
                                         noise_var=10 ** (-20 / 10),
                                         front_end=fe)
    plan, psk, rx = _chain(cfg, 200, np.random.default_rng(9), spec=spec,
                           noise_rng=np.random.default_rng(10))
    rep = crx.demodulate(rx, cfg, 3, mode="estimated")
    assert np.abs(rep.psk_residual).mean() < 2 * np.pi / 16


def test_partial_trailing_group_borrows_entries(cfg):
    # 128-PRT CPI with K=20: the last 8 PRTs form a partial group whose
    # missing pilot entries borrow earlier measurements instead of erasing
    spec = imp.ImpairmentSpec.from_clock(1e-6, cfg, sto_initial=5e-9)
    plan, psk, rx = _chain(cfg, 128, np.random.default_rng(14), spec=spec)
    rep = crx.demodulate(rx, cfg, 3, mode="estimated")
    sc = crx.score_report(rep, plan, psk, cfg)
    assert rep.n_erased_slots == 0
    assert sc.psk_bit_errors == 0


def test_free_antenna_fade_keeps_the_prt_pilots(cfg):
    # antenna 1 sends payload in hop 0 of PRT 5 (antenna 0 sends the zero
    # pilot); without that tone the hop is erased, but PRT 5's pilots all
    # clear the floor, so its table entries (offset 5) must still be
    # measured: only the faded slot is erased and every other slot decodes
    spec = imp.ImpairmentSpec(noise_var=1e-4)
    plan = wf.plan_hops(cfg, n_prt=20, rng=np.random.default_rng(51))
    psk = wf.make_psk_grid(cfg, plan, 3, rng=np.random.default_rng(52))
    frame = wf.synthesize(plan, psk, cfg)
    tx = frame.data.copy()
    assert not plan.pinned[5, 0, 1]
    tx[1, 5, :cfg.samples_per_hop] = 0.0
    frame = dataclasses.replace(frame, data=tx)
    rx = imp.apply(frame, plan, psk, spec, cfg,
                   rng=np.random.default_rng(55))
    for mode in ("estimated", "averaged", "flat"):
        rep = crx.demodulate(rx, cfg, 3, mode=mode)
        erased = rep.slots[rep.psk_erased]
        assert erased[:, :3].tolist() == [[5, 0, 1]]
        uses_prt5 = (rep.slots[:, 4] == 5) & ~rep.psk_erased
        assert uses_prt5.any()
        ok = ~rep.psk_erased
        truth = psk.symbol_index[~plan.pinned]
        assert np.array_equal(rep.psk_symbol[ok], truth[ok])


def test_blind_modes_erase_slots_whose_zero_pilot_is_lost(cfg):
    # antenna 0's zero pilot (hop 0) is removed in PRT 25 of a 40 dB frame;
    # the blind modes divide each payload peak by its same-PRT zero pilot,
    # so antenna 0's payload slots in PRT 25 must be erased (hop 0 is erased
    # too, taking antenna 1's slot there); antenna 1's other slots in PRT
    # 25 and every other slot must still decode. PRT 25 lies in the second
    # pilot group, which carries the first group's offset-5 entry, so no
    # slot is erased for a missing table entry. Known mode needs no pilot.
    spec = imp.ImpairmentSpec(noise_var=1e-4)
    plan = wf.plan_hops(cfg, n_prt=40, rng=np.random.default_rng(61))
    psk = wf.make_psk_grid(cfg, plan, 3, rng=np.random.default_rng(62))
    frame = wf.synthesize(plan, psk, cfg)
    assert plan.pinned[25, 0, 0]
    tx = frame.data.copy()
    tx[0, 25, :cfg.samples_per_hop] = 0.0
    frame = dataclasses.replace(frame, data=tx)
    rx = imp.apply(frame, plan, psk, spec, cfg,
                   rng=np.random.default_rng(63))
    hop0 = [[25, 0, 1]]
    ant0 = [[25, h, 0] for h in range(cfg.hops_per_pulse)
            if not plan.pinned[25, h, 0]]
    ant1 = [[25, h, 1] for h in range(1, cfg.hops_per_pulse)
            if not plan.pinned[25, h, 1]]
    assert ant0 and ant1
    truth = psk.symbol_index[~plan.pinned]
    for mode, want in (("known", hop0), ("estimated", hop0 + ant0),
                       ("averaged", hop0 + ant0), ("flat", hop0 + ant0)):
        rep = crx.demodulate(rx, cfg, 3, mode=mode, spec=spec)
        erased = rep.slots[rep.psk_erased, :3].tolist()
        assert sorted(erased) == sorted(want), mode
        ok = ~rep.psk_erased
        kept = rep.slots[ok, :3].tolist()
        assert all(s in kept for s in ant1), mode
        if mode != "flat":
            assert np.array_equal(rep.psk_symbol[ok], truth[ok]), mode


def test_an_all_zero_prt_is_erased_in_every_mode(cfg):
    # a dropped PRT (every sample 0) has DFT peaks of 0 and a median bin
    # of 0; the floor test must be strict, or 0 >= 3 * 0 passes and the
    # PRT's payload is decoded from zeros with no erasure. Every hop, slot
    # and codeword of it is erased in every mode, and nothing else is
    spec = imp.ImpairmentSpec(noise_var=1e-2)
    plan, psk, rx = _chain(cfg, 40, np.random.default_rng(71), spec=spec,
                           noise_rng=np.random.default_rng(72))
    data = rx.data.copy()
    data[0, 25] = 0.0
    frame = dataclasses.replace(rx, data=data)
    for mode in crx.MODES:
        rep = crx.demodulate(frame, cfg, 3, mode=mode, spec=spec)
        in_25 = rep.slots[:, 0] == 25
        assert in_25.sum() == 6, mode
        assert rep.psk_erased[in_25].all(), mode
        assert rep.n_erased_slots == 6, mode
        assert rep.n_erased_hops == cfg.hops_per_pulse, mode
        rows_25 = rep.fhcs_rows[:, 0] == 25
        assert rows_25.any(), mode
        assert (rep.fhcs_rows[rows_25, 3] == -1).all(), mode
        assert (rep.fhcs_rows[~rows_25, 3] >= 0).all(), mode
        if mode != "flat":
            ok = ~rep.psk_erased
            assert np.array_equal(rep.psk_symbol[ok],
                                  psk.symbol_index[~plan.pinned][ok]), mode


def test_blind_modes_erase_everything_without_pilot_pairs(cfg):
    # a -20 dB frame leaves no pair of consecutive PRTs with both zero
    # pilots above the floor, and a one-PRT frame has no pair at all: the
    # blind modes report no sync and erase every slot and codeword
    spec = imp.ImpairmentSpec.from_clock(1e-6, cfg,
                                         noise_var=10 ** (20 / 10))
    for n_prt in (40, 1):
        plan, psk, rx = _chain(cfg, n_prt, np.random.default_rng(31),
                               spec=spec, noise_rng=np.random.default_rng(32))
        for mode in ("estimated", "averaged", "flat"):
            rep = crx.demodulate(rx, cfg, 3, mode=mode)
            assert rep.sync is None
            summary = rep.summary()
            assert summary["cfo_hat"] is summary["rho_hat"] is None
            assert summary["sample_time_offset_hat"] is None
            assert rep.psk_erased.all()
            assert rep.n_erased_slots == (~plan.pinned).sum()
            assert rep.n_erased_hops == n_prt * cfg.hops_per_pulse
            assert np.all(rep.fhcs_rows[:, 3] == -1)
            sc = crx.score_report(rep, plan, psk, cfg)
            assert sc.psk_ber == 0.5 and sc.fhcs_ber == 0.5
            assert sc.psk_symbol_errors == sc.psk_symbols > 0


def test_demodulate_rejects_unknown_mode(cfg, rng):
    plan, psk, rx = _chain(cfg, 4, rng)
    with pytest.raises(ValueError):
        crx.demodulate(rx, cfg, 3, mode="bogus")
    with pytest.raises(ValueError):
        crx.demodulate(rx, cfg, 3, mode="known")  # needs the true spec


def test_score_report_refuses_the_truth_of_another_capture(cfg, rng):
    # a plan of another length has another slot count; a plan one pilot
    # cycle later has the same slots, but its FHCS rows name other PRTs
    plan, psk, rx = _chain(cfg, 40, rng)
    rep = crx.demodulate(rx, cfg, 3)
    longer = wf.plan_hops(cfg, n_prt=41, rng=rng)
    with pytest.raises(ValueError, match="slot count mismatch"):
        crx.score_report(rep, longer, wf.make_psk_grid(cfg, longer, 3), cfg)
    later = dataclasses.replace(plan, first_prt=cfg.n_subbands)
    with pytest.raises(ValueError, match="FHCS row layout mismatch"):
        crx.score_report(rep, later, psk, cfg)


def test_demodulate_rejects_frame_of_another_config(cfg, rng):
    plan, psk, rx = _chain(cfg, 4, rng)
    for other in (RadarConfig(sample_rate=80e6),
                  RadarConfig(prt_duration=20e-6)):
        with pytest.raises(ConfigError):
            crx.demodulate(rx, other, 3)


@pytest.mark.parametrize("K, M", [(4, 2), (6, 3), (5, 2), (7, 3)])
def test_receiver_refuses_hops_too_short_for_the_floor(K, M):
    # the peak floor is PEAK_FLOOR_FACTOR times the median of a hop's N_h
    # DFT bins; with 2M >= N_h that median is a tone, so every hop was
    # erased on a noiseless identity channel (36 of 36 at K=4, M=2) and the
    # run reported BER 0.5. RadarConfig accepts such a config (the radar
    # chain has no such floor); the receiver refuses it by name, and one bin
    # more (2M = N_h - 1) decodes error-free in every mode
    cfg = RadarConfig(n_subbands=K, n_tx=M, hops_per_pulse=M + 1,
                      bandwidth=K * 1e6, sample_rate=K * 1e6)
    assert cfg.samples_per_hop == K
    plan, psk, rx = _chain(cfg, 3 * K, np.random.default_rng(5))
    spec = imp.ImpairmentSpec()
    for mode in crx.MODES:
        if 2 * M >= K:
            with pytest.raises(ConfigError,
                               match=r"2\*n_tx < samples_per_hop"):
                crx.demodulate(rx, cfg, 3, mode=mode, spec=spec)
            continue
        rep = crx.demodulate(rx, cfg, 3, mode=mode, spec=spec)
        sc = crx.score_report(rep, plan, psk, cfg)
        assert rep.n_erased_hops == rep.n_erased_slots == 0, mode
        assert sc.psk_symbol_errors == sc.fhcs_bit_errors == 0, mode
        assert sc.psk_symbols > 0 and sc.fhcs_bits > 0, mode


@pytest.mark.parametrize("cfg", [
    RadarConfig(),
    RadarConfig(n_subbands=7, n_tx=3, hops_per_pulse=4, bandwidth=14e6,
                sample_rate=28e6)], ids=["default", "K7-M3-H4"])
def test_identity_channel_exact_up_to_the_order_bound(cfg):
    # a symbol's phase 2*pi*p/2^J is a float64: a noiseless identity
    # channel of 2000 PRTs decoded exactly up to J = 49 in every mode and
    # made 920 symbol errors in the known mode at J = 50, which was
    # accepted (any J up to 63 was). The widest accepted order decodes
    # exactly and one bit more is refused
    spec = imp.ImpairmentSpec()
    plan, psk, rx = _chain(cfg, 2000, np.random.default_rng(7),
                           order_bits=MAX_ORDER_BITS)
    for mode in crx.MODES:
        rep = crx.demodulate(rx, cfg, MAX_ORDER_BITS, mode=mode, spec=spec)
        sc = crx.score_report(rep, plan, psk, cfg)
        assert rep.n_erased_slots == 0, mode
        assert sc.psk_symbol_errors == sc.fhcs_bit_errors == 0, mode
    with pytest.raises(ConfigError, match=r"order_bits must be in \[0, 32\]"):
        wf.make_psk_grid(cfg, plan, MAX_ORDER_BITS + 1, rng=0)
    with pytest.raises(ConfigError, match=r"order_bits must be in \[0, 32\]"):
        crx.demodulate(rx, cfg, MAX_ORDER_BITS + 1, spec=spec)


@pytest.mark.parametrize("cfg", [
    RadarConfig(),
    RadarConfig(n_subbands=7, n_tx=3, hops_per_pulse=4, bandwidth=14e6,
                sample_rate=28e6),
    RadarConfig(hop_duration=0.5e-6, bandwidth=40e6, sample_rate=40e6)],
    ids=["default", "K7-M3-H4", "hop-0.5us"])
def test_complex64_frame_exact_up_to_its_order_bound(cfg, tmp_path):
    # an FHIQ file stores complex64: noiseless frames read back from one
    # decoded exactly up to J = 25 and made symbol errors from J = 26, and
    # demodulate accepted up to 32. The widest order a complex64 frame is
    # decoded at decodes exactly in every mode; one bit more is refused
    spec = imp.ImpairmentSpec()
    J = crx.MAX_COMPLEX64_ORDER_BITS
    plan, psk, rx = _chain(cfg, 500, np.random.default_rng(11),
                           order_bits=J)
    write_iq(tmp_path / "rx.iq", rx)
    read = read_iq(tmp_path / "rx.iq")
    assert read.data.dtype == np.complex64
    for mode in crx.MODES:
        rep = crx.demodulate(read, cfg, J, mode=mode, spec=spec)
        sc = crx.score_report(rep, plan, psk, cfg)
        assert rep.n_erased_slots == 0, mode
        assert sc.psk_symbol_errors == sc.fhcs_bit_errors == 0, mode
    with pytest.raises(ConfigError, match=r"complex64 frame.*at most 16"):
        crx.demodulate(read, cfg, J + 1, spec=spec)


# ---------------------------------------------------------------------------
# Slot-grid and blind-estimate memo
# ---------------------------------------------------------------------------

SMALL_CFG = RadarConfig(n_subbands=7, n_tx=3, hops_per_pulse=4,
                        bandwidth=7e6, sample_rate=14e6, prt_duration=8e-6)


def _same_report(a, b):
    """Field by field, arrays byte for byte (dtype and shape included)."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            if (x.dtype, x.shape, x.tobytes()) != (y.dtype, y.shape,
                                                   y.tobytes()):
                return False
        elif dataclasses.is_dataclass(x):
            if not _same_report(x, y):
                return False
        elif x != y:
            return False
    return True


def _seeded_frame(cfg, source, tmp_path, n_prt=45, snr_db=-4):
    """A seeded frame from PRT 5, as ``apply`` returns it or read back
    from an FHIQ file, with its spec. ``snr_db`` is the sample SNR a
    40-sample hop would have, so the hop SNR is the same in every config:
    at -4 dB some hops, slots and codewords are erased."""
    rng = np.random.default_rng(29)
    spec = imp.ImpairmentSpec.from_clock(
        1.5e-6, cfg, sto_initial=0.4 / cfg.sample_rate,
        noise_var=10 ** (-snr_db / 10) * cfg.samples_per_hop / 40,
        front_end=imp.FrontEndProfile.rippled(cfg, rng=rng))
    plan = wf.plan_hops(cfg, n_prt=n_prt, rng=rng, first_prt=5)
    psk = wf.make_psk_grid(cfg, plan, 3, rng=rng)
    rx = imp.apply(wf.synthesize(plan, psk, cfg), plan, psk, spec, cfg,
                   rng=rng)
    if source == "read_iq":
        write_iq(tmp_path / "rx.iq", rx)
        rx = read_iq(tmp_path / "rx.iq")
    return rx, spec


@pytest.mark.parametrize("n_prt, snr_db", [(45, -4), (1, 20)],
                         ids=["45-prt-at-4dB", "1-prt-at-20dB"])
@pytest.mark.parametrize("source", ["apply", "read_iq"])
@pytest.mark.parametrize("cfg", [RadarConfig(), SMALL_CFG],
                         ids=["default", "K7-M3-H4"])
def test_memoized_reports_equal_a_writable_copy_in_every_mode_order(
        cfg, source, n_prt, snr_db, tmp_path):
    # a frame computes its slot grid and slot table in its first
    # demodulate, and its blind estimate in its first blind one, and reuses
    # them in the next: in each of the 24 orders of the four modes, on a
    # fresh frame over the same samples, every report equals the report of
    # a frame demodulated in that mode alone (its memo computed afresh).
    # Every report array is read-only and a write into it raises, so a
    # report shares the memo rows its mode does not change: known mode
    # changes none, a blind mode the slots' erased column, and a frame
    # without a pilot pair the codewords too
    rx, spec = _seeded_frame(cfg, source, tmp_path, n_prt, snr_db)
    assert not rx.data.flags.writeable
    want = {}
    for m in crx.MODES:
        alone = dataclasses.replace(rx)       # a new memo key per mode
        want[m] = crx.demodulate(alone, cfg, 3, mode=m, spec=spec)
        assert list(crx._SLOT_GRIDS[alone]) == [cfg]
        grid = crx._SLOT_GRIDS[alone][cfg]
        assert set(vars(grid)) == (_GRID_FIELDS if m == "known"
                                   else _GRID_FIELDS | {"blind"}), m
    # the 45-PRT frame erases some hops and codewords; the one-PRT frame
    # has no pilot pair, so the blind modes erase every hop of it, and
    # known mode must still erase none
    known = want["known"]
    assert (known.n_erased_hops > 0) == (n_prt == 45)
    assert (known.fhcs_rows[:, 3] == -1).any() == (n_prt == 45)
    assert (want["estimated"].sync is None) == (n_prt == 1)
    for order in itertools.permutations(crx.MODES):
        frame = dataclasses.replace(rx)       # same samples, a new memo key
        for mode in order:
            rep = crx.demodulate(frame, cfg, 3, mode=mode, spec=spec)
            assert _same_report(rep, want[mode]), (order, mode)
            for f in dataclasses.fields(rep):
                value = getattr(rep, f.name)
                if isinstance(value, np.ndarray):
                    assert not value.flags.writeable, (mode, f.name)
                    with pytest.raises(ValueError, match="read-only"):
                        value[...] = 0
            grid = crx._SLOT_GRIDS[frame][cfg]
            changed = ({"slots", "fhcs_rows"} if rep.sync is None
                       else set() if mode == "known" else {"slots"})
            for name in ("slots", "fhcs_rows"):
                assert (getattr(rep, name) is getattr(grid, name)) == (
                    name not in changed), (mode, name)
        assert (grid.blind is None) == (n_prt == 1)
        assert not any(a.flags.writeable for a in _memo_arrays(grid))


_GRID_FIELDS = {f.name for f in dataclasses.fields(crx._SlotGrid)}


def _memo_arrays(grid):
    """Every array a frame's memo holds: the slot grid and slot table, and
    the blind estimate once a blind mode has computed it."""
    arrays = [grid.det.subband, grid.det.pinned]
    arrays += [getattr(grid, f.name) for f in dataclasses.fields(grid)
               if isinstance(getattr(grid, f.name), np.ndarray)]
    blind = vars(grid).get("blind")
    if blind is not None:
        arrays += [blind.table.values, blind.table.measured]
        arrays += [getattr(blind, f.name) for f in dataclasses.fields(blind)
                   if isinstance(getattr(blind, f.name), np.ndarray)]
    return arrays


def test_the_blind_modes_estimate_a_frame_once(cfg, tmp_path, monkeypatch):
    # per frame and config, the three blind modes estimate the CFO and
    # measure the pilot table once, and take the correction factor twice
    # (for the table's pilots and for the payload slots); a frame
    # demodulated only in known mode makes none of these calls
    calls = {}

    def counted(name):
        original = getattr(crx, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(crx, name, wrapper)

    for name in ("estimate_cfo", "build_pilot_ratios", "correction_factor"):
        counted(name)
    rx, spec = _seeded_frame(cfg, "read_iq", tmp_path)
    for mode in ("known", "flat", "estimated", "averaged"):
        crx.demodulate(rx, cfg, 3, mode=mode, spec=spec)
        if mode == "known":
            assert calls == {}
    assert calls == {"estimate_cfo": 1, "build_pilot_ratios": 1,
                     "correction_factor": 2}
    calls.clear()
    other = dataclasses.replace(rx)
    for _ in range(2):
        crx.demodulate(other, cfg, 3, mode="known", spec=spec)
    assert calls == {}


def test_the_blind_reports_of_a_frame_share_one_frozen_sync_estimate(
        cfg, tmp_path):
    rx, spec = _seeded_frame(cfg, "apply", tmp_path)
    reps = [crx.demodulate(rx, cfg, 3, mode=m, spec=spec)
            for m in ("estimated", "averaged", "flat")]
    assert all(r.sync is reps[0].sync for r in reps)
    with pytest.raises(dataclasses.FrozenInstanceError):
        reps[0].sync.cfo = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        crx.demodulate(rx, cfg, 3, mode="known", spec=spec).sync.rho = 0.0


def test_memo_arrays_refuse_writes_and_belong_to_one_frame_and_config(
        cfg, tmp_path):
    rx, spec = _seeded_frame(cfg, "apply", tmp_path)
    grid = crx._slot_grid(rx, cfg)
    assert crx._slot_grid(rx, cfg) is grid
    with pytest.raises(ValueError):
        grid.fhcs_rows[0, 3] = -1
    with pytest.raises(ValueError):
        grid.peak_ok[0] = False
    with pytest.raises(ValueError):
        grid.blind.corr[0] = 1.0
    with pytest.raises(ValueError):
        grid.blind.table.values[0] = 1.0
    other = dataclasses.replace(cfg, carrier_freq=2 * cfg.carrier_freq)
    assert crx._slot_grid(rx, other) is not grid
    assert set(crx._SLOT_GRIDS[rx]) == {cfg, other}
    assert crx._slot_grid(dataclasses.replace(rx), cfg) is not grid


def test_a_read_only_view_of_writable_memory_cannot_go_stale(cfg):
    # the owner of a read-only view can still write its memory, so a frame
    # over such a view takes a copy: after hop 0 of PRT 25 (antenna 0's
    # zero pilot) is negated in the owner between two calls, the frame's
    # samples are those it was built with, and its memoized report equals
    # the report of a fresh frame over them, not the first report of
    # samples the frame no longer holds
    spec = imp.ImpairmentSpec(noise_var=1e-4)
    plan, psk, rx = _chain(cfg, 40, np.random.default_rng(61), spec=spec,
                           noise_rng=np.random.default_rng(63))
    buf = rx.data.copy()
    view = buf.view()
    view.flags.writeable = False
    frame = wf.IqFrame(view, rx.sample_rate, rx.first_prt, rx.samples_per_prt)
    before = crx.demodulate(frame, cfg, 3, mode="estimated")
    buf[0, 25, :cfg.samples_per_hop] *= -1
    after = crx.demodulate(frame, cfg, 3, mode="estimated")
    fresh = crx.demodulate(dataclasses.replace(frame, data=frame.data.copy()),
                           cfg, 3, mode="estimated")
    edited = crx.demodulate(dataclasses.replace(frame, data=buf.copy()),
                            cfg, 3, mode="estimated")
    assert not np.array_equal(edited.psk_symbol, before.psk_symbol)
    assert _same_report(after, fresh)
    assert _same_report(after, before)
    assert np.array_equal(frame.data, rx.data)


def test_memo_entry_dies_with_its_frame(cfg, tmp_path):
    rx, spec = _seeded_frame(cfg, "read_iq", tmp_path)
    for mode in crx.MODES:
        crx.demodulate(rx, cfg, 3, mode=mode, spec=spec)
    frame_ref = weakref.ref(rx)
    grid_ref = weakref.ref(crx._SLOT_GRIDS[rx][cfg])
    del rx
    gc.collect()
    assert frame_ref() is None
    assert grid_ref() is None
