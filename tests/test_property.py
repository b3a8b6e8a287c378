"""Property tests over valid configurations beyond the experiment default:
odd and even sub-band counts, one to four antennas, extra hops, two hop
lengths and frames that start mid pilot cycle, through an identity channel
(every config the receiver accepts: K >= M, 1 to 4 samples per sub-band)
and through a noisy, impaired one; and the radar chain on one target over
the same range of configs and one to six receive antennas. Two of the
properties are metamorphic relations (ROADMAP item 23): they compare two
runs whose inputs differ in a known way, with no truth or bound."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fhmimo import bench, commrx as crx
from fhmimo import impairments as imp
from fhmimo import radarrx as rrx
from fhmimo import waveform as wf
from fhmimo.config import (MAX_ORDER_BITS, SPEED_OF_LIGHT, ConfigError,
                           RadarConfig, noise_var_for_snr)


def _frame(draw, K, M, oversampling, orders):
    """A frame of K sub-bands (one tone cycle apart), M antennas and
    ``oversampling`` samples per sub-band, so N_h = oversampling * K, with
    a PSK order drawn from ``orders``."""
    H = draw(st.integers(M + 1, M + 3))
    hop = draw(st.sampled_from((1e-6, 0.5e-6)))
    bandwidth = K * round(1 / hop)          # one tone cycle per sub-band
    cfg = RadarConfig(n_subbands=K, n_tx=M, hops_per_pulse=H,
                      hop_duration=hop, prt_duration=(H + 2) * hop,
                      bandwidth=bandwidth,
                      sample_rate=oversampling * bandwidth)
    # at least one full pilot cycle, usually with a partial trailing group
    n_prt = draw(st.integers(K, 3 * K))
    first_prt = draw(st.integers(1, 10_000))
    order_bits = draw(orders)
    seed = draw(st.integers(0, 2**32 - 1))
    return cfg, n_prt, first_prt, order_bits, seed


@st.composite
def frames(draw):
    M = draw(st.integers(1, 4))
    # K >= 2M+1 keeps the M tones of a hop below half of its 2K DFT bins,
    # so the median bin (the peak floor) stays at zero without noise
    return _frame(draw, draw(st.integers(2 * M + 1, 23)), M, 2,
                  st.integers(1, 4))


@st.composite
def accepted_frames(draw):
    """Every config ``demodulate`` accepts: K >= M (K = M carries no FHCS
    payload) at 1 to 4 samples per sub-band, kept only when 2M < N_h, and
    every PSK order it accepts, 0 to ``MAX_ORDER_BITS``."""
    M = draw(st.integers(1, 4))
    K = draw(st.integers(M, 23))
    oversampling = draw(st.integers(1, 4).filter(lambda r: 2 * M < r * K))
    return _frame(draw, K, M, oversampling,
                  st.integers(0, MAX_ORDER_BITS))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(accepted_frames())
def test_identity_channel_error_free_in_every_mode(case):
    cfg, n_prt, first_prt, order_bits, seed = case
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=n_prt * cfg.hops_per_pulse
                        * cfg.n_subbands, dtype=np.uint8)
    plan = wf.plan_hops(cfg, fhcs_bits=bits, n_prt=n_prt,
                        first_prt=first_prt)
    back = wf.extract_payload_bits(plan, cfg)
    assert np.array_equal(back, bits[:back.size])
    # the plan read exactly these bits: they rebuild it, one fewer is short
    # (with K = M a plan reads none, and there is no bit to take away)
    again = wf.plan_hops(cfg, fhcs_bits=back, n_prt=n_prt,
                         first_prt=first_prt)
    assert np.array_equal(again.subband, plan.subband)
    if back.size:
        with pytest.raises(wf.PayloadLengthError):
            wf.plan_hops(cfg, fhcs_bits=back[:-1], n_prt=n_prt,
                         first_prt=first_prt)

    psk = wf.make_psk_grid(cfg, plan, order_bits, rng=rng)
    ident = imp.ImpairmentSpec()
    rx = imp.apply(wf.synthesize(plan, psk, cfg), plan, psk, ident, cfg)
    for mode in ("known", "estimated", "averaged", "flat"):
        rep = crx.demodulate(rx, cfg, order_bits, mode=mode, spec=ident)
        sc = crx.score_report(rep, plan, psk, cfg)
        assert rep.n_erased_slots == 0 and rep.n_erased_hops == 0, mode
        assert sc.psk_bit_errors == 0 and sc.fhcs_bit_errors == 0, mode
        assert sc.psk_bits == (~plan.pinned).sum() * order_bits


@settings(max_examples=30, derandomize=True, deadline=None)
@given(frames())
def test_high_snr_impaired_channel_in_every_mode(case):
    """A sweep impairment draw (clock error, sub-sample initial timing,
    rippled front end) at 40 dB per-sample SNR: no hop is erased and no
    FHCS bit is wrong in any mode, and no PSK symbol is wrong in the three
    modes that correct the front end.

    Why zero is the bound: a hop peak has N_h = 2K >= 6 samples and a
    magnitude of at least 0.89*N_h (1 dB ripple), against complex noise
    of variance N_h*sigma^2. A blind PSK decision combines four peaks
    (payload, its zero pilot, the table's two pilots), so it is wrong only
    if one of them is turned by more than pi/64, a quarter of the 16PSK
    half-distance. The CFO (|rho| <= 2.2e-6 at 5.5 GHz) puts each tone at
    most 0.013 bin off its bin, so the other tones of the hop leak at most
    0.022 rad into it; that leaves 0.027 rad for the noise, which exceeds
    it with probability at most exp(-sin(0.027)^2 * 0.89^2 * 6 * 1e4),
    about 1e-15 per peak. Magnitudes have the same margin, so no peak
    falls below the floor or loses its sub-band to a noise bin. The flat
    mode leaves the ripple and the initial-timing phase (up to pi/2 at
    the band edge) uncorrected by design, so its PSK decisions carry no
    bound here.
    """
    cfg, n_prt, first_prt, order_bits, seed = case
    rng = np.random.default_rng(seed)
    spec = bench._draw_impairments(cfg, bench.SweepSpec(), rng, 1e-4)
    plan = wf.plan_hops(cfg, n_prt=n_prt, rng=rng, first_prt=first_prt)
    psk = wf.make_psk_grid(cfg, plan, order_bits, rng=rng)
    rx = imp.apply(wf.synthesize(plan, psk, cfg), plan, psk, spec, cfg,
                   rng=rng)
    for mode in ("known", "estimated", "averaged", "flat"):
        rep = crx.demodulate(rx, cfg, order_bits, mode=mode, spec=spec)
        sc = crx.score_report(rep, plan, psk, cfg)
        assert rep.n_erased_slots == 0 and rep.n_erased_hops == 0, mode
        assert sc.fhcs_bit_errors == 0, mode
        if mode != "flat":
            assert sc.psk_symbol_errors == 0, mode


def _bytes(value):
    """A value as bytes, a dataclass one field a key, so two values are
    equal exactly when every field holds the same bytes."""
    if dataclasses.is_dataclass(value):
        return {f.name: _bytes(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if value is None:
        return None
    a = np.asarray(value)
    return a.dtype.str, a.shape, a.tobytes()


@settings(max_examples=30, derandomize=True, deadline=None)
@given(frames(), st.sampled_from((20.0, 0.0, -8.0)))
def test_a_gain_of_two_changes_no_demodulated_byte(case, snr_db):
    """A frame times 2 is exact in floating point. Every step of the
    receiver either scales with the samples or compares them with a floor
    that scales with them, so in every mode the report (sync estimate
    included) and its scored counts are the same bytes. -8 dB erases
    slots, hops and, in some frames, the sync estimate."""
    cfg, n_prt, first_prt, order_bits, seed = case
    rng = np.random.default_rng(seed)
    spec = bench._draw_impairments(cfg, bench.SweepSpec(), rng,
                                   noise_var_for_snr(snr_db))
    plan = wf.plan_hops(cfg, n_prt=n_prt, rng=rng, first_prt=first_prt)
    psk = wf.make_psk_grid(cfg, plan, order_bits, rng=rng)
    rx = imp.apply(wf.synthesize(plan, psk, cfg), plan, psk, spec, cfg,
                   rng=rng)
    twice = dataclasses.replace(rx, data=2 * rx.data)
    for mode in crx.MODES:
        once = crx.demodulate(rx, cfg, order_bits, mode=mode, spec=spec)
        doubled = crx.demodulate(twice, cfg, order_bits, mode=mode,
                                 spec=spec)
        assert _bytes(doubled) == _bytes(once), mode
        assert (crx.score_report(doubled, plan, psk, cfg)
                == crx.score_report(once, plan, psk, cfg)), mode


AZIMUTHS = rrx.angle_grid(30.0, 128)     # the target's and the estimator's


@st.composite
def radar_cases(draw):
    """A radar config (M = 1..4, K = M..23, H = M+1..M+3, 0.5 or 1 us hops
    of 1 to 4 samples per sub-band, a listening window of 2H to 6H hops,
    16, 32 or 64 PRTs), a receive array of 1 to 6 antennas spaced so the
    virtual array is a contiguous half-wavelength line, and one target at
    an integer delay, an integer Doppler bin and an azimuth on the grid."""
    M = draw(st.integers(1, 4))
    K = draw(st.integers(M, 23))
    H = draw(st.integers(M + 1, M + 3))
    hop = draw(st.sampled_from((1e-6, 0.5e-6)))
    bandwidth = K * round(1 / hop)          # one tone cycle per sub-band
    cfg = RadarConfig(n_subbands=K, n_tx=M, hops_per_pulse=H,
                      hop_duration=hop,
                      prt_duration=(H + draw(st.integers(2 * H, 6 * H)))
                      * hop, bandwidth=bandwidth,
                      sample_rate=draw(st.integers(1, 4)) * bandwidth,
                      prts_per_cpi=draw(st.sampled_from((16, 32, 64))))
    n_rx = draw(st.integers(1, 6))
    E, n_p, F = cfg.samples_per_pulse, cfg.samples_per_prt, cfg.prts_per_cpi
    delay = draw(st.integers(E, n_p - E))
    k = draw(st.integers(-(F // 4), F // 4))
    azimuth = float(AZIMUTHS[draw(st.integers(0, AZIMUTHS.size - 1))])
    seed = draw(st.integers(0, 2**32 - 1))
    return cfg, n_rx, delay, k, azimuth, seed


@settings(max_examples=40, derandomize=True, deadline=None)
@given(radar_cases())
def test_radar_chain_finds_one_target_in_every_config(case):
    """Unit coefficient, unit noise variance, p_fa 1e-4: the target's cell
    is the strongest detection, with exact range and velocity. The angle
    is checked against the Cramer-Rao spread of sin(azimuth) for a
    P-element half-wavelength line at the post-integration SNR F*E of one
    channel: exact where 5 of those spreads fit in half a grid step, else
    inside half the main lobe (1/P in sin). P = 1 is refused."""
    cfg, n_rx, delay, k, azimuth, seed = case
    E, F, P = cfg.samples_per_pulse, cfg.prts_per_cpi, cfg.n_tx * n_rx
    # built as the estimator maps bins back, with the library's constant
    range_m = SPEED_OF_LIGHT * (delay / cfg.sample_rate) / 2.0
    velocity = cfg.wavelength * (k / (F * cfg.prt_duration)) / 2.0
    target = rrx.Target(range_m, velocity, azimuth)
    arr = rrx.ArrayModel(n_rx=n_rx, tx_spacing=0.5 * n_rx)
    rng = np.random.default_rng(seed)
    plan = wf.plan_hops(cfg, n_prt=F, rng=rng)
    psk = wf.make_psk_grid(cfg, plan, 3, rng=rng)
    profiles = rrx.echo_profiles(plan, psk, (target,), arr, cfg,
                                 noise_var=1.0, rng=rng)
    if P == 1:
        with pytest.raises(ConfigError, match=r"n_tx\*n_rx = 1"):
            rrx.process_cpi(profiles, cfg, arr, AZIMUTHS)
        return
    rdm, dets = rrx.process_cpi(profiles, cfg, arr, AZIMUTHS, p_fa=1e-4)
    best = np.argmax(dets.statistic)
    assert (dets.range_bin[best], dets.doppler_bin[best]) == (delay - E,
                                                              k + F // 2)
    assert dets.range_m[best] == range_m
    assert dets.velocity[best] == velocity
    sigma_u = np.sqrt(6 / (np.pi ** 2 * F * E * P * (P * P - 1)))
    half_step = np.cos(np.deg2rad(30.0)) * np.deg2rad(60.0 / 128) / 2
    if 5 * sigma_u < half_step:
        assert dets.azimuth_deg[best] == azimuth
    else:
        u_err = (np.sin(np.deg2rad(dets.azimuth_deg[best]))
                 - np.sin(np.deg2rad(azimuth)))
        assert abs(u_err) <= 1 / P


@settings(max_examples=40, derandomize=True, deadline=None)
@given(radar_cases())
def test_a_gain_of_two_keeps_every_detection(case):
    """An echo times 2 gives the same detection bins and azimuths, with
    the CFAR statistic and threshold exactly doubled: the magnitude sum
    and the training mean scale with the samples, and the threshold scale
    does not depend on them. A config of one virtual channel is refused
    either way (the property above)."""
    cfg, n_rx, delay, k, azimuth, seed = case
    if cfg.n_tx * n_rx == 1:
        return
    F = cfg.prts_per_cpi
    target = rrx.Target(SPEED_OF_LIGHT * (delay / cfg.sample_rate) / 2.0,
                        cfg.wavelength * (k / (F * cfg.prt_duration)) / 2.0,
                        azimuth)
    arr = rrx.ArrayModel(n_rx=n_rx, tx_spacing=0.5 * n_rx)
    rng = np.random.default_rng(seed)
    plan = wf.plan_hops(cfg, n_prt=F, rng=rng)
    psk = wf.make_psk_grid(cfg, plan, 3, rng=rng)
    rx = rrx.synthesize_echo(plan, psk, (target,), arr, cfg, noise_var=1.0,
                             rng=rng)
    _, once = rrx.process_cpi(rrx.matched_filter(rx, plan, psk, cfg), cfg,
                              arr, AZIMUTHS, p_fa=1e-4)
    _, doubled = rrx.process_cpi(rrx.matched_filter(2 * rx, plan, psk, cfg),
                                 cfg, arr, AZIMUTHS, p_fa=1e-4)
    got, want = _bytes(doubled), _bytes(once)
    for name in ("statistic", "threshold"):
        got[name] = _bytes(getattr(doubled, name) / 2)
    assert got == want
