"""Property tests over valid configurations beyond the experiment default:
odd and even sub-band counts, one to four antennas, extra hops, two hop
lengths and frames that start mid pilot cycle, through an identity channel
(every config the receiver accepts: K >= M, 1 to 4 samples per sub-band)
and through a noisy, impaired one."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fhmimo import bench, commrx as crx
from fhmimo import impairments as imp
from fhmimo import waveform as wf
from fhmimo.config import MAX_ORDER_BITS, RadarConfig


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
