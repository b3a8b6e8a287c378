"""Blind CFO estimate against its closed form.

``estimate_cfo`` takes the circular mean of the phases of consecutive
zero-pilot pairs. Above its threshold each pair's phase error is small,
so the mean telescopes to the first and last pilots of the frame, and
over N PRTs its RMS error is

    sqrt(1 / (N_h * SNR * M)) / ((N - 1) * T_p),

with N_h samples a hop, M transmit antennas (one zero pilot each), the
per-sample SNR and the PRT T_p: each pilot's phase has variance
1 / (2 N_h SNR) after the hop's DFT, and the end pilots of the M antennas
average. Below 0 dB the pair phases wrap and the estimate leaves this
form (281 against 28 rad/s at -6 dB on the default config).
"""

import dataclasses
from statistics import NormalDist

import numpy as np
import pytest

from fhmimo import bench, commrx as crx
from fhmimo import impairments as imp
from fhmimo import waveform as wf
from fhmimo.config import noise_var_for_snr

FRAMES, N_PRT = 60, 200


def rmse_ratio_band(frames: int, p: float = 0.999) -> tuple[float, float]:
    """Two-sided ``p`` interval of an RMSE over ``frames`` draws of a
    zero-mean Gaussian, as a ratio to its standard deviation:
    sqrt(chi2 quantile / frames), the quantiles by the Wilson-Hilferty
    cube."""
    z = NormalDist().inv_cdf((1 + p) / 2)
    c = 2 / (9 * frames)
    return tuple((1 - c + sign * z * np.sqrt(c)) ** 1.5 for sign in (-1, 1))


def test_rmse_ratio_band_at_60_frames():
    # chi2(60) quantiles 0.0005 and 0.9995 are 30.34 and 102.69
    lo, hi = rmse_ratio_band(60)
    assert lo == pytest.approx(np.sqrt(30.34 / 60), abs=2e-3)
    assert hi == pytest.approx(np.sqrt(102.69 / 60), abs=2e-3)


@pytest.mark.parametrize("snr_db", [20, 10, 0])
def test_blind_cfo_rmse_follows_the_telescoping_form(cfg, snr_db):
    # the clock is drawn as the BER sweep draws it, without ripple
    noise_var = noise_var_for_snr(snr_db)
    errors = []
    for frame in range(FRAMES):
        rng = np.random.default_rng([snr_db, frame])
        spec = bench._draw_impairments(cfg, bench.SweepSpec(), rng,
                                       noise_var)
        spec = dataclasses.replace(spec, front_end=None)
        plan = wf.plan_hops(cfg, n_prt=N_PRT, rng=rng)
        psk = wf.make_psk_grid(cfg, plan, 3, rng=rng)
        rx = imp.apply(wf.synthesize(plan, psk, cfg), plan, psk, spec, cfg,
                       rng=rng)
        report = crx.demodulate(rx, cfg, 3, mode="estimated")
        errors.append(report.sync.cfo - spec.cfo)
    rmse = np.sqrt(np.mean(np.square(errors)))
    form = np.sqrt(1 / (cfg.samples_per_hop * 10 ** (snr_db / 10)
                        * cfg.n_tx)) / ((N_PRT - 1) * cfg.prt_duration)
    lo, hi = rmse_ratio_band(FRAMES)
    assert lo < rmse / form < hi
