"""Known-mode PSK symbol error rate against closed-form coherent M-PSK.

`known` mode decides each payload slot coherently, with the true channel
as reference, after the blind receiver's hop-erasure rule: a hop with a
peak below the floor is erased, and an erased slot scores as one symbol
error. So its SER should be e + (1 - e) * P_s, where e is the erased
fraction and P_s is Craig's exact M-PSK symbol error probability (Craig,
MILCOM 1991),

    P_s(g) = (1/pi) * int_0^{(M-1)pi/M} exp(-g sin^2(pi/M) / sin^2 t) dt,

averaged over the decided slots, each at its own SNR
g = |expected_hop_peak|^2 / (N_h * noise_var). This pins the level of the
curves (SNR convention, DFT gain, noise scale), which the acceptance
criteria check only for order and shape.
"""

import dataclasses
from math import erfc, sqrt

import numpy as np
import pytest

from fhmimo import bench, commrx as crx
from fhmimo import impairments as imp
from fhmimo import waveform as wf
from fhmimo.config import RadarConfig, noise_var_for_snr

Z_999 = 3.29        # two-sided 99.9% Wilson interval
CHUNKS, CHUNK_PRT = 3, 500

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(64)


def craig_ser(gamma: np.ndarray, order_bits: int) -> np.ndarray:
    """Exact coherent M-PSK symbol error probability at per-symbol SNRs
    ``gamma``, by 64-point Gauss-Legendre quadrature of Craig's form."""
    M = 1 << order_bits
    top = (M - 1) * np.pi / M
    theta = (_NODES + 1) * top / 2                    # nodes on [0, top]
    s = np.sin(np.pi / M) ** 2 / np.sin(theta) ** 2
    integrand = np.exp(-np.multiply.outer(gamma, s))
    return integrand @ _WEIGHTS * top / 2 / np.pi


def _q(x: float) -> float:
    """Gaussian tail probability."""
    return erfc(x / sqrt(2)) / 2


def test_craig_ser_limits():
    # BPSK is Q(sqrt(2g)); QPSK is 2Q - Q^2 with Q = Q(sqrt(g)); no SNR
    # gives (M-1)/M
    g = np.array([0.5, 2.0, 8.0])
    assert np.allclose(craig_ser(g, 1), [_q(sqrt(2 * v)) for v in g],
                       rtol=1e-9)
    assert np.allclose(craig_ser(g, 2),
                       [2 * _q(sqrt(v)) - _q(sqrt(v)) ** 2 for v in g],
                       rtol=1e-9)
    assert craig_ser(np.array([0.0]), 3)[0] == pytest.approx(7 / 8)


def _known_mode_counts(cfg, order_bits, snr_db, rippled, seed):
    """(symbol errors, symbols, erased slots, summed P_s over the decided
    slots) of ``CHUNKS`` known-mode chunks, with the clock drawn as the
    BER sweep draws it and a flat or the sweep's rippled front end."""
    noise_var = noise_var_for_snr(snr_db)
    n_h = cfg.samples_per_hop
    errors = symbols = erased = 0
    theory = 0.0
    for chunk in range(CHUNKS):
        rng = np.random.default_rng([seed, chunk])
        spec = bench._draw_impairments(cfg, bench.SweepSpec(), rng,
                                       noise_var)
        if not rippled:
            spec = dataclasses.replace(spec, front_end=None)
        plan = wf.plan_hops(cfg, n_prt=CHUNK_PRT, rng=rng)
        psk = wf.make_psk_grid(cfg, plan, order_bits, rng=rng)
        rx = imp.apply(wf.synthesize(plan, psk, cfg), plan, psk, spec, cfg,
                       rng=rng)
        rep = crx.demodulate(rx, cfg, order_bits, mode="known", spec=spec)
        sc = crx.score_report(rep, plan, psk, cfg)
        decided = rep.slots[~rep.psk_erased]
        peak = imp.expected_hop_peak(*decided[:, :4].T, 0.0, spec, cfg)
        gamma = np.abs(peak) ** 2 / (n_h * noise_var)
        errors += sc.psk_symbol_errors
        symbols += sc.psk_symbols
        erased += rep.n_erased_slots
        theory += craig_ser(gamma, order_bits).sum()
    return errors, symbols, erased, theory


@pytest.mark.parametrize("cfg_kw, order_bits, snr_db, rippled", [
    ({}, 4, 0.0, False),
    ({}, 3, -6.0, False),
    ({}, 4, -2.0, True),
    ({"n_subbands": 7, "n_tx": 3, "hops_per_pulse": 4, "bandwidth": 14e6,
      "sample_rate": 28e6}, 3, 0.0, True)],
    ids=["16psk-0dB-flat", "8psk-minus6dB-flat", "16psk-minus2dB-rippled",
         "K7-M3-H4-8psk-0dB-rippled"])
def test_known_mode_ser_is_erasures_plus_coherent_closed_form(
        cfg_kw, order_bits, snr_db, rippled):
    cfg = RadarConfig(**cfg_kw)
    errors, n, erased, theory = _known_mode_counts(
        cfg, order_bits, snr_db, rippled, seed=round(100 + snr_db))
    expected = (erased + theory) / n       # e + (1 - e) * mean P_s
    lo, hi = bench.wilson_interval(errors, n, z=Z_999)
    assert lo <= expected <= hi, (errors / n, expected, erased / n)
