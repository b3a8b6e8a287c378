#!/usr/bin/env python3
"""End-to-end communication link under hardware errors.

Transmits one CPI, corrupts it with a clock offset (CFO + sampling drift),
a sub-sample timing offset and frequency-dependent front-end ripple, then
runs the blind joint estimator/demodulator and compares the three
correction variants. Run:

    python demos/demo_comm_chain.py
"""

import numpy as np

from fhmimo.config import RadarConfig, noise_var_for_snr
from fhmimo import commrx, impairments as imp, waveform as wf

cfg = RadarConfig()
rng = np.random.default_rng(2026)

plan = wf.plan_hops(cfg, n_prt=cfg.prts_per_cpi, rng=rng)
psk = wf.make_psk_grid(cfg, plan, order_bits=4, rng=rng)
frame = wf.synthesize(plan, psk, cfg)

rho = 1.4e-6  # 1.4 ppm clock mismatch drives both CFO and sampling drift
spec = imp.ImpairmentSpec.from_clock(
    rho, cfg, sto_initial=0.4 / cfg.sample_rate,
    noise_var=noise_var_for_snr(22),
    front_end=imp.FrontEndProfile.rippled(cfg, rng=rng))
rx = imp.apply(frame, plan, psk, spec, cfg, rng=rng)

print(f"Injected: cfo = {spec.cfo / (2 * np.pi):+.1f} Hz, rho = {rho:.2e}, "
      f"dTs = {spec.sample_time_offset:.3e} s, "
      f"dt0 = {spec.sto_initial * 1e9:.1f} ns, hop SNR = 22 dB")

report = commrx.demodulate(rx, cfg, order_bits=4, mode="estimated")
print(f"Estimated: cfo = {report.sync.cfo / (2 * np.pi):+.1f} Hz "
      f"(rel err {abs(report.sync.cfo - spec.cfo) / spec.cfo:.2e}), "
      f"rho = {report.sync.rho:.3e}, "
      f"dTs = {report.sync.sample_time_offset:.3e} s")

print("\n16PSK demodulation, same capture, three corrections:")
for mode, label in (("flat", "no gain-ripple correction"),
                    ("estimated", "full pipeline"),
                    ("averaged", "pipeline + CPI-averaged pilot ratios")):
    rep = commrx.demodulate(rx, cfg, order_bits=4, mode=mode)
    sc = commrx.score_report(rep, plan, psk, cfg)
    print(f"  {mode:10s} ({label}): SER = {sc.psk_ser:.4f}, "
          f"BER = {sc.psk_ber:.4f}, "
          f"mean |phase residual| = {np.abs(rep.psk_residual).mean():.4f} rad")

sc = commrx.score_report(report, plan, psk, cfg)
print(f"\nFHCS payload: {sc.fhcs_bits} bits, BER = {sc.fhcs_ber:.4f} "
      f"(peak positions ignore the PSK phases entirely)")
