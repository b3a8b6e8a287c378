#!/usr/bin/env python3
"""Walk through waveform construction: sub-bands, FHCS payload, pilots.

Shows how payload bits pick hopping codes, where the pilot hops sit, and
that antennas stay orthogonal within every hop. Run:

    python demos/demo_waveform.py
"""

import math

import numpy as np

from fhmimo.config import RadarConfig
from fhmimo import bench
from fhmimo import waveform as wf

cfg = RadarConfig()
print("Radar configuration (defaults):")
print(f"  {cfg.n_subbands} sub-bands of"
      f" {cfg.bandwidth / cfg.n_subbands / 1e6:.1f} MHz:"
      f" {cfg.subband_frequency(0) / 1e6:+.0f} .."
      f" {cfg.subband_frequency(cfg.n_subbands - 1) / 1e6:+.0f} MHz")
print(f"  {cfg.hops_per_pulse} hops x {cfg.hop_duration * 1e6:.1f} us,"
      f" PRT {cfg.prt_duration * 1e6:.0f} us,"
      f" {cfg.samples_per_prt} samples per PRT")

n_bits = wf.codebook_bits(cfg.n_subbands, cfg.n_tx)
n_usable = 1 << n_bits
print(f"\nFHCS codebook: C({cfg.n_subbands},{cfg.n_tx}) = "
      f"{math.comb(cfg.n_subbands, cfg.n_tx)} combinations, {n_usable} "
      f"usable -> {n_bits} bits per hop")
first, last = map(tuple, wf.unrank_subsets(
    np.array([0, n_usable - 1]), cfg.n_subbands, cfg.n_tx).tolist())
print(f"  codeword 0 = sub-bands {first}")
print(f"  codeword {n_usable - 1} = sub-bands {last}")

# deterministic payload so the mapping is visible
bits = np.array([int(b) for b in "10110011101010001111010101"
                 * 40], dtype=np.uint8)
plan = wf.plan_hops(cfg, fhcs_bits=bits, n_prt=3)
psk = wf.make_psk_grid(cfg, plan, order_bits=3, rng=0)

print("\nPlan of PRT 1 (sub-band per antenna; * marks pilot pins):")
for h in range(cfg.hops_per_pulse):
    cells = []
    for m in range(cfg.n_tx):
        mark = "*" if plan.pinned[1, h, m] else " "
        cells.append(f"ant{m}: k={plan.subband[1, h, m]:2d}{mark}")
    print(f"  hop {h}: " + "   ".join(cells))
print("  (hop m pins antenna m to the zero sub-band; hop m+1 to the "
      "PRT-cycled pilot)")

back = wf.extract_payload_bits(plan, cfg)
print(f"\nPayload round trip: {back.size} bits consumed, "
      f"identity = {np.array_equal(back, bits[:back.size])}")

frame = wf.synthesize(plan, psk, cfg)
hops = frame.hops(cfg, cfg.n_tx)
inner = np.einsum("ihn,ihn->ih", hops[0], hops[1].conj())
print(f"Max |inner product| between antennas over any hop: "
      f"{np.abs(inner).max():.2e} (exactly orthogonal)")

rate_nom, rate_eff = bench.data_rate(3, cfg)
print(f"\nData rate at 8PSK: nominal {rate_nom / 1e6:.3f} Mbps, "
      f"effective {rate_eff / 1e6:.3f} Mbps after pilot overhead")
