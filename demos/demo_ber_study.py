#!/usr/bin/env python3
"""Desk-scale BER-vs-SNR study (the known-channel reference).

Sweeps FHCS and PSK bit error rates over SNR for two hop durations in
known-channel mode and prints the curves; also runs the three-method
comparison under front-end ripple. Scale ``min_symbols`` up for smoother
curves. Run:

    python demos/demo_ber_study.py
"""

from fhmimo.config import RadarConfig
from fhmimo import bench


def main():
    cfg = RadarConfig()
    sweep = bench.SweepSpec(snr_grid_db=tuple(range(-10, 14, 4)),
                            modulations=(3,), hop_durations=(0.5e-6, 1e-6),
                            min_symbols=5000, seed=1)

    rep = bench.run_ber_sweep(cfg, sweep)
    idx = {c: i for i, c in enumerate(rep.columns)}
    print("hop     SNR(dB)   FHCS BER     8PSK BER")
    for row in rep.rows:
        print(f"{row[idx['hop_duration']] * 1e6:.1f}us  "
              f"{row[idx['snr_db']]:+6.0f}"
              f"   {row[idx['fhcs_ber']]:.6f}   {row[idx['psk_ber']]:.6f}")
    print("\nDoubling the hop duration doubles the per-hop integration gain;"
          "\nFHCS rides the peak detector and stays below PSK everywhere.")

    rep2 = bench.run_method_comparison(cfg, sweep, n_prt=1500)
    idx2 = {c: i for i, c in enumerate(rep2.columns)}
    print("\n16PSK at 20 dB under +/-1 dB, +/-0.2 rad front-end ripple:")
    for row in rep2.rows:
        print(f"  {row[0]:10s} SER = {row[idx2['ser']]:.4f}  "
              f"mean |residual| = {row[idx2['mean_abs_residual']]:.4f} rad")


if __name__ == "__main__":     # the BER sweep spawns worker processes
    main()
