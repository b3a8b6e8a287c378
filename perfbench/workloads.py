"""The four benchmark workloads.

Each workload is a fixed cycle of unit configurations. One round runs every
configuration once. ``round_s`` is a round's time on a 2-core x86 machine
with numpy 2.4. ``share`` is the timed phase's length as a multiple of the
requested seconds. ``comm-rx`` and ``radar-dense`` spend most of their time
in the interpreter, and their speed follows the load of a shared machine
most closely, so they measure longer; ``ber`` and ``radar-sparse`` are
steadier and measure shorter. ``radar-dense`` runs more than 20 units so
that its tail is a percentile, not the maximum. Units of round ``r`` and
slot ``c`` draw their inputs from ``(seed, r, c)``, so a seed fixes every
input; ``comm-rx`` draws its frames once, from ``(seed, 0, c)``, and reads
them again every round. The library receives only the generated inputs and
is driven through the public entry points the Monte-Carlo sweeps use.

Why these four (see README.md for the layer metric each one moves):

* ``ber``: the per-sample channel (``impairments.apply``) and synthesis do
  most of the work; the workload that shows "stop simulating silence".
* ``comm-rx``: the receiver does most of the work on frames read from FHIQ
  files; the only workload running the ``averaged``, ``flat`` and ``known``
  modes and ``read_iq``, and the bypass for channel-side changes.
* ``radar-sparse``: the criterion-7 scene; dense per-CPI array work
  (matched filter, echo synthesis, MTD) dominates, few detections.
* ``radar-dense``: the default sweep scene; thousands of detections per CPI
  make per-detection angle estimation dominate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os

import numpy as np

from fhmimo import bench, commrx, iqfile, waveform
from fhmimo.config import RadarConfig
from fhmimo.impairments import ImpairmentSpec, apply


class CheckFailed(Exception):
    """A unit's output failed its correctness check."""


def unit_seed(seed: int, rnd: int, slot: int) -> int:
    """Integer seed of one unit, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, rnd, slot]).generate_state(1)[0])


def _check_counts(sc: commrx.ErrorCounts, what: str) -> None:
    vals = dataclasses.astuple(sc)
    if not all(math.isfinite(v) for v in vals):
        raise CheckFailed(f"{what}: non-finite error counts {sc}")
    if sc.psk_bits <= 0 or sc.fhcs_bits <= 0:
        raise CheckFailed(f"{what}: no payload scored {sc}")
    if not (0 <= sc.psk_bit_errors <= sc.psk_bits
            and 0 <= sc.fhcs_bit_errors <= sc.fhcs_bits):
        raise CheckFailed(f"{what}: error count outside [0, bits] {sc}")


def _ber_metrics(acc: commrx.ErrorCounts) -> dict:
    return {"psk_ber": (acc.psk_ber, "ratio"),
            "fhcs_ber": (acc.fhcs_ber, "ratio")}


def _identity_oracle(cfg: RadarConfig, seed: int, path: str | None = None
                     ) -> None:
    """Criterion-3 oracle: an identity channel demodulates error-free.

    With ``path`` the frame also makes a round trip through an FHIQ file
    and is demodulated in every mode; otherwise in blind mode only.
    """
    rng = np.random.default_rng([seed, 3])
    order_bits = 4
    plan = waveform.plan_hops(cfg, n_prt=2000, rng=rng)
    psk = waveform.make_psk_grid(cfg, plan, order_bits, rng=rng)
    ident = ImpairmentSpec()
    rx = apply(waveform.synthesize(plan, psk, cfg), plan, psk, ident, cfg)
    modes = ("estimated",)
    if path is not None:
        iqfile.write_iq(path, rx)
        rx = iqfile.read_iq(path)
        modes = CommRx.modes
    for mode in modes:
        rep = commrx.demodulate(rx, cfg, order_bits, mode=mode, spec=ident)
        sc = commrx.score_report(rep, plan, psk, cfg)
        _check_counts(sc, f"oracle {mode}")
        if sc.psk_bit_errors or sc.fhcs_bit_errors:
            raise CheckFailed(f"oracle {mode}: identity channel gave "
                              f"errors {sc}")


class Ber:
    """One-chunk ``bench.ber_point`` calls in blind (estimated) mode."""

    name = "ber"
    cfg = RadarConfig()
    sweep = bench.SweepSpec(comm_mode="estimated", chunk_prt=2000)
    cycle = [(hop, order_bits, snr_db) for hop in (0.5e-6, 1e-6)
             for order_bits in (3, 4) for snr_db in (-6.0, 6.0, 18.0)]
    round_s = 4.1
    share = 0.5

    def config(self) -> dict:
        return {"cfg": self.cfg, "sweep": self.sweep, "cycle": self.cycle}

    def setup(self, seed: int, workdir: str) -> dict:
        return {hop: bench.config_for_hop_duration(self.cfg, hop)
                for hop in {c[0] for c in self.cycle}}

    def run_unit(self, state, seed: int, rnd: int, slot: int):
        hop, order_bits, snr_db = self.cycle[slot]
        sc = bench.ber_point(state[hop], order_bits, snr_db, self.sweep,
                             unit_seed(seed, rnd, slot), min_symbols=1)
        _check_counts(sc, f"ber slot {slot}")
        return self.sweep.chunk_prt, sc

    def new_accuracy(self):
        return commrx.ErrorCounts()

    def accumulate(self, acc, out):
        return acc.merge(out)

    def accuracy(self, acc, layers=None) -> dict:
        return _ber_metrics(acc)

    def oracle(self, state, seed: int, workdir: str) -> None:
        _identity_oracle(self.cfg, seed)


class CommRx:
    """Blind receiver in all four modes on frames read from FHIQ files."""

    name = "comm-rx"
    cfg = RadarConfig()
    n_prt = 2000
    modes = ("known", "estimated", "averaged", "flat")
    # (PSK bits per symbol, SNR dB) of each stored frame
    frames = [(3, -6.0), (4, 0.0), (3, 6.0), (4, 18.0)]
    cycle = frames
    sweep = bench.SweepSpec()   # clock and front-end ripple draw ranges
    round_s = 1.55
    share = 1.45

    def config(self) -> dict:
        return {"cfg": self.cfg, "n_prt": self.n_prt, "modes": self.modes,
                "frames": self.frames, "sweep": self.sweep}

    def setup(self, seed: int, workdir: str) -> list:
        cfg = self.cfg
        state = []
        for slot, (order_bits, snr_db) in enumerate(self.frames):
            rng = np.random.default_rng(unit_seed(seed, 0, slot))
            # the BER sweep's seeded clock and rippled front-end draw
            imp = bench._draw_impairments(cfg, self.sweep, rng,
                                          10.0 ** (-snr_db / 10.0))
            plan = waveform.plan_hops(cfg, n_prt=self.n_prt, rng=rng)
            psk = waveform.make_psk_grid(cfg, plan, order_bits, rng=rng)
            rx = apply(waveform.synthesize(plan, psk, cfg), plan, psk, imp,
                       cfg, rng=rng)
            path = os.path.join(workdir, f"frame{slot}.fhiq")
            iqfile.write_iq(path, rx)
            state.append({"path": path, "order_bits": order_bits,
                          "imp": imp, "plan": plan, "psk": psk,
                          "first": None})
        return state

    def run_unit(self, state, seed: int, rnd: int, slot: int):
        f = state[slot]
        frame = iqfile.read_iq(f["path"])
        out = {}
        for mode in self.modes:
            rep = commrx.demodulate(frame, self.cfg, f["order_bits"],
                                    mode=mode, spec=f["imp"])
            out[mode] = commrx.score_report(rep, f["plan"], f["psk"],
                                            self.cfg)
            _check_counts(out[mode], f"frame {slot} {mode}")
        # every round demodulates the same files: results must repeat
        if f["first"] is None:
            f["first"] = out
        elif out != f["first"]:
            raise CheckFailed(f"frame {slot}: result changed between rounds")
        return self.n_prt, out

    def new_accuracy(self):
        return commrx.ErrorCounts()

    def accumulate(self, acc, out):
        for sc in out.values():
            acc = acc.merge(sc)
        return acc

    def accuracy(self, acc, layers=None) -> dict:
        return _ber_metrics(acc)

    def oracle(self, state, seed: int, workdir: str) -> None:
        _identity_oracle(self.cfg, seed,
                         os.path.join(workdir, "oracle.fhiq"))


class Radar:
    """``bench.radar_trial`` calls, alternating pilot and random waveforms."""

    cfg = RadarConfig()
    oracle = None

    def __init__(self, name: str, sweep: bench.SweepSpec, snrs: tuple,
                 round_s: float, share: float):
        self.name = name
        self.round_s = round_s
        self.share = share
        self.sweep = sweep
        self.cycle = [(snr_db, mode) for snr_db in snrs
                      for mode in ("dfrc", "traditional")]

    def config(self) -> dict:
        return {"cfg": self.cfg, "sweep": self.sweep, "cycle": self.cycle}

    def setup(self, seed: int, workdir: str):
        return None

    def run_unit(self, state, seed: int, rnd: int, slot: int):
        snr_db, mode = self.cycle[slot]
        res = bench.radar_trial(self.cfg, self.sweep, snr_db,
                                [seed, rnd, slot], mode)
        if len(res) != self.sweep.n_targets:
            raise CheckFailed(f"radar slot {slot}: {len(res)} results for "
                              f"{self.sweep.n_targets} targets")
        errs = np.array([r[1:] for r in res if r[0]], dtype=float)
        if not np.all(np.isfinite(errs)):
            raise CheckFailed(f"radar slot {slot}: non-finite estimates")
        return self.cfg.prts_per_cpi, errs.reshape(-1, 3)

    def new_accuracy(self):
        return {"errs": [], "targets": 0, "cpis": 0}

    def accumulate(self, acc, out):
        acc["errs"].append(out)
        acc["targets"] += self.sweep.n_targets
        acc["cpis"] += 1
        return acc

    def accuracy(self, acc, layers=None) -> dict:
        """RMSE and detection rate of associated targets; with the traced
        run's counters also the unassociated CFAR detections per CPI."""
        e = np.concatenate(acc["errs"])
        rmse = np.sqrt(np.mean(e ** 2, axis=0))
        out = {"rmse_range_m": (float(rmse[0]), "m"),
               "rmse_velocity_mps": (float(rmse[1]), "m/s"),
               "rmse_angle_deg": (float(rmse[2]), "deg"),
               "detection_rate": (e.shape[0] / acc["targets"], "ratio")}
        if layers is not None:
            dets = layers["radarrx.cfar_detect.detections"]["value"]
            out["false_alarms_per_cpi"] = (
                (dets - e.shape[0]) / acc["cpis"], "count")
        return out


WORKLOADS = {w.name: w for w in (
    Ber(),
    CommRx(),
    Radar("radar-sparse",
          bench.SweepSpec(n_targets=10, angle_grid_points=160),
          (-40.0, -32.0, -24.0), 3.25, 0.65),
    Radar("radar-dense", bench.SweepSpec(), (-16.0, -8.0), 6.6, 1.25),
)}


def config_hash(workload) -> str:
    """Short hash of everything that defines a workload's inputs."""
    text = json.dumps({"name": workload.name, "config": workload.config()},
                      sort_keys=True, default=dataclasses.asdict)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
