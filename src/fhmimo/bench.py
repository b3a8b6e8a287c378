"""Monte-Carlo studies: BER-vs-SNR sweeps, radar RMSE sweeps, demodulation
method comparison, and data-rate accounting.

SNR convention used everywhere: per-hop-sample SNR of a single antenna's
tone, i.e. tone power (unity) over the per-sample complex noise variance.
Every study is reproducible from (spec, seed); trials draw child seeds from
a seed sequence so results do not depend on execution order.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError, RadarConfig
from .iqfile import write_csv
from . import commrx, radarrx
from .impairments import FrontEndProfile, ImpairmentSpec, apply
from .waveform import (FhcsCodebook, make_psk_grid, plan_hops, synthesize)


def wilson_interval(errors: float, n: int, z: float = 1.96):
    """Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    p = errors / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    hw = z / denom * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max(0.0, center - hw), min(1.0, center + hw)


# ---------------------------------------------------------------------------
# Data rate
# ---------------------------------------------------------------------------

def data_rate(order_bits: int, cfg: RadarConfig) -> tuple[float, float]:
    """(nominal, effective) communication rate in bit/s.

    Nominal counts full FHCS capacity and a PSK symbol on every hop/antenna
    slot. Effective subtracts the pilot overhead: reduced FHCS codebooks in
    partially pinned hops and no PSK on pinned slots, averaged over one
    pilot cycle of K PRTs.
    """
    if not 0 <= order_bits <= 63:      # symbol arithmetic is int64
        raise ConfigError("order_bits must be in [0, 63]")
    K, M, H = cfg.n_subbands, cfg.n_tx, cfg.hops_per_pulse
    full_bits = FhcsCodebook(K, M).bits
    nominal = (H * full_bits + order_bits * M * H) / cfg.prt_duration

    plan = plan_hops(cfg, n_prt=K, rng=0)
    fhcs_cycle = plan.fhcs_bits_used
    psk_slots_cycle = int((~plan.pinned).sum())
    effective = (fhcs_cycle + order_bits * psk_slots_cycle) \
        / (K * cfg.prt_duration)
    return nominal, effective


# ---------------------------------------------------------------------------
# Sweep specification / report
# ---------------------------------------------------------------------------

@dataclass
class SweepSpec:
    """Knobs of the Monte-Carlo studies; defaults follow the experiment
    configuration (50 targets uniform in [-170,170] m/s, [750,4185] m,
    [-4,4] deg; 100 radar trials)."""

    snr_grid_db: tuple = (-10, -8, -6, -4, -2, 0, 2, 4, 6, 8, 10, 12, 14,
                          16, 18, 20)
    modulations: tuple = (3, 4)          # PSK bits per symbol
    hop_durations: tuple = (0.5e-6, 1e-6)
    min_symbols: int = 10000             # per point, PSK symbols and FHCS bits
    comm_mode: str = "known"             # "known" or "estimated"
    rho_span: tuple = (1e-6, 2.2e-6)     # |clock stability| draw range
    ripple_db: float = 1.0
    ripple_rad: float = 0.2
    trials: int = 100                    # radar trials per SNR point
    n_targets: int = 50
    range_span: tuple = (750.0, 4185.0)
    velocity_span: tuple = (-170.0, 170.0)
    azimuth_span: tuple = (-4.0, 4.0)
    radar_snr_grid_db: tuple = (-40, -32, -24, -16, -8)
    angle_grid_points: int = 256
    angle_fov_deg: float = 30.0
    p_fa: float = 1e-4
    chunk_prt: int = 2000
    n_workers: int = 1                   # radar trials per worker pool
    seed: int = 0

    def __post_init__(self):
        # a zero chunk would loop forever, zero trials or symbols give
        # empty rows, an empty angle grid has no step
        for name in ("chunk_prt", "trials", "min_symbols",
                     "angle_grid_points"):
            if not getattr(self, name) >= 1:
                raise ConfigError(f"sweep.{name} must be >= 1")
        if not 0.0 < self.p_fa < 1.0:
            raise ConfigError("sweep.p_fa must be in (0, 1)")
        if not 0.0 < self.angle_fov_deg < np.inf:
            raise ConfigError("sweep.angle_fov_deg must be finite and > 0")


@dataclass
class SweepReport:
    kind: str
    columns: list
    rows: list
    meta: dict = field(default_factory=dict)

    def to_csv(self, path, cfg_hash=None) -> None:
        write_csv(path, self.columns, self.rows, cfg_hash)

    def to_plotdata(self, path, x_col: str, curve_cols: list,
                    label_cols: list, cfg_hash=None) -> None:
        """Long-format plot file: one row per (curve, x) with y and CI."""
        cols = ["curve", "x"]
        for c in curve_cols:
            cols += [c, c + "_lo", c + "_hi"]
        idx = {c: i for i, c in enumerate(self.columns)}
        rows = []
        for r in self.rows:
            label = "/".join(f"{c}={r[idx[c]]}" for c in label_cols)
            row = [label, r[idx[x_col]]]
            for c in curve_cols:
                row += [r[idx[c]], r[idx.get(c + "_lo", idx[c])],
                        r[idx.get(c + "_hi", idx[c])]]
            rows.append(row)
        write_csv(path, cols, rows, cfg_hash)


def config_for_hop_duration(cfg: RadarConfig, hop_duration: float
                            ) -> RadarConfig:
    """Variant of a config with a different hop length.

    The sub-band count is kept; the bandwidth snaps to the smallest value
    that keeps an integer number of tone cycles per hop, so the FHCS
    codebook and modulations stay comparable across hop durations.
    """
    cycles = max(1, round(cfg.bandwidth * hop_duration / cfg.n_subbands))
    bandwidth = cycles * cfg.n_subbands / hop_duration
    return dataclasses.replace(
        cfg, hop_duration=hop_duration, bandwidth=bandwidth,
        sample_rate=max(cfg.sample_rate, bandwidth))


# ---------------------------------------------------------------------------
# BER sweep
# ---------------------------------------------------------------------------

def _draw_impairments(cfg: RadarConfig, spec: SweepSpec, rng,
                      noise_var: float) -> ImpairmentSpec:
    """Clock-consistent random impairment draw inside the estimator range."""
    rho = rng.uniform(*spec.rho_span) * rng.choice((-1.0, 1.0))
    sto0 = rng.uniform(0.0, 1.0) / cfg.sample_rate  # sub-sample initial STO
    fe = FrontEndProfile.rippled(cfg, rng=rng, ripple_db=spec.ripple_db,
                                 ripple_rad=spec.ripple_rad)
    return ImpairmentSpec.from_clock(rho, cfg, sto_initial=sto0,
                                     noise_var=noise_var, front_end=fe)


def ber_point(cfg: RadarConfig, order_bits: int, snr_db: float,
              sweep: SweepSpec, seed, min_symbols: int | None = None
              ) -> commrx.ErrorCounts:
    """Accumulate demodulation errors at one SNR until the symbol budget.

    The channel draw (impairments, hopping plan, noise) is seeded
    independently of the PSK order, so runs that differ only in modulation
    share the channel; this is what makes the FHCS curves of different PSK
    runs directly comparable.
    """
    if min_symbols is None:
        min_symbols = sweep.min_symbols
    noise_var = 10.0 ** (-snr_db / 10.0)
    snr_code = round(snr_db * 10) & 0xffff
    acc = commrx.ErrorCounts()
    chunk_idx = 0
    while acc.psk_symbols < min_symbols or acc.fhcs_codewords < min_symbols:
        chan_rng = np.random.default_rng([seed, snr_code, chunk_idx])
        psk_rng = np.random.default_rng([seed, snr_code, chunk_idx,
                                         order_bits])
        chunk_idx += 1
        imp = _draw_impairments(cfg, sweep, chan_rng, noise_var)
        plan = plan_hops(cfg, n_prt=sweep.chunk_prt, rng=chan_rng)
        psk = make_psk_grid(cfg, plan, order_bits, rng=psk_rng)
        frame = synthesize(plan, psk, cfg)
        rx = apply(frame, plan, psk, imp, cfg, rng=chan_rng)
        rep = commrx.demodulate(rx, cfg, order_bits, mode=sweep.comm_mode,
                                spec=imp)
        acc = acc.merge(commrx.score_report(rep, plan, psk, cfg))
    return acc


def run_ber_sweep(cfg: RadarConfig, sweep: SweepSpec,
                  min_symbols_low_snr: int | None = None) -> SweepReport:
    """BER of FHCS and PSK across the SNR grid, per modulation order and
    hop duration (known-channel mode reproduces the simulation lower bound).

    ``min_symbols_low_snr`` optionally raises the symbol budget for points
    at snr <= -4 dB where BER curves run close and need tighter intervals.
    """
    cols = ["hop_duration", "order_bits", "snr_db", "mode",
            "psk_ber", "psk_ber_lo", "psk_ber_hi", "psk_bits",
            "psk_ser", "fhcs_ber", "fhcs_ber_lo", "fhcs_ber_hi",
            "fhcs_bits", "rate_nominal", "rate_effective"]
    rows = []
    for hop_t in sweep.hop_durations:
        cfg_t = config_for_hop_duration(cfg, hop_t)
        for order_bits in sweep.modulations:
            rate_nom, rate_eff = data_rate(order_bits, cfg_t)
            for snr_db in sweep.snr_grid_db:
                budget = sweep.min_symbols
                if min_symbols_low_snr and snr_db <= -4:
                    budget = max(budget, min_symbols_low_snr)
                acc = ber_point(cfg_t, order_bits, snr_db, sweep,
                                sweep.seed, budget)
                p_lo, p_hi = wilson_interval(acc.psk_bit_errors,
                                             acc.psk_bits)
                f_lo, f_hi = wilson_interval(acc.fhcs_bit_errors,
                                             acc.fhcs_bits)
                rows.append([hop_t, order_bits, float(snr_db),
                             sweep.comm_mode,
                             acc.psk_ber, p_lo, p_hi, acc.psk_bits,
                             acc.psk_ser, acc.fhcs_ber, f_lo, f_hi,
                             acc.fhcs_bits, rate_nom, rate_eff])
    return SweepReport("ber", cols, rows, {"seed": sweep.seed})


# ---------------------------------------------------------------------------
# Radar sweep
# ---------------------------------------------------------------------------

GATE_RANGE_BINS = 3       # association gate around a target's true cell
GATE_DOPPLER_BINS = 2
GATE_ANGLE_DEG = 2.0


def _associate(dets: radarrx.DetectionList, scene: radarrx.TargetScene,
               rdm: radarrx.RangeDopplerMap):
    """Greedy nearest association of detections to truth targets.

    The truth cells are placed on the grid of ``rdm``, the map the
    detections came from.

    Targets are taken in scene order. Each takes the gated detection with
    the highest statistic (the lowest index on ties) that no earlier target
    took. Returns per-target (matched, range_err, velocity_err, angle_err).
    """
    cfg = rdm.cfg
    free = np.ones(len(dets), dtype=bool)
    out = []
    for t in scene.targets:
        rb_t = round(t.delay() * cfg.sample_rate) - rdm.range_offset
        db_t = round(t.doppler(cfg.wavelength)
                     / cfg.doppler_bin) + rdm.n_doppler // 2
        cand = np.flatnonzero(
            free
            & (np.abs(dets.range_bin - rb_t) <= GATE_RANGE_BINS)
            & (np.abs(dets.doppler_bin - db_t) <= GATE_DOPPLER_BINS)
            & (np.abs(dets.azimuth_deg - t.azimuth_deg) <= GATE_ANGLE_DEG))
        if not cand.size:
            out.append((False, 0.0, 0.0, 0.0))
            continue
        best = int(cand[np.argmax(dets.statistic[cand])])
        free[best] = False
        out.append((True, float(dets.range_m[best]) - t.range_m,
                    float(dets.velocity[best]) - t.velocity,
                    float(dets.azimuth_deg[best]) - t.azimuth_deg))
    return out


def _radar_trial_star(args):
    return radar_trial(*args)


def radar_trial(cfg: RadarConfig, sweep: SweepSpec, snr_db: float,
                trial_seed, waveform_mode: str):
    """One scene through the full chain; returns association results."""
    seq = np.random.SeedSequence(trial_seed)
    # the FHCS (plan) and PSK bits each get their own child stream
    scene_seed, plan_seed, noise_seed, psk_seed = seq.spawn(4)
    scene = radarrx.TargetScene.random(
        cfg, sweep.n_targets, rng=np.random.default_rng(scene_seed),
        range_span=sweep.range_span, velocity_span=sweep.velocity_span,
        azimuth_span=sweep.azimuth_span)
    array = radarrx.ArrayModel(n_tx=cfg.n_tx)
    plan = plan_hops(cfg, n_prt=cfg.prts_per_cpi,
                     rng=np.random.default_rng(plan_seed),
                     mode=waveform_mode)
    psk = (make_psk_grid(cfg, plan, 3,
                         rng=np.random.default_rng(psk_seed))
           if waveform_mode == "dfrc" else None)
    noise_var = 10.0 ** (-snr_db / 10.0)
    rx = radarrx.synthesize_echo(plan, psk, scene, array, cfg,
                                 noise_var=noise_var,
                                 rng=np.random.default_rng(noise_seed))
    grid = radarrx.angle_grid(sweep.angle_fov_deg, sweep.angle_grid_points)
    rdm, dets = radarrx.process_cpi(rx, plan, psk, cfg, array,
                                    p_fa=sweep.p_fa, grid=grid)
    return _associate(dets, scene, rdm)


def run_radar_sweep(cfg: RadarConfig, sweep: SweepSpec) -> SweepReport:
    """RMSE of range/velocity/angle across SNR for the pilot-carrying and
    the traditional waveform, paired per trial (same scenes and noise).

    Trials are independent; with ``sweep.n_workers > 1`` they run in a
    process pool and are merged in trial order, so parallel and serial
    runs produce identical reports.
    """
    cols = ["snr_db", "waveform", "rmse_range", "rmse_velocity",
            "rmse_angle", "detection_rate", "n_matched", "n_targets",
            "se_mse_range", "se_mse_velocity", "se_mse_angle"]
    rows = []
    paired = {}
    pool = (ProcessPoolExecutor(max_workers=sweep.n_workers)
            if sweep.n_workers > 1 else None)
    for snr_db in sweep.radar_snr_grid_db:
        for mode, label in (("dfrc", "pilot"), ("traditional", "random")):
            # one MSE row per trial (NaN when nothing matched) so the two
            # waveforms stay aligned for the paired comparison
            per_trial_mse = {"r": [], "v": [], "a": []}
            matched = 0
            total = 0
            args = [(cfg, sweep, snr_db,
                     [sweep.seed, trial, round(snr_db * 100) & 0xffff],
                     mode) for trial in range(sweep.trials)]
            if pool is not None:
                trial_results = list(pool.map(_radar_trial_star, args))
            else:
                trial_results = [radar_trial(*a) for a in args]
            for res in trial_results:
                errs = [(dr, dv, da) for ok, dr, dv, da in res if ok]
                matched += len(errs)
                total += len(res)
                e = (np.array(errs) if errs
                     else np.full((1, 3), np.nan))
                per_trial_mse["r"].append(np.mean(e[:, 0] ** 2))
                per_trial_mse["v"].append(np.mean(e[:, 1] ** 2))
                per_trial_mse["a"].append(np.mean(e[:, 2] ** 2))
            mses = {k: np.array(v) for k, v in per_trial_mse.items()}
            rmse = {k: float(np.sqrt(np.nanmean(v))) for k, v in mses.items()}
            se = {k: float(np.nanstd(v, ddof=1)
                           / np.sqrt(np.sum(~np.isnan(v))))
                  for k, v in mses.items()}
            rows.append([float(snr_db), label, rmse["r"], rmse["v"],
                         rmse["a"], matched / max(total, 1), matched, total,
                         se["r"], se["v"], se["a"]])
            paired[(snr_db, label)] = mses
    if pool is not None:
        pool.shutdown()
    meta = {"seed": sweep.seed, "paired_mse": paired}
    return SweepReport("radar", cols, rows, meta)


# ---------------------------------------------------------------------------
# Demodulation method comparison
# ---------------------------------------------------------------------------

def run_method_comparison(cfg: RadarConfig, sweep: SweepSpec,
                          snr_db: float = 20.0, n_prt: int = 2000,
                          order_bits: int = 4) -> SweepReport:
    """SER of the three demodulation variants under a rippled front end:
    gain-ripple correction disabled, the full pipeline, and the full
    pipeline with CPI-averaged pilot ratios."""
    cols = ["method", "order_bits", "snr_db", "ser", "ser_lo", "ser_hi",
            "ber", "mean_abs_residual", "n_symbols"]
    rng = np.random.default_rng(np.random.SeedSequence([sweep.seed, 77]))
    noise_var = 10.0 ** (-snr_db / 10.0)
    imp = _draw_impairments(cfg, sweep, rng, noise_var)
    plan = plan_hops(cfg, n_prt=n_prt, rng=rng)
    psk = make_psk_grid(cfg, plan, order_bits, rng=rng)
    frame = synthesize(plan, psk, cfg)
    rx = apply(frame, plan, psk, imp, cfg, rng=rng)
    rows = []
    for mode in ("flat", "estimated", "averaged"):
        rep = commrx.demodulate(rx, cfg, order_bits, mode=mode)
        sc = commrx.score_report(rep, plan, psk, cfg)
        lo, hi = wilson_interval(sc.psk_symbol_errors, sc.psk_symbols)
        rows.append([mode, order_bits, float(snr_db), sc.psk_ser, lo, hi,
                     sc.psk_ber,
                     float(np.abs(rep.psk_residual).mean()),
                     sc.psk_symbols])
    return SweepReport("methods", cols, rows, {"seed": sweep.seed})
