"""Monte-Carlo studies: BER-vs-SNR sweeps, radar RMSE sweeps, demodulation
method comparison, and data-rate accounting.

SNR convention used everywhere: per-hop-sample SNR of a single antenna's
tone, i.e. tone power (unity) over the per-sample complex noise variance
(:func:`config.noise_var_for_snr`).
Every study is reproducible from (spec, seed); trials draw child seeds from
a seed sequence so results do not depend on execution order.
"""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import islice, product

import numpy as np

from .config import (ConfigError, RadarConfig, check_order_bits, check_span,
                     noise_var_for_snr, prefixed, usable_cpus)
from . import commrx, radarrx
from .impairments import FrontEndProfile, ImpairmentSpec, apply
from .waveform import (HopPlan, PskGrid, codebook_bits, hop_groups,
                       make_psk_grid, plan_hops, synthesize)


def wilson_interval(errors: float, n: int, z: float = 1.96):
    """Wilson score interval for a binomial proportion; (NaN, NaN) when
    ``n == 0``, like the rate itself (:func:`commrx.rate`)."""
    if n == 0:
        return float("nan"), float("nan")
    p = errors / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    hw = z / denom * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max(0.0, center - hw), min(1.0, center + hw)


# BLAS thread counts a spawned worker's NumPy reads when it is imported
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")


@contextlib.contextmanager
def _one_blas_thread():
    """Environment in which a spawned worker's NumPy runs one BLAS thread:
    each of :data:`_BLAS_THREAD_VARS` that the caller left unset reads 1
    until the block exits, and is unset again after it."""
    unset = [v for v in _BLAS_THREAD_VARS if v not in os.environ]
    os.environ.update(dict.fromkeys(unset, "1"))
    try:
        yield
    finally:
        for v in unset:
            os.environ.pop(v, None)


def _map_points(fn, calls: list) -> list:
    """``fn(*args)`` for each ``args`` in ``calls``, in order, on one spawned
    process per :func:`config.usable_cpus` up to one per call (a calling
    script needs the ``__main__`` guard); one worker starts no process, so
    a call from a process that ``multiprocessing`` started maps in that
    process. The workers run one BLAS thread each unless the caller's
    environment sets the count, since they already split the CPUs."""
    n_workers = min(usable_cpus(), len(calls))
    if n_workers <= 1:
        return [fn(*args) for args in calls]
    spawn = multiprocessing.get_context("spawn")  # fork is unsafe with threads
    with (_one_blas_thread(),
          ProcessPoolExecutor(n_workers, mp_context=spawn) as pool):
        return list(pool.map(fn, *zip(*calls)))


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
    check_order_bits(order_bits)
    K, M, H = cfg.n_subbands, cfg.n_tx, cfg.hops_per_pulse
    nominal = (H * codebook_bits(K, M) + order_bits * M * H) / cfg.prt_duration

    groups = hop_groups(cfg, np.arange(K))
    fhcs_cycle = sum(g.rows.size * g.bits for g in groups)
    psk_slots_cycle = sum(g.rows.size * len(g.free_ants) for g in groups)
    effective = (fhcs_cycle + order_bits * psk_slots_cycle) \
        / (K * cfg.prt_duration)
    return nominal, effective


# ---------------------------------------------------------------------------
# Sweep specification / report
# ---------------------------------------------------------------------------

# The largest front-end ripple, in dB. A noiseless `comm` link (five
# seeded 40-PRT frames a point) decoded 8-, 16- and 64-PSK error-free up to
# 150 dB of ripple and not from 160 dB (64-PSK) or 170 dB (8- and 16-PSK),
# where the sub-bands the ripple sinks fall below the float64 rounding of
# those it lifts. With noise the ripple is an SNR loss that the answer
# measures: at 25 dB SNR errors start from 30 dB of ripple.
MAX_RIPPLE_DB = 150.0


@dataclass(frozen=True)
class SweepSpec:
    """Knobs of the Monte-Carlo studies; defaults follow the experiment
    configuration (50 targets uniform in [-170,170] m/s, [750,4185] m,
    [-4,4] deg; 100 radar trials). Sweeps run on every usable CPU."""

    snr_grid_db: tuple[float, ...] = (-10, -8, -6, -4, -2, 0, 2, 4, 6, 8,
                                      10, 12, 14, 16, 18, 20)
    modulations: tuple[int, ...] = (3, 4)     # PSK bits per symbol
    hop_durations: tuple[float, ...] = (0.5e-6, 1e-6)
    min_symbols: int = 10000             # PSK symbols, FHCS codewords a point
    comm_mode: str = "known"             # one of commrx.MODES
    rho_span: tuple[float, ...] = (1e-6, 2.2e-6)  # |clock stability| range
    ripple_db: float = 1.0
    ripple_rad: float = 0.2
    trials: int = 100                    # radar trials per SNR point
    n_targets: int = 50
    range_span: tuple[float, ...] = (750.0, 4185.0)
    velocity_span: tuple[float, ...] = (-170.0, 170.0)
    azimuth_span: tuple[float, ...] = (-4.0, 4.0)
    radar_snr_grid_db: tuple[float, ...] = (-40, -32, -24, -16, -8)
    angle_grid_points: int = 256
    angle_fov_deg: float = 30.0
    p_fa: float = 1e-4
    chunk_prt: int = 2000
    seed: int = 0

    def __post_init__(self):
        # a zero chunk would loop forever, zero trials or symbols give
        # empty rows, an empty angle grid has no step
        for name in ("chunk_prt", "trials", "min_symbols",
                     "angle_grid_points"):
            if not getattr(self, name) >= 1:
                raise ConfigError(f"sweep.{name} must be >= 1")
        if self.seed < 0:           # SeedSequence takes no negative entropy
            raise ConfigError(f"sweep.seed must be >= 0, got {self.seed}")
        if self.n_targets < 0:
            raise ConfigError("sweep.n_targets must be >= 0")
        with prefixed("sweep.modulations: "):
            for order_bits in self.modulations:
                check_order_bits(order_bits)
        if not all(t > 0 for t in self.hop_durations):   # NaN fails too
            raise ConfigError(f"sweep.hop_durations must be > 0, got "
                              f"{list(self.hop_durations)}")
        if not 0.0 < self.p_fa < 1.0:
            raise ConfigError("sweep.p_fa must be in (0, 1)")
        if not 0.0 < self.angle_fov_deg <= 90.0:      # NaN fails too
            raise ConfigError("sweep.angle_fov_deg must be in (0, 90]: the "
                              "angle grid spans [-fov, fov) of azimuth")
        if self.comm_mode not in commrx.MODES:
            raise ConfigError(f"sweep.comm_mode must be one of "
                              f"{commrx.MODES}, not {self.comm_mode!r}")
        for name in ("rho_span", "range_span", "velocity_span",
                     "azimuth_span"):
            check_span(f"sweep.{name}", getattr(self, name))
        for name in ("snr_grid_db", "radar_snr_grid_db"):
            with prefixed(f"sweep.{name}: "):
                for snr_db in getattr(self, name):
                    noise_var_for_snr(snr_db)
        if not abs(self.ripple_db) <= MAX_RIPPLE_DB:
            raise ConfigError(
                f"sweep.ripple_db={self.ripple_db:g} dB is outside "
                f"+/-{MAX_RIPPLE_DB:g} dB: past that, the sub-bands it sinks "
                f"fall below the float64 rounding of those it lifts")

    def random_scene(self, cfg: RadarConfig, rng) -> tuple[radarrx.Target, ...]:
        """``n_targets`` targets drawn uniformly over the spans; the range
        span is first clamped to the observable window. A velocity span
        reaching +/-``cfg.unambiguous_velocity`` (its targets would alias)
        or a clamped range span that is empty is a :class:`ConfigError`."""
        v_max = cfg.unambiguous_velocity
        v_lo, v_hi = self.velocity_span
        if not (-v_max < v_lo and v_hi < v_max):
            raise ConfigError(
                f"sweep.velocity_span must lie inside +/-{v_max:.6g} m/s, the "
                f"unambiguous velocity {radarrx.UNAMBIGUOUS_VELOCITY}, got "
                f"{list(self.velocity_span)}")
        lo_r = max(self.range_span[0], cfg.blind_range)
        hi_r = min(self.range_span[1], cfg.unambiguous_range)
        check_span(f"sweep.range_span clamped to {radarrx.OBSERVABLE_WINDOW}",
                   (lo_r, hi_r))
        rng = np.random.default_rng(rng)
        return tuple(
            radarrx.Target(range_m=float(rng.uniform(lo_r, hi_r)),
                           velocity=float(rng.uniform(v_lo, v_hi)),
                           azimuth_deg=float(rng.uniform(*self.azimuth_span)),
                           coeff=np.exp(2j * np.pi * rng.random()))
            for _ in range(self.n_targets))


@dataclass(frozen=True)
class SweepReport:
    columns: list
    rows: list
    meta: dict = field(default_factory=dict)


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
    """Clock-consistent random impairment draw inside the estimator range.
    The span's largest |rho| is checked first, so a span reaching past the
    unambiguous CFO is refused whatever the draw."""
    with prefixed(f"sweep.rho_span {list(spec.rho_span)}: "):
        ImpairmentSpec.from_clock(max(map(abs, spec.rho_span)), cfg)
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

    Chunks run until ``min_symbols`` PSK symbols and, if a chunk carries
    FHCS payload at all, ``min_symbols`` FHCS codewords are scored. Every
    chunk has the same capacity; with ``n_subbands == n_tx`` it holds no
    codeword, since every hop's free antennas take the whole pool.

    The channel draw (impairments, hopping plan, noise) is seeded
    independently of the PSK order, so runs that differ only in modulation
    share the channel; this is what makes the FHCS curves of different PSK
    runs directly comparable. A chunk's impairments and plan come from
    ``SeedSequence([seed, snr_code, chunk])``, its noise from that
    sequence's first spawned child.
    """
    if min_symbols is None:
        min_symbols = sweep.min_symbols
    noise_var = noise_var_for_snr(snr_db)
    snr_code = round(snr_db * 10) & 0xffff
    acc = commrx.ErrorCounts()
    chunk_idx = 0
    while (acc.psk_symbols < min_symbols
           or 0 < acc.fhcs_codewords < min_symbols):
        chan_seq = np.random.SeedSequence([seed, snr_code, chunk_idx])
        chan_rng = np.random.default_rng(chan_seq)
        noise_rng = np.random.default_rng(chan_seq.spawn(1)[0])
        psk_rng = np.random.default_rng([seed, snr_code, chunk_idx,
                                         order_bits])
        chunk_idx += 1
        imp = _draw_impairments(cfg, sweep, chan_rng, noise_var)
        plan = plan_hops(cfg, n_prt=sweep.chunk_prt, rng=chan_rng)
        psk = make_psk_grid(cfg, plan, order_bits, rng=psk_rng)
        # no name holds the transmit frame while the receiver runs
        rx = apply(synthesize(plan, psk, cfg), plan, psk, imp, cfg,
                   rng=noise_rng)
        rep = commrx.demodulate(rx, cfg, order_bits, mode=sweep.comm_mode,
                                spec=imp)
        acc = acc.merge(commrx.score_report(rep, plan, psk, cfg))
    return acc


def run_ber_sweep(cfg: RadarConfig, sweep: SweepSpec) -> SweepReport:
    """BER of FHCS and PSK across the SNR grid, per modulation order and
    hop duration (known-channel mode: coherent detection plus erasures).
    """
    cols = ["hop_duration", "order_bits", "snr_db", "mode",
            "psk_ber", "psk_ber_lo", "psk_ber_hi", "psk_bits",
            "psk_ser", "fhcs_ber", "fhcs_ber_lo", "fhcs_ber_hi",
            "fhcs_bits", "rate_nominal", "rate_effective"]
    # built here, so a bad hop length or PSK order fails before any worker
    points = []
    for hop_t in sweep.hop_durations:
        with prefixed(f"sweep.hop_durations {hop_t}: "):
            cfg_t = config_for_hop_duration(cfg, hop_t)
        for order_bits in sweep.modulations:
            rates = data_rate(order_bits, cfg_t)
            points += [(hop_t, cfg_t, order_bits, snr_db, rates)
                       for snr_db in sweep.snr_grid_db]
    counts = _map_points(ber_point, [(c, j, snr, sweep, sweep.seed)
                                     for _, c, j, snr, _ in points])
    rows = []
    for (hop_t, _, order_bits, snr_db, rates), acc in zip(points, counts):
        p_lo, p_hi = wilson_interval(acc.psk_bit_errors, acc.psk_bits)
        f_lo, f_hi = wilson_interval(acc.fhcs_bit_errors, acc.fhcs_bits)
        rows.append([hop_t, order_bits, float(snr_db), sweep.comm_mode,
                     acc.psk_ber, p_lo, p_hi, acc.psk_bits, acc.psk_ser,
                     acc.fhcs_ber, f_lo, f_hi, acc.fhcs_bits, *rates])
    return SweepReport(cols, rows)


# ---------------------------------------------------------------------------
# Radar sweep
# ---------------------------------------------------------------------------

GATE_RANGE_BINS = 3       # association gate around a target's true cell
GATE_DOPPLER_BINS = 2
GATE_ANGLE_DEG = 2.0


def _associate(dets: radarrx.DetectionList,
               scene: tuple[radarrx.Target, ...],
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
    for t in scene:
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


def radar_cpi(cfg: RadarConfig, sweep: SweepSpec, plan: HopPlan,
              psk: PskGrid, scene: tuple[radarrx.Target, ...],
              array: radarrx.ArrayModel, noise_var: float, rng
              ) -> tuple[radarrx.RangeDopplerMap, radarrx.DetectionList]:
    """(range-Doppler map, detections) of one CPI's echo of ``scene``,
    with the sweep's angle grid and false-alarm rate: the profiles of
    :func:`radarrx.echo_profiles`, which builds no echo array, through
    :func:`radarrx.process_cpi`. A virtual array of fewer than two
    channels is a :class:`ConfigError` before the echo is synthesized."""
    radarrx.check_channels(cfg, array)
    grid = radarrx.angle_grid(sweep.angle_fov_deg, sweep.angle_grid_points)
    return radarrx.process_cpi(
        radarrx.echo_profiles(plan, psk, scene, array, cfg,
                              noise_var=noise_var, rng=rng),
        cfg, array, p_fa=sweep.p_fa, grid=grid)


def radar_trial(cfg: RadarConfig, sweep: SweepSpec, snr_db: float,
                trial_seed, waveform_mode: str):
    """One scene through the full chain; returns association results."""
    seq = np.random.SeedSequence(trial_seed)
    # the FHCS (plan) and PSK bits each get their own child stream; the
    # traditional waveform carries no PSK (order 0)
    scene_seed, plan_seed, noise_seed, psk_seed = seq.spawn(4)
    scene = sweep.random_scene(cfg, scene_seed)
    plan = plan_hops(cfg, n_prt=cfg.prts_per_cpi,
                     rng=np.random.default_rng(plan_seed),
                     mode=waveform_mode)
    psk = make_psk_grid(cfg, plan, 3 if waveform_mode == "dfrc" else 0,
                        rng=np.random.default_rng(psk_seed))
    rdm, dets = radar_cpi(cfg, sweep, plan, psk, scene, radarrx.ArrayModel(),
                          noise_var_for_snr(snr_db),
                          np.random.default_rng(noise_seed))
    return _associate(dets, scene, rdm)


def run_radar_sweep(cfg: RadarConfig, sweep: SweepSpec) -> SweepReport:
    """RMSE of range/velocity/angle across SNR for the pilot-carrying and
    the traditional waveform, paired per trial (same scenes and noise).

    Trials are independent: every (SNR, waveform, trial) call is mapped
    at once and each point's trials are merged in trial order, so the
    report does not depend on how many processes ran them. An RMSE is NaN
    where no trial matched a target, and the standard error of its MSE
    where fewer than two did; the detection rate is NaN without targets.
    """
    cols = ["snr_db", "waveform", "rmse_range", "rmse_velocity",
            "rmse_angle", "detection_rate", "n_matched", "n_targets",
            "se_mse_range", "se_mse_velocity", "se_mse_angle"]
    rows, paired = [], {}
    points = list(product(sweep.radar_snr_grid_db,
                          (("dfrc", "pilot"), ("traditional", "random"))))
    results = iter(_map_points(radar_trial, [
        (cfg, sweep, snr_db,
         [sweep.seed, trial, round(snr_db * 100) & 0xffff], mode)
        for snr_db, (mode, _) in points for trial in range(sweep.trials)]))
    for snr_db, (_, label) in points:
        # one (range, velocity, angle) MSE column per trial (NaN when
        # nothing matched) so the two waveforms stay aligned for the
        # paired comparison; every reduction below runs on a contiguous
        # 1-D array, which keeps its summation order
        mse = np.empty((3, sweep.trials))
        matched = total = 0
        for trial, res in enumerate(islice(results, sweep.trials)):
            errs = [(dr, dv, da) for ok, dr, dv, da in res if ok]
            matched += len(errs)
            total += len(res)
            e = np.array(errs) if errs else np.full((1, 3), np.nan)
            mse[:, trial] = [np.mean(c ** 2) for c in e.T]
        # a trial's three MSEs are NaN together: one count serves all
        n = int(np.sum(~np.isnan(mse[0])))
        rmse = [float(np.sqrt(np.nansum(v) / n)) if n else np.nan
                for v in mse]
        se = [float(np.nanstd(v, ddof=1) / np.sqrt(n)) if n >= 2
              else np.nan for v in mse]
        rows.append([float(snr_db), label, *rmse,
                     commrx.rate(matched, total), matched, total, *se])
        paired[(snr_db, label)] = dict(zip("rva", mse))
    return SweepReport(cols, rows, {"paired_mse": paired})


# ---------------------------------------------------------------------------
# Demodulation method comparison
# ---------------------------------------------------------------------------

METHOD_SNR_DB = 20.0      # the method comparison's operating point:
METHOD_ORDER_BITS = 4     # 16PSK at 20 dB


def run_method_comparison(cfg: RadarConfig, sweep: SweepSpec,
                          n_prt: int = 2000) -> SweepReport:
    """SER of the three demodulation variants under a rippled front end:
    gain-ripple correction disabled, the full pipeline, and the full
    pipeline with CPI-averaged pilot ratios, at ``METHOD_SNR_DB`` with
    ``METHOD_ORDER_BITS`` bits per symbol."""
    cols = ["method", "order_bits", "snr_db", "ser", "ser_lo", "ser_hi",
            "ber", "mean_abs_residual", "n_symbols"]
    rng = np.random.default_rng(np.random.SeedSequence([sweep.seed, 77]))
    noise_var = noise_var_for_snr(METHOD_SNR_DB)
    imp = _draw_impairments(cfg, sweep, rng, noise_var)
    plan = plan_hops(cfg, n_prt=n_prt, rng=rng)
    psk = make_psk_grid(cfg, plan, METHOD_ORDER_BITS, rng=rng)
    rx = apply(synthesize(plan, psk, cfg), plan, psk, imp, cfg, rng=rng)
    rows = []
    for mode in ("flat", "estimated", "averaged"):
        rep = commrx.demodulate(rx, cfg, METHOD_ORDER_BITS, mode=mode)
        sc = commrx.score_report(rep, plan, psk, cfg)
        lo, hi = wilson_interval(sc.psk_symbol_errors, sc.psk_symbols)
        rows.append([mode, METHOD_ORDER_BITS, METHOD_SNR_DB, sc.psk_ser,
                     lo, hi, sc.psk_ber,
                     float(np.abs(rep.psk_residual).mean()),
                     sc.psk_symbols])
    return SweepReport(cols, rows)
