"""Communication receiver: joint hardware-error estimation and demodulation.

Processing of a CPI-aligned single-channel receive stream:

1. Per-hop DFTs; coefficients are read at the K sub-band bins.
2. :func:`assign_peaks` detects the hopping plan: pinned antennas sit at
   their pilot-layout sub-bands, the strongest other peaks go to the free
   antennas by ascending frequency. :func:`slot_peaks` reads the slot
   grid from it, the peak of every (PRT, hop, antenna) slot and whether
   it clears the noise floor; every later stage reads these two arrays.
   Antenna m's zero pilot is slot (hop m, antenna m), its cycled pilot
   slot (hop m+1, antenna m); the unpinned slots carry the payload.
   None of this depends on the mode, so a frame has its slot grid
   computed once per config (:func:`_slot_grid`), and so do steps 3 and
   4 for the blind modes (:func:`_blind_estimate`).
3. Zero pilots of consecutive PRTs give the CFO via their pairwise phase
   ratio; clock stability and the sampling-time offset follow from the CFO
   and the carrier/sampling frequencies.
4. The cycled pilot and the zero pilot of the same PRT give one pilot
   ratio per PRT. With the phase the sync estimates predict for it (the
   correction factor) removed, what is left is the frequency-dependent
   front-end gain and the initial-timing phase; over a group of K
   consecutive PRTs these residuals fill a per-antenna table indexed by
   sub-band offset.
5. FHCS codewords are ranked from the detected plan, and PSK phases are
   recovered by dividing each payload peak by its same-PRT zero pilot, the
   matching pilot-table residual, and the slot's own correction factor.
   The blind modes erase a slot whose zero pilot is below the floor or
   whose table entry was never measured.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, fields

import numpy as np

from .config import ConfigError, RadarConfig, Value, check_order_bits
from .iqfile import IqFrame, write_csv
from .impairments import ImpairmentSpec, expected_hop_peak, sto_from_rho
from .waveform import (HopPlan, PskGrid, gray_encode, hop_groups,
                       payload_codewords)

PEAK_FLOOR_FACTOR = 3.0  # peak must exceed this multiple of the median bin
MODES = ("estimated", "averaged", "flat", "known")   # see demodulate
# The widest PSK symbol a complex64 frame (as read from an FHIQ file) is
# decoded at. Noiseless single-precision frames decoded exactly up to J = 25
# and made errors from J = 26; 16 keeps margin, as MAX_ORDER_BITS does for
# the float64 phase.
MAX_COMPLEX64_ORDER_BITS = 16


def _batch_spectra(frame: IqFrame, cfg: RadarConfig):
    """(n_prt, H, N_h) hop DFTs and (n_prt, H, K) sub-band coefficients."""
    spectra = np.fft.fft(frame.hops(cfg, 1)[0], axis=-1)
    bins = cfg.subband_bin(np.arange(cfg.n_subbands))
    return spectra, spectra[..., bins]


def assign_peaks(sub_vals: np.ndarray, cfg: RadarConfig,
                 first_prt: int) -> HopPlan:
    """Detected hopping plan of a batch: map spectral peaks to antennas.

    ``sub_vals``: (n_prt, H, K) sub-band coefficients of PRTs ``first_prt``
    onwards. Pinned antennas take their known sub-bands (the pilot layout
    of :func:`hop_groups`); the strongest remaining peaks are sorted by
    frequency and assigned to the free antennas in ascending antenna order.
    """
    n_prt, H, K = sub_vals.shape
    subband = np.zeros((n_prt, H, cfg.n_tx), dtype=np.int64)
    pinned = np.zeros((n_prt, H, cfg.n_tx), dtype=bool)
    for g in hop_groups(cfg, first_prt + np.arange(n_prt)):
        subband[g.rows[:, None], g.hop, g.pin_ants] = g.pin_ks
        pinned[g.rows[:, None], g.hop, g.pin_ants] = True
        if g.free_ants:                     # argpartition needs kth < K
            masked = np.abs(sub_vals[g.rows, g.hop, :])   # (R, K)
            masked[np.arange(g.rows.size)[:, None], g.pin_ks] = -1.0
            F = len(g.free_ants)
            top = np.argpartition(masked, K - F, axis=1)[:, K - F:]
            subband[g.rows[:, None], g.hop, g.free_ants] = np.sort(top, 1)
    return HopPlan(subband, pinned, first_prt)


def slot_peaks(sub_vals: np.ndarray, median_mag: np.ndarray, det: HopPlan):
    """The slot grid of a batch: (peaks, peak_ok), each (n_prt, H, M).

    ``peaks`` holds the coefficient of every (PRT, hop, antenna) slot at
    its detected sub-band; ``peak_ok`` says whether that peak exceeds
    ``PEAK_FLOOR_FACTOR`` times its hop's median DFT magnitude
    ``median_mag`` (n_prt, H). The test is strict, so an all-zero hop (a
    dropped PRT) fails it.
    """
    peaks = np.take_along_axis(sub_vals, det.subband, axis=2)
    floor = PEAK_FLOOR_FACTOR * median_mag
    return peaks, np.abs(peaks) > floor[..., None]


def _lane_median(a: np.ndarray) -> np.ndarray:
    """``np.median(a, axis=-1)`` of magnitudes bit for bit, from one SIMD
    sort, not a selection per lane; NaN sorts last, so a NaN lane is NaN."""
    s = np.sort(a, axis=-1)
    n = s.shape[-1]
    lo, hi = s[..., (n - 1) // 2], s[..., n // 2]
    return np.where(np.isnan(s[..., -1]), s[..., -1],
                    hi if n % 2 else (lo + hi) / 2)


@dataclass(frozen=True, eq=False)
class _SlotGrid(Value):
    """What :func:`demodulate` reads of a frame before it reads the mode.

    The slot grid: the detected plan, the slot peaks and their floor test
    (:func:`slot_peaks`) and the hops with a peak below the floor. The
    slot table: the payload slots' report rows (prt, hop, antenna,
    sub-band, offset, erased), a slot erased when its hop is, their peaks,
    the zero pilots and their floor test, and the FHCS rows, a codeword
    erased when its hop is or when it is outside the usable range. What
    the blind modes share (:attr:`blind`) is computed on its first read,
    so ``known`` never pays for it. A report shares the rows its mode
    does not change, and takes a copy of those it does.
    """

    cfg: RadarConfig
    det: HopPlan
    peaks: np.ndarray        # (n_prt, H, M)
    peak_ok: np.ndarray      # (n_prt, H, M)
    hop_erased: np.ndarray   # (n_prt, H)
    slots: np.ndarray        # (n_slots, 6) int64, as DemodReport.slots
    payload: np.ndarray      # (n_slots,) peaks of the payload slots
    zero: np.ndarray         # (n_prt, M) zero pilots (hop m, antenna m)
    zero_ok: np.ndarray      # (n_prt, M)
    fhcs_rows: np.ndarray    # (n_codewords, 4) int64, as DemodReport's

    @functools.cached_property
    def blind(self) -> _BlindEstimate | None:
        return _blind_estimate(self)


# frame -> {cfg: _SlotGrid}; an entry dies with its frame
_SLOT_GRIDS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _slot_grid(frame: IqFrame, cfg: RadarConfig) -> _SlotGrid:
    """The frame's slot grid and slot table under ``cfg``, computed once
    and kept while the frame lives."""
    memo = _SLOT_GRIDS.setdefault(frame, {})
    if cfg in memo:
        return memo[cfg]
    spectra, sub_vals = _batch_spectra(frame, cfg)
    det = assign_peaks(sub_vals, cfg, frame.first_prt)
    peaks, peak_ok = slot_peaks(sub_vals, _lane_median(np.abs(spectra)), det)
    hop_erased = ~peak_ok.all(axis=-1)
    row, h, m = np.nonzero(~det.pinned)     # (PRT, hop, antenna) order
    k = det.subband[row, h, m]
    slots = np.stack([det.first_prt + row, h, m, k, cfg.subband_offset(k),
                      hop_erased[row, h]], axis=1)
    prt, hop, bits, cw = payload_codewords(det, cfg)
    cw = np.where(hop_erased[prt - det.first_prt, hop] | (cw >= (1 << bits)),
                  -1, cw)
    ants = np.arange(cfg.n_tx)
    grid = _SlotGrid(cfg, det, peaks, peak_ok, hop_erased, slots,
                     peaks[row, h, m], peaks[:, ants, ants],
                     peak_ok[:, ants, ants],
                     np.stack([prt, hop, bits, cw], axis=1))
    memo[cfg] = grid
    return grid


# ---------------------------------------------------------------------------
# Synchronization estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyncEstimate:
    """CFO and clock estimates; the blind reports of one frame share one."""

    cfo: float                    # rad/s
    rho: float                    # clock stability
    sample_time_offset: float     # s

    @classmethod
    def from_spec(cls, spec: ImpairmentSpec, cfg: RadarConfig) -> "SyncEstimate":
        """Ground-truth sync (known-channel processing)."""
        return cls(spec.cfo, spec.cfo / (2 * np.pi * cfg.carrier_freq),
                   spec.sample_time_offset)


def estimate_cfo(pilot_zero: np.ndarray, cfg: RadarConfig,
                 valid: np.ndarray) -> float:
    """CFO in rad/s from zero-frequency pilots of consecutive PRTs.

    ``pilot_zero``: (n_prt, M) complex pilot coefficients (hop m, antenna
    m); ``valid``: (n_prt, M) pilots that may be used. The estimate is the
    circular mean of the pairwise phases over all PRT pairs and antennas.
    """
    ratios = np.where(valid[1:] & valid[:-1],
                      pilot_zero[1:] * np.conj(pilot_zero[:-1]), 0.0)
    mags = np.abs(ratios)
    units = np.divide(ratios, mags, out=np.zeros_like(ratios),
                      where=mags > 0)
    pair_vec = units.sum(axis=1)                          # combine antennas
    good = np.abs(pair_vec) > 0
    if not np.any(good):
        raise ValueError("no valid pilot pairs for CFO estimation")
    mean_vec = (pair_vec[good] / np.abs(pair_vec[good])).mean()
    return float(np.angle(mean_vec) / cfg.prt_duration)


def estimate_clock(cfo_hat: float, cfg: RadarConfig) -> tuple[float, float]:
    """(rho_hat, sample_time_offset_hat) from the CFO estimate."""
    rho_hat = cfo_hat / (2 * np.pi * cfg.carrier_freq)
    return rho_hat, sto_from_rho(rho_hat, cfg.sample_rate)


def correction_factor(i, h, m, k, sync: SyncEstimate, cfg: RadarConfig):
    """Phase the sync estimate predicts for a tone on sub-band k in hop h of
    PRT i, relative to antenna m's zero pilot (hop m) in the same PRT.

    The sampling-clock drift turns the tone by w_k (i n_p + h n_h) delta
    and the CFO advances it by cfo (h - m)(T_h + n_h delta) over the hops
    from the zero pilot, so (peak / zero pilot) / correction leaves the
    front-end gain, the initial-timing phase and the PSK phase.
    """
    omega = 2 * np.pi * cfg.subband_frequency(k)
    n_elapsed = i * cfg.samples_per_prt + h * cfg.samples_per_hop
    hop_term = (h - m) * (cfg.hop_duration
                          + cfg.samples_per_hop * sync.sample_time_offset)
    return np.exp(1j * (omega * n_elapsed * sync.sample_time_offset
                        + sync.cfo * hop_term))


# ---------------------------------------------------------------------------
# Pilot-ratio table
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PilotRatioTable(Value):
    """Per-(group, antenna, sub-band offset) pilot-ratio residuals.

    Group g covers batch rows g*K .. g*K+K-1, one pilot cycle. A measured
    entry is the pilot ratio of the group's PRT at that offset with its
    correction factor removed, so it holds only what the sync estimate
    cannot predict: the front-end gain ratio and the initial-timing phase.
    The zero-offset entry is exactly 1. ``measured`` flags the entries the
    group's own usable pilots filled; every other entry is 1.
    """

    values: np.ndarray       # (G, M, K) complex
    measured: np.ndarray     # (G, M, K) bool


def build_pilot_ratios(zero: np.ndarray, cycled: np.ndarray, first_prt: int,
                       sync: SyncEstimate, cfg: RadarConfig,
                       valid: np.ndarray) -> PilotRatioTable:
    """Measure the pilot table of every group of K consecutive PRTs.

    ``zero``, ``cycled``: (n_prt, M) peaks of antenna m's zero pilot (hop
    m) and cycled pilot (hop m+1) in PRTs ``first_prt`` onwards;
    ``valid``: (n_prt, M) pilots that may be used. K consecutive PRTs hold
    each offset once, so each usable pilot pair fills its own entry: the
    ratio of the cycled pilot to the zero pilot times the conjugate of its
    correction factor. A zero pilot of magnitude zero gives no entry. The
    zero-offset entry carries no information (both pilots would sit on the
    same sub-band, so the cycled one is not transmitted and ``cycled`` is
    not read) and is 1, measured when the PRT's pilots are usable.
    """
    K = cfg.n_subbands
    n_prt = zero.shape[0]
    prt = first_prt + np.arange(n_prt)
    kappa = cfg.pilot_offset(prt)
    shape = (-(-n_prt // K), cfg.n_tx, K)
    values = np.ones(shape, dtype=complex)
    measured = np.zeros(shape, dtype=bool)
    row, m = np.nonzero(valid & ((kappa == 0)[:, None] | (zero != 0)))
    measured[row // K, m, kappa[row]] = True
    cyc = kappa[row] != 0
    r, m = row[cyc], m[cyc]
    values[r // K, m, kappa[r]] = cycled[r, m] / zero[r, m] * np.conj(
        correction_factor(prt[r], m + 1, m, cfg.pilot_subband(prt[r]), sync,
                          cfg))
    return PilotRatioTable(values, measured)


def _carried_table(table: PilotRatioTable) -> PilotRatioTable:
    """The table the estimated and flat modes read: a hole takes the
    entry of the latest earlier group that measured it."""
    G = table.values.shape[0]
    src = np.where(table.measured, np.arange(G)[:, None, None], 0)
    np.maximum.accumulate(src, axis=0, out=src)
    return PilotRatioTable(*(np.take_along_axis(a, src, axis=0)
                             for a in (table.values, table.measured)))


def _averaged_table(table: PilotRatioTable) -> PilotRatioTable:
    """Every group uses the mean of its offset's measured entries over the
    groups (the refinement that averages the pilot ratios over a CPI)."""
    n = table.measured.sum(axis=0)
    values = np.ones(n.shape, dtype=complex)
    np.divide(np.where(table.measured, table.values, 0).sum(axis=0), n,
              out=values, where=n > 0)
    return PilotRatioTable(*(np.broadcast_to(a, table.values.shape)
                             for a in (values, n > 0)))


@dataclass(frozen=True, eq=False)
class _BlindEstimate(Value):
    """What every blind mode reads of a frame besides its slot table: the
    sync estimate, the pilot table as measured (each mode transforms it
    into a table of its own), and each payload slot's pilot cycle,
    correction factor, same-PRT zero pilot and that pilot's floor test."""

    sync: SyncEstimate
    table: PilotRatioTable
    group: np.ndarray        # (n_slots,) pilot cycle of each payload slot
    corr: np.ndarray         # (n_slots,) complex
    pilot: np.ndarray        # (n_slots,) complex
    pilot_ok: np.ndarray     # (n_slots,) bool


def _blind_estimate(grid: _SlotGrid) -> _BlindEstimate | None:
    """The blind modes' estimate of a frame, None when no pair of
    consecutive PRTs has zero pilots above the floor."""
    cfg, det = grid.cfg, grid.det
    try:
        cfo_hat = estimate_cfo(grid.zero, cfg, grid.zero_ok)
    except ValueError:
        return None
    sync = SyncEstimate(cfo_hat, *estimate_clock(cfo_hat, cfg))
    ants = np.arange(cfg.n_tx)
    # a PRT at offset 0 sends no cycled pilot, so there is none to check
    cycled = (slice(None), ants + 1, ants)
    cycled_ok = grid.peak_ok[cycled] | ~det.pinned[cycled]
    table = build_pilot_ratios(grid.zero, grid.peaks[cycled], det.first_prt,
                               sync, cfg, grid.zero_ok & cycled_ok)
    i, h, m, k = grid.slots[:, :4].T
    row = i - det.first_prt
    return _BlindEstimate(sync, table, row // cfg.n_subbands,
                          correction_factor(i, h, m, k, sync, cfg),
                          grid.zero[row, m], grid.zero_ok[row, m])


# ---------------------------------------------------------------------------
# Demodulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DemodReport(Value):
    """Recovered payload with per-symbol diagnostics.

    ``slots`` columns: prt, hop, antenna, detected sub-band, offset, erased.
    ``fhcs_rows`` columns: prt, hop, n_bits, codeword, with codeword -1
    when erased or outside the usable range. ``sync`` is None when the
    blind receiver found no pair of consecutive PRTs with pilots above the
    noise floor; every hop, slot and codeword is then erased. The rows a
    mode does not change are the frame's memo rows (:class:`_SlotGrid`).
    """

    order_bits: int
    sync: SyncEstimate | None
    slots: np.ndarray            # (n_slots, 6) int64
    psk_phase: np.ndarray        # raw corrected phase per slot
    psk_symbol: np.ndarray       # snapped constellation position
    psk_residual: np.ndarray     # phase residual after snapping
    fhcs_rows: np.ndarray        # (n_codewords, 4) int64
    n_erased_slots: int
    n_erased_hops: int

    @property
    def psk_erased(self) -> np.ndarray:
        return self.slots[:, 5].astype(bool)

    def to_csv(self, path, cfg_hash=None) -> None:
        prt, hop, ant, k, kappa, erased = self.slots.T.tolist()
        write_csv(path, ["prt", "hop", "antenna", "subband", "offset",
                         "phase_est", "residual", "erased"],
                  zip(prt, hop, ant, k, kappa, self.psk_phase.tolist(),
                      self.psk_residual.tolist(), erased), cfg_hash)

    def summary(self) -> dict:
        """JSON-ready counts and estimates; the estimates are None when
        there is no sync estimate."""
        return {
            "cfo_hat": self.sync.cfo if self.sync else None,
            "rho_hat": self.sync.rho if self.sync else None,
            "sample_time_offset_hat":
                self.sync.sample_time_offset if self.sync else None,
            "n_psk_symbols": int(self.slots.shape[0]),
            "n_fhcs_codewords": len(self.fhcs_rows),
            "n_erased_slots": int(self.n_erased_slots),
            "n_erased_hops": int(self.n_erased_hops),
        }


def demodulate(frame: IqFrame, cfg: RadarConfig, order_bits: int,
               mode: str = "estimated", spec: ImpairmentSpec | None = None
               ) -> DemodReport:
    """Recover FHCS and PSK payloads from a receive stream.

    The frame must be one stream sampled as ``cfg`` says
    (:meth:`IqFrame.hops`); its ``first_prt`` sets the pilot-cycle phase.
    A complex64 frame takes ``order_bits`` up to
    ``MAX_COMPLEX64_ORDER_BITS``.
    ``cfg`` must have 2*n_tx < samples_per_hop, so that the median of a
    hop's DFT bins, from which the peak floor is taken, is not a tone.

    mode:
      "estimated"  full blind pipeline (pilot tables per group of K PRTs);
      "averaged"   estimated + pilot ratios averaged across groups;
      "flat"       estimated, but every pilot-table residual is 1 - i.e.
                   the per-sub-band gain/timing correction is disabled
                   (comparison baseline);
      "known"      corrections from the true ``spec`` (the reference).
    """
    if mode not in MODES:
        raise ConfigError(f"unknown demodulation mode {mode!r}")
    check_order_bits(order_bits)
    if (frame.data.dtype == np.complex64
            and order_bits > MAX_COMPLEX64_ORDER_BITS):
        raise ConfigError(
            f"order_bits {order_bits} on a complex64 frame: its single-"
            f"precision phase decodes PSK symbols of at most "
            f"{MAX_COMPLEX64_ORDER_BITS} bits exactly")
    if 2 * cfg.n_tx >= cfg.samples_per_hop:
        raise ConfigError(
            f"radar.n_tx: the comm receiver needs 2*n_tx < samples_per_hop "
            f"(radar.sample_rate*radar.hop_duration), got "
            f"2*{cfg.n_tx} >= {cfg.samples_per_hop}: its peak floor is "
            f"{PEAK_FLOOR_FACTOR:g}x the median of a hop's DFT bins, which "
            f"is a tone, not noise, once the tones fill half of them")
    if mode == "known" and spec is None:
        raise ValueError("known-channel mode needs the impairment spec")

    grid = _slot_grid(frame, cfg)
    slots, fhcs_rows = grid.slots, grid.fhcs_rows
    n_erased_hops = int(grid.hop_erased.sum())
    if mode == "known":
        sync = SyncEstimate.from_spec(spec, cfg)
        ref = expected_hop_peak(*grid.slots[:, :4].T, 0.0, spec, cfg)
        raw_phase = np.angle(grid.payload * np.conj(ref))
    elif grid.blind is None:                # no pilot pair: nothing to
        sync = None                         # correct with
        n_erased_hops = grid.hop_erased.size
        slots, fhcs_rows = slots.copy(), fhcs_rows.copy()
        slots[:, 5] = 1
        fhcs_rows[:, 3] = -1
        raw_phase = np.zeros(len(slots))
    else:
        blind = grid.blind
        sync = blind.sync
        table = (_averaged_table if mode == "averaged"
                 else _carried_table)(blind.table)
        # each payload slot's entry: its group, antenna and offset
        entry = blind.group, grid.slots[:, 2], grid.slots[:, 4]
        # flat mode reads every pilot-table residual as 1
        residual = 1.0 if mode == "flat" else table.values[entry]
        ref = residual * blind.corr * blind.pilot
        raw_phase = np.angle(grid.payload * np.conj(ref))
        # no usable reference: an unmeasured entry or a sub-floor pilot
        slots = slots.copy()
        slots[~table.measured[entry] | ~blind.pilot_ok, 5] = 1

    size = 1 << order_bits
    sym = np.mod(np.rint(raw_phase * size / (2 * np.pi)), size).astype(
        np.int64)
    residual = np.mod(raw_phase - 2 * np.pi * sym / size + np.pi,
                      2 * np.pi) - np.pi
    return DemodReport(order_bits, sync, slots, raw_phase, sym, residual,
                       fhcs_rows, int(slots[:, 5].sum()), n_erased_hops)


# ---------------------------------------------------------------------------
# Scoring against ground truth
# ---------------------------------------------------------------------------

def rate(errors: float, n: int) -> float:
    """``errors / n``, NaN when nothing was counted (``n == 0``): an empty
    count measured no rate, so it must not read as a perfect one."""
    return errors / n if n else float("nan")


@dataclass(frozen=True)
class ErrorCounts:
    """Bit/symbol error tallies; erased symbols count half their bits wrong.
    A rate over an empty count is NaN (:func:`rate`)."""

    psk_bits: int = 0
    psk_bit_errors: float = 0.0
    psk_symbols: int = 0
    psk_symbol_errors: float = 0.0
    fhcs_bits: int = 0
    fhcs_bit_errors: float = 0.0
    fhcs_codewords: int = 0

    @property
    def psk_ber(self) -> float:
        return rate(self.psk_bit_errors, self.psk_bits)

    @property
    def psk_ser(self) -> float:
        return rate(self.psk_symbol_errors, self.psk_symbols)

    @property
    def fhcs_ber(self) -> float:
        return rate(self.fhcs_bit_errors, self.fhcs_bits)

    def merge(self, other: "ErrorCounts") -> "ErrorCounts":
        return ErrorCounts(*(getattr(self, f.name) + getattr(other, f.name)
                             for f in fields(self)))


def score_report(report: DemodReport, plan: HopPlan, psk: PskGrid,
                 cfg: RadarConfig) -> ErrorCounts:
    """Compare a demodulation report against the transmitted ground truth."""
    J = report.order_bits
    truth_sym = psk.symbol_index[~plan.pinned]
    if truth_sym.size != report.psk_symbol.size:
        raise ValueError("slot count mismatch between report and truth")
    xor = (gray_encode(truth_sym)
           ^ gray_encode(report.psk_symbol)).astype(np.uint64)
    erased = report.psk_erased
    diff = np.bitwise_count(xor).astype(float)
    diff[erased] = J / 2.0

    est = report.fhcs_rows
    prt_t, hop_t, bits_t, cw_t = payload_codewords(plan, cfg)
    if not (np.array_equal(est[:, 0], prt_t)
            and np.array_equal(est[:, 1], hop_t)
            and np.array_equal(est[:, 2], bits_t)):
        raise ValueError("FHCS row layout mismatch against truth")
    cw_e = est[:, 3]
    bad = cw_e < 0
    bit_err = np.bitwise_count(
        (np.maximum(cw_e, 0) ^ cw_t).astype(np.uint64)).astype(float)
    bit_err[bad] = bits_t[bad] / 2.0
    return ErrorCounts(
        psk_bits=truth_sym.size * J,
        psk_bit_errors=float(diff.sum()),
        psk_symbols=truth_sym.size,
        psk_symbol_errors=float(np.where(
            erased, 1.0, (truth_sym != report.psk_symbol)).sum()),
        fhcs_bits=int(bits_t.sum()),
        fhcs_bit_errors=float(bit_err.sum()),
        fhcs_codewords=int(est.shape[0]))
