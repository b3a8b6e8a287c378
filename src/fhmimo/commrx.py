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

from dataclasses import dataclass, field, fields

import numpy as np

from .config import ConfigError, RadarConfig
from .iqfile import IqFrame, write_csv
from .impairments import ImpairmentSpec, expected_hop_peak, sto_from_rho
from .waveform import (HopPlan, PskGrid, gray_encode, hop_groups,
                       payload_codewords)

PEAK_FLOOR_FACTOR = 3.0  # peak must exceed this multiple of the median bin


def _batch_spectra(frame: IqFrame, cfg: RadarConfig):
    """(n_prt, H, N_h) hop DFTs and (n_prt, H, K) sub-band coefficients."""
    n_hop = cfg.samples_per_hop
    active = frame.prt_view()[0, :, :cfg.hops_per_pulse * n_hop]
    hops = active.reshape(frame.n_prt, cfg.hops_per_pulse, n_hop)
    spectra = np.fft.fft(hops, axis=-1)
    bins = cfg.subband_bin(np.arange(cfg.n_subbands))
    return spectra, spectra[..., bins]


def assign_peaks(sub_vals: np.ndarray, cfg: RadarConfig,
                 first_prt: int = 0) -> HopPlan:
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
        for ant, ks in zip(g.pin_ants, np.moveaxis(g.pin_ks, 1, 0)):
            subband[g.rows, g.hop, ant] = ks
            pinned[g.rows, g.hop, ant] = True
        if g.free_ants:
            masked = np.abs(sub_vals[g.rows, g.hop, :])   # (R, K)
            if g.pin_ks.shape[1]:
                masked[np.arange(g.rows.size)[:, None], g.pin_ks] = -1.0
            F = len(g.free_ants)
            top = np.argpartition(masked, K - F, axis=1)[:, K - F:]
            subband[g.rows[:, None], g.hop,
                    np.array(g.free_ants)] = np.sort(top, axis=1)
    return HopPlan(cfg, subband, pinned, first_prt)


def slot_peaks(sub_vals: np.ndarray, median_mag: np.ndarray, det: HopPlan):
    """The slot grid of a batch: (peaks, peak_ok), each (n_prt, H, M).

    ``peaks`` holds the coefficient of every (PRT, hop, antenna) slot at
    its detected sub-band; ``peak_ok`` says whether that peak clears
    ``PEAK_FLOOR_FACTOR`` times its hop's median DFT magnitude
    ``median_mag`` (n_prt, H).
    """
    peaks = np.take_along_axis(sub_vals, det.subband, axis=2)
    floor = PEAK_FLOOR_FACTOR * median_mag
    return peaks, np.abs(peaks) >= floor[..., None]


def _lane_median(a: np.ndarray) -> np.ndarray:
    """``np.median(a, axis=-1)`` of magnitudes bit for bit, from one SIMD
    sort, not a selection per lane; NaN sorts last, so a NaN lane is NaN."""
    s = np.sort(a, axis=-1)
    n = s.shape[-1]
    lo, hi = s[..., (n - 1) // 2], s[..., n // 2]
    return np.where(np.isnan(s[..., -1]), s[..., -1],
                    hi if n % 2 else (lo + hi) / 2)


# ---------------------------------------------------------------------------
# Synchronization estimators
# ---------------------------------------------------------------------------

@dataclass
class SyncEstimate:
    """CFO/clock estimates and per-pair diagnostics."""

    cfo: float                    # rad/s
    rho: float                    # clock stability
    sample_time_offset: float     # s
    raw_pair_cfo: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @classmethod
    def from_spec(cls, spec: ImpairmentSpec, cfg: RadarConfig) -> "SyncEstimate":
        """Ground-truth sync (known-channel processing)."""
        return cls(spec.cfo, spec.cfo / (2 * np.pi * cfg.carrier_freq),
                   spec.sample_time_offset)


def estimate_cfo(pilot_zero: np.ndarray, cfg: RadarConfig,
                 valid: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """CFO from zero-frequency pilots of consecutive PRTs.

    ``pilot_zero``: (n_prt, M) complex pilot coefficients (hop m, antenna m).
    Returns (cfo_hat, per-pair raw estimates in rad/s). The final value is
    the circular mean of the pairwise phases over all PRT pairs and antennas.
    """
    n_prt = pilot_zero.shape[0]
    if n_prt < 2:
        raise ValueError("need at least two PRTs with pilots")
    ratios = pilot_zero[1:] * np.conj(pilot_zero[:-1])    # (n_prt-1, M)
    if valid is not None:
        ratios = np.where(valid[1:] & valid[:-1], ratios, 0.0)
    mags = np.abs(ratios)
    units = np.divide(ratios, mags, out=np.zeros_like(ratios),
                      where=mags > 0)
    pair_vec = units.sum(axis=1)                          # combine antennas
    good = np.abs(pair_vec) > 0
    if not np.any(good):
        raise ValueError("no valid pilot pairs for CFO estimation")
    raw = np.angle(pair_vec[good]) / cfg.prt_duration
    mean_vec = (pair_vec[good] / np.abs(pair_vec[good])).mean()
    cfo_hat = float(np.angle(mean_vec) / cfg.prt_duration)
    return cfo_hat, raw


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
    i, h, m = np.asarray(i), np.asarray(h), np.asarray(m)
    omega = 2 * np.pi * cfg.subband_frequency(k)
    n_elapsed = i * cfg.samples_per_prt + h * cfg.samples_per_hop
    hop_term = (h - m) * (cfg.hop_duration
                          + cfg.samples_per_hop * sync.sample_time_offset)
    out = np.exp(1j * (omega * n_elapsed * sync.sample_time_offset
                       + sync.cfo * hop_term))
    return out if out.ndim else complex(out)


# ---------------------------------------------------------------------------
# Pilot-ratio table
# ---------------------------------------------------------------------------

@dataclass
class PilotRatioTable:
    """Per-(group, antenna, sub-band offset) pilot-ratio residuals.

    Group g covers batch rows g*K .. g*K+K-1. Each entry is a measured
    pilot ratio with its correction factor removed, so it holds only what
    the sync estimate cannot predict: the front-end gain ratio and the
    initial-timing phase. The zero-offset entry is exactly 1.
    ``source_prt`` records the PRT each entry was measured in; missing
    entries have source_prt = -1 and value 1.
    """

    values: np.ndarray       # (G, M, K) complex
    source_prt: np.ndarray   # (G, M, K) int


def build_pilot_ratios(zero: np.ndarray, cycled: np.ndarray,
                       prt_indices: np.ndarray, sync: SyncEstimate,
                       cfg: RadarConfig,
                       valid: np.ndarray | None = None) -> PilotRatioTable:
    """Fill the pilot tables of every group of K consecutive rows.

    ``zero``, ``cycled``: (n_prt, M) peaks of antenna m's zero pilot (hop
    m) and cycled pilot (hop m+1); ``prt_indices``: absolute PRT index per
    row (the pilot offset cycles with it); ``valid``: (n_prt, M) rows and
    antennas whose pilots may be used. The ratio of the cycled pilot to the
    zero pilot, times the conjugate of its correction factor, is stored at
    the PRT's offset; a zero pilot of magnitude zero gives no entry, and
    where rows of a group repeat an offset the last one wins. The
    zero-offset entry carries no information (both pilots would sit on the
    same sub-band, so the cycled one is not transmitted and ``cycled`` is
    not read) and is 1. Entries a group lacks are carried over from the
    previous group.
    """
    M, K = cfg.n_tx, cfg.n_subbands
    prt_indices = np.asarray(prt_indices)
    G = max(1, -(-prt_indices.size // K))
    kappa = cfg.pilot_offset(prt_indices)
    ok = (np.ones((prt_indices.size, M), dtype=bool) if valid is None
          else np.asarray(valid, dtype=bool))
    row, ant = np.nonzero(ok & ((kappa == 0)[:, None] | (zero != 0)))
    kap = kappa[row]
    cyc = kap != 0
    r, m = row[cyc], ant[cyc]
    ratio = np.ones(row.size, dtype=complex)
    ratio[cyc] = cycled[r, m] / zero[r, m] * np.conj(correction_factor(
        prt_indices[r], m + 1, m, cfg.pilot_subband(prt_indices[r]), sync,
        cfg))

    # one entry per (group, antenna, offset): the last row that fills it
    cell = ((row // K) * M + ant) * K + kap
    cell, rev = np.unique(cell[::-1], return_index=True)
    last = row.size - 1 - rev
    values = np.ones(G * M * K, dtype=complex)
    source = np.full(G * M * K, -1, dtype=np.int64)
    values[cell] = ratio[last]
    source[cell] = prt_indices[row[last]]
    source = source.reshape(G, M, K)

    # holes take the entry of the latest earlier group that has one
    src_group = np.where(source >= 0, np.arange(G)[:, None, None], 0)
    np.maximum.accumulate(src_group, axis=0, out=src_group)
    return PilotRatioTable(
        *(np.take_along_axis(a.reshape(G, M, K), src_group, axis=0)
          for a in (values, source)))


def _averaged_table(table: PilotRatioTable) -> PilotRatioTable:
    """Every group uses the mean of its offset's entries over the groups
    (the refinement that averages the pilot ratios over a CPI). An entry
    carried over from an earlier group is the same measurement and is
    counted once; the source PRT kept is the earliest one.
    """
    src = table.source_prt
    use = src >= 0
    use[1:] &= src[1:] != src[:-1]                        # not carried
    n_used = use.sum(axis=0)
    values = np.ones(n_used.shape, dtype=complex)
    np.divide(np.where(use, table.values, 0).sum(axis=0), n_used,
              out=values, where=n_used > 0)
    first = np.take_along_axis(src, np.argmax(use, axis=0)[None], axis=0)
    return PilotRatioTable(*(np.broadcast_to(a, src.shape)
                             for a in (values, first[0])))


# ---------------------------------------------------------------------------
# Demodulation
# ---------------------------------------------------------------------------

@dataclass
class DemodReport:
    """Recovered payload with per-symbol diagnostics.

    ``slots`` columns: prt, hop, antenna, detected sub-band, offset, erased.
    ``fhcs_rows`` columns: prt, hop, n_bits, codeword, with codeword -1
    when erased or outside the usable range. ``sync`` is None when the
    blind receiver found no pair of consecutive PRTs with pilots above the
    noise floor; every hop, slot and codeword is then erased.
    """

    order_bits: int
    sync: SyncEstimate | None
    slots: np.ndarray            # (n_slots, 6) int64
    psk_phase: np.ndarray        # raw corrected phase per slot
    psk_symbol: np.ndarray       # snapped constellation position
    psk_residual: np.ndarray     # phase residual after snapping
    fhcs_rows: np.ndarray        # (n_codewords, 4) int64
    n_erased_slots: int = 0
    n_erased_hops: int = 0

    @property
    def psk_erased(self) -> np.ndarray:
        return self.slots[:, 5].astype(bool)

    def to_csv(self, path, cfg_hash=None) -> None:
        rows = [(int(r[0]), int(r[1]), int(r[2]), int(r[3]), int(r[4]),
                 float(p), float(res), int(r[5]))
                for r, p, res in zip(self.slots, self.psk_phase,
                                     self.psk_residual)]
        write_csv(path, ["prt", "hop", "antenna", "subband", "offset",
                         "phase_est", "residual", "erased"], rows, cfg_hash)

    def summary(self) -> dict:
        return {
            "cfo_hat": self.sync.cfo if self.sync else 0.0,
            "rho_hat": self.sync.rho if self.sync else 0.0,
            "sample_time_offset_hat":
                self.sync.sample_time_offset if self.sync else 0.0,
            "n_psk_symbols": int(self.slots.shape[0]),
            "n_fhcs_codewords": len(self.fhcs_rows),
            "n_erased_slots": int(self.n_erased_slots),
            "n_erased_hops": int(self.n_erased_hops),
        }


def _pilot_phases(slots: np.ndarray, peak: np.ndarray, pilot: np.ndarray,
                  table: PilotRatioTable, sync: SyncEstimate,
                  first_prt: int, cfg: RadarConfig):
    """Blind PSK phase of every slot: its ``peak`` divided by its same-PRT
    zero ``pilot``, the matching pilot-table residual and the slot's
    correction factor. Returns (phase, missing) where ``missing`` flags
    slots whose table entry was never measured."""
    i, h, m, k, kappa = slots[:, :5].T
    group = (i - first_prt) // cfg.n_subbands
    ref = (table.values[group, m, kappa]
           * correction_factor(i, h, m, k, sync, cfg) * pilot)
    return np.angle(peak * np.conj(ref)), table.source_prt[group, m, kappa] < 0


def demodulate(frame: IqFrame, cfg: RadarConfig, order_bits: int,
               mode: str = "estimated", spec: ImpairmentSpec | None = None,
               first_prt: int = 0) -> DemodReport:
    """Recover FHCS and PSK payloads from a receive stream.

    The frame must be sampled as ``cfg`` says (sample rate and samples per
    PRT); otherwise :class:`ConfigError` is raised.

    mode:
      "estimated"  full blind pipeline (pilot tables per group of K PRTs);
      "averaged"   estimated + pilot ratios averaged across groups;
      "flat"       estimated, but every pilot-table residual is 1 - i.e.
                   the per-sub-band gain/timing correction is disabled
                   (comparison baseline);
      "known"      corrections from the true ``spec`` (lower bound).
    """
    if mode not in ("estimated", "averaged", "flat", "known"):
        raise ConfigError(f"unknown demodulation mode {mode!r}")
    if not 0 <= order_bits <= 63:      # symbol arithmetic is int64
        raise ConfigError("order_bits must be in [0, 63]")
    if mode == "known" and spec is None:
        raise ValueError("known-channel mode needs the impairment spec")
    if (frame.sample_rate != cfg.sample_rate
            or frame.samples_per_prt != cfg.samples_per_prt):
        raise ConfigError(
            f"frame of {frame.samples_per_prt}-sample PRTs at "
            f"{frame.sample_rate:g} Hz does not match the radar config "
            f"({cfg.samples_per_prt} at {cfg.sample_rate:g} Hz)")

    prt_abs = first_prt + np.arange(frame.n_prt)
    spectra, sub_vals = _batch_spectra(frame, cfg)
    det = assign_peaks(sub_vals, cfg, first_prt)
    peaks, peak_ok = slot_peaks(sub_vals, _lane_median(np.abs(spectra)), det)
    hop_erased = ~peak_ok.all(axis=-1)
    ants = np.arange(cfg.n_tx)
    zero, zero_ok = peaks[:, ants, ants], peak_ok[:, ants, ants]
    if mode == "known":
        sync = SyncEstimate.from_spec(spec, cfg)
    else:
        try:
            cfo_hat, raw = estimate_cfo(zero, cfg, zero_ok)
        except ValueError:                  # no pilot pair: nothing to
            sync = None                     # correct with
            hop_erased[:] = True
        else:
            sync = SyncEstimate(cfo_hat, *estimate_clock(cfo_hat, cfg), raw)

    row, h, m = np.nonzero(~det.pinned)     # (PRT, hop, antenna) order
    k, payload = det.subband[row, h, m], peaks[row, h, m]
    slots = np.stack([prt_abs[row], h, m, k, cfg.subband_offset(k),
                      hop_erased[row, h]], axis=1)
    prt, hop, bits, cw = payload_codewords(det)
    cw[hop_erased[prt - first_prt, hop] | (cw >= (1 << bits))] = -1
    fhcs_rows = np.stack([prt, hop, bits, cw], axis=1)

    if mode == "known":
        ref = expected_hop_peak(*slots[:, :4].T, 0.0, spec, cfg)
        raw_phase = np.angle(payload * np.conj(ref))
    elif sync is None:
        raw_phase = np.zeros(len(slots))
    else:
        cycled = peaks[:, ants + 1, ants]
        cycled_ok = (peak_ok[:, ants + 1, ants]
                     | (cfg.pilot_offset(prt_abs) == 0)[:, None])
        table = build_pilot_ratios(zero, cycled, prt_abs, sync, cfg,
                                   zero_ok & cycled_ok)
        if mode == "averaged":
            table = _averaged_table(table)
        elif mode == "flat":
            table.values[:] = 1.0
        raw_phase, missing = _pilot_phases(slots, payload, zero[row, m],
                                           table, sync, first_prt, cfg)
        slots[missing | ~zero_ok[row, m], 5] = 1   # no usable reference

    size = 1 << order_bits
    sym = np.mod(np.rint(raw_phase * size / (2 * np.pi)), size).astype(
        np.int64)
    residual = np.mod(raw_phase - 2 * np.pi * sym / size + np.pi,
                      2 * np.pi) - np.pi
    return DemodReport(order_bits, sync, slots, raw_phase, sym, residual,
                       fhcs_rows, int(slots[:, 5].sum()),
                       int(hop_erased.sum()))


# ---------------------------------------------------------------------------
# Scoring against ground truth
# ---------------------------------------------------------------------------

@dataclass
class ErrorCounts:
    """Bit/symbol error tallies; erased symbols count half their bits wrong."""

    psk_bits: int = 0
    psk_bit_errors: float = 0.0
    psk_symbols: int = 0
    psk_symbol_errors: float = 0.0
    fhcs_bits: int = 0
    fhcs_bit_errors: float = 0.0
    fhcs_codewords: int = 0
    fhcs_codeword_errors: float = 0.0

    @property
    def psk_ber(self) -> float:
        return self.psk_bit_errors / self.psk_bits if self.psk_bits else 0.0

    @property
    def psk_ser(self) -> float:
        return (self.psk_symbol_errors / self.psk_symbols
                if self.psk_symbols else 0.0)

    @property
    def fhcs_ber(self) -> float:
        return (self.fhcs_bit_errors / self.fhcs_bits
                if self.fhcs_bits else 0.0)

    def merge(self, other: "ErrorCounts") -> "ErrorCounts":
        return ErrorCounts(*(getattr(self, f.name) + getattr(other, f.name)
                             for f in fields(self)))


def score_report(report: DemodReport, plan: HopPlan, psk: PskGrid | None,
                 cfg: RadarConfig) -> ErrorCounts:
    """Compare a demodulation report against the transmitted ground truth."""
    counts = ErrorCounts()
    J = report.order_bits

    if psk is not None:
        truth_sym = psk.symbol_index[~plan.pinned]
        if truth_sym.size != report.psk_symbol.size:
            raise ValueError("slot count mismatch between report and truth")
        xor = (gray_encode(truth_sym)
               ^ gray_encode(report.psk_symbol)).astype(np.uint64)
        erased = report.psk_erased
        diff = np.bitwise_count(xor).astype(float)
        diff[erased] = J / 2.0
        counts.psk_bits = truth_sym.size * J
        counts.psk_bit_errors = float(diff.sum())
        counts.psk_symbols = truth_sym.size
        counts.psk_symbol_errors = float(np.where(
            erased, 1.0, (truth_sym != report.psk_symbol)).sum())

    if len(report.fhcs_rows):
        est = report.fhcs_rows
        prt_t, hop_t, bits_t, cw_t = payload_codewords(plan)
        if not (np.array_equal(est[:, 0], prt_t)
                and np.array_equal(est[:, 1], hop_t)
                and np.array_equal(est[:, 2], bits_t)):
            raise ValueError("FHCS row layout mismatch against truth")
        cw_e = est[:, 3]
        bad = cw_e < 0
        bit_err = np.bitwise_count(
            (np.maximum(cw_e, 0) ^ cw_t).astype(np.uint64)).astype(float)
        bit_err[bad] = bits_t[bad] / 2.0
        counts.fhcs_bits = int(bits_t.sum())
        counts.fhcs_bit_errors = float(bit_err.sum())
        counts.fhcs_codewords = int(est.shape[0])
        counts.fhcs_codeword_errors = float(
            (bad | (cw_e != cw_t)).sum())
    return counts
