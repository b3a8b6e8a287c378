"""Communication receiver: joint hardware-error estimation and demodulation.

Processing of a CPI-aligned single-channel receive stream:

1. Per-hop DFTs; peaks are read at the known sub-band bins.
2. Zero-frequency pilots (hop m, antenna m) of consecutive PRTs give the
   CFO via their pairwise phase ratio; clock stability and the sampling-time
   offset follow from the CFO and the carrier/sampling frequencies.
3. The cycled pilot (hop m+1) and the zero pilot of the same PRT give one
   pilot ratio per PRT; over a group of K consecutive PRTs these fill a
   per-antenna table indexed by sub-band offset, jointly capturing the
   frequency-dependent front-end gain and the initial-timing phase.
4. Payload peaks are mapped back to FHCS codewords (pinned antennas by
   known position, the rest by ascending frequency), and PSK phases are
   recovered by dividing each payload peak by its same-PRT zero pilot, the
   matching pilot-table entry, and a correction factor that advances the
   table entry's timing/CFO phases to the payload slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError, RadarConfig
from .iqfile import IqFrame, write_csv
from .impairments import ImpairmentSpec, expected_hop_peak, sto_from_rho
from .waveform import (HopGroup, HopPlan, PskGrid, _subbands_to_positions,
                       gray_encode, hop_groups, payload_codewords,
                       rank_subsets)

PEAK_FLOOR_FACTOR = 3.0  # peak must exceed this multiple of the median bin


def _batch_spectra(frame: IqFrame, cfg: RadarConfig):
    """(n_prt, H, N_h) hop DFTs and (n_prt, H, K) sub-band coefficients."""
    n_hop = cfg.samples_per_hop
    active = frame.prt_view()[0, :, :cfg.hops_per_pulse * n_hop]
    hops = active.reshape(frame.n_prt, cfg.hops_per_pulse, n_hop)
    spectra = np.fft.fft(hops, axis=-1)
    bins = cfg.subband_bin(np.arange(cfg.n_subbands))
    return spectra, spectra[..., bins]


def assign_peaks(sub_vals: np.ndarray, median_mag: np.ndarray,
                 groups: list[HopGroup], cfg: RadarConfig):
    """Map spectral peaks to antennas for every hop of a batch.

    ``sub_vals``: (n_prt, H, K) sub-band coefficients; ``median_mag``:
    (n_prt, H) median DFT magnitude per hop; ``groups``: the batch's
    :func:`hop_groups`. Pinned antennas take their known sub-bands; the
    strongest remaining peaks are sorted by frequency and assigned to the
    free antennas in ascending antenna order. Returns
    (subband_det (n_prt, H, M), hop_erased (n_prt, H)) where ``hop_erased``
    flags a hop with any assigned peak below the noise floor.
    """
    n_prt, H, K = sub_vals.shape
    subband_det = np.zeros((n_prt, H, cfg.n_tx), dtype=np.int64)
    hop_erased = np.zeros((n_prt, H), dtype=bool)
    for g in groups:
        mags = np.abs(sub_vals[g.rows, g.hop, :])         # (R, K)
        floor = PEAK_FLOOR_FACTOR * median_mag[g.rows, g.hop]
        erased = np.zeros(g.rows.size, dtype=bool)
        if g.pin_ants:
            for ant, ks in zip(g.pin_ants, np.moveaxis(g.pin_ks, 1, 0)):
                subband_det[g.rows, g.hop, ant] = ks
                erased |= mags[np.arange(g.rows.size), ks] < floor
        if g.free_ants:
            masked = mags.copy()
            if g.pin_ks.shape[1]:
                masked[np.arange(g.rows.size)[:, None], g.pin_ks] = -1.0
            F = len(g.free_ants)
            top = np.argpartition(masked, K - F, axis=1)[:, K - F:]
            ks_det = np.sort(top, axis=1)                 # ascending freq
            subband_det[g.rows[:, None], g.hop,
                        np.array(g.free_ants)] = ks_det
            erased |= (mags[np.arange(g.rows.size)[:, None], ks_det]
                       < floor[:, None]).any(axis=1)
        hop_erased[g.rows, g.hop] = erased
    return subband_det, hop_erased


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


def correction_factor(i1, h1, i2, h2, k, sync: SyncEstimate,
                      cfg: RadarConfig):
    """Phase progression between a pilot-table entry at (i1, h1) and a
    payload slot at (i2, h2) on sub-band k.

    Composes the sampling-clock drift of the tone phase across the
    separating samples with the CFO advance across the separating hops, so
    that (payload ratio) / (table entry * correction) isolates the PSK phase.
    """
    i1, h1 = np.asarray(i1), np.asarray(h1)
    i2, h2 = np.asarray(i2), np.asarray(h2)
    omega = 2 * np.pi * cfg.subband_frequency(k)
    n_elapsed = ((i2 - i1) * cfg.samples_per_prt
                 + (h2 - h1) * cfg.samples_per_hop)
    hop_term = (h2 - h1) * (cfg.hop_duration
                            + cfg.samples_per_hop * sync.sample_time_offset)
    out = np.exp(1j * (omega * n_elapsed * sync.sample_time_offset
                       + sync.cfo * hop_term))
    return out if out.ndim else complex(out)


# ---------------------------------------------------------------------------
# Pilot-ratio table
# ---------------------------------------------------------------------------

@dataclass
class PilotRatioTable:
    """Per-(group, antenna, sub-band offset) complex pilot ratios.

    Group g covers batch rows g*K .. g*K+K-1. ``source_prt`` records the
    PRT each entry was measured in (the i1 the correction factor must
    reference); ``measured`` distinguishes measured entries from the
    analytic zero-offset entry; missing entries have source_prt = -1.
    """

    values: np.ndarray       # (G, M, K) complex
    source_prt: np.ndarray   # (G, M, K) int
    measured: np.ndarray     # (G, M, K) bool


def build_pilot_ratios(subband_values: np.ndarray, prt_indices: np.ndarray,
                       sync: SyncEstimate, cfg: RadarConfig,
                       valid: np.ndarray | None = None) -> PilotRatioTable:
    """Fill the pilot tables of every group of K consecutive rows.

    ``subband_values``: (n_prt, H, K) hop-DFT coefficients at sub-band bins;
    ``prt_indices``: absolute PRT index per row (the pilot offset cycles
    with it); ``valid``: (n_prt, M) rows and antennas whose pilots may be
    used. The ratio of the cycled pilot (hop m+1) to the zero pilot (hop m)
    is stored at the PRT's offset; a zero pilot of magnitude zero gives no
    entry, and where rows of a group repeat an offset the last one wins.
    The zero-offset entry carries no information (both pilots would sit on
    the same sub-band, so the cycled one is not transmitted) and is
    synthesized from the sync estimates. Entries a group lacks are carried
    over from the previous group.
    """
    M, K = cfg.n_tx, cfg.n_subbands
    k0 = cfg.zero_subband
    prt_indices = np.asarray(prt_indices)
    G = max(1, -(-prt_indices.size // K))
    kappa = cfg.pilot_offset(prt_indices)
    ok = (np.ones((prt_indices.size, M), dtype=bool) if valid is None
          else np.asarray(valid, dtype=bool))
    den = subband_values[:, :M, k0]                       # zero pilots
    row, ant = np.nonzero(ok & ((kappa == 0)[:, None] | (den != 0)))
    kap = kappa[row]
    hop_term = cfg.hop_duration + cfg.samples_per_hop * sync.sample_time_offset
    ratio = np.full(row.size, np.exp(1j * sync.cfo * hop_term))
    cyc = kap != 0
    ratio[cyc] = (subband_values[row[cyc], ant[cyc] + 1, (k0 + kap[cyc]) % K]
                  / den[row[cyc], ant[cyc]])

    # one entry per (group, antenna, offset): the last row that fills it
    cell = ((row // K) * M + ant) * K + kap
    cell, rev = np.unique(cell[::-1], return_index=True)
    last = row.size - 1 - rev
    values = np.zeros(G * M * K, dtype=complex)
    source = np.full(G * M * K, -1, dtype=np.int64)
    measured = np.zeros(G * M * K, dtype=bool)
    values[cell] = ratio[last]
    source[cell] = prt_indices[row[last]]
    measured[cell] = cyc[last]
    source = source.reshape(G, M, K)

    # holes take the entry of the latest earlier group that has one
    src_group = np.where(source >= 0, np.arange(G)[:, None, None], 0)
    np.maximum.accumulate(src_group, axis=0, out=src_group)
    return PilotRatioTable(
        *(np.take_along_axis(a.reshape(G, M, K), src_group, axis=0)
          for a in (values, source, measured)))


def _averaged_table(table: PilotRatioTable, sync: SyncEstimate,
                    cfg: RadarConfig) -> PilotRatioTable:
    """Average measured ratios of equal offset across groups after removing
    each entry's timing/CFO progression relative to the earliest source PRT
    (the refinement that further averages the correction factor over a
    CPI); every group then uses the average. An entry carried over from an
    earlier group is the same measurement and is counted once.
    """
    G, M, K = table.values.shape
    src, vals = table.source_prt, table.values
    first = np.argmax(src >= 0, axis=0)[None]             # earliest group
    ref = np.take_along_axis(src, first, axis=0)
    ant = np.arange(M)[:, None]
    ks = (cfg.zero_subband + np.arange(K)) % K
    terms = vals * np.conj(correction_factor(ref, ant + 1, src, ant + 1, ks,
                                             sync, cfg))
    use = table.measured.copy()
    use[1:] &= src[1:] != src[:-1]                        # not carried
    n_used = use.sum(axis=0)
    values = np.take_along_axis(vals, first, axis=0)[0]
    np.divide(np.where(use, terms, 0).sum(axis=0), n_used, out=values,
              where=n_used > 0)
    measured = (n_used > 0) | np.take_along_axis(table.measured, first,
                                                 axis=0)[0]
    return PilotRatioTable(*(np.broadcast_to(a, (G, M, K))
                             for a in (values, ref[0], measured)))


def _flat_gain_table(table: PilotRatioTable, sync: SyncEstimate,
                     cfg: RadarConfig) -> PilotRatioTable:
    """Disable the measured pilot-ratio correction: entries keep only the
    analytic timing/CFO progression, as if the front-end gain were flat and
    the initial-timing phase zero."""
    g, m, kappa = np.nonzero(table.measured)
    omegas = 2 * np.pi * cfg.subband_frequency(
        (cfg.zero_subband + kappa) % cfg.n_subbands)
    samples_elapsed = (table.source_prt[g, m, kappa] * cfg.samples_per_prt
                       + (m + 1) * cfg.samples_per_hop)
    hop_term = cfg.hop_duration + cfg.samples_per_hop * sync.sample_time_offset
    values = table.values.copy()
    values[g, m, kappa] = np.exp(
        1j * (omegas * samples_elapsed * sync.sample_time_offset
              + sync.cfo * hop_term))
    return PilotRatioTable(values, table.source_prt, table.measured)


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


def _pilots_above_floor(sub_vals: np.ndarray, median_mag: np.ndarray,
                        prt_abs: np.ndarray, cfg: RadarConfig):
    """(zero_ok, cycled_ok), each (n_prt, M): antenna m's zero pilot (hop m,
    zero sub-band) and cycled pilot (hop m+1, pilot sub-band) stand above
    ``PEAK_FLOOR_FACTOR`` times their hop's median DFT magnitude. A
    zero-offset PRT sends no cycled pilot; its ``cycled_ok`` is True."""
    M = cfg.n_tx
    floor = PEAK_FLOOR_FACTOR * median_mag
    zero_ok = np.abs(sub_vals[:, :M, cfg.zero_subband]) >= floor[:, :M]
    rows = np.arange(prt_abs.size)[:, None]
    cycled = np.abs(sub_vals[rows, np.arange(1, M + 1),
                             cfg.pilot_subband(prt_abs)[:, None]])
    cycled_ok = ((cfg.pilot_offset(prt_abs) == 0)[:, None]
                 | (cycled >= floor[:, 1:M + 1]))
    return zero_ok, cycled_ok


def _blind_sync(sub_vals: np.ndarray, zero_ok: np.ndarray,
                cfg: RadarConfig) -> SyncEstimate | None:
    """CFO and clock estimates from the zero pilots (hop m, antenna m) that
    stand above the noise floor; None when no pair of consecutive PRTs has
    such pilots."""
    M = cfg.n_tx
    try:
        cfo_hat, raw = estimate_cfo(sub_vals[:, :M, cfg.zero_subband], cfg,
                                    zero_ok)
    except ValueError:
        return None
    rho_hat, dts_hat = estimate_clock(cfo_hat, cfg)
    return SyncEstimate(cfo_hat, rho_hat, dts_hat, raw)


def _payload_slots(groups: list[HopGroup], subband_det: np.ndarray,
                   hop_erased: np.ndarray, prt_abs: np.ndarray,
                   cfg: RadarConfig):
    """(slots, fhcs_rows) of a batch in (PRT, hop, antenna) order, with the
    columns of :class:`DemodReport`."""
    slot_parts = [np.zeros((0, 6), dtype=np.int64)]
    fhcs_parts = [np.zeros((0, 4), dtype=np.int64)]
    for g in groups:
        if not g.free_ants:
            continue
        F = len(g.free_ants)
        ks = subband_det[g.rows[:, None], g.hop, np.array(g.free_ants)]
        erased = hop_erased[g.rows, g.hop]
        if g.bits:
            pos = _subbands_to_positions(ks, g.pin_ks)
            cw = rank_subsets(pos, g.pool)
            cw = np.where(erased | (cw >= (1 << g.bits)), -1, cw)
            fhcs_parts.append(np.stack(
                [prt_abs[g.rows], np.full(g.rows.size, g.hop),
                 np.full(g.rows.size, g.bits), cw], axis=1))
        block = np.empty((g.rows.size * F, 6), dtype=np.int64)
        block[:, 0] = np.repeat(prt_abs[g.rows], F)
        block[:, 1] = g.hop
        block[:, 2] = np.tile(np.array(g.free_ants), g.rows.size)
        block[:, 3] = ks.reshape(-1)
        block[:, 4] = cfg.subband_offset(block[:, 3])
        block[:, 5] = np.repeat(erased.astype(np.int64), F)
        slot_parts.append(block)
    slots = np.concatenate(slot_parts)
    fhcs = np.concatenate(fhcs_parts)
    return (slots[np.lexsort((slots[:, 2], slots[:, 1], slots[:, 0]))],
            fhcs[np.lexsort((fhcs[:, 1], fhcs[:, 0]))])


def _pilot_phases(slots: np.ndarray, sub_vals: np.ndarray,
                  table: PilotRatioTable, sync: SyncEstimate,
                  first_prt: int, cfg: RadarConfig):
    """Blind PSK phase of every slot: its peak divided by the same-PRT zero
    pilot, the matching pilot-table entry and the correction factor that
    advances the entry to the slot. Returns (phase, missing) where
    ``missing`` flags slots whose table entry was never measured."""
    i, h, m, k, kappa = (slots[:, c] for c in range(5))
    row = i - first_prt
    group = row // cfg.n_subbands
    d_vals = table.values[group, m, kappa]
    d_src = table.source_prt[group, m, kappa]
    missing = d_src < 0
    d_vals[missing] = 1.0
    d_src[missing] = i[missing]
    corr = correction_factor(d_src, m + 1, i, h, k, sync, cfg)
    pilot = sub_vals[row, m, cfg.zero_subband]
    phase = np.angle(sub_vals[row, h, k] * np.conj(d_vals * corr * pilot))
    return phase, missing


def demodulate(frame: IqFrame, cfg: RadarConfig, order_bits: int,
               mode: str = "estimated", spec: ImpairmentSpec | None = None,
               first_prt: int = 0) -> DemodReport:
    """Recover FHCS and PSK payloads from a receive stream.

    The frame must be sampled as ``cfg`` says (sample rate and samples per
    PRT); otherwise :class:`ConfigError` is raised.

    mode:
      "estimated"  full blind pipeline (pilot tables per group of K PRTs);
      "averaged"   estimated + pilot ratios averaged across groups;
      "flat"       estimated, but measured pilot ratios are replaced by
                   their analytic clock progression - i.e. the per-sub-band
                   gain/timing correction is disabled (comparison baseline);
      "known"      corrections from the true ``spec`` (lower bound).
    """
    if mode not in ("estimated", "averaged", "flat", "known"):
        raise ValueError(f"unknown demodulation mode {mode!r}")
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
    groups = hop_groups(cfg, prt_abs)
    median_mag = np.median(np.abs(spectra), axis=-1)
    subband_det, hop_erased = assign_peaks(sub_vals, median_mag, groups, cfg)
    if mode == "known":
        sync = SyncEstimate.from_spec(spec, cfg)
    else:
        zero_ok, cycled_ok = _pilots_above_floor(sub_vals, median_mag,
                                                 prt_abs, cfg)
        sync = _blind_sync(sub_vals, zero_ok, cfg)
        if sync is None:                    # nothing to correct with
            hop_erased[:] = True
    slots, fhcs_rows = _payload_slots(groups, subband_det, hop_erased,
                                      prt_abs, cfg)

    if mode == "known":
        i, h, m, k = (slots[:, c] for c in range(4))
        ref = expected_hop_peak(i, h, m, k, 0.0, spec, cfg)
        raw_phase = np.angle(sub_vals[i - first_prt, h, k] * np.conj(ref))
    elif sync is None:
        raw_phase = np.zeros(len(slots))
    else:
        table = build_pilot_ratios(sub_vals, prt_abs, sync, cfg,
                                   zero_ok & cycled_ok)
        if mode == "averaged":
            table = _averaged_table(table, sync, cfg)
        elif mode == "flat":
            table = _flat_gain_table(table, sync, cfg)
        raw_phase, missing = _pilot_phases(slots, sub_vals, table, sync,
                                           first_prt, cfg)
        slots[missing, 5] = 1

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
        return ErrorCounts(*(getattr(self, f) + getattr(other, f)
                             for f in ("psk_bits", "psk_bit_errors",
                                       "psk_symbols", "psk_symbol_errors",
                                       "fhcs_bits", "fhcs_bit_errors",
                                       "fhcs_codewords",
                                       "fhcs_codeword_errors")))


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
