"""FH-MIMO transmit waveforms: hopping plans, FHCS/PSK payloads, pilot layout.

Payload embedding follows two mechanisms. Frequency-hopping code selection
(FHCS) picks which M-subset of the K sub-bands a hop transmits; a subset is
addressed by its lexicographic rank, and only the first power-of-two ranks
carry bits. On top of that every non-pilot (hop, antenna) slot is rotated by
a PSK phase.

Two hops per antenna are reserved as pilots: hop h=m puts antenna m on the
zero-frequency sub-band, and hop h=m+1 puts it on a sub-band that cycles
through the band over consecutive PRTs (skipped on PRTs where the cycle
would land on the zero sub-band and collide with the first pilot). Payload
sub-bands within a hop are assigned to the remaining antennas in ascending
frequency order so the receiver can identify antennas from peak order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import ConfigError, RadarConfig, Value, check_order_bits
from .iqfile import IqFrame, write_csv


class PayloadLengthError(ValueError):
    """Payload bitstream exhausted before the requested frame was filled."""


# ---------------------------------------------------------------------------
# Lexicographic combination ranking (vectorized over rows)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _comb_cumsum(n: int, m: int) -> np.ndarray:
    """Table F[r, t] = sum_{x<t} C(n-1-x, r) for r in 0..m-1, t in 0..n.

    Cached, so read-only.
    """
    table = np.zeros((m, n + 1), dtype=np.int64)
    for r in range(m):
        vals = [math.comb(n - 1 - x, r) for x in range(n)]
        table[r, 1:] = np.cumsum(vals)
    table.flags.writeable = False
    return table


def rank_subsets(subsets: np.ndarray, n: int) -> np.ndarray:
    """Lexicographic rank of each row of ``subsets`` among m-subsets of
    range(n). Rows must be strictly increasing."""
    subsets = np.atleast_2d(np.asarray(subsets, dtype=np.int64))
    m = subsets.shape[1]
    table = _comb_cumsum(n, m)
    rank = np.zeros(subsets.shape[0], dtype=np.int64)
    prev = np.full(subsets.shape[0], -1, dtype=np.int64)
    for j in range(m):
        r = m - 1 - j
        rank += table[r][subsets[:, j]] - table[r][prev + 1]
        prev = subsets[:, j]
    return rank


def unrank_subsets(ranks: np.ndarray, n: int, m: int) -> np.ndarray:
    """Inverse of :func:`rank_subsets`: rows of m-subsets of range(n)."""
    ranks = np.asarray(ranks, dtype=np.int64)
    out = np.zeros((ranks.size, m), dtype=np.int64)
    table = _comb_cumsum(n, m)
    rem = ranks.copy()
    prev = np.full(ranks.size, -1, dtype=np.int64)
    for j in range(m):
        csum = table[m - 1 - j]
        base = csum[prev + 1]
        x = np.searchsorted(csum, base + rem, side="right") - 1
        rem -= csum[x] - base
        out[:, j] = x
        prev = x
    return out


def codebook_bits(pool: int, n_pick: int) -> int:
    """FHCS bits of a hop that picks ``n_pick`` of ``pool`` sub-bands: the
    first 2^bits of its subsets in lexicographic order are addressable."""
    if n_pick > pool:
        raise ConfigError("cannot pick more sub-bands than available")
    return math.comb(pool, n_pick).bit_length() - 1


# ---------------------------------------------------------------------------
# Pilot layout
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HopGroup(Value):
    """Rows of a PRT batch that share the pilot structure of one hop."""

    hop: int
    rows: np.ndarray         # indices into the batch
    pin_ants: tuple          # antennas pinned in this hop
    pin_ks: np.ndarray       # (len(rows), len(pin_ants)) pinned sub-bands
    free_ants: tuple
    pool: int                # available sub-bands for the payload
    bits: int                # FHCS bits this hop carries for these rows


def hop_groups(cfg: RadarConfig, prt_abs: np.ndarray) -> list[HopGroup]:
    """Partition (PRT, hop) cells of a batch by shared pilot structure.

    This is the one pilot layout: :func:`plan_hops` places it and the
    receiver reads it back. The cycled pilot's offset and sub-band come
    from ``RadarConfig.pilot_offset`` and ``pilot_subband``.
    """
    prt_abs = np.asarray(prt_abs)
    K, M, H = cfg.n_subbands, cfg.n_tx, cfg.hops_per_pulse
    k0 = cfg.zero_subband
    zero = cfg.pilot_offset(prt_abs) == 0
    pilot_k = cfg.pilot_subband(prt_abs)
    every = np.arange(prt_abs.size)
    out = []
    for h in range(H):
        zero_ant = h if h < M else None        # zero-frequency pilot
        cycled_ant = h - 1 if 1 <= h <= M else None
        if cycled_ant is None:
            parts = [(every, False)]
        else:
            parts = [(every[~zero], False), (every[zero], True)]
        for rows, at_zero in parts:
            if rows.size == 0:
                continue
            pins = []
            if zero_ant is not None:
                pins.append((zero_ant, np.full(rows.size, k0,
                                               dtype=np.int64)))
            if cycled_ant is not None and not at_zero:
                pins.append((cycled_ant, pilot_k[rows]))
            pin_ants = tuple(a for a, _ in pins)
            pin_ks = (np.stack([ks for _, ks in pins], axis=1) if pins
                      else np.zeros((rows.size, 0), dtype=np.int64))
            free = tuple(m for m in range(M) if m not in pin_ants)
            pool = K - len(pins)
            out.append(HopGroup(h, rows, pin_ants, pin_ks, free, pool,
                                codebook_bits(pool, len(free))))
    return out


def _positions_to_subbands(pos: np.ndarray, pin_ks: np.ndarray) -> np.ndarray:
    """Map positions in the available-sub-band list to sub-band indices by
    skipping over the pinned ones."""
    ks = pos
    for pin in np.sort(pin_ks, axis=1).T:
        ks = ks + (ks >= pin[:, None])
    return ks


def _subbands_to_positions(ks: np.ndarray, pin_ks: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_positions_to_subbands`."""
    pos = ks
    for pin in pin_ks.T:
        pos = pos - (pin[:, None] < ks)
    return pos


# ---------------------------------------------------------------------------
# Hop plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HopPlan(Value):
    """Per-(PRT, hop, antenna) sub-band assignment with pilot flags."""

    subband: np.ndarray      # (n_prt, H, M) int
    pinned: np.ndarray       # (n_prt, H, M) bool
    first_prt: int = 0       # absolute index of row 0 (pilot cycle phase)

    @property
    def n_prt(self) -> int:
        return self.subband.shape[0]

    def prt_indices(self) -> np.ndarray:
        return self.first_prt + np.arange(self.n_prt)

    def to_csv(self, path, psk: "PskGrid", cfg_hash: str) -> None:
        """One row per slot in (PRT, hop, antenna) order: its sub-band,
        pilot flag and PSK phase, the phase to 17 significant digits."""
        i, h, m = np.indices(self.subband.shape).reshape(3, -1)
        write_csv(path, ["prt", "hop", "antenna", "subband", "pinned",
                         "phase"],
                  zip((self.first_prt + i).tolist(), h.tolist(), m.tolist(),
                      self.subband.ravel().tolist(),
                      self.pinned.ravel().astype(int).tolist(),
                      (f"{p:.17g}" for p in psk.phases.ravel().tolist())),
                  cfg_hash)


def _bit_layout(cfg: RadarConfig, groups: list[HopGroup], n_prt: int):
    """(n_prt, H) FHCS bit widths; payload bits run in its (i, h) order."""
    widths = np.zeros((n_prt, cfg.hops_per_pulse), dtype=np.int64)
    for g in groups:
        widths[g.rows, g.hop] = g.bits
    return widths


def int_to_bits(values, width: int) -> np.ndarray:
    """MSB-first bit expansion; values shape (...,) -> (..., width)."""
    values = np.asarray(values, dtype=np.int64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    return ((values[..., None] >> shifts) & 1).astype(np.uint8)


def plan_hops(cfg: RadarConfig, fhcs_bits=None, n_prt: int | None = None,
              mode: str = "dfrc", rng=None, first_prt: int = 0) -> HopPlan:
    """Build a hopping plan for ``n_prt`` PRTs.

    mode="dfrc": pilot layout + FHCS payload from ``fhcs_bits`` (random bits
    from ``rng`` if None), most significant bit first per codeword, slots in
    (PRT, hop) order. mode="traditional": per-hop uniform random M-subsets,
    random antenna order, no pilots, no payload.
    """
    K, M, H = cfg.n_subbands, cfg.n_tx, cfg.hops_per_pulse
    if n_prt is None:
        n_prt = cfg.prts_per_cpi
    if n_prt < 1:
        raise ConfigError("n_prt must be >= 1")
    if first_prt < 0:
        raise ConfigError(f"first_prt must be >= 0, got {first_prt}")
    rng = np.random.default_rng(rng)

    if mode == "traditional":
        # uniform M-subset per hop, then a random antenna permutation
        u = rng.random((n_prt, H, K))
        subband = np.argsort(u, axis=-1)[..., :M]
        pinned = np.zeros((n_prt, H, M), dtype=bool)
        return HopPlan(subband, pinned, first_prt)
    if mode != "dfrc":
        raise ValueError(f"unknown plan mode {mode!r}")

    prt_abs = first_prt + np.arange(n_prt)
    groups = hop_groups(cfg, prt_abs)
    widths = _bit_layout(cfg, groups, n_prt).ravel()
    offsets = np.cumsum(widths) - widths        # bits before each (i, h)
    total = int(widths.sum())
    if fhcs_bits is None:
        fhcs_bits = rng.integers(0, 2, size=total, dtype=np.uint8)
    else:
        fhcs_bits = np.asarray(fhcs_bits, dtype=np.uint8).ravel()
        if fhcs_bits.size < total:
            raise PayloadLengthError(
                f"need {total} payload bits, got {fhcs_bits.size}")

    subband = np.zeros((n_prt, H, M), dtype=np.int64)
    pinned = np.zeros((n_prt, H, M), dtype=bool)
    for g in groups:
        subband[g.rows[:, None], g.hop, g.pin_ants] = g.pin_ks
        pinned[g.rows[:, None], g.hop, g.pin_ants] = True
        starts = offsets[g.rows * H + g.hop]
        idx = np.zeros(g.rows.size, dtype=np.int64)
        for b in range(g.bits):
            idx = (idx << 1) | fhcs_bits[starts + b]
        pos = unrank_subsets(idx, g.pool, len(g.free_ants))
        ks = _positions_to_subbands(pos, g.pin_ks)
        subband[g.rows[:, None], g.hop, g.free_ants] = ks
    return HopPlan(subband, pinned, first_prt)


def payload_codewords(plan: HopPlan, cfg: RadarConfig):
    """Ground-truth FHCS codewords of a plan.

    Returns (prt, hop, n_bits, codeword) int64 arrays in (prt, hop) order,
    the order :func:`plan_hops` reads bits in, covering every hop with
    nonzero capacity.
    """
    groups = hop_groups(cfg, plan.prt_indices())
    widths = _bit_layout(cfg, groups, plan.n_prt)
    cw = np.zeros_like(widths)
    for g in groups:
        ks = plan.subband[g.rows[:, None], g.hop, g.free_ants]
        pos = _subbands_to_positions(np.sort(ks, axis=1), g.pin_ks)
        cw[g.rows, g.hop] = rank_subsets(pos, g.pool)
    used = widths > 0
    row, hop = np.nonzero(used)
    return plan.first_prt + row, hop, widths[used], cw[used]


def extract_payload_bits(plan: HopPlan, cfg: RadarConfig) -> np.ndarray:
    """Recover the FHCS payload bits from a plan (round-trip of plan_hops)."""
    _, _, widths, cw = payload_codewords(plan, cfg)
    if not cw.size:
        return np.zeros(0, dtype=np.uint8)
    # MSB-first at the widest width; each codeword keeps its low bits
    top = int(widths.max())
    bits = int_to_bits(cw, top)
    return bits[np.arange(top) >= top - widths[:, None]]


# ---------------------------------------------------------------------------
# PSK payload
# ---------------------------------------------------------------------------

def gray_encode(p):
    """Bits carried by constellation position p (binary-reflected)."""
    p = np.asarray(p)
    return p ^ (p >> 1)


def gray_decode(g):
    """Constellation position for bit pattern g (prefix-XOR fold)."""
    p = np.asarray(g).copy()
    shift = 1
    while (p >> shift).any():
        p = p ^ (p >> shift)
        shift *= 2
    return p


@dataclass(frozen=True, eq=False)
class PskGrid(Value):
    """Per-slot PSK phases; pilots carry phase 0 and symbol index -1."""

    phases: np.ndarray       # (n_prt, H, M) float radians
    symbol_index: np.ndarray  # (n_prt, H, M) int, -1 on pinned slots


def make_psk_grid(cfg: RadarConfig, plan: HopPlan, order_bits: int,
                  rng=None) -> PskGrid:
    """Fill every non-pinned slot with a random PSK symbol.

    ``order_bits`` random bits per slot, drawn in (PRT, hop, antenna)
    order, are Gray-mapped onto the constellation, most significant bit
    first. An ``order_bits`` outside [0, ``MAX_ORDER_BITS``] is a
    :class:`ConfigError` (:func:`config.check_order_bits`).
    """
    check_order_bits(order_bits)
    rng = np.random.default_rng(rng)
    free = ~plan.pinned
    n_slots = int(free.sum())
    bits = rng.integers(0, 2, size=(n_slots, order_bits), dtype=np.uint8)
    weights = 1 << np.arange(order_bits - 1, -1, -1, dtype=np.int64)
    patterns = bits @ weights
    pos = gray_decode(patterns)
    symbol_index = np.full(plan.subband.shape, -1, dtype=np.int64)
    symbol_index[free] = pos
    phases = np.zeros(plan.subband.shape, dtype=float)
    phases[free] = 2 * np.pi * pos / (1 << order_bits)
    return PskGrid(phases, symbol_index)


# ---------------------------------------------------------------------------
# Sample synthesis
# ---------------------------------------------------------------------------

def synthesize(plan: HopPlan, psk: PskGrid, cfg: RadarConfig) -> IqFrame:
    """Per-antenna complex baseband pulses for the plan.

    Each hop is a pure tone of the planned sub-band rotated by the slot's
    PSK phase (0 on every slot of an order-0 ``psk``, the waveform without
    PSK). The frame stores each PRT's ``samples_per_pulse`` pulse samples;
    the silence after the last hop is not stored (:class:`IqFrame`).

    The tones come from a table with one ``exp`` per distinct (sub-band,
    PSK phase) pair, each entry computed by the same float operations as a
    per-slot ``exp(1j * (2*pi*f*t + phase))``, so the samples are those of
    the per-slot form bit for bit.
    """
    if psk.phases.shape != plan.subband.shape:
        raise ValueError("psk grid does not match plan dimensions")
    K = cfg.n_subbands
    t = np.arange(cfg.samples_per_hop) / cfg.sample_rate
    phases, phase_idx = np.unique(psk.phases, return_inverse=True)
    codes = phase_idx.reshape(plan.subband.shape) * K + plan.subband
    pairs, slot = np.unique(codes, return_inverse=True)
    ph = (2 * np.pi * cfg.subband_frequency(pairs % K))[:, None] * t
    table = np.exp(1j * (ph + phases[pairs // K][:, None]))  # (n_pairs, n_hop)
    # gathered in (M, n_prt, H) order, so the pulse axis is reshaped in place
    pulses = table[np.moveaxis(slot.reshape(codes.shape), 2, 0)]
    pulses.shape = (cfg.n_tx, plan.n_prt, -1)
    return IqFrame(pulses, cfg.sample_rate, plan.first_prt,
                   cfg.samples_per_prt)
