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

from .config import ConfigError, RadarConfig
from .iqfile import IqFrame


class PayloadLengthError(ValueError):
    """Payload bitstream exhausted before the requested frame was filled."""


# ---------------------------------------------------------------------------
# Lexicographic combination ranking (vectorized over rows)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _comb_cumsum(n: int, m: int) -> np.ndarray:
    """Table F[r, t] = sum_{x<t} C(n-1-x, r) for r in 0..m-1, t in 0..n.

    Cached; callers must not mutate the returned array.
    """
    table = np.zeros((m, n + 1), dtype=np.int64)
    for r in range(m):
        vals = [math.comb(n - 1 - x, r) for x in range(n)]
        table[r, 1:] = np.cumsum(vals)
    return table


def rank_subsets(subsets: np.ndarray, n: int) -> np.ndarray:
    """Lexicographic rank of each row of ``subsets`` among m-subsets of
    range(n). Rows must be strictly increasing."""
    subsets = np.atleast_2d(np.asarray(subsets, dtype=np.int64))
    m = subsets.shape[1]
    if m == 0:
        return np.zeros(subsets.shape[0], dtype=np.int64)
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
    if m == 0:
        return out
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


@dataclass(frozen=True)
class FhcsCodebook:
    """All m-subsets of a pool in lexicographic order; the first 2^bits are
    addressable by payload bits."""

    pool_size: int
    subset_size: int

    def __post_init__(self):
        if self.subset_size > self.pool_size:
            raise ConfigError("cannot pick more sub-bands than available")

    @property
    def n_total(self) -> int:
        return math.comb(self.pool_size, self.subset_size)

    @property
    def bits(self) -> int:
        return self.n_total.bit_length() - 1

    @property
    def n_usable(self) -> int:
        return 1 << self.bits

    def unrank(self, index: int) -> tuple:
        return tuple(int(v) for v in unrank_subsets(
            np.array([index]), self.pool_size, self.subset_size)[0])

    def rank(self, subset) -> int:
        return int(rank_subsets(np.array([sorted(subset)]),
                                self.pool_size)[0])

    def entries(self) -> list:
        """Materialized ordered list of all subsets (small pools only)."""
        return [self.unrank(i) for i in range(self.n_total)]


# ---------------------------------------------------------------------------
# Pilot layout
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HopGroup:
    """Rows of a PRT batch that share the pilot structure of one hop."""

    hop: int
    rows: np.ndarray         # indices into the batch
    pin_ants: tuple          # antennas pinned in this hop
    pin_ks: np.ndarray       # (len(rows), len(pin_ants)) pinned sub-bands
    free_ants: tuple
    pool: int                # available sub-bands for the payload
    bits: int                # FHCS bits this hop carries for these rows


def hop_groups(cfg: RadarConfig, prt_abs: np.ndarray) -> list[HopGroup]:
    """Partition (PRT, hop) cells of a batch by shared pilot structure."""
    prt_abs = np.asarray(prt_abs)
    K, M, H = cfg.n_subbands, cfg.n_tx, cfg.hops_per_pulse
    k0 = cfg.zero_subband
    kappa = np.mod(prt_abs, K)
    zero = kappa == 0
    pilot_k = (k0 + kappa) % K
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
            if pool < len(free):
                raise ConfigError(
                    "not enough free sub-bands for payload antennas")
            bits = FhcsCodebook(pool, len(free)).bits if free else 0
            out.append(HopGroup(h, rows, pin_ants, pin_ks, free, pool, bits))
    return out


def _positions_to_subbands(pos: np.ndarray, pin_ks: np.ndarray) -> np.ndarray:
    """Map positions in the available-sub-band list to sub-band indices by
    skipping over the pinned ones."""
    ks = pos.copy()
    if pin_ks.shape[1]:
        pin_sorted = np.sort(pin_ks, axis=1)
        for j in range(pin_sorted.shape[1]):
            ks = ks + (ks >= pin_sorted[:, j:j + 1])
    return ks


def _subbands_to_positions(ks: np.ndarray, pin_ks: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_positions_to_subbands`."""
    pos = ks.copy()
    if pin_ks.shape[1]:
        for j in range(pin_ks.shape[1]):
            pos = pos - (pin_ks[:, j:j + 1] < ks)
    return pos


# ---------------------------------------------------------------------------
# Hop plans
# ---------------------------------------------------------------------------

@dataclass
class HopPlan:
    """Per-(PRT, hop, antenna) sub-band assignment with pilot flags."""

    cfg: RadarConfig
    subband: np.ndarray      # (n_prt, H, M) int
    pinned: np.ndarray       # (n_prt, H, M) bool
    first_prt: int = 0       # absolute index of row 0 (pilot cycle phase)
    fhcs_bits_used: int = 0

    @property
    def n_prt(self) -> int:
        return self.subband.shape[0]

    def frequencies(self) -> np.ndarray:
        """Baseband frequency of every slot (Hz)."""
        return self.cfg.subband_frequency(self.subband)

    def prt_indices(self) -> np.ndarray:
        return self.first_prt + np.arange(self.n_prt)

    def to_records(self, psk: "PskGrid | None" = None) -> list[str]:
        """One text record per slot: i,h,m,subband,pinned,phase."""
        lines = ["prt,hop,antenna,subband,pinned,phase"]
        phases = psk.phases if psk is not None else np.zeros_like(
            self.subband, dtype=float)
        for i in range(self.n_prt):
            for h in range(self.cfg.hops_per_pulse):
                for m in range(self.cfg.n_tx):
                    lines.append(
                        f"{self.first_prt + i},{h},{m},"
                        f"{self.subband[i, h, m]},"
                        f"{int(self.pinned[i, h, m])},"
                        f"{phases[i, h, m]:.17g}")
        return lines


def _bit_layout(cfg: RadarConfig, groups: list[HopGroup], n_prt: int):
    """Per-(PRT, hop) FHCS bit widths and running offsets, in (i, h) order."""
    widths = np.zeros((n_prt, cfg.hops_per_pulse), dtype=np.int64)
    for g in groups:
        if g.bits:
            widths[g.rows, g.hop] = g.bits
    offsets = np.zeros(widths.size + 1, dtype=np.int64)
    np.cumsum(widths.ravel(), out=offsets[1:])
    return widths, offsets


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
    rng = np.random.default_rng(rng)

    if mode == "traditional":
        # uniform M-subset per hop, then a random antenna permutation
        u = rng.random((n_prt, H, K))
        subband = np.argsort(u, axis=-1)[..., :M]
        pinned = np.zeros((n_prt, H, M), dtype=bool)
        return HopPlan(cfg, subband, pinned, first_prt)
    if mode != "dfrc":
        raise ValueError(f"unknown plan mode {mode!r}")

    prt_abs = first_prt + np.arange(n_prt)
    groups = hop_groups(cfg, prt_abs)
    widths, offsets = _bit_layout(cfg, groups, n_prt)
    total = int(offsets[-1])
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
        for (ant, ks) in zip(g.pin_ants,
                             np.moveaxis(g.pin_ks, 1, 0)):
            subband[g.rows, g.hop, ant] = ks
            pinned[g.rows, g.hop, ant] = True
        if not g.free_ants:
            continue
        if g.bits:
            starts = offsets[g.rows * H + g.hop]
            idx = np.zeros(g.rows.size, dtype=np.int64)
            for b in range(g.bits):
                idx = (idx << 1) | fhcs_bits[starts + b]
        else:
            idx = np.zeros(g.rows.size, dtype=np.int64)
        pos = unrank_subsets(idx, g.pool, len(g.free_ants))
        ks = _positions_to_subbands(pos, g.pin_ks)
        subband[g.rows[:, None], g.hop, np.array(g.free_ants)] = ks
    return HopPlan(cfg, subband, pinned, first_prt, fhcs_bits_used=total)


def payload_codewords(plan: HopPlan):
    """Ground-truth FHCS codewords of a plan.

    Returns (prt, hop, n_bits, codeword) arrays sorted by (prt, hop),
    covering every hop with nonzero capacity.
    """
    cfg = plan.cfg
    groups = hop_groups(cfg, plan.prt_indices())
    prt_l, hop_l, bits_l, cw_l = [], [], [], []
    for g in groups:
        if not g.bits:
            continue
        ks = plan.subband[g.rows[:, None], g.hop, np.array(g.free_ants)]
        pos = _subbands_to_positions(np.sort(ks, axis=1), g.pin_ks)
        cw = rank_subsets(pos, g.pool)
        prt_l.append(plan.first_prt + g.rows)
        hop_l.append(np.full(g.rows.size, g.hop))
        bits_l.append(np.full(g.rows.size, g.bits))
        cw_l.append(cw)
    if not prt_l:
        z = np.zeros(0, dtype=np.int64)
        return z, z, z, z
    prt = np.concatenate(prt_l)
    hop = np.concatenate(hop_l)
    bits = np.concatenate(bits_l)
    cw = np.concatenate(cw_l)
    order = np.lexsort((hop, prt))
    return prt[order], hop[order], bits[order], cw[order]


def extract_payload_bits(plan: HopPlan) -> np.ndarray:
    """Recover the FHCS payload bits from a plan (round-trip of plan_hops)."""
    _, _, widths, cw = payload_codewords(plan)
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


@dataclass
class PskGrid:
    """Per-slot PSK phases; pilots carry phase 0 and symbol index -1."""

    order_bits: int          # bits per symbol (J); constellation size 2^J
    phases: np.ndarray       # (n_prt, H, M) float radians
    symbol_index: np.ndarray  # (n_prt, H, M) int, -1 on pinned slots

    def payload_bits(self) -> np.ndarray:
        """Gray-coded bits of the payload symbols in slot order."""
        idx = self.symbol_index[self.symbol_index >= 0]
        return int_to_bits(gray_encode(idx), self.order_bits).ravel()


def make_psk_grid(cfg: RadarConfig, plan: HopPlan, order_bits: int,
                  bits=None, rng=None) -> PskGrid:
    """Fill every non-pinned slot with a PSK symbol from the bit stream.

    Bits are consumed ``order_bits`` per slot in (PRT, hop, antenna) order
    and Gray-mapped onto the constellation. An ``order_bits`` outside
    [0, 63] is a :class:`ConfigError`.
    """
    if not 0 <= order_bits <= 63:      # symbol arithmetic is int64
        raise ConfigError("order_bits must be in [0, 63]")
    rng = np.random.default_rng(rng)
    free = ~plan.pinned
    n_slots = int(free.sum())
    if bits is None:
        bits = rng.integers(0, 2, size=n_slots * order_bits, dtype=np.uint8)
    else:
        bits = np.asarray(bits, dtype=np.uint8).ravel()
        if bits.size < n_slots * order_bits:
            raise PayloadLengthError(
                f"need {n_slots * order_bits} PSK bits, got {bits.size}")
    weights = 1 << np.arange(order_bits - 1, -1, -1, dtype=np.int64)
    patterns = bits[:n_slots * order_bits].reshape(n_slots,
                                                   order_bits) @ weights
    pos = gray_decode(patterns)
    symbol_index = np.full(plan.subband.shape, -1, dtype=np.int64)
    symbol_index[free] = pos
    phases = np.zeros(plan.subband.shape, dtype=float)
    phases[free] = 2 * np.pi * pos / (1 << order_bits)
    return PskGrid(order_bits, phases, symbol_index)


# ---------------------------------------------------------------------------
# Sample synthesis
# ---------------------------------------------------------------------------

def synthesize(plan: HopPlan, psk: PskGrid | None, cfg: RadarConfig) -> IqFrame:
    """Per-antenna complex baseband frames for the plan.

    Each hop is a pure tone of the planned sub-band rotated by the slot's
    PSK phase; the interval after the last hop of each pulse is silent.
    """
    if psk is not None and psk.phases.shape != plan.subband.shape:
        raise ValueError("psk grid does not match plan dimensions")
    n_prt = plan.n_prt
    H, M = cfg.hops_per_pulse, cfg.n_tx
    n_hop, n_p = cfg.samples_per_hop, cfg.samples_per_prt

    t = np.arange(n_hop) / cfg.sample_rate
    freqs = plan.frequencies()                      # (n_prt, H, M)
    ph = (2 * np.pi * freqs)[..., None] * t
    if psk is not None:
        ph = ph + psk.phases[..., None]
    active = np.exp(1j * ph)                        # (n_prt, H, M, n_hop)

    data = np.zeros((M, n_prt, n_p), dtype=np.complex128)
    data[:, :, :H * n_hop] = np.transpose(active, (2, 0, 1, 3)).reshape(
        M, n_prt, H * n_hop)
    return IqFrame(data.reshape(M, n_prt * n_p), cfg.sample_rate, n_p)
