"""Hardware-error model of an unsynchronized communication receiver.

The receive chain differs from the radar transmitter by a carrier-frequency
offset (CFO), a sampling-timing offset (STO) that accumulates with the
sample-clock mismatch, and smooth frequency-dependent complex gains of the
RF front ends. Because every transmit segment is a pure tone, the
impairments are applied analytically per hop: each antenna's hop segment is
multiplied by a closed-form phasor, summed into a single receive stream, and
circular AWGN is added. A received hop sample n of hop h in PRT i is

    sum_m beta_m(w) e^{j phi} e^{j (w + dw)(n/fs + dt_ih)} e^{j dw (i Tp + h T)}

with w the slot tone (rad/s), dw the CFO, and dt_ih the accumulated STO;
the last factor is the CFO rotation of absolute time across the frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .config import BLOCK_BYTES, ConfigError, RadarConfig, Value
from .iqfile import IqFrame
from .waveform import HopPlan, PskGrid

RIPPLE_ORDER = 3   # polynomial order of the front-end ripple curves


def sto_from_rho(rho: float, sample_rate: float) -> float:
    """Sampling-time difference implied by clock stability rho."""
    return -rho / (sample_rate * (1.0 - rho))


def dft_window_gain(cfo, n_samples: int, sample_rate: float):
    """Spectral gain of an n-point hop DFT under CFO:
    sum_{n<N} exp(j*cfo*n/fs), the Dirichlet kernel; equals N at cfo=0."""
    phi = np.divide(cfo, sample_rate)
    num = np.sin(n_samples * phi / 2.0)
    den = np.sin(phi / 2.0)
    mag = np.where(np.abs(den) < 1e-300, float(n_samples), num / np.where(
        np.abs(den) < 1e-300, 1.0, den))
    return mag * np.exp(1j * (n_samples - 1) * phi / 2.0)


@dataclass(frozen=True, eq=False)
class FrontEndProfile(Value):
    """Frequency-dependent complex gain of each transmit chain.

    ``gains[m, k]`` is the gain of antenna m at sub-band k; ``channel[m]``
    is the flat complex propagation gain. Both are held fixed over a run
    (front ends are stable within a contiguous operation).
    """

    gains: np.ndarray        # (M, K) complex
    channel: np.ndarray      # (M,) complex

    def __post_init__(self):
        if np.any(np.abs(self.gains) <= 0):
            raise ConfigError("front-end gain magnitude must be positive")
        super().__post_init__()

    @classmethod
    def flat(cls, cfg: RadarConfig) -> "FrontEndProfile":
        return cls(np.ones((cfg.n_tx, cfg.n_subbands), dtype=complex),
                   np.ones(cfg.n_tx, dtype=complex))

    @classmethod
    def rippled(cls, cfg: RadarConfig, rng=None, ripple_db: float = 1.0,
                ripple_rad: float = 0.2) -> "FrontEndProfile":
        """Smooth random ripple: low-order polynomials over the band, scaled
        so the log-magnitude peaks at +/-ripple_db and the phase at
        +/-ripple_rad; the flat channel gain has a random phase."""
        rng = np.random.default_rng(rng)
        x = np.linspace(-1.0, 1.0, cfg.n_subbands)
        gains = np.empty((cfg.n_tx, cfg.n_subbands), dtype=complex)
        for m in range(cfg.n_tx):
            mag_curve = np.polyval(rng.standard_normal(RIPPLE_ORDER + 1), x)
            ph_curve = np.polyval(rng.standard_normal(RIPPLE_ORDER + 1), x)
            mag_db = ripple_db * mag_curve / max(
                np.max(np.abs(mag_curve)), 1e-12)
            ph = ripple_rad * ph_curve / max(
                np.max(np.abs(ph_curve)), 1e-12)
            gains[m] = 10.0 ** (mag_db / 20.0) * np.exp(1j * ph)
        return cls(gains, np.exp(2j * np.pi * rng.random(cfg.n_tx)))

    def response(self):
        """(M, K) combined complex gain channel*front-end."""
        return self.channel[:, None] * self.gains


@dataclass(frozen=True)
class ImpairmentSpec:
    """Receiver-side hardware errors and noise level.

    Attributes:
        cfo: carrier-frequency offset in rad/s.
        sto_initial: initial sampling-timing offset in seconds.
        sample_time_offset: per-sample clock mismatch in seconds
            (negative when the receiver clock runs fast).
        noise_var: per-sample complex AWGN variance.
        front_end: per-antenna gain profile; None means flat unity.
    """

    cfo: float = 0.0
    sto_initial: float = 0.0
    sample_time_offset: float = 0.0
    noise_var: float = 0.0
    front_end: FrontEndProfile | None = None

    def validate(self, cfg: RadarConfig) -> None:
        if not np.all(np.isfinite(
                [self.cfo, self.sto_initial, self.sample_time_offset])):
            raise ConfigError(
                "cfo, sto_initial and sample_time_offset must be finite")
        if abs(self.cfo) * cfg.prt_duration >= np.pi:
            raise ConfigError(
                f"CFO {self.cfo:.6g} rad/s outside the unambiguous range "
                f"|cfo|*radar.prt_duration < pi (a clock error rho gives "
                f"2*pi*rho*radar.carrier_freq)")
        check_noise_var(self.noise_var)
        if self.front_end is not None and (
                self.front_end.gains.shape != (cfg.n_tx, cfg.n_subbands)):
            raise ConfigError("front-end profile shape mismatch")

    @classmethod
    def from_clock(cls, rho: float, cfg: RadarConfig, sto_initial: float = 0.0,
                   noise_var: float = 0.0,
                   front_end: FrontEndProfile | None = None) -> "ImpairmentSpec":
        """Consistent draw from one clock-stability value: the CFO and the
        sample-clock mismatch both derive from rho, which must be finite with
        |rho| < 1."""
        if not abs(rho) < 1.0:                      # NaN fails too
            raise ConfigError("rho must be finite with |rho| < 1")
        spec = cls(cfo=2 * np.pi * cfg.carrier_freq * rho,
                   sto_initial=sto_initial,
                   sample_time_offset=sto_from_rho(rho, cfg.sample_rate),
                   noise_var=noise_var, front_end=front_end)
        spec.validate(cfg)
        return spec


def accumulated_sto(i, h, spec: ImpairmentSpec, cfg: RadarConfig):
    """Accumulated sampling-timing offset at hop h of PRT i (seconds)."""
    i, h = np.asarray(i), np.asarray(h)
    if np.any(i < 0) or np.any((h < 0) | (h >= cfg.hops_per_pulse)):
        raise ValueError("PRT/hop index out of range")
    return spec.sto_initial + (
        i * cfg.samples_per_prt + h * cfg.samples_per_hop
    ) * spec.sample_time_offset


def slot_gain(i, h, m, k, spec: ImpairmentSpec, cfg: RadarConfig):
    """Complex factor of the tone of antenna m on sub-band k in hop h of PRT
    i: front-end gain, accumulated-STO phase and the CFO rotation of the
    hop start. Broadcasts over index arrays.

    Excludes the common within-hop CFO ramp exp(j*cfo*n/fs), which is
    identical for every slot.
    """
    beta = (spec.front_end or FrontEndProfile.flat(cfg)).response()  # (M, K)
    dt = accumulated_sto(i, h, spec, cfg)
    omega = 2 * np.pi * cfg.subband_frequency(k)
    hop_start = i * cfg.prt_duration + h * cfg.hop_duration
    return beta[m, k] * np.exp(1j * ((omega + spec.cfo) * dt
                                     + spec.cfo * hop_start))


def expected_hop_peak(i, h, m, subband, psk_phase, spec: ImpairmentSpec,
                      cfg: RadarConfig):
    """Closed-form hop-DFT coefficient of one slot's tone at its own bin.

    This is the exact discrete transform of the impaired tone and the
    reference model for receiver-side corrections and oracle tests.
    """
    return (dft_window_gain(spec.cfo, cfg.samples_per_hop, cfg.sample_rate)
            * slot_gain(i, h, m, subband, spec, cfg)
            * np.exp(1j * np.asarray(psk_phase)))


# Floats per normal draw of :func:`noise_steps`, one scratch block
NOISE_CHUNK = BLOCK_BYTES // 8


def check_noise_var(noise_var: float) -> None:
    """Refuse a negative, infinite or NaN noise variance."""
    if not 0.0 <= noise_var < np.inf:               # NaN fails too
        raise ConfigError("noise_var must be finite and >= 0")


def complex_noise(shape, noise_var: float, rng) -> np.ndarray:
    """Circular complex AWGN of per-sample variance ``noise_var``.

    Seed contract: with g = default_rng(rng) the result is
    (g.standard_normal(shape) + 1j * g.standard_normal(shape))
    * sqrt(noise_var / 2), real block first, drawn by :func:`draw_noise`.
    A variance of 0 gives zeros and draws nothing; a negative, infinite or
    NaN one raises :class:`ConfigError`.
    """
    if noise_var == 0:
        return np.zeros(shape, dtype=np.complex128)
    out = np.empty(shape, dtype=np.complex128)
    draw_noise(out.reshape(1, -1), noise_var, rng)
    return out


def draw_noise(out: np.ndarray, noise_var: float, rng, add: bool = False,
               row: int | None = None) -> None:
    """Write (``add`` False) or add (``add`` True) the last samples of each
    row of :func:`complex_noise`'s draw into ``out``: :func:`noise_steps`
    run to its end."""
    for _ in noise_steps(out, noise_var, rng, add, row):
        pass


def noise_steps(out: np.ndarray, noise_var: float, rng, add: bool = False,
                row: int | None = None):
    """The noise loop of :func:`draw_noise`, as a generator that yields
    each leading index of ``out`` (a tuple) once its noise is whole.

    ``out`` is a complex array of two or more axes, or a view of any
    strides, (..., W); the draw has shape (..., ``row``) with ``row`` >= W
    (W by default), real block first, and each row's first ``row`` - W
    samples are drawn and dropped, so a row's last W samples are those of
    the whole draw (a receiver blanked at each row's start). Each block is
    drawn in C order through one float buffer of at most ``NOISE_CHUNK``
    values, whole rows at a time, or one row in pieces when a row is
    longer, which draws the same numbers as one draw of the whole block.
    The real block is written for every index first; a leading index is
    yielded once its imaginary rows are written, in C order, so a caller
    may read or overwrite ``out[index]`` from then on (the radar front end
    compresses each antenna on other threads while the draw goes on). A
    written sample is fl(s * scale) and an added one fl(m + fl(s *
    scale)) in each component, as writing or adding the whole noise array
    gives. A variance of 0 leaves ``out`` as it is, draws nothing and
    yields nothing; a negative, infinite or NaN one raises
    :class:`ConfigError` before it draws.
    """
    check_noise_var(noise_var)
    *lead, n_rows, width = out.shape
    row = width if row is None else row
    if noise_var == 0 or row == 0:
        return
    rng = np.random.default_rng(rng)
    skip = row - width                  # the dropped draws that open a row
    piece = min(row, NOISE_CHUNK)       # a row's samples per draw
    step = max(1, NOISE_CHUNK // row)   # rows per draw
    buf = np.empty(min(step, n_rows) * piece)
    scale = np.sqrt(noise_var / 2.0)
    for imag, part in enumerate((out.real, out.imag)):
        for index in product(*map(range, lead)):
            rows = part[index]                          # (n_rows, W)
            for r in range(0, n_rows, step):
                k = min(step, n_rows - r)
                for c in range(0, row, piece):
                    p = min(piece, row - c)
                    drawn = buf[:k * p].reshape(k, p)
                    rng.standard_normal(out=drawn)
                    first = max(c, skip)        # the first kept sample
                    if first >= c + p:
                        continue
                    src = drawn[:, first - c:]
                    dst = rows[r:r + k, first - skip:c + p - skip]
                    if add:
                        dst += np.multiply(src, scale, out=src)
                    else:
                        np.multiply(src, scale, out=dst)
            if imag:
                yield index


def apply(frame: IqFrame, plan: HopPlan, psk: PskGrid,
          spec: ImpairmentSpec, cfg: RadarConfig, rng=None) -> IqFrame:
    """Propagate per-antenna transmit frames through the impaired channel.

    Linear in the input frame: each antenna's hop segment is scaled by its
    slot gain and the common CFO ramp, antennas are summed into one stream,
    and AWGN of the configured variance is added on the hop samples, the
    only samples the receiver reads. The result stores each PRT's pulse
    only (:class:`IqFrame`): the inter-pulse silence is exactly 0, and an
    FHIQ file written from it has a zero tail.

    Seed contract: the noise is one :func:`complex_noise` draw of shape
    (n_prt, H, n_hop), added onto ``hops(cfg, 1)[0]`` of the output. It is
    added in place, one ``NOISE_CHUNK`` at a time, with the same bytes as
    adding the whole draw; a variance of 0 adds nothing.
    """
    spec.validate(cfg)
    M, H, n_hop = cfg.n_tx, cfg.hops_per_pulse, cfg.samples_per_hop
    n_prt = frame.n_prt
    active = frame.hops(cfg, M)                      # (M, n_prt, H, n_hop)
    if (plan.n_prt != n_prt or plan.first_prt != frame.first_prt
            or psk.phases.shape[0] != n_prt):
        raise ValueError("plan/psk PRTs do not match frame")

    gains = slot_gain(plan.prt_indices()[:, None, None],
                      np.arange(H)[:, None], np.arange(M), plan.subband,
                      spec, cfg)                           # (n_prt, H, M)
    ramp = np.exp(1j * spec.cfo * np.arange(n_hop) / cfg.sample_rate)
    out = np.empty((1, n_prt, H * n_hop), complex)
    mixed = out.reshape(n_prt, H, n_hop)                # a view of out
    np.einsum("mihn,ihm->ihn", active, gains, out=mixed)
    mixed *= ramp
    draw_noise(out, spec.noise_var, rng, add=True)
    return IqFrame(out, cfg.sample_rate, plan.first_prt, cfg.samples_per_prt)
