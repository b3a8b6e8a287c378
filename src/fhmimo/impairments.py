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

import contextlib
import threading
from dataclasses import dataclass

import numpy as np

from .config import (BLOCK_BYTES, ConfigError, RadarConfig, Value,
                     usable_cpus)
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
# NumPy's iteration buffer for a broadcast complex multiply: 8192 values
RAMP_BUFFER_BYTES = 16 * 8192


def check_noise_var(noise_var: float) -> None:
    """Refuse a negative, infinite or NaN noise variance."""
    if not 0.0 <= noise_var < np.inf:               # NaN fails too
        raise ConfigError("noise_var must be finite and >= 0")


def complex_noise(shape, noise_var: float, rng) -> np.ndarray:
    """Circular complex AWGN of per-sample variance ``noise_var``.

    Seed contract: with g = default_rng(rng) and s = sqrt(noise_var / 2),
    the real parts are g.standard_normal(shape) * s, then the imaginary
    parts are a second such draw. :func:`apply` and the radar front end
    draw these bytes in place, a block of rows at a time
    (:func:`noise_steps`). A variance of 0 gives zeros and draws nothing;
    a negative, infinite or NaN one raises :class:`ConfigError`.
    """
    check_noise_var(noise_var)
    out = np.zeros(shape, dtype=np.complex128)
    if noise_var:
        g = np.random.default_rng(rng)
        s = np.sqrt(noise_var / 2.0)
        out.real = g.standard_normal(shape) * s
        out.imag = g.standard_normal(shape) * s
    return out


def noise_steps(blocks, noise_var: float, rng, row: int | None = None):
    """An iterator that writes :func:`complex_noise`'s draw into ``blocks``
    and gives each block's position once its noise is whole, or an empty
    tuple when there is nothing to draw.

    ``blocks`` is a sequence of complex (rows, W) arrays of one width W,
    each a view of any strides (an array of three axes is the sequence of
    its first axis). The draw has shape (all their rows, ``row``), in
    order, with ``row`` >= W (W by default), real block first, and each
    row's first ``row`` - W samples are drawn and dropped, so a row's last
    W samples are those of the whole draw (a receiver blanked at each
    row's start). Each block is drawn in C order through one float buffer
    of at most ``NOISE_CHUNK`` values, whole rows at a time, or one row in
    pieces when a row is longer, which draws the same numbers as one draw
    of the whole block. The real parts of every block are written first;
    a block's position is given once its imaginary rows are written, in
    order, so a caller may read or overwrite that block from then on (the
    radar front end compresses each antenna, :func:`apply` adds its
    mixed samples). A written sample is fl(s * scale) in each component,
    as writing the whole noise array gives.

    The checks and the float buffer come at the call, so a thread that
    runs the iterator allocates nothing large: a negative, infinite or
    NaN variance raises :class:`ConfigError` before anything is drawn, and
    a variance of 0 gives the empty tuple (:class:`NoiseDraw` starts no
    thread for it).
    """
    check_noise_var(noise_var)
    width = blocks[0].shape[1] if len(blocks) else 0
    row = width if row is None else row
    if noise_var == 0 or row == 0:
        return ()
    piece = min(row, NOISE_CHUNK)       # a row's samples per draw
    step = max(1, NOISE_CHUNK // row)   # rows per draw
    buf = np.empty(min(step, max(map(len, blocks))) * piece)
    return _draw_steps(blocks, np.random.default_rng(rng), buf,
                       np.sqrt(noise_var / 2.0), row, piece, step)


def _draw_steps(blocks, rng, buf, scale, row, piece, step):
    """The loop of :func:`noise_steps`, a generator."""
    skip = row - blocks[0].shape[1]     # the dropped draws that open a row
    for imag in (False, True):
        for i, block in enumerate(blocks):
            rows = block.imag if imag else block.real     # (n_rows, W)
            n_rows = len(rows)
            for r in range(0, n_rows, step):
                k = min(step, n_rows - r)
                for c in range(0, row, piece):
                    p = min(piece, row - c)
                    drawn = buf[:k * p].reshape(k, p)
                    rng.standard_normal(out=drawn)
                    first = max(c, skip)        # the first kept sample
                    if first < c + p:
                        dst = rows[r:r + k, first - skip:c + p - skip]
                        np.multiply(drawn[:, first - c:], scale, out=dst)
            if imag:
                yield i


class NoiseDraw:
    """The buffer of :func:`apply`'s received frame, (1, n_prt,
    samples_per_pulse), with the draw of its channel noise into it
    already started: :func:`noise_steps` over its blocks of ``rows`` PRTs
    (``blocks`` holds their slices). With a variance above 0 and more than
    one :func:`config.usable_cpus`, one started thread runs the draw to
    its end, ahead of the reader; otherwise :meth:`wait` draws on the
    calling thread, and a variance of 0 draws nothing. :meth:`close` must
    end every use, errors included (``contextlib.closing``).

    The calling thread allocates the buffer, then the draw's float buffer,
    then ``scratch``, one block for :func:`apply` to mix into, in that
    order, since the order moves glibc's heap layout and with it the peak
    RSS of a run of chunks. A block's scratch (16 bytes a sample), its
    float buffer (8) and NumPy's iteration buffer for the CFO ramp's
    broadcast (``RAMP_BUFFER_BYTES``), all live at once, fill one
    ``BLOCK_BYTES``. The started thread allocates nothing large, which
    would stay resident in a heap of its own, and runs no traced library
    function (the benchmark's tracer keeps one span stack). The radar
    chain's ``radarrx._each`` cannot serve here: it runs its lead within
    the one call that starts it, while this draw outlives the call
    (``bench.ber_point`` starts a chunk's draw, then builds the transmit
    side, and :func:`apply` reads the draw).
    """

    def __init__(self, cfg: RadarConfig, n_prt: int, noise_var: float,
                 rng):
        width = cfg.samples_per_pulse
        self.noise_var = noise_var
        self.out = np.empty((1, n_prt, width), complex)
        self.rows = max(1, (BLOCK_BYTES - RAMP_BUFFER_BYTES)
                        // (24 * width))
        self.blocks = [slice(r, r + self.rows)
                       for r in range(0, n_prt, self.rows)]
        self._steps = iter(noise_steps([self.out[0, b] for b in self.blocks],
                                       noise_var, rng))
        self.scratch = np.empty((self.rows if noise_var else 0, width),
                                complex)
        self._drawn = 0             # blocks whose noise is whole
        self._ended = self._stop = False
        self._error = None
        self._cond = threading.Condition()
        self._thread = None
        if noise_var and usable_cpus() > 1:
            self._thread = threading.Thread(target=self._run)
            self._thread.start()

    def _run(self):
        try:
            for _ in self._steps:
                with self._cond:
                    self._drawn += 1
                    self._cond.notify_all()
                    if self._stop:
                        break
        except BaseException as error:
            self._error = error
        with self._cond:
            self._ended = True
            self._cond.notify_all()

    def wait(self, n: int) -> None:
        """Return once the first ``n`` blocks' noise is whole or the draw
        has ended; an error of the draw rises here."""
        if self._thread is None:
            for _ in range(self._drawn, n):
                if next(self._steps, None) is None:
                    break
                self._drawn += 1
            return
        with self._cond:
            self._cond.wait_for(lambda: self._drawn >= n or self._ended)
        if self._error is not None:
            raise self._error

    def close(self) -> None:
        """Stop the draw at its next block, join its thread and drop the
        draw's float buffer."""
        if self._thread is not None:
            with self._cond:
                self._stop = True
            self._thread.join()
        self._steps = iter(())


def apply(frame: IqFrame, plan: HopPlan, psk: PskGrid,
          spec: ImpairmentSpec, cfg: RadarConfig, rng=None) -> IqFrame:
    """Propagate per-antenna transmit frames through the impaired channel.

    Linear in the input frame: each antenna's hop segment is scaled by its
    slot gain and the common CFO ramp, antennas are summed into one stream,
    and AWGN of the configured variance is added on the hop samples, the
    only samples the receiver reads. The result stores each PRT's pulse
    only (:class:`IqFrame`): the inter-pulse silence is exactly 0, and an
    FHIQ file written from it has a zero tail.

    ``rng`` is a :class:`NoiseDraw` of the frame's PRT count and the
    spec's variance that the caller started (``bench.ber_point`` starts
    it before the transmit side), or a seed or Generator, from which
    ``apply`` starts one once its checks pass (a refused call draws
    nothing) and its slot gains are built (their temporaries never meet
    the output). Either way the draw writes the noise into the output, and
    each PRT block is mixed into scratch and added onto its noise once
    that has landed; the draw is joined on every path, errors included.

    Seed contract: the noise is one :func:`complex_noise` draw of shape
    (n_prt, H, n_hop), added onto ``hops(cfg, 1)[0]`` of the output. A
    sample is fl(n + m), with n the noise and m the mixed sample, in each
    component, which is the fl(m + n) of adding the whole draw; a variance
    of 0 writes the mix as it is (adding zeros would turn a -0.0 into
    +0.0).
    """
    with contextlib.ExitStack() as joined:
        started = isinstance(rng, NoiseDraw)
        if started:
            joined.callback(rng.close)      # a refused call joins it too
        spec.validate(cfg)
        M, H, n_hop = cfg.n_tx, cfg.hops_per_pulse, cfg.samples_per_hop
        n_prt = frame.n_prt
        active = frame.hops(cfg, M)                  # (M, n_prt, H, n_hop)
        if (plan.n_prt != n_prt or plan.first_prt != frame.first_prt
                or psk.phases.shape[0] != n_prt):
            raise ConfigError("plan/psk PRTs do not match frame")
        if started and (rng.out.shape != (1, n_prt, H * n_hop)
                        or rng.noise_var != spec.noise_var):
            raise ConfigError("the started noise draw does not match the "
                              "frame and the spec's noise_var")
        gains = slot_gain(plan.prt_indices()[:, None, None],
                          np.arange(H)[:, None], np.arange(M), plan.subband,
                          spec, cfg)                       # (n_prt, H, M)
        ramp = np.exp(1j * spec.cfo * np.arange(n_hop) / cfg.sample_rate)
        if started:
            noise = rng
        else:
            noise = NoiseDraw(cfg, n_prt, spec.noise_var, rng)
            joined.callback(noise.close)
        mixed = noise.out.reshape(n_prt, H, n_hop)      # a view of out
        scratch = noise.scratch.reshape(-1, H, n_hop)
        for i, rows in enumerate(noise.blocks):
            dst = mixed[rows]
            blk = scratch[:len(dst)] if spec.noise_var else dst
            np.einsum("mihn,ihm->ihn", active[:, rows], gains[rows],
                      out=blk)
            blk *= ramp
            if spec.noise_var:
                noise.wait(i + 1)
                dst += blk
        noise.scratch = scratch = blk = None        # freed before the join
    return IqFrame(noise.out, cfg.sample_rate, plan.first_prt,
                   cfg.samples_per_prt)
