"""Static waveform/clock configuration shared by every stage of the simulator."""

from __future__ import annotations

import contextlib
import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

# Propagation speed for all range/delay conversions (m/s). The round radar
# value keeps figures like the blind zone (750 m for a 5 us transmit window)
# exact.
SPEED_OF_LIGHT = 3.0e8


class ConfigError(ValueError):
    """Invalid or mutually inconsistent configuration values."""


# Bytes of one scratch block: the matched filter's PRT rows, the angle
# spectrum's row blocks, the FHIQ/RDM writer's float32 rows and the channel
# noise's normal draws. A block stays small next to the arrays it serves and
# fits a core's L2 cache. Freeing a large buffer raises glibc's dynamic mmap
# threshold, so later temporaries stay resident in the heap; a 1 MiB block
# keeps that rise small.
BLOCK_BYTES = 1 << 20


def usable_cpus() -> int:
    """CPUs this process may use: one in a process that ``multiprocessing``
    started, whose siblings already split the CPUs, else every CPU it may
    run on."""
    if multiprocessing.parent_process() is not None:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def prefixed(prefix: str):
    """Re-raise a :class:`ConfigError` of the block with ``prefix``, the
    config key it concerns, in front of its message."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(prefix + str(exc)) from None


class Value:
    """Base of a frozen value dataclass that holds arrays, declared
    ``@dataclass(frozen=True, eq=False)``: its fields cannot be rebound,
    it hashes by identity, and it takes every array field read-only,
    first copying an array that does not own its memory (the owner of a
    view can still write it). An array it takes as is must have no
    writable view left, which could still change the value. The receiver
    relies on this to memoize what it computes of a frame
    (``commrx.demodulate``). To edit a value, edit copies of its arrays
    and build a new one (``dataclasses.replace``). A subclass with its own
    ``__post_init__`` runs its checks first, then this one."""

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                if not value.flags.owndata:
                    value = value.copy()
                    object.__setattr__(self, name, value)
                value.flags.writeable = False


def _as_exact_int(value: float, name: str) -> int:
    n = round(value) if np.isfinite(value) else 0
    if n <= 0 or abs(value - n) > 1e-6:
        raise ConfigError(f"{name} = {value} must be a positive integer")
    return n


def check_span(name: str, span) -> None:
    """Raise :class:`ConfigError` unless ``span`` is ``[low, high]`` with
    ``low <= high``; a NaN bound fails."""
    if not (len(span) == 2 and span[0] <= span[1]):
        raise ConfigError(f"{name} must be [low, high], got {list(span)}")


# The widest PSK symbol, in bits. A symbol's phase 2*pi*p/2^J is a float64,
# and a noiseless identity channel already decodes errors at J = 50; 32
# keeps 16 bits of margin for configs with more tone cycles per hop.
MAX_ORDER_BITS = 32


# The highest carrier, in Hz: radio waves end at 3,000 GHz (ITU Radio
# Regulations, No. 1.5). Inside that band every seeded output is the same
# at any carrier, up to the scale of the clock error and the velocities
# (measured from 1 GHz to 1e305 Hz), so no measured figure sets the bound;
# at 1e300 Hz a noiseless link's clock estimate rho_hat underflowed to the
# subnormal -9.9e-315.
MAX_CARRIER_FREQ = 3e12


def check_order_bits(order_bits: int) -> None:
    """PSK bits per symbol must be in [0, ``MAX_ORDER_BITS``]."""
    if not 0 <= order_bits <= MAX_ORDER_BITS:
        raise ConfigError(
            f"order_bits must be in [0, {MAX_ORDER_BITS}]: the float64 "
            f"phase of a wider PSK symbol does not decode exactly")


def noise_var_for_snr(snr_db: float) -> float:
    """Per-sample complex noise variance at ``snr_db``: the SNR of every
    study is a unit tone's power over that variance. A :class:`ConfigError`
    names an SNR whose variance is not a finite float (below about
    -3082.5 dB, or NaN)."""
    try:
        noise_var = 10.0 ** (-float(snr_db) / 10.0)
    except OverflowError:
        noise_var = np.inf
    if not noise_var < np.inf:                      # NaN fails too
        raise ConfigError(f"snr_db={snr_db:g} dB gives no finite noise "
                          f"variance 10^(-snr_db/10)")
    return noise_var


@dataclass(frozen=True)
class RadarConfig:
    """Pulsed FH-MIMO radar parameters.

    The band of width ``bandwidth`` is split into ``n_subbands`` equally
    spaced tones; each pulse holds ``hops_per_pulse`` hops of duration
    ``hop_duration``, each antenna sitting on one sub-band per hop.
    Sub-band tones must complete an integer number of cycles per hop
    (bandwidth*hop_duration/n_subbands integer) so that antennas are
    exactly orthogonal over a hop and tones land on DFT bins.

    Attributes:
        n_subbands: number of hopping sub-bands (K).
        n_tx: transmit antenna count.
        hops_per_pulse: hops per radar pulse.
        hop_duration: hop length in seconds.
        prt_duration: pulse repetition time in seconds.
        bandwidth: occupied bandwidth in Hz.
        sample_rate: complex baseband sampling rate in Hz (>= bandwidth).
        carrier_freq: RF carrier in Hz.
        prts_per_cpi: pulses per coherent processing interval.
    """

    n_subbands: int = 20
    n_tx: int = 2
    hops_per_pulse: int = 5
    hop_duration: float = 1e-6
    prt_duration: float = 40e-6
    bandwidth: float = 20e6
    sample_rate: float = 40e6
    carrier_freq: float = 5.5e9
    prts_per_cpi: int = 128

    def __post_init__(self):
        # every refusal leads with the field it names
        for name in ("n_subbands", "n_tx", "hops_per_pulse", "prts_per_cpi"):
            if not getattr(self, name) >= 1:
                raise ConfigError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("hop_duration", "prt_duration", "bandwidth",
                     "sample_rate", "carrier_freq"):
            if not getattr(self, name) > 0:         # NaN fails too
                raise ConfigError(
                    f"{name} must be > 0, got {getattr(self, name)}")
        if not self.carrier_freq < MAX_CARRIER_FREQ:
            raise ConfigError(
                f"carrier_freq must be below {MAX_CARRIER_FREQ:g} Hz, the "
                f"top of the radio band, got {self.carrier_freq:g}")
        if not self.carrier_freq > self.bandwidth / 2:
            raise ConfigError(
                f"carrier_freq = {self.carrier_freq:g} Hz must exceed "
                f"bandwidth/2 = {self.bandwidth / 2:g} Hz, so that every "
                f"sub-band's tone has a positive frequency")
        if self.n_tx > self.n_subbands:
            raise ConfigError(f"n_tx = {self.n_tx} exceeds n_subbands = "
                              f"{self.n_subbands}: each antenna needs a "
                              f"sub-band of its own")
        if self.hops_per_pulse < self.n_tx + 1:
            raise ConfigError(
                f"hops_per_pulse = {self.hops_per_pulse} must be >= n_tx + 1 "
                f"= {self.n_tx + 1} for the pilot layout")
        pulse = self.hops_per_pulse * self.hop_duration
        if pulse > self.prt_duration * (1 + 1e-12):
            raise ConfigError(
                f"prt_duration = {self.prt_duration:g} s is shorter than the "
                f"pulse, hops_per_pulse*hop_duration = {pulse:g} s")
        if self.sample_rate < self.bandwidth:
            raise ConfigError(f"sample_rate = {self.sample_rate:g} Hz is below "
                              f"the occupied bandwidth = {self.bandwidth:g} Hz")
        _as_exact_int(self.cycles_per_hop,
                      "hop_duration: bandwidth*hop_duration/n_subbands")
        _as_exact_int(self.sample_rate * self.hop_duration,
                      "hop_duration: samples per hop, sample_rate*hop_duration")
        _as_exact_int(self.sample_rate * self.prt_duration,
                      "prt_duration: samples per PRT, sample_rate*prt_duration")

    # -- derived sizes ----------------------------------------------------

    @property
    def cycles_per_hop(self) -> float:
        """Tone cycles per hop between adjacent sub-bands; integer by design."""
        return self.bandwidth * self.hop_duration / self.n_subbands

    @property
    def samples_per_hop(self) -> int:
        return round(self.sample_rate * self.hop_duration)

    @property
    def samples_per_prt(self) -> int:
        return round(self.sample_rate * self.prt_duration)

    @property
    def samples_per_pulse(self) -> int:
        return self.hops_per_pulse * self.samples_per_hop

    @property
    def zero_subband(self) -> int:
        """Index of the sub-band whose baseband frequency is exactly 0 Hz."""
        return -(-self.n_subbands // 2)  # ceil(K/2)

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def blind_range(self) -> float:
        """Closest observable range: echoes arriving earlier fall inside
        the transmit window of the pulsed radar."""
        return SPEED_OF_LIGHT * self.hops_per_pulse * self.hop_duration / 2

    @property
    def unambiguous_range(self) -> float:
        return SPEED_OF_LIGHT * self.prt_duration / 2

    @property
    def unambiguous_velocity(self) -> float:
        """One-sided unambiguous radial speed of the slow-time DFT."""
        return self.wavelength / (4 * self.prt_duration)

    @property
    def range_bin(self) -> float:
        """Range per fast-time sample (m)."""
        return SPEED_OF_LIGHT / (2 * self.sample_rate)

    @property
    def doppler_bin(self) -> float:
        """Doppler resolution of one CPI (Hz)."""
        return 1.0 / (self.prts_per_cpi * self.prt_duration)

    @property
    def velocity_bin(self) -> float:
        return self.wavelength * self.doppler_bin / 2

    # -- sub-band helpers --------------------------------------------------

    def subband_frequency(self, k):
        """Baseband frequency (Hz) of sub-band ``k``.

        Sub-bands span the band symmetrically: k=0 is the most negative
        frequency, ``zero_subband`` maps to 0 Hz.
        """
        k = np.asarray(k)
        if np.any((k < 0) | (k >= self.n_subbands)):
            raise ValueError(f"sub-band index out of range 0..{self.n_subbands - 1}")
        lo = -((self.n_subbands + 1) // 2)  # floor(-K/2)
        return (lo + k) * self.bandwidth / self.n_subbands

    def subband_bin(self, k):
        """DFT bin (hop-length transform) occupied by sub-band ``k``."""
        cycles = np.rint(self.subband_frequency(k) * self.hop_duration)
        return np.mod(cycles.astype(int), self.samples_per_hop)

    def pilot_offset(self, prt_index):
        """Frequency-cycled pilot offset for a PRT: kappa = prt mod K."""
        return np.mod(prt_index, self.n_subbands)

    def pilot_subband(self, prt_index):
        """Sub-band index the cycled pilot occupies in a PRT."""
        return np.mod(self.zero_subband + self.pilot_offset(prt_index),
                      self.n_subbands)

    def subband_offset(self, k):
        """Offset kappa of sub-band k from the zero-frequency sub-band."""
        return np.mod(np.subtract(k, self.zero_subband), self.n_subbands)
