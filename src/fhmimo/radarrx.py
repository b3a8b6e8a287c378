"""Radar receive chain: echo synthesis, pulse compression, range-Doppler
processing, CFAR detection and grid angle estimation.

The virtual array is the Kronecker product of the receive and transmit
steering vectors; each of the N = ``ArrayModel.n_rx`` receive streams
passes all M = ``RadarConfig.n_tx`` matched filters, giving P = M*N spatial
channels ordered p = n*M + m. A scene is a tuple of :class:`Target`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .config import (BLOCK_BYTES, SPEED_OF_LIGHT, ConfigError, RadarConfig,
                     Value, usable_cpus)
from .impairments import check_noise_var, complex_noise, noise_steps
from .iqfile import write_csv
from .waveform import HopPlan, PskGrid, synthesize

CFAR_GUARD_CELLS = 2      # guard ring around the cell under test
CFAR_TRAINING_CELLS = 8   # width of the training ring beyond the guard ring


# The targets' contributions that one pass over the antennas adds
ECHO_BLOCK_BYTES = 4 * BLOCK_BYTES


def _each(fn, n: int, work_shape: tuple, dtype=complex, lead=None,
          set_up: int = 0) -> None:
    """``fn(i, work)`` for every i in range(n) on T threads, each thread
    taking the lowest i that no thread has taken and passing its own
    scratch array ``work`` of ``work_shape``. T is
    :func:`config.usable_cpus` up to n. The calling thread is one of them,
    so one thread starts none, and it allocates every thread's scratch: a
    started thread allocates nothing large, which would stay resident in a
    heap of its own. Each call writes only its own slice of the output with
    NumPy alone (whose FFTs and loops release the GIL), so the output is
    the same at any thread count.

    ``lead``, if given, is an iterable that the calling thread runs to its
    end before it takes a call (a CPI's noise draw, one item per antenna
    drawn), while the started threads take calls at once. The first
    ``set_up`` calls run as soon as they are taken; call i >= ``set_up``
    waits until all of those have returned and ``lead`` has given i -
    ``set_up`` + 1 items or ended. An error in ``lead`` or in a call
    stops the taking of calls and ends every wait, and is raised once
    every thread has returned, so no thread is left waiting (an error of
    the calling thread first).
    """
    n_threads = max(1, min(usable_cpus(), n))
    work = np.empty((n_threads, *work_shape), dtype)
    cond = threading.Condition()
    taken = done = led = 0    # calls taken, set-up calls done, lead items
    errors = []

    def stop(error):
        with cond:
            errors.append(error)
            cond.notify_all()

    def share(t):
        nonlocal taken, done
        while True:
            with cond:
                i = taken
                taken += 1
                cond.wait_for(lambda: errors or i >= n or i < set_up or (
                    done == set_up and led > i - set_up))
                if errors or i >= n:
                    return
            try:
                fn(i, work[t])
            except BaseException as error:
                stop(error)
                return
            if i < set_up:
                with cond:
                    done += 1
                    cond.notify_all()

    threads = [threading.Thread(target=share, args=(t,))
               for t in range(1, n_threads)]
    try:
        for thread in threads:
            thread.start()
        for _ in lead or ():
            with cond:
                led += 1
                cond.notify_all()
            if errors:
                break
        with cond:
            led = n
            cond.notify_all()
        share(0)
    except BaseException as error:
        stop(error)             # end every wait before this error rises
        raise
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    if errors:
        raise errors[0]


@dataclass(frozen=True)
class Target:
    range_m: float
    velocity: float = 0.0    # radial, m/s (positive = approaching bins > 0)
    azimuth_deg: float = 0.0
    coeff: complex = 1.0 + 0.0j

    def delay(self) -> float:
        return 2.0 * self.range_m / SPEED_OF_LIGHT

    def doppler(self, wavelength: float) -> float:
        return 2.0 * self.velocity / wavelength


# The config keys that set the observable spans, for the refusals
OBSERVABLE_WINDOW = ("the observable window from the pulse's end "
                     "(radar.hops_per_pulse*radar.hop_duration) to the "
                     "PRT's (radar.prt_duration)")
UNAMBIGUOUS_VELOCITY = "c/(4*radar.carrier_freq*radar.prt_duration)"


def check_scene(targets, cfg: RadarConfig) -> None:
    """Refuse a target outside the observable range and velocity spans,
    naming it ``targets[i]``."""
    for i, t in enumerate(targets):
        if not (cfg.blind_range <= t.range_m <= cfg.unambiguous_range):
            raise ConfigError(
                f"targets[{i}]: range_m {t.range_m} outside "
                f"[{cfg.blind_range}, {cfg.unambiguous_range}], {OBSERVABLE_WINDOW}")
        if abs(t.velocity) >= cfg.unambiguous_velocity:
            raise ConfigError(
                f"targets[{i}]: velocity {t.velocity} outside the "
                f"unambiguous span +/-{cfg.unambiguous_velocity:.6g} m/s, "
                f"{UNAMBIGUOUS_VELOCITY}")


def _ula(theta_deg, spacing: float, n: int) -> np.ndarray:
    """(..., n) steering of an n-element uniform line array with the given
    element spacing in wavelengths."""
    s = np.sin(np.deg2rad(np.asarray(theta_deg, dtype=float)))
    return np.exp(2j * np.pi * spacing * np.multiply.outer(s, np.arange(n)))


@dataclass(frozen=True)
class ArrayModel:
    """Error-free ULA geometry: the receive array and the spacing of the
    transmit array, whose element count is the config's ``n_tx``."""

    n_rx: int = 12
    tx_spacing: float = 6.0    # wavelengths
    rx_spacing: float = 0.5    # wavelengths

    def __post_init__(self):
        if not self.n_rx >= 1:
            raise ConfigError("n_rx must be >= 1")
        if not np.isfinite([self.tx_spacing, self.rx_spacing]).all():
            raise ConfigError("tx_spacing and rx_spacing must be finite")

    def virtual_steering(self, theta_deg, n_tx: int) -> np.ndarray:
        """(..., P) steering with M = ``n_tx`` transmitters, p = n*M + m."""
        a_t = _ula(theta_deg, self.tx_spacing, n_tx)
        a_r = _ula(theta_deg, self.rx_spacing, self.n_rx)
        return (a_r[..., :, None] * a_t[..., None, :]).reshape(
            *a_t.shape[:-1], n_tx * self.n_rx)


# ---------------------------------------------------------------------------
# Echo synthesis
# ---------------------------------------------------------------------------

def _contribution(t: Target, pulses: np.ndarray, array: ArrayModel,
                  cfg: RadarConfig, out: np.ndarray | None = None
                  ) -> np.ndarray:
    """Target t's (n_prt, E) transmit contribution, into ``out`` if given:
    the (M, n_prt, E) ``pulses`` weighted by its transmit steering, times
    its scattering coefficient and per-PRT Doppler phase."""
    a_t = _ula(t.azimuth_deg, array.tx_spacing, cfg.n_tx)         # (M,)
    dopp = np.exp(2j * np.pi * t.doppler(cfg.wavelength)
                  * np.arange(pulses.shape[1]) * cfg.prt_duration)
    out = np.einsum("m,min->in", a_t, pulses, out=out)
    return np.multiply(t.coeff * dopp[:, None], out, out=out)


def _add_echoes(echo: np.ndarray, steering: np.ndarray, delays,
                contribs: np.ndarray, work: np.ndarray,
                cfg: RadarConfig) -> None:
    """The echo kernel: add to one antenna's (n_prt, R) listening window
    ``echo``, samples [E, samples_per_prt) of its PRTs, the echoes of the
    targets whose delays (in samples) ``delays`` gives, in that order.

    Target k's echo is its (n_prt, E) transmit contribution
    ``contribs[k]`` times its receive steering ``steering[k]``. The
    product is taken over the target's whole segment [d, min(d + E,
    samples_per_prt)) as one array in the scratch ``work``, so the rounding
    of the product's vector tail does not depend on the window, and only
    its part at or after sample E (the receiver is blanked before) is
    added.
    """
    n_p, E = cfg.samples_per_prt, cfg.samples_per_pulse
    n_prt, _ = echo.shape
    prod = work[:n_prt * E].reshape(n_prt, E)
    for k, d in enumerate(delays):
        stop = min(n_p, d + E)
        first = max(d, E)
        seg = np.multiply(steering[k], contribs[k, :, :stop - d],
                          out=prod[:, :stop - d])
        echo[:, first - E:stop - E] += seg[:, first - d:]


def synthesize_echo(plan: HopPlan, psk: PskGrid, scene: tuple[Target, ...],
                    array: ArrayModel, cfg: RadarConfig,
                    noise_var: float = 0.0, rng=None) -> np.ndarray:
    """Per-receive-antenna echo samples for one CPI.

    Returns (N, n_prt, samples_per_prt) complex. Each target contributes the
    delayed superposition of the transmit pulses weighted by the two-way
    steering and its scattering coefficient, with a per-PRT Doppler phase.
    Delays are rounded to the sample grid; samples inside the transmit
    window are zero (pulsed-radar blind zone). A scene outside the
    observable window (:func:`check_scene`) and a bad ``noise_var`` raise
    :class:`ConfigError` before anything is drawn. The noise is one
    :func:`impairments.complex_noise` draw of shape (N, n_prt,
    samples_per_prt), made before the echoes, so equal seeds give equal
    noise regardless of the scene/plan; its samples in the transmit window
    are drawn and dropped.

    This is the echo array that :func:`echo_profiles` never builds, as
    plain whole-array code: the draw with its transmit window zeroed, then
    each target's echo at every antenna at once, in scene order, as the
    (N, n_prt, E) product of its receive steering and its transmit
    contribution over its whole segment [d, min(d + E, samples_per_prt)),
    of which only the part at or after sample E is added. So
    ``matched_filter(synthesize_echo(...))`` is ``echo_profiles(...)``
    byte for byte: the tests and the acceptance suite read it as the
    reference that the pipeline must equal.
    """
    check_scene(scene, cfg)
    check_noise_var(noise_var)
    N, n_p, E = array.n_rx, cfg.samples_per_prt, cfg.samples_per_pulse
    rx = complex_noise((N, plan.n_prt, n_p), noise_var, rng)
    rx[:, :, :E] = 0
    pulses = synthesize(plan, psk, cfg).data                  # (M, n_prt, E)
    for t in scene:
        d = int(round(t.delay() * cfg.sample_rate))
        stop, first = min(n_p, d + E), max(d, E)
        a_r = _ula(t.azimuth_deg, array.rx_spacing, N)
        echo = a_r[:, None, None] * _contribution(
            t, pulses, array, cfg)[None, :, :stop - d]
        rx[:, :, first:stop] += echo[:, :, first - d:]
    return rx


# ---------------------------------------------------------------------------
# Pulse compression and range-Doppler map
# ---------------------------------------------------------------------------

def _range_bins(cfg: RadarConfig) -> int:
    """The R = samples_per_prt - samples_per_pulse listening samples, one
    range bin each; a pulse that fills the PRT is a :class:`ConfigError`."""
    R = cfg.samples_per_prt - cfg.samples_per_pulse
    if R < 1:
        raise ConfigError(
            f"the radar needs a listening window: samples_per_prt - "
            f"samples_per_pulse = {R} range bins, must be >= 1 (shorten "
            f"radar.hops_per_pulse * radar.hop_duration or lengthen "
            f"radar.prt_duration)")
    return R


def check_channels(cfg: RadarConfig, array: ArrayModel) -> None:
    """Refuse a virtual array of fewer than two channels (n_tx * n_rx),
    whose angle spectrum is flat."""
    P = cfg.n_tx * array.n_rx
    if P < 2:
        raise ConfigError(f"n_tx*n_rx = {P} virtual channel, must be >= 2 "
                          f"to estimate an angle")


def _compress_antenna(profiles: np.ndarray, n: int, echo: np.ndarray,
                      refs: np.ndarray, work: np.ndarray,
                      cfg: RadarConfig) -> None:
    """The compression loop of :func:`_front_end`: write the range
    profiles of receive antenna n, channels n*M ... n*M + M-1 of the
    (n_prt, N*M, R) ``profiles``, from its (n_prt, R) listening window
    ``echo``, the view of the antenna's last channel in ``profiles``.

    Range bin k is sum_u rx[E+k+u] conj(s[u]) over the E pulse samples,
    so only the R listening samples enter; their linear correlation with
    the pulse spans R + E - 1 < n_p lags and fits an n_p-point FFT without
    wrap. ``refs`` holds the pulses' (M, n_prt, n_p) conjugate spectra.
    The PRTs are transformed in blocks of about ``BLOCK_BYTES`` per
    n_p-sample array, on two such blocks of the scratch ``work``; a block
    of the echo is read into the scratch before that block's M channels
    are written, so the in-place pass is exact.
    """
    n_prt, _, R = profiles.shape
    M, n_p = cfg.n_tx, cfg.samples_per_prt
    rows = _compress_rows(cfg, n_prt)
    scratch = work[:2 * rows * n_p].reshape(2, rows, n_p)
    for i in range(0, n_prt, rows):
        X, Y = scratch[:, :min(rows, n_prt - i)]
        block = slice(i, i + len(X))
        np.fft.fft(echo[block], n_p, axis=-1, out=X)
        for m in range(M):
            np.multiply(X, refs[m, block], out=Y)
            profiles[block, n * M + m] = np.fft.ifft(Y, axis=-1, out=Y)[:, :R]


def _compress_rows(cfg: RadarConfig, n_prt: int) -> int:
    """The PRTs per compression block: about ``BLOCK_BYTES`` of
    complex128 samples_per_prt-sample rows, at most the CPI."""
    return max(1, min(n_prt, BLOCK_BYTES // (16 * cfg.samples_per_prt)))


def _front_end(window: np.ndarray, plan: HopPlan, psk: PskGrid,
               cfg: RadarConfig, lead, scene: tuple[Target, ...],
               array: ArrayModel, profiles: np.ndarray) -> None:
    """Fill the (N, n_prt, R) listening windows ``window`` of N receive
    antennas, the last channel of each in ``profiles``, with ``lead`` and
    the echo of ``scene``, and compress each into ``profiles``, as one
    :func:`_each` pipeline.

    ``lead`` (the noise draw, :func:`impairments.noise_steps`, or ``()``
    for windows already filled) runs on the calling thread; its item n
    means that antenna n's window is drawn. Meanwhile the other threads
    build the pulses' conjugate spectra and the (n_prt, E) contributions
    (:func:`_contribution`) of the first targets, as many as fit
    ``ECHO_BLOCK_BYTES``, and then take the antennas in order as each is
    drawn: each adds those targets' echoes (:func:`_add_echoes`) and, if
    they are the scene's last, is compressed in place
    (:func:`_compress_antenna`). A larger scene runs each later block of
    targets as one more pass: its contributions, then the antennas, so the
    memory held does not grow with the scene. Each antenna gets its
    targets in scene order, so the profiles are the same bytes at any
    thread count. The calling thread allocates every array the pipeline
    fills.
    """
    N, n_prt, _ = window.shape
    M, n_p = cfg.n_tx, cfg.samples_per_prt
    pulses = synthesize(plan, psk, cfg).data                  # (M, n_prt, E)
    delays = [int(round(t.delay() * cfg.sample_rate)) for t in scene]
    per_pass = max(1, ECHO_BLOCK_BYTES // pulses[0].nbytes)
    contribs = np.empty((min(len(scene), per_pass), *pulses.shape[1:]),
                        dtype=np.complex128)
    steering = np.empty((len(contribs), N), dtype=np.complex128)
    refs = np.empty((M, n_prt, n_p), dtype=np.complex128)
    work_shape = (max(pulses[0].size, 2 * _compress_rows(cfg, n_prt) * n_p),)

    def spectra():
        np.fft.fft(pulses, n_p, axis=-1, out=refs)
        np.conj(refs, out=refs)

    def contribution(k, t):
        steering[k] = _ula(t.azimuth_deg, array.rx_spacing, N)   # (N,)
        _contribution(t, pulses, array, cfg, out=contribs[k])

    def one_pass(start):
        targets = scene[start:start + per_pass]
        compress = start + per_pass >= len(scene)
        set_up = [spectra] if start == 0 else []
        set_up += [partial(contribution, k, t) for k, t in enumerate(targets)]

        def task(i, work):
            if i < len(set_up):
                set_up[i]()
                return
            n = i - len(set_up)
            _add_echoes(window[n], steering[:, n],
                        delays[start:start + len(targets)], contribs, work,
                        cfg)
            if compress:
                _compress_antenna(profiles, n, window[n], refs, work, cfg)

        _each(task, len(set_up) + N, work_shape,
              lead=lead if start == 0 else (), set_up=len(set_up))

    for start in range(0, max(1, len(scene)), per_pass):
        one_pass(start)


def matched_filter(rx: np.ndarray, plan: HopPlan, psk: PskGrid,
                   cfg: RadarConfig) -> np.ndarray:
    """Correlate every receive stream with every planned transmit pulse.

    rx: (N, n_prt, samples_per_prt) for any number N of receive antennas.
    Returns the (n_prt, P, n_range) range profiles, PRT-major as the
    :func:`mtd` cube, with P = N*M channels (p = n*M + m) and range bins
    covering the listening window [pulse end, PRT end); a pulse that fills
    the PRT leaves no range bin and is a :class:`ConfigError`. An ``rx``
    whose PRTs are not the plan's ``n_prt`` of ``samples_per_prt`` samples
    is a :class:`ConfigError`.

    This is the compression of :func:`_compress_antenna` as plain
    whole-array code: one n_p-point FFT of every listening window, then
    per transmit antenna m the product with pulse m's conjugate spectrum
    and its inverse FFT, so ``matched_filter(synthesize_echo(...))`` is
    :func:`echo_profiles` byte for byte.
    """
    N, n_prt, n_p = rx.shape
    if (n_prt, n_p) != (plan.n_prt, cfg.samples_per_prt):
        raise ConfigError(
            f"rx holds (n_prt, samples_per_prt) = {(n_prt, n_p)}, but the "
            f"plan and config give {(plan.n_prt, cfg.samples_per_prt)}")
    M, R = cfg.n_tx, _range_bins(cfg)
    X = np.fft.fft(rx[:, :, cfg.samples_per_pulse:], n_p, axis=-1)
    refs = np.conj(np.fft.fft(synthesize(plan, psk, cfg).data, n_p, axis=-1))
    profiles = np.empty((n_prt, N * M, R), dtype=np.complex128)
    for m in range(M):
        y = np.fft.ifft(X * refs[m], axis=-1)                 # (N, n_prt, n_p)
        profiles[:, m::M] = y[:, :, :R].transpose(1, 0, 2)
    return profiles


def echo_profiles(plan: HopPlan, psk: PskGrid, scene: tuple[Target, ...],
                  array: ArrayModel, cfg: RadarConfig,
                  noise_var: float = 0.0, rng=None) -> np.ndarray:
    """The range profiles of one CPI's echo of ``scene``, without an echo
    array: ``matched_filter(synthesize_echo(...), plan, psk, cfg)`` byte
    for byte, for the same arguments and seed, at any thread count.

    Each antenna's listening window (noise and echo, as
    :func:`synthesize_echo` writes it) goes straight into the slot of its
    last channel, the (N, n_prt, R) view ``profiles[:, M-1::M]``
    transposed, and is compressed there in place, so the call holds the
    (n_prt, N*M, R) profiles, which it returns, and no (N, n_prt,
    samples_per_prt) array. The calling thread draws the noise
    (:func:`impairments.noise_steps`, the seed's one stream in its one
    order) while the other threads build the pulse spectra and the
    targets' contributions, then add the echoes of each antenna whose
    noise is drawn and compress it (:func:`_front_end`); one usable CPU
    starts no thread, and runs the draw, then the antennas in order. A
    variance of 0 draws nothing: the buffer is allocated as zeros. A scene
    outside the observable window, a bad ``noise_var`` and a pulse that
    fills the PRT are each a :class:`ConfigError` before the profiles are
    allocated. A virtual array of one channel gives its profiles:
    :func:`process_cpi` and :func:`bench.radar_cpi` refuse it.
    """
    check_scene(scene, cfg)
    check_noise_var(noise_var)
    M, n_p = cfg.n_tx, cfg.samples_per_prt
    alloc = np.empty if noise_var else np.zeros
    profiles = alloc((plan.n_prt, array.n_rx * M, _range_bins(cfg)),
                     dtype=np.complex128)
    window = profiles[:, M - 1::M].transpose(1, 0, 2)      # (N, n_prt, R)
    _front_end(window, plan, psk, cfg,
               noise_steps(window, noise_var, rng, row=n_p), scene, array,
               profiles)
    return profiles


@dataclass(frozen=True, eq=False)
class RangeDopplerMap(Value):
    """Doppler-transformed per-channel cube and its physical bin scalings."""

    cube: np.ndarray         # (n_doppler, P, n_range) complex
    cfg: RadarConfig

    @property
    def range_offset(self) -> int:
        """Fast-time sample index of range bin 0: the pulse end."""
        return self.cfg.samples_per_pulse

    @property
    def n_doppler(self) -> int:
        return self.cube.shape[0]

    @property
    def n_range(self) -> int:
        return self.cube.shape[2]

    def doppler_freqs(self) -> np.ndarray:
        return (np.arange(self.n_doppler) - self.n_doppler // 2) \
            / (self.n_doppler * self.cfg.prt_duration)

    def detection_statistic(self) -> np.ndarray:
        """Incoherent accumulation over spatial channels: sum_p |Y_fp(t)|.

        One Doppler plane per :func:`_each` task, so no (n_doppler, P,
        n_range) magnitude array is built.
        """
        stat = np.empty((self.n_doppler, self.n_range))

        def plane(f, mag):
            np.abs(self.cube[f], out=mag).sum(axis=0, out=stat[f])

        _each(plane, self.n_doppler, self.cube.shape[1:], float)
        return stat


def mtd(profiles: np.ndarray, cfg: RadarConfig) -> RangeDopplerMap:
    """Slow-time DFT across PRTs: the range-Doppler map, in place.

    profiles: (n_prt, P, n_range), as :func:`echo_profiles` and
    :func:`matched_filter` write them. Each channel is copied into its task's contiguous (n_prt, n_range)
    scratch, transformed there along the PRT axis and written back
    shifted, so bin n_doppler//2 is zero Doppler: ``profiles`` is
    overwritten and becomes the map's (n_doppler, P, n_range) cube, and is
    read-only from then on. Each channel is one :func:`_each` task.
    """
    F = profiles.shape[0]
    s = F // 2

    def channel(p, X):
        # the two halves land shifted: out[k] = X[(k-s) % F]
        X[...] = profiles[:, p]                               # (F, R)
        np.fft.fft(X, axis=0, out=X)
        profiles[:s, p] = X[F - s:]
        profiles[s:, p] = X[:F - s]

    _each(channel, profiles.shape[1], (F, profiles.shape[2]))
    return RangeDopplerMap(profiles, cfg)


# ---------------------------------------------------------------------------
# CFAR detection
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def cfar_threshold_scale(n_channels: int, p_fa: float) -> float:
    """Cell-averaging CFAR multiplier for the magnitude-sum statistic.

    The (1 - p_fa) quantile, in units of the mean, of a sum of n iid
    unit-scale Rayleigh magnitudes, via numeric convolution of the density.
    """
    # grid generous enough for the upper tail
    mean1 = np.sqrt(np.pi / 2)
    hi = n_channels * mean1 + 12 * np.sqrt(n_channels * (2 - np.pi / 2))
    n_grid = 1 << 14
    dx = hi / n_grid
    x = (np.arange(n_grid) + 0.5) * dx
    pdf = x * np.exp(-x * x / 2.0)
    F = np.fft.rfft(pdf * dx)
    conv = np.fft.irfft(F ** n_channels, n=n_grid)
    conv = np.maximum(conv, 0.0)
    cdf = np.cumsum(conv)
    cdf /= cdf[-1]
    idx = int(np.searchsorted(cdf, 1.0 - p_fa))
    q = (idx + 0.5) * dx
    return q / (n_channels * mean1)


@dataclass(frozen=True, eq=False)
class DetectionList(Value):
    """The D detections of one CPI as columns, each an array over D.

    ``cfar_detect`` gives the bins and the CFAR statistic and threshold,
    with ``range_m``, ``velocity`` and ``azimuth_deg`` zero;
    ``estimate_params`` returns the list with those three filled.
    """

    doppler_bin: np.ndarray   # (D,) int
    range_bin: np.ndarray     # (D,) int
    statistic: np.ndarray     # (D,)
    threshold: np.ndarray     # (D,)
    range_m: np.ndarray       # (D,)
    velocity: np.ndarray      # (D,)
    azimuth_deg: np.ndarray   # (D,)

    def __len__(self):
        return len(self.statistic)

    def to_csv(self, path, cfg_hash=None) -> None:
        cols = ["doppler_bin", "range_bin", "range_m", "velocity",
                "azimuth_deg", "statistic", "threshold"]
        write_csv(path, cols, zip(*(getattr(self, c).tolist() for c in cols)),
                  cfg_hash)


def _box_mean(sat: np.ndarray, half: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated-window box sums and counts from the (F+1, R+1)
    summed-area table ``sat`` of an (F, R) map: each cell's window corners
    come from one row gather per window edge and column gathers of those
    rows."""
    F, R = sat.shape[0] - 1, sat.shape[1] - 1
    f = np.arange(F)
    r = np.arange(R)
    f0 = np.clip(f - half, 0, F)
    f1 = np.clip(f + half + 1, 0, F)
    r0 = np.clip(r - half, 0, R)
    r1 = np.clip(r + half + 1, 0, R)
    top, bottom = sat[f0], sat[f1]                          # (F, R+1)
    # ((bottom - top)[r1] - bottom[r0]) + top[r0], as four corner gathers
    # of sat would sum them
    sums = (bottom - top)[:, r1] - bottom[:, r0] + top[:, r0]
    counts = np.outer(f1 - f0, r1 - r0)
    return sums, counts


def cfar_detect(rdm: RangeDopplerMap, p_fa: float) -> DetectionList:
    """2D cell-averaging CFAR on the incoherent channel sum.

    The noise level per cell is the mean of the training ring (a square
    annulus ``CFAR_TRAINING_CELLS`` wide beyond ``CFAR_GUARD_CELLS``);
    windows truncate at the map edges. Cells above threshold are clustered
    by keeping local maxima of the statistic over their 8-neighborhood.
    """
    stat = rdm.detection_statistic()
    sat = np.zeros((stat.shape[0] + 1, stat.shape[1] + 1))  # summed-area
    sat[1:, 1:] = stat.cumsum(axis=0).cumsum(axis=1)
    sum_out, cnt_out = _box_mean(sat, CFAR_GUARD_CELLS + CFAR_TRAINING_CELLS)
    sum_in, cnt_in = _box_mean(sat, CFAR_GUARD_CELLS)
    train_mean = (sum_out - sum_in) / np.maximum(cnt_out - cnt_in, 1)
    alpha = cfar_threshold_scale(rdm.cube.shape[1], p_fa)
    threshold = alpha * train_mean

    above = stat > threshold
    # 8-neighborhood local maxima: at least as large as all 8 neighbours,
    # above threshold or not (cells beyond the map edge count as -inf); on
    # a plateau every cell of the maximum is kept. The 3x3 maximum that
    # also holds the cell itself gives the same test, and is taken along
    # each axis in turn from shifted views
    pad = np.pad(stat, 1, constant_values=-np.inf)
    rows = np.maximum(np.maximum(pad[:, :-2], pad[:, 1:-1]), pad[:, 2:])
    box = np.maximum(np.maximum(rows[:-2], rows[1:-1]), rows[2:])
    is_max = stat >= box
    f_bin, t_bin = np.nonzero(above & is_max)
    return DetectionList(f_bin, t_bin, stat[f_bin, t_bin],
                         threshold[f_bin, t_bin], *np.zeros((3, f_bin.size)))


# ---------------------------------------------------------------------------
# Parameter estimation
# ---------------------------------------------------------------------------

def angle_grid(fov_deg: float, n_points: int) -> np.ndarray:
    """Uniform azimuth grid over [-fov, fov) degrees."""
    step = 2 * fov_deg / n_points
    return -fov_deg + step * np.arange(n_points)


def estimate_angle(z: np.ndarray, array: ArrayModel,
                   grid: np.ndarray) -> np.ndarray:
    """Azimuths maximizing |a(theta)^H z|^2 over the grid.

    ``z`` holds D channel vectors stacked as (D, P), so the virtual array
    has P // n_rx transmitters; returns the (D,) azimuths. The (L, P)
    steering matrix is built once per call, and the (D, L) spectrum is
    taken in near-equal row blocks of about ``BLOCK_BYTES`` of complex
    values, so the memory a call takes does not grow with D. Each block
    holds at least two rows, and one detection is taken as two copies of
    its row: matmul takes a one-row product through gemv, whose sums round
    unlike the gemm of two or more rows, so on a near-tie of two grid
    angles a detection's azimuth would depend on how many detections
    share its call.
    """
    AH = array.virtual_steering(grid, z.shape[1] // array.n_rx).conj().T
    D = len(z)
    if D == 1:
        z = np.repeat(z, 2, axis=0)
    n_blocks = max(1, min(len(z) // 2,
                          -(-16 * len(z) * AH.shape[1] // BLOCK_BYTES)))
    best = []
    for block in np.array_split(z, n_blocks):
        spectrum = np.abs(block @ AH)                         # (rows, L)
        spectrum **= 2      # in place: no second (rows, L) array
        best.append(np.argmax(spectrum, axis=1))
    return np.asarray(grid)[np.concatenate(best)[:D]]


def estimate_params(dets: DetectionList, rdm: RangeDopplerMap,
                    array: ArrayModel, grid: np.ndarray) -> DetectionList:
    """A CPI's detections with the range, velocity and azimuth columns
    filled.

    Range and velocity come from the bin columns; the (D, P) channel
    vectors of the detected cells go to one ``estimate_angle`` call.
    """
    cfg = rdm.cfg
    t_star = (rdm.range_offset + dets.range_bin) / cfg.sample_rate
    f_star = rdm.doppler_freqs()[dets.doppler_bin]
    return replace(
        dets, range_m=SPEED_OF_LIGHT * t_star / 2.0,
        velocity=cfg.wavelength * f_star / 2.0,
        azimuth_deg=estimate_angle(
            rdm.cube[dets.doppler_bin, :, dets.range_bin], array, grid))


def process_cpi(profiles: np.ndarray, cfg: RadarConfig, array: ArrayModel,
                grid: np.ndarray, p_fa: float = 1e-4
                ) -> tuple[RangeDopplerMap, DetectionList]:
    """Back end of one CPI: MTD, CFAR and parameters.

    profiles: the (n_prt, P, n_range) range profiles of
    :func:`echo_profiles` or :func:`matched_filter`, with P = ``cfg.n_tx
    * array.n_rx``. Returns the range-Doppler map and the CPI's
    detections with every column filled. :func:`mtd` transforms the
    profiles in place into the map's cube, which takes the buffer without
    a copy when it owns its memory, so a CPI holds one cube-sized array.
    A virtual array of fewer than two channels (one channel's angle
    spectrum is flat) or profiles of another channel count is a
    :class:`ConfigError`.
    """
    check_channels(cfg, array)
    P = cfg.n_tx * array.n_rx
    if profiles.shape[1] != P:
        raise ConfigError(f"the profiles hold {profiles.shape[1]} channels, "
                          f"but the config and array give n_tx*n_rx = {P}")
    rdm = mtd(profiles, cfg)
    return rdm, estimate_params(cfar_detect(rdm, p_fa), rdm, array, grid)
