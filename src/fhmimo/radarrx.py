"""Radar receive chain: echo synthesis, pulse compression, range-Doppler
processing, CFAR detection, array calibration and grid angle estimation.

The virtual array is the Kronecker product of the receive and transmit
steering vectors; with M transmitters every receive stream passes all M
matched filters, giving P = M*N spatial channels ordered p = n*M + m.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .config import SPEED_OF_LIGHT, ConfigError, RadarConfig
from .impairments import complex_noise
from .iqfile import write_csv
from .waveform import HopPlan, PskGrid, synthesize

CFAR_GUARD_CELLS = 2      # guard ring around the cell under test
CFAR_TRAINING_CELLS = 8   # width of the training ring beyond the guard ring
CAL_MIN_LEVEL = 1e-9      # smallest anchor channel magnitude to calibrate on


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


@dataclass
class TargetScene:
    targets: list

    def __post_init__(self):
        self.targets = list(self.targets)

    @classmethod
    def random(cls, cfg: RadarConfig, n_targets: int = 50, rng=None,
               range_span=(750.0, 4185.0), velocity_span=(-170.0, 170.0),
               azimuth_span=(-4.0, 4.0)) -> "TargetScene":
        """``n_targets`` targets drawn uniformly over the spans; the range
        span is first clamped to the observable window. A negative count or
        a span that is empty or not two entries is a :class:`ConfigError`."""
        for name, span in (("range_span", range_span),
                           ("velocity_span", velocity_span),
                           ("azimuth_span", azimuth_span)):
            if len(span) != 2:
                raise ConfigError(f"{name} must be [low, high], got {span}")
        lo_r = max(range_span[0], cfg.blind_range)
        hi_r = min(range_span[1], cfg.unambiguous_range)
        if not n_targets >= 0:
            raise ConfigError("n_targets must be >= 0")
        for name, (lo, hi) in (("range_span", (lo_r, hi_r)),
                               ("velocity_span", velocity_span),
                               ("azimuth_span", azimuth_span)):
            if not lo <= hi:                        # NaN fails too
                raise ConfigError(f"{name} [{lo}, {hi}] is empty")
        rng = np.random.default_rng(rng)
        targets = []
        for _ in range(n_targets):
            targets.append(Target(
                range_m=float(rng.uniform(lo_r, hi_r)),
                velocity=float(rng.uniform(*velocity_span)),
                azimuth_deg=float(rng.uniform(*azimuth_span)),
                coeff=np.exp(2j * np.pi * rng.random()),
            ))
        return cls(targets)

    def validate(self, cfg: RadarConfig) -> None:
        for t in self.targets:
            if not (cfg.blind_range <= t.range_m <= cfg.unambiguous_range):
                raise ConfigError(
                    f"target range {t.range_m} outside "
                    f"[{cfg.blind_range}, {cfg.unambiguous_range}]")
            if abs(t.velocity) >= cfg.unambiguous_velocity:
                raise ConfigError("target velocity outside unambiguous span")


@dataclass(frozen=True)
class ArrayModel:
    """Transmit/receive ULA geometry with per-element complex gain errors."""

    n_tx: int = 2
    n_rx: int = 12
    tx_spacing: float = 6.0    # wavelengths
    rx_spacing: float = 0.5    # wavelengths
    tx_errors: np.ndarray | None = None
    rx_errors: np.ndarray | None = None

    def __post_init__(self):
        if not (self.n_tx >= 1 and self.n_rx >= 1):
            raise ConfigError("n_tx and n_rx must be >= 1")
        if not np.isfinite([self.tx_spacing, self.rx_spacing]).all():
            raise ConfigError("tx_spacing and rx_spacing must be finite")

    @property
    def n_virtual(self) -> int:
        return self.n_tx * self.n_rx

    def _errs(self):
        e_t = (np.ones(self.n_tx, dtype=complex) if self.tx_errors is None
               else np.asarray(self.tx_errors, dtype=complex))
        e_r = (np.ones(self.n_rx, dtype=complex) if self.rx_errors is None
               else np.asarray(self.rx_errors, dtype=complex))
        return e_t, e_r

    def with_random_errors(self, rng=None) -> "ArrayModel":
        """This geometry with uniform random phase errors, n_tx transmit
        phases drawn first, then n_rx receive phases."""
        rng = np.random.default_rng(rng)
        return replace(
            self, tx_errors=np.exp(1j * rng.uniform(-np.pi, np.pi, self.n_tx)),
            rx_errors=np.exp(1j * rng.uniform(-np.pi, np.pi, self.n_rx)))

    def steering_tx(self, theta_deg) -> np.ndarray:
        s = np.sin(np.deg2rad(np.asarray(theta_deg, dtype=float)))
        m = np.arange(self.n_tx)
        return np.exp(2j * np.pi * self.tx_spacing
                      * np.multiply.outer(s, m))

    def steering_rx(self, theta_deg) -> np.ndarray:
        s = np.sin(np.deg2rad(np.asarray(theta_deg, dtype=float)))
        n = np.arange(self.n_rx)
        return np.exp(2j * np.pi * self.rx_spacing
                      * np.multiply.outer(s, n))

    def virtual_steering(self, theta_deg, include_errors: bool = True
                         ) -> np.ndarray:
        """(..., P) steering of the virtual array, p = n*M + m."""
        a_t = self.steering_tx(theta_deg)
        a_r = self.steering_rx(theta_deg)
        out = (a_r[..., :, None] * a_t[..., None, :]).reshape(
            *a_t.shape[:-1], self.n_virtual)
        if include_errors:
            e_t, e_r = self._errs()
            out = out * np.kron(e_r, e_t)
        return out


# ---------------------------------------------------------------------------
# Echo synthesis
# ---------------------------------------------------------------------------

def synthesize_echo(plan: HopPlan, psk: PskGrid | None, scene: TargetScene,
                    array: ArrayModel, cfg: RadarConfig,
                    noise_var: float = 0.0, rng=None) -> np.ndarray:
    """Per-receive-antenna echo samples for one CPI.

    Returns (N, n_prt, samples_per_prt) complex. Each target contributes the
    delayed superposition of the transmit pulses weighted by the two-way
    steering and its scattering coefficient, with a per-PRT Doppler phase.
    Delays are rounded to the sample grid; samples inside the transmit
    window are zeroed (pulsed-radar blind zone). The noise is one
    :func:`complex_noise` draw of shape (N, n_prt, samples_per_prt), made
    before the echoes, so equal seeds give equal noise regardless of the
    scene/plan and a bad ``noise_var`` raises its :class:`ConfigError`.
    """
    N = array.n_rx
    n_prt = plan.n_prt
    n_p = cfg.samples_per_prt
    n_pulse = cfg.samples_per_pulse
    rx = complex_noise((N, n_prt, n_p), noise_var, rng)
    scene_ok = []
    for t in scene.targets:
        if t.delay() < cfg.hops_per_pulse * cfg.hop_duration:
            warnings.warn(f"target at {t.range_m:.0f} m inside blind zone; "
                          "excluded")
            continue
        scene_ok.append(t)

    pulses = synthesize(plan, psk, cfg).prt_view()[:, :, :n_pulse]  # (M,n_prt,E)
    e_t, e_r = array._errs()
    i_idx = np.arange(n_prt)
    for t in scene_ok:
        d = int(round(t.delay() * cfg.sample_rate))
        a_t = array.steering_tx(t.azimuth_deg) * e_t          # (M,)
        a_r = array.steering_rx(t.azimuth_deg) * e_r          # (N,)
        dopp = np.exp(2j * np.pi * t.doppler(cfg.wavelength)
                      * i_idx * cfg.prt_duration)             # (n_prt,)
        tx_sum = np.einsum("m,min->in", a_t, pulses)          # (n_prt, E)
        contrib = t.coeff * dopp[:, None] * tx_sum            # (n_prt, E)
        stop = min(n_p, d + n_pulse)
        seg = contrib[:, :stop - d]
        rx[:, :, d:stop] += a_r[:, None, None] * seg[None]
    rx[:, :, :n_pulse] = 0.0  # receiver blanked while transmitting
    return rx


# ---------------------------------------------------------------------------
# Pulse compression and range-Doppler map
# ---------------------------------------------------------------------------

def matched_filter(rx: np.ndarray, plan: HopPlan, psk: PskGrid | None,
                   cfg: RadarConfig) -> np.ndarray:
    """Correlate every receive stream with every planned transmit pulse.

    rx: (N, n_prt, samples_per_prt). Returns (P, n_prt, n_range) range
    profiles with P = N*M channels (p = n*M + m) and range bins covering
    the listening window [pulse end, PRT end).

    Range bin k is sum_u rx[E+k+u] conj(s[u]) over the E pulse samples,
    so only the R = n_p - E listening samples enter; their linear
    correlation with the pulse spans R + E - 1 < n_p lags and fits an
    n_p-point FFT without wrap. Receive antennas are transformed one at a
    time, so the temporaries are (n_prt, n_p).
    """
    N, n_prt, n_p = rx.shape
    M = cfg.n_tx
    E = cfg.samples_per_pulse
    R = n_p - E
    refs = synthesize(plan, psk, cfg).prt_view()[:, :, :E]    # (M, n_prt, E)
    S_conj = np.conj(np.fft.fft(refs, n_p, axis=-1))          # (M,n_prt,n_p)
    profiles = np.empty((N, M, n_prt, R), dtype=np.complex128)
    for n in range(N):
        X = np.fft.fft(rx[n, :, E:], n_p, axis=-1)            # (n_prt, n_p)
        for m in range(M):
            profiles[n, m] = np.fft.ifft(X * S_conj[m], axis=-1)[:, :R]
    return profiles.reshape(N * M, n_prt, R)


@dataclass
class RangeDopplerMap:
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

        One Doppler plane at a time, so no (n_doppler, P, n_range)
        magnitude array is built.
        """
        stat = np.empty((self.n_doppler, self.n_range))
        for f, plane in enumerate(self.cube):
            np.abs(plane).sum(axis=0, out=stat[f])
        return stat


def mtd(profiles: np.ndarray, cfg: RadarConfig) -> RangeDopplerMap:
    """Slow-time DFT across PRTs: the range-Doppler map.

    profiles: (P, n_prt, n_range). Doppler axis is shifted so bin
    n_doppler//2 is zero Doppler. The cube is C-contiguous
    (n_doppler, P, n_range), one FFT per channel.
    """
    P, F, R = profiles.shape
    s = F // 2
    cube = np.empty((F, P, R), dtype=np.complex128)
    for p in range(P):
        # the two halves land shifted and transposed: out[k] = X[(k-s) % F]
        X = np.fft.fft(profiles[p], axis=0)                   # (F, R)
        cube[:s, p] = X[F - s:]
        cube[s:, p] = X[:F - s]
    return RangeDopplerMap(cube, cfg)


# ---------------------------------------------------------------------------
# CFAR detection
# ---------------------------------------------------------------------------

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


@dataclass
class DetectionList:
    """The D detections of one CPI as columns, each an array over D.

    ``cfar_detect`` fills the bins, the CFAR statistic and threshold and the
    (D, P) channel vectors; ``estimate_params`` fills ``range_m``,
    ``velocity`` and ``azimuth_deg``, which are zero until then.
    """

    doppler_bin: np.ndarray   # (D,) int
    range_bin: np.ndarray     # (D,) int
    statistic: np.ndarray     # (D,)
    threshold: np.ndarray     # (D,)
    channel: np.ndarray       # (D, P) complex
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


def _box_mean(stat: np.ndarray, half: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated-window box sums and counts via a summed-area table."""
    F, R = stat.shape
    sat = np.zeros((F + 1, R + 1))
    sat[1:, 1:] = stat.cumsum(axis=0).cumsum(axis=1)
    f = np.arange(F)[:, None]
    r = np.arange(R)[None, :]
    f0 = np.clip(f - half, 0, F)
    f1 = np.clip(f + half + 1, 0, F)
    r0 = np.clip(r - half, 0, R)
    r1 = np.clip(r + half + 1, 0, R)
    sums = sat[f1, r1] - sat[f0, r1] - sat[f1, r0] + sat[f0, r0]
    counts = (f1 - f0) * (r1 - r0)
    return sums, counts


def cfar_detect(rdm: RangeDopplerMap, p_fa: float = 1e-4) -> DetectionList:
    """2D cell-averaging CFAR on the incoherent channel sum.

    The noise level per cell is the mean of the training ring (a square
    annulus ``CFAR_TRAINING_CELLS`` wide beyond ``CFAR_GUARD_CELLS``);
    windows truncate at the map edges. Cells above threshold are clustered
    by keeping local maxima of the statistic over their 8-neighborhood.
    """
    stat = rdm.detection_statistic()
    sum_out, cnt_out = _box_mean(stat, CFAR_GUARD_CELLS + CFAR_TRAINING_CELLS)
    sum_in, cnt_in = _box_mean(stat, CFAR_GUARD_CELLS)
    train_mean = (sum_out - sum_in) / np.maximum(cnt_out - cnt_in, 1)
    alpha = cfar_threshold_scale(rdm.cube.shape[1], p_fa)
    threshold = alpha * train_mean

    above = stat > threshold
    # 8-neighborhood local maxima: at least as large as all 8 neighbours,
    # above threshold or not (cells beyond the map edge count as -inf); on
    # a plateau every cell of the maximum is kept
    pad = np.pad(stat, 1, constant_values=-np.inf)
    neigh = np.stack([pad[1 + df:1 + df + stat.shape[0],
                          1 + dr:1 + dr + stat.shape[1]]
                      for df in (-1, 0, 1) for dr in (-1, 0, 1)
                      if not (df == 0 and dr == 0)])
    is_max = stat >= neigh.max(axis=0)
    f_bin, t_bin = np.nonzero(above & is_max)
    return DetectionList(f_bin, t_bin, stat[f_bin, t_bin],
                         threshold[f_bin, t_bin], rdm.cube[f_bin, :, t_bin],
                         *np.zeros((3, f_bin.size)))


# ---------------------------------------------------------------------------
# Calibration and parameter estimation
# ---------------------------------------------------------------------------

class CalibrationError(RuntimeError):
    pass


def calibrate(anchor_vector: np.ndarray, array: ArrayModel,
              anchor_azimuth_deg: float = 0.0) -> np.ndarray:
    """Array calibration vector from an anchor target of known direction.

    Channels are normalized to the first so that the calibrated steering
    a(theta)*cal sums the anchor's channel vector coherently.
    """
    z = np.asarray(anchor_vector)
    if np.any(np.abs(z) < CAL_MIN_LEVEL):
        raise CalibrationError("anchor channel level too low to calibrate")
    a_ideal = array.virtual_steering(anchor_azimuth_deg, include_errors=False)
    cal = (z / z[0]) / (a_ideal / a_ideal[0])
    return cal


def angle_grid(fov_deg: float = 30.0, n_points: int = 1024) -> np.ndarray:
    """Uniform azimuth grid over [-fov, fov) degrees."""
    step = 2 * fov_deg / n_points
    return -fov_deg + step * np.arange(n_points)


def estimate_angle(z: np.ndarray, array: ArrayModel, grid: np.ndarray,
                   cal: np.ndarray | None = None) -> float | np.ndarray:
    """Azimuth maximizing |a(theta)^H z|^2 over the grid.

    ``z`` is one channel vector of shape (P,), giving a float, or D of them
    stacked as (D, P), giving a (D,) array. The (L, P) steering matrix is
    built once per call and the (D, L) spectrum comes from one product.
    Without a calibration vector the ideal steering is used (correct for
    error-free arrays); with one, per-channel gains are folded in.
    """
    A = array.virtual_steering(grid, include_errors=False)   # (L, P)
    if cal is not None:
        A = A * cal
    z = np.asarray(z)
    spectrum = np.abs(np.atleast_2d(z) @ A.conj().T)          # (D, L)
    spectrum **= 2      # in place: no second (D, L) array
    theta = np.asarray(grid)[np.argmax(spectrum, axis=1)]
    return float(theta[0]) if z.ndim == 1 else theta


def estimate_params(dets: DetectionList, rdm: RangeDopplerMap,
                    array: ArrayModel, grid: np.ndarray,
                    cal: np.ndarray | None = None) -> DetectionList:
    """Fill the range, velocity and azimuth columns of a CPI's detections.

    Range and velocity come from the bin columns; the (D, P) channel
    vectors go to one ``estimate_angle`` call.
    """
    cfg = rdm.cfg
    t_star = (rdm.range_offset + dets.range_bin) / cfg.sample_rate
    dets.range_m = SPEED_OF_LIGHT * t_star / 2.0
    f_star = rdm.doppler_freqs()[dets.doppler_bin]
    dets.velocity = cfg.wavelength * f_star / 2.0
    dets.azimuth_deg = estimate_angle(dets.channel, array, grid, cal)
    return dets


def process_cpi(rx: np.ndarray, plan: HopPlan, psk: PskGrid | None,
                cfg: RadarConfig, array: ArrayModel, p_fa: float = 1e-4,
                grid: np.ndarray | None = None,
                cal: np.ndarray | None = None
                ) -> tuple[RangeDopplerMap, DetectionList]:
    """Full chain for one CPI: matched filter, MTD, CFAR, parameters.

    rx: (N, n_prt, samples_per_prt). Returns the range-Doppler map and the
    CPI's detections with every column filled.
    """
    # the profiles are freed once the cube exists, before CFAR's arrays
    rdm = mtd(matched_filter(rx, plan, psk, cfg), cfg)
    dets = cfar_detect(rdm, p_fa)
    if grid is None:
        grid = angle_grid()
    estimate_params(dets, rdm, array, grid, cal)
    return rdm, dets
