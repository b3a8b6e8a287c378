"""IQ sample container and file formats.

Binary IQ files and range-Doppler dumps each carry a small text header
(terminated by a ``data`` line) followed by interleaved float32 real/imag
pairs in the array's C order: (channel, PRT, sample) for IQ files,
(Doppler, channel, range) for the range-Doppler cube. CSV helpers stamp a
configuration hash comment so every artifact can be traced back to the
exact run settings.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .config import BLOCK_BYTES, ConfigError, RadarConfig, Value

_MAGIC = "FHIQ1"


class IqFormatError(ValueError):
    """Malformed IQ file header, truncated payload, or samples that do not
    fill a whole, nonzero number of PRTs."""


@dataclass(frozen=True, eq=False)
class IqFrame(Value):
    """Complex baseband samples of whole PRTs, starting at absolute PRT
    ``first_prt`` (the pilot-cycle phase of a capture).

    ``data`` stores the first ``data.shape[2]`` samples of each
    ``samples_per_prt``-sample PRT (all of them by default); the samples
    it leaves out are 0. A simulated frame stores only its pulse, and
    :func:`write_iq` writes the zero tail.

    A frame is a :class:`~fhmimo.config.Value`, so its samples are
    read-only. To edit samples, edit a copy and wrap it."""

    data: np.ndarray          # (n_channels, n_prt, stored samples) complex
    sample_rate: float
    first_prt: int = 0
    samples_per_prt: int | None = None

    def __post_init__(self):
        if self.first_prt < 0:
            raise ConfigError(f"first_prt must be >= 0, got {self.first_prt}")
        if self.samples_per_prt is None:
            object.__setattr__(self, "samples_per_prt", self.data.shape[2])
        if self.data.shape[2] > self.samples_per_prt:
            raise ConfigError(
                f"frame stores {self.data.shape[2]} samples of "
                f"{self.samples_per_prt}-sample PRTs")
        super().__post_init__()

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_prt(self) -> int:
        return self.data.shape[1]

    @property
    def n_samples(self) -> int:
        return self.n_prt * self.samples_per_prt

    def hops(self, cfg: RadarConfig, n_channels: int) -> np.ndarray:
        """(n_channels, n_prt, H, n_hop) view of each PRT's pulse, its
        first ``cfg.samples_per_pulse`` samples; hop h is samples
        [h*n_hop, (h+1)*n_hop). :class:`ConfigError`
        unless the frame is sampled as ``cfg`` says, has ``n_channels``
        channels and stores the whole pulse."""
        if (self.sample_rate != cfg.sample_rate
                or self.samples_per_prt != cfg.samples_per_prt
                or self.n_channels != n_channels
                or self.data.shape[2] < cfg.samples_per_pulse):
            raise ConfigError(
                f"frame of {self.n_channels} channels storing "
                f"{self.data.shape[2]} samples of {self.samples_per_prt}"
                f"-sample PRTs at {self.sample_rate:g} Hz does not match "
                f"the radar config ({n_channels} of {cfg.samples_per_prt}"
                f" with {cfg.samples_per_pulse}-sample pulses at "
                f"{cfg.sample_rate:g} Hz)")
        # splitting the last axis never copies
        return self.data[:, :, :cfg.samples_per_pulse].reshape(
            n_channels, self.n_prt, cfg.hops_per_pulse, cfg.samples_per_hop)


def _write_interleaved(path, header: str, data: np.ndarray,
                       length: int | None = None) -> None:
    """``header`` in ASCII, then ``data`` as float32 real/imag pairs, its
    last axis padded with zeros to ``length`` samples. The rows of the last
    axis go out in blocks of about ``BLOCK_BYTES``, so a whole capture or
    cube is never copied."""
    stored = data.shape[-1]
    length = stored if length is None else length
    # a view of a C-ordered array
    rows = data.reshape(math.prod(data.shape[:-1]), stored)
    n = max(1, BLOCK_BYTES // (8 * max(length, 1)))   # 8-byte float32 pairs
    # zeroed once: the padding past ``stored`` is never written
    block = np.zeros((min(n, len(rows)), length, 2), np.float32)
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        for i in range(0, len(rows), n):
            src = rows[i:i + n]
            out = block[:len(src)]
            out[:, :stored, 0] = src.real
            out[:, :stored, 1] = src.imag
            f.write(out)          # its own buffer, not a bytes copy


def write_iq(path, frame: IqFrame) -> None:
    """FHIQ file of ``frame``, every PRT written whole (the samples the
    frame does not store as 0); ``first_prt`` is written only when
    nonzero."""
    first = f"first_prt={frame.first_prt}\n" if frame.first_prt else ""
    _write_interleaved(path, f"{_MAGIC}\n"
                             f"sample_rate={frame.sample_rate:.17g}\n"
                             f"channels={frame.n_channels}\n"
                             f"samples={frame.n_samples}\n"
                             f"samples_per_prt={frame.samples_per_prt}\n"
                             f"{first}data\n", frame.data,
                       frame.samples_per_prt)


def write_rdm(path, rdm) -> None:
    """Range-Doppler dump of a :class:`radarrx.RangeDopplerMap`."""
    _write_interleaved(path, f"FHRDM1\ndoppler={rdm.n_doppler}\n"
                             f"channels={rdm.cube.shape[1]}\n"
                             f"range={rdm.n_range}\n"
                             f"range_offset={rdm.range_offset}\n"
                             f"prt_duration={rdm.cfg.prt_duration:.17g}\n"
                             f"sample_rate={rdm.cfg.sample_rate:.17g}\n"
                             f"data\n", rdm.cube)


def read_iq(path) -> IqFrame:
    """The frame of an FHIQ file, complex64 as stored; a missing
    ``first_prt`` key reads as 0."""
    with open(path, "rb") as f:
        first = f.readline().decode("ascii", "replace").strip()
        if first != _MAGIC:
            raise IqFormatError(f"bad magic {first!r}")
        fields = {}
        while True:
            line = f.readline().decode("ascii", "replace").strip()
            if line == "data":
                break
            if not line or "=" not in line:
                raise IqFormatError(f"bad header line {line!r}")
            key, val = line.split("=", 1)
            fields[key] = val
        try:
            sample_rate = float(fields["sample_rate"])
            channels = int(fields["channels"])
            samples = int(fields["samples"])
            spp = int(fields["samples_per_prt"])
            first_prt = int(fields.get("first_prt", 0))
        except (KeyError, ValueError) as exc:
            raise IqFormatError(f"incomplete header: {exc}") from exc
        if not (0 < sample_rate < np.inf and channels >= 1
                and first_prt >= 0):                # NaN fails too
            raise IqFormatError(
                f"bad header: sample_rate={sample_rate:g}, "
                f"channels={channels}, first_prt={first_prt}")
        if spp <= 0 or samples <= 0 or samples % spp:
            raise IqFormatError(f"bad header: samples={samples} is not a "
                                f"whole number (at least one) of "
                                f"samples_per_prt={spp} PRTs")
        # checked before allocating: a header may claim any size
        left = os.fstat(f.fileno()).st_size - f.tell()
        if channels * samples * 8 != left:
            raise IqFormatError("payload size does not match header")
        data = np.empty((channels, samples // spp, spp), np.complex64)
        if f.readinto(data) != left:
            raise IqFormatError("payload size does not match header")
        return IqFrame(data, sample_rate, first_prt)


def config_hash(config_dict: dict) -> str:
    """Short stable hash of a configuration mapping."""
    blob = json.dumps(config_dict, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def write_csv(path, header_cols, rows, cfg_hash: str | None = None) -> None:
    """CSV with a header row and an optional config-hash comment line."""
    with open(path, "w", encoding="ascii") as f:
        if cfg_hash is not None:
            f.write(f"# config_hash={cfg_hash}\n")
        f.write(",".join(header_cols) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return str(v)
