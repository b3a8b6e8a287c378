"""IQ sample container and file formats.

Binary IQ files and range-Doppler dumps each carry a small text header
(terminated by a ``data`` line) followed by interleaved float32 real/imag
pairs in the array's C order: channel-major for IQ files, (Doppler,
channel, range) for the range-Doppler cube. CSV helpers stamp a
configuration hash comment so every artifact can be traced back to the
exact run settings.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

_MAGIC = "FHIQ1"


class IqFormatError(ValueError):
    """Malformed IQ file header, truncated payload, or samples that do not
    fill a whole number of PRTs."""


@dataclass
class IqFrame:
    """Complex baseband samples, one row per channel, of whole PRTs."""

    data: np.ndarray          # (n_channels, n_samples) complex
    sample_rate: float
    samples_per_prt: int

    def __post_init__(self):
        self.data = np.atleast_2d(np.asarray(self.data))
        if self.samples_per_prt <= 0 or self.n_samples % self.samples_per_prt:
            raise IqFormatError(f"{self.n_samples} samples is not a whole "
                                f"number of {self.samples_per_prt}-sample PRTs")

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    @property
    def n_prt(self) -> int:
        return self.n_samples // self.samples_per_prt

    def prt_view(self) -> np.ndarray:
        """Samples reshaped to (n_channels, n_prt, samples_per_prt)."""
        return self.data.reshape(self.n_channels, self.n_prt,
                                 self.samples_per_prt)


def _write_interleaved(path, header: str, data: np.ndarray) -> None:
    """``header`` in ASCII, then ``data`` as float32 real/imag pairs."""
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        interleaved = np.empty(data.shape + (2,), dtype=np.float32)
        interleaved[..., 0] = data.real
        interleaved[..., 1] = data.imag
        f.write(interleaved.tobytes())


def write_iq(path, frame: IqFrame) -> None:
    _write_interleaved(path, f"{_MAGIC}\n"
                             f"sample_rate={frame.sample_rate:.17g}\n"
                             f"channels={frame.n_channels}\n"
                             f"samples={frame.n_samples}\n"
                             f"samples_per_prt={frame.samples_per_prt}\n"
                             f"data\n", frame.data)


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
    """The frame of an FHIQ file, complex64 as stored."""
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
        except (KeyError, ValueError) as exc:
            raise IqFormatError(f"incomplete header: {exc}") from exc
        # checked before allocating: a header may claim any size
        left = os.fstat(f.fileno()).st_size - f.tell()
        if min(channels, samples) < 0 or channels * samples * 8 != left:
            raise IqFormatError("payload size does not match header")
        data = np.empty((channels, samples), np.complex64)
        if f.readinto(data) != left:
            raise IqFormatError("payload size does not match header")
        return IqFrame(data, sample_rate, spp)


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
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, (np.floating,)):
        return f"{float(v):.12g}"
    if isinstance(v, (np.integer,)):
        return str(int(v))
    return str(v)
