"""Waveforms, chunk segmentation, chunk rows and chunk activity detection.

Chunk energy is measured as 10*log10(sum(x^2) + ENERGY_FLOOR) in dB. The
activity threshold (default 15 dB) is compared against this quantity; the
floor constant keeps all-zero chunks finite. `active_mask` is the single
activity rule: the metric and loss kernels decide through it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ChunkLenExceedsSignal, InvalidHop, InvalidSetting, LengthMismatch

# Additive floor inside the dB conversion; keeps silence finite without
# perturbing audible-level energies.
ENERGY_FLOOR = 1e-12


@dataclass(frozen=True)
class Waveform:
    """A finite mono signal: float64 samples plus a sample rate in whole Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D sequence")
        if not np.isfinite(samples).all():
            raise ValueError("samples must be finite")
        try:
            rate = operator.index(self.sample_rate)  # an int or a numpy integer
        except TypeError:
            rate = 0  # refused below
        if rate <= 0:
            raise ValueError(f"sample_rate must be a positive integer, got {self.sample_rate!r}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", rate)

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class ChunkingConfig:
    """Chunk length and hop in milliseconds.

    A hop below the chunk length gives overlapping chunks (training); a hop
    equal to it tiles the signal without overlap (inference). A literal hop
    of zero would make the chunk count ceil((T-L)/O + 1) undefined, so "no
    overlap" is the zero-overlap reading used here.
    """

    chunk_len_ms: float = 250.0
    hop_ms: float = 125.0

    def __post_init__(self):
        for name in ("chunk_len_ms", "hop_ms"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidSetting(name, getattr(self, name), "must be finite")
        if self.chunk_len_ms <= 0:
            raise InvalidSetting("chunk_len_ms", self.chunk_len_ms, "must be positive")
        if not 0 < self.hop_ms <= self.chunk_len_ms:
            rule = f"must be positive and at most {{chunk_len_ms}} {self.chunk_len_ms}"
            raise InvalidHop("hop_ms", self.hop_ms, rule)


@dataclass(frozen=True)
class ChunkIndex:
    """Half-open sample range [start, end)."""

    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise ValueError(f"invalid chunk range [{self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class ActivityConfig:
    """Energy threshold (dB) a chunk must exceed to count as speech-active.

    The energy is the paper's absolute sum of squares, not a mean, so the same
    audio in chunks of the same length in ms scores about +3 dB at 16 kHz
    against 8 kHz.
    """

    eta_db: float = 15.0

    def __post_init__(self):
        if not math.isfinite(self.eta_db):
            raise InvalidSetting("eta_db", self.eta_db, "must be finite")


def _samples(cfg: ChunkingConfig, field: str, sample_rate: int) -> int:
    """The `field` of `cfg`, in ms, as a sample count at `sample_rate`,
    rounded to nearest. One under 1 sample, or too long to count, raises
    InvalidSetting on `field` (InvalidHop for the hop)."""
    ms = getattr(cfg, field)
    error = InvalidHop if field == "hop_ms" else InvalidSetting
    samples = ms * sample_rate / 1000.0
    if samples == math.inf:
        raise error(field, ms, f"{{value}} overflows a sample count at {sample_rate} Hz")
    samples = int(round(samples))
    if samples < 1:
        raise error(field, ms, f"{{value}} is under 1 sample at {sample_rate} Hz")
    return samples


def make_chunks(n_samples: int, cfg: ChunkingConfig, sample_rate: int) -> ChunkGrid:
    """Segment [0, n_samples) into chunks of length L with hop O.

    Returns the ChunkGrid of exactly ceil((T-L)/O + 1) chunks, which the
    chunk-level metrics and losses take. Starts advance by exactly the
    hop; the last chunk is truncated at the signal end (never zero-padded, so
    energy statistics stay honest). A chunk longer than the signal raises
    ChunkLenExceedsSignal.
    """
    chunk_len = _samples(cfg, "chunk_len_ms", sample_rate)
    if chunk_len > n_samples:
        rule = (f"{{value}} is {chunk_len} samples at {sample_rate} Hz, "
                f"more than the {n_samples} of the {{signal}}")
        raise ChunkLenExceedsSignal("chunk_len_ms", cfg.chunk_len_ms, rule)
    hop = _samples(cfg, "hop_ms", sample_rate)  # ChunkingConfig keeps it at most chunk_len
    n_chunks = math.ceil((n_samples - chunk_len) / hop) + 1
    return ChunkGrid(hop, chunk_len, n_chunks, n_samples)


@dataclass(frozen=True)
class ChunkGrid:
    """The chunks of an `n_samples` signal, as make_chunks lays them out:
    `count` chunks of `length` samples whose starts advance by `hop` from 0,
    the last one cut off at the signal end.

    Indexing and iteration give `ChunkIndex` ranges (a slice gives a list),
    and `rows` gives the chunks of a signal as one strided array.
    """

    hop: int
    length: int
    count: int
    n_samples: int

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(self.count))]
        k = operator.index(k)
        if not -self.count <= k < self.count:
            raise IndexError(f"chunk {k} out of range for {self.count} chunks")
        start = (k % self.count) * self.hop
        return ChunkIndex(start, min(start + self.length, self.n_samples))

    def _span(self) -> int:
        return (self.count - 1) * self.hop + self.length

    def rows(self, x: np.ndarray) -> np.ndarray:
        """(count, length) read-only strided view of x, one row per chunk:
        row k starts at sample k * hop, and rows overlap where hop < length.

        A cut-off last chunk is zero-padded to full length, which is exact
        for every dot product and energy; only then, or for a non-contiguous
        x, is x copied.
        """
        x = np.ascontiguousarray(x)
        span = self._span()
        if span > x.size:
            x = np.concatenate([x, np.zeros(span - x.size)])
        view = np.ndarray((self.count, self.length), x.dtype, x, 0, (self.hop * x.itemsize, x.itemsize))
        view.flags.writeable = False
        return view

    def overlap_add(self, rows: np.ndarray) -> np.ndarray:
        """Inverse of `rows` for gradients: add every row back onto its
        samples, in chunk order, and drop the padding."""
        index = self.hop * np.arange(self.count)[:, None] + np.arange(self.length)
        summed = np.bincount(index.ravel(), weights=rows.ravel(), minlength=self._span())
        return summed[: self.n_samples]


def energy_db(energy):
    """Energy 10*log10(energy + ENERGY_FLOOR) in dB, element-wise on sums of squares."""
    return 10.0 * np.log10(np.asarray(energy, dtype=np.float64) + ENERGY_FLOOR)


def active_mask(target_energy, estimate_energy, cfg: ActivityConfig, mixture_energy=None, silent_energy=0.0):
    """The chunk-activity rule, element-wise on per-chunk energies (sums of squares).

    A chunk counts when the target and the estimate both exceed eta_db and
    neither the target nor the mixture (when given) is below silent_energy,
    against which SI-SDR is undefined. A NaN energy never counts.
    """
    target_energy = np.asarray(target_energy, dtype=np.float64)
    mask = (
        (energy_db(target_energy) > cfg.eta_db)
        & (energy_db(estimate_energy) > cfg.eta_db)
        & (target_energy >= silent_energy)
    )
    if mixture_energy is not None:
        mask &= np.asarray(mixture_energy) >= silent_energy
    return mask


def is_active(ws: Waveform, we: Waveform, idx: ChunkIndex, cfg: ActivityConfig) -> bool:
    """`active_mask` on one chunk; unused in chunksc, kept while perfbench traces it."""
    if len(ws) != len(we):
        raise LengthMismatch(f"waveforms differ in length: {len(ws)} vs {len(we)}")
    if idx.end > len(ws):
        raise ValueError("chunk index out of bounds")
    x, y = ws.samples[idx.start:idx.end], we.samples[idx.start:idx.end]
    return bool(active_mask(np.dot(x, x), np.dot(y, y), cfg))
