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
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ChunkLenExceedsSignal, InvalidHop, LengthMismatch

# Additive floor inside the dB conversion; keeps silence finite without
# perturbing audible-level energies.
ENERGY_FLOOR = 1e-12


@dataclass(frozen=True)
class Waveform:
    """A finite mono signal: float64 samples plus a sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D sequence")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "samples", samples)

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
        if not (math.isfinite(self.chunk_len_ms) and math.isfinite(self.hop_ms)):
            raise ValueError("chunk_len_ms and hop_ms must be finite")
        if self.chunk_len_ms <= 0:
            raise ValueError("chunk_len_ms must be positive")


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
            raise ValueError("eta_db must be finite")


def samples_from_ms(ms: float, sample_rate: int) -> int:
    """Milliseconds to sample count, rounded to nearest."""
    return int(round(ms * sample_rate / 1000.0))


def make_chunks(n_samples: int, cfg: ChunkingConfig, sample_rate: int) -> ChunkGrid:
    """Segment [0, n_samples) into chunks of length L with hop O.

    Returns the ChunkGrid of exactly ceil((T-L)/O + 1) chunks, which the
    chunk-level metrics and losses take. Starts advance by exactly the
    hop; the last chunk is truncated at the signal end (never zero-padded, so
    energy statistics stay honest).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    chunk_len = samples_from_ms(cfg.chunk_len_ms, sample_rate)
    if chunk_len < 1:
        raise ValueError(f"chunk length {cfg.chunk_len_ms} ms is under 1 sample at {sample_rate} Hz")
    if chunk_len > n_samples:
        raise ChunkLenExceedsSignal(
            f"chunk length {chunk_len} samples exceeds signal length {n_samples}"
        )
    hop = samples_from_ms(cfg.hop_ms, sample_rate)
    if hop <= 0:
        raise InvalidHop(f"hop must be positive, got {hop} samples")
    if hop > chunk_len:
        raise InvalidHop("hop must not exceed the chunk length")
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
        """(count, length) strided view of x, one row per chunk.

        A cut-off last chunk is zero-padded to full length, which is exact
        for every dot product and energy; only then is x copied.
        """
        span = self._span()
        if span > x.size:
            x = np.concatenate([x, np.zeros(span - x.size)])
        return sliding_window_view(x[:span], self.length)[:: self.hop]

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
