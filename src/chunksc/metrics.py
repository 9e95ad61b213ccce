"""SI-SDR, SI-SDR improvement, and chunk-level speaker-confusion statistics.

SI-SNRi and SI-SDRi are treated as the same scale-invariant quantity; there
is a single implementation.

Two improvement conventions coexist deliberately:

* utterance level: SI-SDR(estimate, target) - SI-SDR(mixture, target);
* chunk level: SI-SDR(estimate_k, target_k) - SI-SDR(estimate_k, mixture_k),
  i.e. the subtracted term scores the estimate chunk against the mixture
  chunk as reference.

The chunkwise confusion ratio r_scr is in percent; losses convert it
to a [0, 1] fraction.

`_si_sdr_rows` is the only place SI-SDR is computed. It scores a (K, L)
stack of rows at once: zero-copy chunk views of the signals, from the
`signal_core.ChunkGrid` that `make_chunks` returns and every chunk-level
function takes, or the whole utterance as K = 1. It works in
tiles of at most `_BLOCK_SAMPLES` samples, so long rows need no row-sized
temporaries. The metric functions here and the training losses are thin
layers over it, and every chunk-level caller takes the set of chunks that
count from the one activity rule, `signal_core.active_mask`.

The clamp is the one SI-SDR setting (`SiSdrConfig`); the floor inside the
ratio, under which a target or mixture row is silent, is the constant `_EPS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InvalidSetting, LengthMismatch, ZeroTarget
from .signal_core import ActivityConfig, ChunkGrid, Waveform, active_mask

_LN10_OVER_10 = math.log(10.0) / 10.0
_EPS = 1e-12
# Largest projection/residual tile of the kernel, in samples.
_BLOCK_SAMPLES = 1 << 16


@dataclass(frozen=True)
class SiSdrConfig:
    """The symmetric dB clamp of every SI-SDR value."""

    clamp_db: float = 60.0

    def __post_init__(self):
        if not self.clamp_db >= 30:  # NaN fails too
            raise InvalidSetting("clamp_db", self.clamp_db, "must be at least 30")


@dataclass(frozen=True)
class BinEdges:
    """Interior boundaries of the 4 improvement classes.

    Intervals are (-inf, e1], (e1, e2], (e2, e3], (e3, inf): closed on the
    right, open on the left.
    """

    edges: tuple[float, float, float] = (-5.0, 0.0, 5.0)

    def __post_init__(self):
        if len(self.edges) != 3 or not (self.edges[0] < self.edges[1] < self.edges[2]):
            raise InvalidSetting("edges", self.edges, "must be 3 strictly increasing numbers")

    def classify(self, value):
        """Class index 0..3 of a chunkwise improvement value; element-wise on an array."""
        classes = np.searchsorted(self.edges, value, side="left")
        return int(classes) if np.ndim(value) == 0 else classes


@dataclass
class ScStatistics:
    """Chunkwise speaker-confusion bookkeeping of one utterance
    (`sc_statistics`) or of a pooled corpus (`distribution_report`). The
    counts, r_scr and `degenerate` follow from `chunk_sisdri`."""

    chunk_sisdri: np.ndarray  # one value per valid chunk, chunk order (utterance order when pooled)
    class_freq: tuple[int, int, int, int]
    class_sum: tuple[float, float, float, float]

    @property
    def n_valid(self) -> int:
        return self.chunk_sisdri.size

    @property
    def n_sc(self) -> int:  # valid chunks with negative improvement
        return int(np.sum(self.chunk_sisdri < 0.0))

    @property
    def r_scr(self) -> float:  # percent in [0, 100]; 0 when no chunk is valid
        return 100.0 * self.n_sc / self.n_valid if self.n_valid else 0.0

    @property
    def degenerate(self) -> bool:
        return self.n_valid == 0


@dataclass(frozen=True)
class _Rows:
    """Kernel output, one entry per row."""

    value: np.ndarray  # clamped SI-SDR in dB; NaN where the reference is silent
    clamped: np.ndarray  # |SI-SDR| reached clamp_db
    ref_energy: np.ndarray  # sum of squares of the reference row
    grad: np.ndarray | None  # d value / d estimate row; zero on clamped or silent rows


def _si_sdr_rows(est: np.ndarray, ref: np.ndarray, cfg: SiSdrConfig, grad: bool = False) -> _Rows:
    """SI-SDR of every estimate row against the matching reference row.

    alpha = <e,t>/||t||^2 and the value is 10*log10(||alpha t||^2 /
    ||e - alpha t||^2), clamped to +-clamp_db. Projection and residual are
    formed explicitly, tile by tile (a block of rows by a block of columns,
    at most _BLOCK_SAMPLES samples), and the tile sums add into the two
    norms. A row of at most _BLOCK_SAMPLES samples is a single column tile,
    so its dot products are those of the textbook formula; a longer row
    differs from it only in summation order. With grad, also returns
    d value / d e per row: the projection coefficient is differentiated
    through, and the gradient is zero where the clamp is active.
    """
    ref_energy = np.vecdot(ref, ref)
    silent = ref_energy < _EPS
    alpha = np.vecdot(est, ref) / np.where(silent, 1.0, ref_energy)
    num, den = [], []  # the sums of each row tile, in row order
    residual = np.empty(est.shape) if grad else None
    width = min(est.shape[1], _BLOCK_SAMPLES)
    step = max(1, _BLOCK_SAMPLES // width)
    for lo in range(0, est.shape[0], step):
        rows = slice(lo, lo + step)
        for c in range(0, est.shape[1], width):
            cols = slice(c, c + width)
            projection = alpha[rows, None] * ref[rows, cols]
            r = est[rows, cols] - projection
            tile_num, tile_den = np.vecdot(projection, projection), np.vecdot(r, r)
            if c:  # the first column tile's sums start the row tile's
                tile_num, tile_den = num.pop() + tile_num, den.pop() + tile_den
            num.append(tile_num)
            den.append(tile_den)
            if grad:
                residual[rows, cols] = r
    num, den = (s[0] if len(s) == 1 else np.concatenate(s) for s in (num, den))
    raw = 10.0 * np.log10((num + _EPS) / (den + _EPS))
    clamped = np.abs(raw) >= cfg.clamp_db
    value = np.where(silent, np.nan, np.minimum(np.maximum(raw, -cfg.clamp_db), cfg.clamp_db))
    g = None
    if grad:
        # d num/de = 2*alpha*t, d den/de = 2*(e - alpha*t); the cross term through
        # alpha in the denominator vanishes because the residual is orthogonal to t.
        g = (2.0 * alpha / (num + _EPS))[:, None] * ref - (2.0 / (den + _EPS))[:, None] * residual
        g /= _LN10_OVER_10
        g[clamped | silent] = 0.0
    return _Rows(value, clamped, ref_energy, g)


def _utterance_si_sdr(estimate: Waveform, target: Waveform, cfg: SiSdrConfig, grad: bool = False) -> _Rows:
    """The kernel on the whole utterance as a single row."""
    _check_alike({"estimate": estimate, "target": target}, len(target), "the target's")
    rows = _si_sdr_rows(estimate.samples[None], target.samples[None], cfg, grad)
    if rows.ref_energy[0] < _EPS:
        raise ZeroTarget("target signal has zero energy")
    return rows


def si_sdr(estimate: Waveform, target: Waveform, cfg: SiSdrConfig = SiSdrConfig()) -> float:
    """Scale-invariant SDR of the estimate against the target, in dB.

    Uses the optimal-scaling projection alpha = <e,t>/||t||^2 and returns
    10*log10(||alpha t||^2 / ||alpha t - e||^2), clamped to +-clamp_db.
    """
    return float(_utterance_si_sdr(estimate, target, cfg).value[0])


def si_sdr_improvement(
    estimate: Waveform,
    target: Waveform,
    mixture: Waveform,
    cfg: SiSdrConfig = SiSdrConfig(),
) -> float:
    """Utterance-level improvement: si_sdr(estimate, target) - si_sdr(mixture, target)."""
    return si_sdr(estimate, target, cfg) - si_sdr(mixture, target, cfg)


def _check_alike(waves: dict[str, Waveform], n_samples: int, whose: str):
    """Every named waveform is given, has n_samples samples, `whose` count
    (the target's or the grid's), and all share one sample rate."""
    for name, w in waves.items():
        if w is None:
            raise TypeError(f"no {name} given")
    if any(len(w) != n_samples for w in waves.values()):
        counts = ", ".join(f"{name} {len(w)}" for name, w in waves.items())
        raise LengthMismatch(f"sample counts differ: {counts}; expected {whose} {n_samples}")
    if len({w.sample_rate for w in waves.values()}) > 1:
        rates = ", ".join(f"{name} {w.sample_rate} Hz" for name, w in waves.items())
        raise ValueError(f"sample rates differ: {rates}")


@dataclass(frozen=True)
class _ChunkScores:
    """Kernel output for every chunk of one utterance."""

    sisdri: np.ndarray  # SI-SDR(e_k, t_k) - SI-SDR(e_k, y_k); NaN if t_k or y_k is silent
    valid: np.ndarray  # the chunks that count, from the activity rule
    to_target: _Rows
    to_mixture: _Rows


def _score_chunks(
    estimate: Waveform,
    target: Waveform,
    mixture: Waveform,
    grid: ChunkGrid,
    activity: ActivityConfig,
    cfg: SiSdrConfig,
    grad: bool = False,
) -> _ChunkScores:
    if not isinstance(grid, ChunkGrid):
        raise ValueError("chunks must be the ChunkGrid that make_chunks returns")
    _check_alike(
        {"estimate": estimate, "target": target, "mixture": mixture}, grid.n_samples, "the grid's"
    )
    e, t, y = (grid.rows(w.samples) for w in (estimate, target, mixture))
    to_target = _si_sdr_rows(e, t, cfg, grad)
    to_mixture = _si_sdr_rows(e, y, cfg, grad)
    valid = active_mask(
        to_target.ref_energy, np.vecdot(e, e), activity, to_mixture.ref_energy, _EPS
    )
    return _ChunkScores(to_target.value - to_mixture.value, valid, to_target, to_mixture)


def chunkwise_sisdri(
    estimate: Waveform,
    target: Waveform,
    mixture: Waveform,
    chunks: ChunkGrid,
    cfg: SiSdrConfig = SiSdrConfig(),
) -> np.ndarray:
    """Per-chunk SI-SDR(e_k, t_k) - SI-SDR(e_k, y_k), one value per chunk.

    Chunks whose target or mixture slice is numerically silent get a NaN
    sentinel; callers filter those through the activity test. `chunks` is
    the grid make_chunks returns for these signals.
    """
    return _score_chunks(estimate, target, mixture, chunks, ActivityConfig(), cfg).sisdri


def sc_statistics(
    estimate: Waveform,
    target: Waveform,
    mixture: Waveform,
    chunks: ChunkGrid,
    activity: ActivityConfig = ActivityConfig(),
    cfg: SiSdrConfig = SiSdrConfig(),
    bins: BinEdges = BinEdges(),
) -> ScStatistics:
    """Chunkwise SC bookkeeping over the speech-active chunks.

    N_sc counts valid chunks with negative improvement, N_valid counts chunks
    where both target and estimate pass the energy threshold (and neither
    target nor mixture is silent), and r_scr = 100 * N_sc / N_valid: all
    three follow from the valid chunks' improvements, which it keeps with
    the 4-class frequency vector and the per-class sum of improvements.
    """
    scores = _score_chunks(estimate, target, mixture, chunks, activity, cfg)
    valid = scores.sisdri[scores.valid]
    classes = bins.classify(valid)
    return ScStatistics(
        chunk_sisdri=valid,
        class_freq=tuple(int(x) for x in np.bincount(classes, minlength=4)),
        class_sum=tuple(float(x) for x in np.bincount(classes, weights=valid, minlength=4)),
    )


def distribution_report(stats: list[ScStatistics]) -> ScStatistics:
    """The pooled statistics of a corpus: every utterance's valid values joined
    in utterance order and the class counts and sums added, so r_scr comes
    from the pooled counts (not a mean of per-utterance ratios)."""
    if not stats:
        raise EmptyInput("distribution_report needs at least one utterance")
    return ScStatistics(
        chunk_sisdri=np.concatenate([s.chunk_sisdri for s in stats]),
        class_freq=tuple(int(x) for x in np.sum([s.class_freq for s in stats], axis=0, dtype=int)),
        class_sum=tuple(float(x) for x in np.sum([s.class_sum for s in stats], axis=0)),
    )
