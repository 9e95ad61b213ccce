"""Desk-scale differentiable extractor and its SGD training loop.

Pipeline: frame the mixture, encode each frame linearly, multiply the
features by a conditioning vector derived from enrollment statistics, run a
two-layer mask network with sigmoid output, apply the mask to the encoded
mixture, decode back to frames and reassemble. The mask network front-end
squares the conditioned features and normalizes them by their per-frame
mean: the squaring makes the mask decisions phase-invariant (energy, not
sign, identifies a speaker) and the normalization keeps the mask-net input
at unit scale so its gradients do not vanish. Everything is plain numpy;
the backward pass is the hand-written chain rule through this pipeline
composed with the loss gradients from the losses module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from ._blas import one_blas_thread
from ._fork import Workers, shared_zeros
from .errors import DimensionMismatch, DivergenceDetected, EmptyInput, InvalidSetting
from .losses import LossResult, LossSetup, compute_loss
from .metrics import distribution_report, sc_statistics, si_sdr_improvement
from .signal_core import ChunkingConfig, Waveform, make_chunks
from .synth import MixtureExample

FRAME_SIZE = 64
FEAT_DIM = 64
HIDDEN_DIM = 64
STATS_DIM = FRAME_SIZE // 2 + 1
# The shape of each parameter array: the one size of the extractor.
_SHAPES = {
    "encoder": (FRAME_SIZE, FEAT_DIM),
    "spk_encoder": (STATS_DIM, FEAT_DIM),
    "mask_w1": (FEAT_DIM, HIDDEN_DIM),
    "mask_b1": (HIDDEN_DIM,),
    "mask_w2": (HIDDEN_DIM, FEAT_DIM),
    "mask_b2": (FEAT_DIM,),
    "decoder": (FEAT_DIM, FRAME_SIZE),
}
_NORM_EPS = 1e-8
# Validation epochs without a new best SI-SDRi before the learning rate halves.
LR_HALVING_PATIENCE = 2


def expit(a: np.ndarray) -> np.ndarray:
    """The logistic sigmoid 1 / (1 + e^-a), elementwise. Where e^-a
    overflows, the result is exactly 0, as at large positive `a` it is
    exactly 1."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-a))


@dataclass
class ToyExtractorParams:
    """All trainable parameters of the toy extractor, of the shapes in
    `_SHAPES`."""

    encoder: np.ndarray
    spk_encoder: np.ndarray
    mask_w1: np.ndarray
    mask_b1: np.ndarray
    mask_w2: np.ndarray
    mask_b2: np.ndarray
    decoder: np.ndarray

    def copy(self) -> "ToyExtractorParams":
        """A copy, in arrays of `shared_zeros`."""
        copy = self.zeros()
        for f in fields(self):
            getattr(copy, f.name)[...] = getattr(self, f.name)
        return copy

    def zeros(self, *lead: int) -> "ToyExtractorParams":
        """`shared_zeros` of this one's shapes, each behind the `lead` axes."""
        shape = {f.name: (*lead, *getattr(self, f.name).shape) for f in fields(self)}
        return ToyExtractorParams(**{name: shared_zeros(dims) for name, dims in shape.items()})

    def count(self) -> int:
        return sum(getattr(self, f.name).size for f in fields(self))


def init_params(seed: int) -> ToyExtractorParams:
    """Seeded initialization.

    The encoder is the orthonormalization of a uniform(-1/sqrt(F)) draw and
    the decoder is its transpose, so the untrained pipeline is a passthrough
    up to the mask and training only has to learn the masking. Mask weights
    start small, biases at zero.
    """
    rng = np.random.default_rng(seed)
    a_frame = 1.0 / math.sqrt(FRAME_SIZE)
    a_feat = 1.0 / math.sqrt(FEAT_DIM)
    a_stats = 1.0 / math.sqrt(STATS_DIM)
    basis, _ = np.linalg.qr(rng.uniform(-a_frame, a_frame, size=_SHAPES["encoder"]))
    params = ToyExtractorParams(
        encoder=basis,
        spk_encoder=rng.uniform(-a_stats, a_stats, size=_SHAPES["spk_encoder"]),
        mask_w1=0.5 * rng.uniform(-a_feat, a_feat, size=_SHAPES["mask_w1"]),
        mask_b1=np.zeros(_SHAPES["mask_b1"]),
        mask_w2=0.5 * rng.uniform(-a_feat, a_feat, size=_SHAPES["mask_w2"]),
        mask_b2=np.zeros(_SHAPES["mask_b2"]),
        decoder=basis.T.copy(),
    )
    return params


def _check_shapes(p: ToyExtractorParams):
    """Raise DimensionMismatch unless each array has its shape in `_SHAPES`."""
    for name, shape in _SHAPES.items():
        if getattr(p, name).shape != shape:
            raise DimensionMismatch(f"{name} has shape {getattr(p, name).shape}, not {shape}")


def enrollment_stats(enrollment: Waveform) -> np.ndarray:
    """Unit-norm mean magnitude spectrum over enrollment frames.

    Constant with respect to the trainable parameters; speaker identity shows
    up as the harmonic comb of the enrollment signal.
    """
    if len(enrollment) < FRAME_SIZE:
        raise ValueError(f"enrollment has {len(enrollment)} samples, fewer than one {FRAME_SIZE}-sample frame")
    n = (len(enrollment) // FRAME_SIZE) * FRAME_SIZE
    frames = enrollment.samples[:n].reshape(-1, FRAME_SIZE)
    mag = np.abs(np.fft.rfft(frames, axis=1)).mean(axis=0)
    norm = np.linalg.norm(mag)
    return mag / norm if norm > 0 else mag


def _frame(x: np.ndarray) -> np.ndarray:
    """Zero-pad to a frame multiple and reshape to (n_frames, FRAME_SIZE)."""
    pad = (-len(x)) % FRAME_SIZE
    if pad:
        x = np.concatenate([x, np.zeros(pad)])
    return x.reshape(-1, FRAME_SIZE)


def _forward_cache(p: ToyExtractorParams, mixture: Waveform, enrollment: Waveform):
    _check_shapes(p)
    x = _frame(mixture.samples)
    stats = enrollment_stats(enrollment)
    z = x @ p.encoder
    cond = stats @ p.spk_encoder
    q = (z * cond) ** 2
    mu = q.mean(axis=1, keepdims=True)
    qn = q / (mu + _NORM_EPS)
    a1 = qn @ p.mask_w1 + p.mask_b1
    h = np.tanh(a1)
    a2 = h @ p.mask_w2 + p.mask_b2
    mask = expit(a2)
    zm = z * mask
    y = zm @ p.decoder
    est = y.ravel()[: len(mixture)]
    if not np.isfinite(est).all():
        raise DivergenceDetected("non-finite extractor output", [])
    return est, (x, stats, z, cond, q, mu, qn, h, mask, zm)


def forward(p: ToyExtractorParams, mixture: Waveform, enrollment: Waveform) -> Waveform:
    """Run the extractor; output has exactly the mixture's length. A
    non-finite output raises DivergenceDetected with an empty history."""
    est, _ = _forward_cache(p, mixture, enrollment)
    return Waveform(est, mixture.sample_rate)


def evaluate_loss(estimate: Waveform, example: MixtureExample, setup: LossSetup) -> LossResult:
    """The configured loss of one training example (`losses.compute_loss`)."""
    return compute_loss(setup, estimate, example.target, example.mixture)


def backward(
    p: ToyExtractorParams, example: MixtureExample, setup: LossSetup
) -> tuple[ToyExtractorParams, LossResult]:
    """Parameter gradients for one example: chain rule through the pipeline
    composed with the loss gradient with respect to the estimate."""
    est, cache = _forward_cache(p, example.mixture, example.enrollment)
    x, stats, z, cond, q, mu, qn, h, mask, zm = cache
    result = evaluate_loss(Waveform(est, example.mixture.sample_rate), example, setup)

    g = np.zeros(x.size)
    g[: len(example.mixture)] = result.grad_estimate
    dy = g.reshape(-1, FRAME_SIZE)

    d_decoder = zm.T @ dy
    dzm = dy @ p.decoder.T
    dz = dzm * mask
    dmask = dzm * z
    da2 = dmask * mask * (1.0 - mask)
    d_w2 = h.T @ da2
    d_b2 = da2.sum(axis=0)
    dh = da2 @ p.mask_w2.T
    da1 = dh * (1.0 - h * h)
    d_w1 = qn.T @ da1
    d_b1 = da1.sum(axis=0)
    dqn = da1 @ p.mask_w1.T
    dq = dqn / (mu + _NORM_EPS) - (dqn * q).sum(axis=1, keepdims=True) / (
        FEAT_DIM * (mu + _NORM_EPS) ** 2
    )
    dzc = 2.0 * dq * z * cond
    dz += dzc * cond
    dcond = (dzc * z).sum(axis=0)
    d_spk = np.outer(stats, dcond)
    d_encoder = x.T @ dz
    grads = ToyExtractorParams(
        encoder=d_encoder,
        spk_encoder=d_spk,
        mask_w1=d_w1,
        mask_b1=d_b1,
        mask_w2=d_w2,
        mask_b2=d_b2,
        decoder=d_decoder,
    )
    return grads, result


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 20
    batch: int = 8
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise InvalidSetting("learning_rate", self.learning_rate, "must be finite and positive")
        for name, least in (("epochs", 0), ("batch", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise InvalidSetting(name, getattr(self, name), f"must be at least {least}")


@dataclass
class HistoryRow:
    epoch: int
    train_loss: float
    val_sisdri: float
    val_rscr: float


def evaluate_corpus(
    p: ToyExtractorParams,
    corpus: list[MixtureExample],
    setup: LossSetup,
    pool: Workers | None = None,
) -> tuple[float, float]:
    """Mean utterance SI-SDRi and pooled confusion ratio over a non-empty
    corpus, its examples split across the workers of `pool` when given (forked
    with `p`, `corpus` and `setup`), to the same bits.

    Reporting uses non-overlapping chunks (hop == chunk length) regardless of
    the training hop.
    """
    if not corpus:
        raise EmptyInput("evaluate_corpus needs at least one example")
    pool = pool or Workers()
    blocks = pool.map(_score_examples, pool.split(range(len(corpus))), p, corpus, setup)
    scores = [score for block in blocks for score in block]
    sisdri_sum = 0.0
    for sisdri, _ in scores:
        sisdri_sum += sisdri
    return sisdri_sum / len(corpus), distribution_report([stats for _, stats in scores]).r_scr


def _score_examples(p, corpus, setup, indices):
    """(SI-SDRi, ScStatistics) of corpus[i] for each i of `indices`, in order."""
    length_ms = setup.chunking.chunk_len_ms
    eval_chunking = ChunkingConfig(chunk_len_ms=length_ms, hop_ms=length_ms)
    scores = []
    for i in indices:
        ex = corpus[i]
        est = forward(p, ex.mixture, ex.enrollment)
        sisdri = si_sdr_improvement(est, ex.target, ex.mixture, setup.sisdr_cfg)
        chunks = make_chunks(len(est), eval_chunking, est.sample_rate)
        stats = sc_statistics(
            est, ex.target, ex.mixture, chunks, setup.activity, setup.sisdr_cfg, setup.bins
        )
        scores.append((sisdri, stats))
    return scores


def _backward_examples(params, corpus, setup, slots, tasks):
    """`backward` on corpus[i] for each (position, i) of `tasks`, in order,
    its gradients written into slot `position` of `slots`: the loss values.
    Raises DivergenceDetected at the first non-finite loss."""
    values = []
    for position, i in tasks:
        grads, result = backward(params, corpus[i], setup)
        if not math.isfinite(result.value):
            raise DivergenceDetected(f"non-finite loss on example {i}", [])
        for f in fields(grads):
            getattr(slots, f.name)[position] = getattr(grads, f.name)
        values.append(result.value)
    return values


@one_blas_thread()
def train(
    cfg: TrainConfig,
    corpus: list[MixtureExample],
    validation: list[MixtureExample],
    setup: LossSetup | None = None,
    start_params: ToyExtractorParams | None = None,
    workers: int = 0,
    start_scores: tuple[float, float] | None = None,
) -> tuple[ToyExtractorParams, list[HistoryRow]]:
    """Mini-batch SGD with reduce-on-plateau learning-rate halving.

    Deterministic in the seed: data order, initialization and every update
    are reproducible, to the bit whatever the BLAS thread count, since the
    run holds OpenBLAS to one thread. Raises DivergenceDetected, holding the
    completed epochs, on a non-finite extractor output or loss.

    With `workers`, as many processes, forked once the parameters exist and
    stopped before the return, take their share of each batch and each
    validation pass, to the same bits. They read the corpora as forked, and
    the parameters, which this process updates in place, from shared
    memory. Every process, this one too, writes the gradient of each batch
    example it takes into that example's shared slot, and the update adds
    the slots in batch order, as one process would.

    `start_scores`, when given, is `evaluate_corpus` of the start parameters
    on `validation` with this `setup`, as (SI-SDRi, r_scr): history row 0
    takes it instead of scoring them again. Validation reads no `loss_kind`,
    so a fine-tune can take the last row of the stage it starts from.
    """
    if not corpus or not validation:
        raise ValueError("corpus and validation must be non-empty")
    setup = setup or LossSetup()
    params = (start_params or init_params(cfg.seed)).copy()
    history: list[HistoryRow] = []
    if cfg.epochs == 0:
        return params, history
    slots = params.zeros(min(cfg.batch, len(corpus)))  # no batch holds more
    pool = Workers(workers, params, corpus, validation, setup, slots)

    rng = np.random.default_rng(cfg.seed)
    lr = cfg.learning_rate
    best_val = -np.inf
    stale_epochs = 0

    try:
        if start_scores is None:
            start_scores = evaluate_corpus(params, validation, setup, pool)
        history.append(HistoryRow(0, float("nan"), *start_scores))

        param_names = [f.name for f in fields(ToyExtractorParams)]
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(len(corpus))
            losses = []
            for lo in range(0, len(order), cfg.batch):
                batch = order[lo : lo + cfg.batch]
                blocks = pool.split(enumerate(batch.tolist()))
                done = pool.map(_backward_examples, blocks, params, corpus, setup, slots)
                losses += [value for values in done for value in values]
                scale = lr / len(batch)
                for name in param_names:
                    # an axis-0 sum adds the slots in batch order; starting
                    # from -0.0 keeps the sign of a zero, as a += chain does
                    grad = getattr(slots, name)[: len(batch)].sum(axis=0, initial=-0.0)
                    getattr(params, name).__isub__(scale * grad)
            val_sisdri, val_rscr = evaluate_corpus(params, validation, setup, pool)
            history.append(HistoryRow(epoch, float(np.mean(losses)), val_sisdri, val_rscr))
            if val_sisdri > best_val:
                best_val = val_sisdri
                stale_epochs = 0
            else:
                stale_epochs += 1
                if stale_epochs >= LR_HALVING_PATIENCE:
                    lr *= 0.5
                    stale_epochs = 0
    except DivergenceDetected as exc:
        # the epoch that failed is the first one history does not hold
        raise DivergenceDetected(f"{exc} in epoch {len(history)}", history) from exc
    finally:
        pool.stop()
    return params, history


def history_to_csv(history: list[HistoryRow]) -> str:
    """Fixed-format CSV so identical runs are byte-identical."""
    lines = ["epoch,train_loss,val_sisdri,val_rscr"]
    for row in history:
        lines.append(
            f"{row.epoch},{row.train_loss:.6f},{row.val_sisdri:.6f},{row.val_rscr:.6f}"
        )
    return "\n".join(lines) + "\n"


def checkpoint_text(p: ToyExtractorParams) -> str:
    """The JSON checkpoint of `p`, named arrays with shapes, as `save_checkpoint`
    writes it: ASCII, with no newline."""
    payload = {
        "format": "chunksc-params-v1",
        "arrays": {
            f.name: {
                "shape": list(getattr(p, f.name).shape),
                "data": getattr(p, f.name).ravel().tolist(),
            }
            for f in fields(ToyExtractorParams)
        },
    }
    # json.dumps, whose C encoder json.dump does not use
    return json.dumps(payload)


def save_checkpoint(path: str, p: ToyExtractorParams | str) -> None:
    """Write the JSON checkpoint of parameters `p`, or `p` when it is their
    `checkpoint_text` already, in one write."""
    with open(path, "w") as fh:
        fh.write(p if isinstance(p, str) else checkpoint_text(p))


def load_checkpoint(path: str) -> ToyExtractorParams:
    """The parameters of a JSON checkpoint that `save_checkpoint` wrote, as
    `train` and `compare` write them. Raises ValueError naming `path` for a
    file of another format, a missing array, data that are not all finite
    numbers (JSON booleans, strings, null, NaN or infinities) or do not fill
    their shape, or an array whose shape is not the one in `_SHAPES`."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != "chunksc-params-v1":
        raise ValueError(f"{path}: not a chunksc checkpoint")
    try:
        specs, arrays = payload["arrays"], {}
        for name in _SHAPES:
            data = specs[name]["data"]  # JSON numbers, of which booleans are none
            if not all(type(v) in (int, float) and math.isfinite(v) for v in data):
                raise ValueError(f"{name} holds data that are not all finite numbers")
            arrays[name] = np.array(data, dtype=np.float64).reshape(specs[name]["shape"])
        params = ToyExtractorParams(**arrays)
        _check_shapes(params)
    except KeyError as exc:
        raise ValueError(f"{path}: the checkpoint has no {exc}") from None
    except (TypeError, ValueError, OverflowError, DimensionMismatch) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return params
