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
from scipy.special import expit

from ._blas import one_blas_thread
from ._fork import Workers
from .errors import DimensionMismatch, DivergenceDetected
from .losses import LossResult, LossSetup, compute_loss
from .metrics import distribution_report, sc_statistics, si_sdr_improvement
from .signal_core import ChunkingConfig, Waveform, make_chunks
from .synth import MixtureExample

FRAME_SIZE = 64
FEAT_DIM = 64
HIDDEN_DIM = 64
STATS_DIM = FRAME_SIZE // 2 + 1
_NORM_EPS = 1e-8
# Validation epochs without a new best SI-SDRi before the learning rate halves.
LR_HALVING_PATIENCE = 2


@dataclass
class ToyExtractorParams:
    """All trainable parameters of the toy extractor."""

    encoder: np.ndarray  # (F, D)
    spk_encoder: np.ndarray  # (S, D)
    mask_w1: np.ndarray  # (D, H)
    mask_b1: np.ndarray  # (H,)
    mask_w2: np.ndarray  # (H, D)
    mask_b2: np.ndarray  # (D,)
    decoder: np.ndarray  # (D, F)

    def copy(self, workers: Workers | None = None) -> "ToyExtractorParams":
        """A copy, in the shared buffer of `workers` when given."""
        copy = self.zeros(workers or Workers())
        for f in fields(self):
            getattr(copy, f.name)[...] = getattr(self, f.name)
        return copy

    def zeros(self, workers: Workers, *lead: int) -> "ToyExtractorParams":
        """Zero arrays of this one's shapes, each behind the `lead` axes, from `workers.array`."""
        shape = {f.name: (*lead, *getattr(self, f.name).shape) for f in fields(self)}
        return ToyExtractorParams(**{name: workers.array(dims) for name, dims in shape.items()})

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
    basis, _ = np.linalg.qr(rng.uniform(-a_frame, a_frame, size=(FRAME_SIZE, FEAT_DIM)))
    params = ToyExtractorParams(
        encoder=basis,
        spk_encoder=rng.uniform(-a_stats, a_stats, size=(STATS_DIM, FEAT_DIM)),
        mask_w1=0.5 * rng.uniform(-a_feat, a_feat, size=(FEAT_DIM, HIDDEN_DIM)),
        mask_b1=np.zeros(HIDDEN_DIM),
        mask_w2=0.5 * rng.uniform(-a_feat, a_feat, size=(HIDDEN_DIM, FEAT_DIM)),
        mask_b2=np.zeros(FEAT_DIM),
        decoder=basis.T.copy(),
    )
    assert params.count() <= 50_000
    return params


def _check_shapes(p: ToyExtractorParams):
    f, d = p.encoder.shape
    if p.decoder.shape != (d, f):
        raise DimensionMismatch("decoder shape does not mirror encoder")
    if p.spk_encoder.shape[1] != d:
        raise DimensionMismatch("spk_encoder output dim must match feature dim")
    h = p.mask_w1.shape[1]
    if (
        p.mask_w1.shape[0] != d
        or p.mask_b1.shape != (h,)
        or p.mask_w2.shape != (h, d)
        or p.mask_b2.shape != (d,)
    ):
        raise DimensionMismatch("mask network shapes are inconsistent")


def enrollment_stats(enrollment: Waveform, frame_size: int = FRAME_SIZE) -> np.ndarray:
    """Unit-norm mean magnitude spectrum over enrollment frames.

    Constant with respect to the trainable parameters; speaker identity shows
    up as the harmonic comb of the enrollment signal.
    """
    if len(enrollment) < frame_size:
        raise ValueError(f"enrollment has {len(enrollment)} samples, fewer than one {frame_size}-sample frame")
    n = (len(enrollment) // frame_size) * frame_size
    frames = enrollment.samples[:n].reshape(-1, frame_size)
    mag = np.abs(np.fft.rfft(frames, axis=1)).mean(axis=0)
    norm = np.linalg.norm(mag)
    return mag / norm if norm > 0 else mag


def _frame(x: np.ndarray, frame_size: int) -> np.ndarray:
    """Zero-pad to a frame multiple and reshape to (n_frames, frame_size)."""
    pad = (-len(x)) % frame_size
    if pad:
        x = np.concatenate([x, np.zeros(pad)])
    return x.reshape(-1, frame_size)


def _forward_cache(p: ToyExtractorParams, mixture: Waveform, enrollment: Waveform):
    _check_shapes(p)
    frame_size = p.encoder.shape[0]
    x = _frame(mixture.samples, frame_size)
    stats = enrollment_stats(enrollment, frame_size)
    if stats.shape[0] != p.spk_encoder.shape[0]:
        raise DimensionMismatch("spk_encoder input dim must match stats dim")
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

    frame_size = p.encoder.shape[0]
    feat_dim = q.shape[1]
    g = np.zeros(x.size)
    g[: len(example.mixture)] = result.grad_estimate
    dy = g.reshape(-1, frame_size)

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
        feat_dim * (mu + _NORM_EPS) ** 2
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
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.epochs < 0 or self.batch < 1:
            raise ValueError("invalid training configuration")


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
    workers: Workers | None = None,
) -> tuple[float, float]:
    """Mean utterance SI-SDRi and pooled confusion ratio over a corpus, its
    examples split across `workers` when given, to the same bits.

    Reporting uses non-overlapping chunks (hop == chunk length) regardless of
    the training hop.
    """
    workers = workers or Workers()
    blocks = workers.map(_score_examples, workers.split(range(len(corpus))), p, corpus, setup)
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
    """`backward` on corpus[i] for each (i, slot) of `tasks`, in order: the
    loss value with the gradients, or, when slot is a batch position, the
    loss value alone, with the gradients written into that slot of `slots`.
    Raises DivergenceDetected at the first non-finite loss."""
    out = []
    for i, slot in tasks:
        grads, result = backward(params, corpus[i], setup)
        if not math.isfinite(result.value):
            raise DivergenceDetected(f"non-finite loss on example {i}", [])
        if slot is not None:
            for f in fields(grads):
                getattr(slots, f.name)[slot] = getattr(grads, f.name)
            grads = None
        out.append((grads, result.value))
    return out


@one_blas_thread()
def train(
    cfg: TrainConfig,
    corpus: list[MixtureExample],
    validation: list[MixtureExample],
    setup: LossSetup | None = None,
    start_params: ToyExtractorParams | None = None,
    workers: Workers | None = None,
) -> tuple[ToyExtractorParams, list[HistoryRow]]:
    """Mini-batch SGD with reduce-on-plateau learning-rate halving.

    Deterministic in the seed: data order, initialization and every update
    are reproducible, to the bit whatever the BLAS thread count, since the
    run holds OpenBLAS to one thread. Raises DivergenceDetected, holding the
    completed epochs, on a non-finite extractor output or loss.

    With `workers`, each batch and each validation pass is split across
    them, to the same bits. The parameters, the corpora (best made by
    `make_corpus` with the same workers) and one gradient slot per batch
    example are in their shared buffer: a worker reads the parameters and
    writes each gradient into its slot. This process adds the gradients in
    batch order, as one process would, and updates the parameters in place.
    """
    if not corpus or not validation:
        raise ValueError("corpus and validation must be non-empty")
    setup = setup or LossSetup()
    workers = workers or Workers()
    params = (start_params or init_params(cfg.seed)).copy(workers)
    history: list[HistoryRow] = []
    if cfg.epochs == 0:
        return params, history
    slots = params.zeros(workers, cfg.batch)
    workers.share(corpus, validation, setup, params, slots)

    rng = np.random.default_rng(cfg.seed)
    lr = cfg.learning_rate
    best_val = -np.inf
    stale_epochs = 0

    try:
        val_sisdri, val_rscr = evaluate_corpus(params, validation, setup, workers)
        history.append(HistoryRow(0, float("nan"), val_sisdri, val_rscr))

        param_names = [f.name for f in fields(ToyExtractorParams)]
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(len(corpus))
            losses = []
            for lo in range(0, len(order), cfg.batch):
                batch = order[lo : lo + cfg.batch]
                # this process keeps the gradients of its own block; the
                # workers write theirs into the slot of each batch position
                blocks = workers.split((int(i), p) for p, i in enumerate(batch))
                blocks[0] = [(i, None) for i, _ in blocks[0]]
                done = workers.map(_backward_examples, blocks, params, corpus, setup, slots)
                acc = None
                for position, (grads, value) in enumerate(item for block in done for item in block):
                    losses.append(value)
                    if grads is None:
                        grads = ToyExtractorParams(
                            **{name: getattr(slots, name)[position] for name in param_names}
                        )
                    if acc is None:
                        acc = grads
                    else:
                        for name in param_names:
                            getattr(acc, name).__iadd__(getattr(grads, name))
                scale = lr / len(batch)
                for name in param_names:
                    getattr(params, name).__isub__(scale * getattr(acc, name))
            val_sisdri, val_rscr = evaluate_corpus(params, validation, setup, workers)
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
    return params, history


def history_to_csv(history: list[HistoryRow]) -> str:
    """Fixed-format CSV so identical runs are byte-identical."""
    lines = ["epoch,train_loss,val_sisdri,val_rscr"]
    for row in history:
        lines.append(
            f"{row.epoch},{row.train_loss:.6f},{row.val_sisdri:.6f},{row.val_rscr:.6f}"
        )
    return "\n".join(lines) + "\n"


def save_checkpoint(path: str, p: ToyExtractorParams) -> None:
    """JSON checkpoint: named arrays with shapes."""
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
    # one write of json.dumps, whose C encoder json.dump does not use
    with open(path, "w") as fh:
        fh.write(json.dumps(payload))


def load_checkpoint(path: str) -> ToyExtractorParams:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != "chunksc-params-v1":
        raise ValueError(f"{path}: not a chunksc checkpoint")
    arrays = {
        name: np.asarray(spec["data"]).reshape(spec["shape"])
        for name, spec in payload["arrays"].items()
    }
    return ToyExtractorParams(**arrays)
