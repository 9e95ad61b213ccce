"""Training objectives: plain, scaled and weighted negative SI-SDR.

Every loss returns the scalar value together with the analytic gradient with
respect to each estimate sample. Differentiation treats all counting
quantities (the confusion ratio, activity masks, class assignments) as
constants: indicator functions have zero derivative almost everywhere, so
this is the exact gradient away from branch boundaries. Clamp saturation
zeroes the gradient rather than propagating a spurious slope.

All three losses take their SI-SDR values and gradients from the metrics
kernel (`metrics._si_sdr_rows`), and the chunkwise ones use exactly the
chunks that `r_scr` counts. Each result carries the branch state it was
computed on (clamp flags, sign, chunk validity, classes), which
`gradient_check` compares across perturbations.

Every loss takes the arguments of `compute_loss`, `(setup, estimate,
target, mixture=None)`, and reads its settings from the `LossSetup`: the
chunkwise ones score the chunks that `setup.chunking` lays on the estimate.
`compute_loss` is the one dispatch on `setup.loss_kind`: training and
`gradient_check` both pass it their setup, so the harness checks the loss
that training runs, on the chunk grid training uses. Its weighted-to-plain
fallback is flagged `degenerate`.

The confusion ratio enters the scaled loss as a fraction in [0, 1], keeping
the scaling factor within [gamma1 - gamma2, gamma1 + gamma2].

In the weighted loss each class contributes the sum of its chunkwise
improvements; the loss is then a per-chunk weighted mean with heavier weight
on confused chunks and a well-defined gradient.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidSetting, NoValidChunks
from .metrics import BinEdges, SiSdrConfig, _score_chunks, _utterance_si_sdr, sc_statistics
from .signal_core import ActivityConfig, ChunkingConfig, Waveform, make_chunks


class LossKind(enum.Enum):
    PLAIN = "plain"
    SCALE = "scale"
    WEIGHT = "weight"


@dataclass(frozen=True)
class ScaleLossConfig:
    """Scaling factors of the confusion-scaled loss."""

    gamma1: float = 1.0
    gamma2: float = 1.0

    def __post_init__(self):
        for name in ("gamma1", "gamma2"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidSetting(name, getattr(self, name), "must be finite")


@dataclass(frozen=True)
class WeightLossConfig:
    """Per-class weights of the weighted loss, non-increasing and positive."""

    weights: tuple[float, float, float, float] = (5.0, 5.0, 1.0, 1.0)

    def __post_init__(self):
        w = self.weights
        if len(w) != 4:
            raise InvalidSetting("weights", w, "must be 4 numbers")
        if not (all(map(math.isfinite, w)) and w[0] >= w[1] >= w[2] >= w[3] > 0):
            raise InvalidSetting("weights", w, "must be finite, non-increasing and positive")


@dataclass(frozen=True)
class LossSetup:
    """Every scoring and loss setting: which loss to train, and the chunking,
    activity gate, clamp and class bins it shares with the r_scr metric."""

    loss_kind: LossKind = LossKind.PLAIN
    chunking: ChunkingConfig = ChunkingConfig()
    activity: ActivityConfig = ActivityConfig()
    sisdr_cfg: SiSdrConfig = SiSdrConfig()
    scale_cfg: ScaleLossConfig = ScaleLossConfig()
    weight_cfg: WeightLossConfig = WeightLossConfig()
    bins: BinEdges = BinEdges()


@dataclass
class LossResult:
    """Scalar loss (lower is better) and d loss / d estimate_t.

    `branch` is the state of the non-differentiable parts the value was
    computed on (clamp flags, sign, chunk validity, classes); estimates with
    equal branches lie on the same smooth piece of the loss.
    """

    value: float
    grad_estimate: np.ndarray
    degenerate: bool = False
    branch: tuple = ()


def loss_sisdr(
    setup: LossSetup, estimate: Waveform, target: Waveform, mixture: Waveform | None = None
) -> LossResult:
    """Negative SI-SDR with its analytic gradient; reads the clamp only."""
    whole = _utterance_si_sdr(estimate, target, setup.sisdr_cfg, grad=True)
    return LossResult(
        value=-float(whole.value[0]),
        grad_estimate=-whole.grad[0],
        branch=(bool(whole.clamped[0]),),
    )


def loss_scale_sisdr(
    setup: LossSetup, estimate: Waveform, target: Waveform, mixture: Waveform | None = None
) -> LossResult:
    """Utterance loss -alpha * SI-SDR with alpha driven by the confusion ratio.

    alpha = gamma1 - gamma2*r when SI-SDR >= 0, else gamma1 + gamma2*r, where
    r is the chunkwise confusion ratio as a fraction. alpha is a constant for
    differentiation; when no chunk is valid, r is 0 and the result is flagged
    degenerate.
    """
    chunks = make_chunks(len(estimate), setup.chunking, estimate.sample_rate)
    stats = sc_statistics(
        estimate, target, mixture, chunks, setup.activity, setup.sisdr_cfg, setup.bins
    )
    r = stats.r_scr / 100.0
    whole = _utterance_si_sdr(estimate, target, setup.sisdr_cfg, grad=True)
    value = float(whole.value[0])
    positive = value >= 0.0
    gamma1, gamma2 = setup.scale_cfg.gamma1, setup.scale_cfg.gamma2
    alpha = gamma1 - gamma2 * r if positive else gamma1 + gamma2 * r
    return LossResult(
        value=-alpha * value,
        grad_estimate=-alpha * whole.grad[0],
        degenerate=stats.degenerate,
        branch=(bool(whole.clamped[0]), positive, stats.n_valid, stats.n_sc),
    )


def loss_weight_sisdr(
    setup: LossSetup, estimate: Waveform, target: Waveform, mixture: Waveform | None = None
) -> LossResult:
    """Class-weighted chunkwise loss -(1/N_valid) * sum_j w_j * s_j.

    Scores the same valid chunks as sc_statistics; raises NoValidChunks when
    there are none.
    """
    chunks = make_chunks(len(estimate), setup.chunking, estimate.sample_rate)
    scores = _score_chunks(
        estimate, target, mixture, chunks, setup.activity, setup.sisdr_cfg, grad=True
    )
    valid = scores.valid
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise NoValidChunks("no chunk passed the activity filter")
    values = scores.sisdri[valid]
    classes = setup.bins.classify(values)
    weights = np.asarray(setup.weight_cfg.weights)[classes]
    coef = np.zeros(valid.size)
    coef[valid] = -(weights / n_valid)
    rows = coef[:, None] * (scores.to_target.grad - scores.to_mixture.grad)
    branch = (
        tuple(valid.tolist()),
        tuple(classes.tolist()),
        tuple(scores.to_target.clamped[valid].tolist()),
        tuple(scores.to_mixture.clamped[valid].tolist()),
    )
    return LossResult(
        value=-float(np.sum(weights * values)) / n_valid,
        grad_estimate=chunks.overlap_add(rows),
        branch=branch,
    )


def compute_loss(
    setup: LossSetup, estimate: Waveform, target: Waveform, mixture: Waveform | None = None
) -> LossResult:
    """The loss `setup.loss_kind` names, with its gradient.

    The weighted loss is undefined when no chunk is valid (typical for an
    untrained model whose output is near silence); it then falls back to the
    plain loss, flagged `degenerate`, so training can proceed.
    """
    if setup.loss_kind is LossKind.PLAIN:
        return loss_sisdr(setup, estimate, target)
    if setup.loss_kind is LossKind.SCALE:
        return loss_scale_sisdr(setup, estimate, target, mixture)
    try:
        return loss_weight_sisdr(setup, estimate, target, mixture)
    except NoValidChunks:
        return replace(loss_sisdr(setup, estimate, target), degenerate=True)


def gradient_check(
    setup: LossSetup,
    estimate: Waveform,
    target: Waveform,
    mixture: Waveform | None = None,
    fd_step: float = 1e-6,
) -> float:
    """Max relative error of the analytic gradient of `compute_loss(setup,
    ...)` vs central differences: the `setup` that training passes it.

    Coordinates where a perturbation of +-fd_step crosses a branch boundary
    (clamp edge, scaling-factor branch, bin edge, activity flip, fallback)
    are skipped: the loss is non-differentiable there and finite differences
    are meaningless. Returns 0.0 if every coordinate was skipped.
    """
    if len(estimate) > 512:
        raise ValueError("gradient_check is limited to signals of <= 512 samples")
    if fd_step <= 0:
        raise ValueError("fd_step must be positive")

    def loss_at(samples):
        return compute_loss(setup, Waveform(samples, target.sample_rate), target, mixture)

    base = estimate.samples
    analytic = loss_at(base).grad_estimate

    max_rel = 0.0
    for i in range(base.size):
        plus = base.copy()
        plus[i] += fd_step
        minus = base.copy()
        minus[i] -= fd_step
        res_plus = loss_at(plus)
        res_minus = loss_at(minus)
        if res_plus.branch != res_minus.branch:
            continue
        numerical = (res_plus.value - res_minus.value) / (2.0 * fd_step)
        denom = max(abs(analytic[i]), abs(numerical), 1e-8)
        max_rel = max(max_rel, abs(analytic[i] - numerical) / denom)
    return max_rel
