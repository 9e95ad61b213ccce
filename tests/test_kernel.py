"""The row-wise SI-SDR kernel against the per-chunk loop it replaced.

`LoopReference` is the straightforward per-chunk implementation: one slice
and one pair of dot products per chunk, with the activity test written out
per chunk. The kernel scores every chunk at once on strided row views, so
the properties below pin it to the loop on random chunk grids (overlapping
and tiled hops, cut-off last chunks, silent and clamped chunks).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chunksc import (
    ActivityConfig,
    BinEdges,
    ChunkIndex,
    ChunkingConfig,
    LengthMismatch,
    LossKind,
    LossSetup,
    NoValidChunks,
    SiSdrConfig,
    Waveform,
    WeightLossConfig,
    chunkwise_sisdri,
    gradient_check,
    loss_weight_sisdr,
    make_chunks,
    metrics,
    sc_statistics,
)
from chunksc.cli import main
from chunksc.metrics import _EPS, _score_chunks, _si_sdr_rows
from chunksc.signal_core import ENERGY_FLOOR

RATE = 1000  # 1 sample per ms, so chunk lengths and hops are in samples
CFG = SiSdrConfig()
BINS = BinEdges()
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


class LoopReference:
    """Per-chunk loop: SI-SDR, chunk improvements, validity and the weighted loss."""

    @staticmethod
    def si_sdr_grad(e, t, cfg=CFG):
        alpha = float(np.dot(e, t)) / float(np.dot(t, t))
        projection = alpha * t
        residual = e - projection
        num = float(np.dot(projection, projection))
        den = float(np.dot(residual, residual))
        raw = 10.0 * np.log10((num + _EPS) / (den + _EPS))
        value = float(np.clip(raw, -cfg.clamp_db, cfg.clamp_db))
        if abs(raw) >= cfg.clamp_db:
            return value, np.zeros_like(e)
        grad = (2.0 * alpha / (num + _EPS)) * t - (2.0 / (den + _EPS)) * residual
        return value, grad / (math.log(10.0) / 10.0)

    @staticmethod
    def energy_db(x):
        return 10.0 * math.log10(float(np.dot(x, x)) + ENERGY_FLOOR)

    @classmethod
    def scores(cls, e, t, y, chunks, activity, cfg=CFG):
        """Per-chunk improvement (NaN on a silent target or mixture chunk) and validity."""
        values, valid = [], []
        for idx in chunks:
            ek, tk, yk = (x[idx.start:idx.end] for x in (e, t, y))
            if np.dot(tk, tk) < _EPS or np.dot(yk, yk) < _EPS:
                values.append(np.nan)
                valid.append(False)
                continue
            values.append(cls.si_sdr_grad(ek, tk, cfg)[0] - cls.si_sdr_grad(ek, yk, cfg)[0])
            valid.append(
                cls.energy_db(tk) > activity.eta_db and cls.energy_db(ek) > activity.eta_db
            )
        return np.array(values), np.array(valid)

    @classmethod
    def weight_loss(cls, e, t, y, chunks, activity, weights=(5.0, 5.0, 1.0, 1.0)):
        values, valid = cls.scores(e, t, y, chunks, activity)
        n_valid = int(valid.sum())
        total = 0.0
        grad = np.zeros_like(e)
        for idx, v, ok in zip(chunks, values, valid):
            if not ok:
                continue
            ek, tk, yk = (x[idx.start:idx.end] for x in (e, t, y))
            w = weights[BINS.classify(float(v))]
            total += w * v
            g = cls.si_sdr_grad(ek, tk)[1] - cls.si_sdr_grad(ek, yk)[1]
            grad[idx.start:idx.end] += -(w / n_valid) * g
        return -total / n_valid, grad


STRETCHES = ("silent target", "silent mixture", "quiet estimate", "estimate is target", "estimate is mixture")


@st.composite
def instances(draw):
    """Random signals on a random chunk grid, with planted special stretches."""
    length = draw(st.integers(2, 160))
    hop = length if draw(st.booleans()) else draw(st.integers(1, length))
    n = draw(st.integers(length, 1200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = rng.normal(size=n)
    y = t + rng.normal(size=n)
    e = t + rng.uniform(0.1, 2.0) * rng.normal(size=n)
    for stretch in draw(st.lists(st.sampled_from(STRETCHES), max_size=4)):
        lo = int(rng.integers(0, n))
        span = slice(lo, lo + int(rng.integers(length, 3 * length + 1)))
        if stretch == "silent target":
            t[span] = 0.0
        elif stretch == "silent mixture":
            y[span] = 0.0
        elif stretch == "quiet estimate":
            e[span] *= 1e-4
        elif stretch == "estimate is target":
            e[span] = t[span]  # SI-SDR to the target saturates the clamp
        else:
            e[span] = y[span]  # SI-SDR to the mixture saturates the clamp
    activity = ActivityConfig(eta_db=draw(st.floats(-10.0, 30.0)))
    chunks = make_chunks(n, ChunkingConfig(length, hop), RATE)
    return e, t, y, chunks, activity


def waves(*arrays):
    return [Waveform(x, RATE) for x in arrays]


@PROPERTY
@given(instances())
def test_chunk_values_and_validity_match_the_loop(instance):
    e, t, y, chunks, activity = instance
    want, want_valid = LoopReference.scores(e, t, y, chunks, activity)
    got = chunkwise_sisdri(*waves(e, t, y), chunks)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    assert np.max(np.abs(got[finite] - want[finite]), initial=0.0) <= 1e-12

    scores = _score_chunks(*waves(e, t, y), chunks, activity, CFG)
    assert np.array_equal(scores.valid, want_valid)
    assert np.array_equal(BINS.classify(scores.sisdri[scores.valid]), BINS.classify(want[want_valid]))


@PROPERTY
@given(instances())
def test_sc_statistics_match_the_loop(instance):
    e, t, y, chunks, activity = instance
    want, valid = LoopReference.scores(e, t, y, chunks, activity)
    stats = sc_statistics(*waves(e, t, y), chunks, activity)
    kept = want[valid]
    assert stats.n_valid == kept.size
    assert stats.degenerate == (kept.size == 0)
    assert stats.n_sc == int(np.sum(kept < 0))
    assert stats.class_freq == tuple(int(np.sum(BINS.classify(kept) == j)) for j in range(4))
    assert np.max(np.abs(stats.chunk_sisdri - kept), initial=0.0) <= 1e-12


@PROPERTY
@given(instances())
def test_weighted_loss_matches_the_loop(instance):
    e, t, y, chunks, activity = instance
    _, valid = LoopReference.scores(e, t, y, chunks, activity)
    if not valid.any():
        with pytest.raises(NoValidChunks):
            loss_weight_sisdr(*waves(e, t, y), chunks, activity)
        return
    want_value, want_grad = LoopReference.weight_loss(e, t, y, chunks, activity)
    got = loss_weight_sisdr(*waves(e, t, y), chunks, activity)
    assert got.value == pytest.approx(want_value, abs=1e-10)
    scale = max(float(np.max(np.abs(want_grad))), 1e-300)
    assert np.max(np.abs(got.grad_estimate - want_grad)) <= 1e-9 * scale


@PROPERTY
@given(
    st.integers(2, 64),
    st.integers(1, 64),
    st.integers(1, 400),
    st.integers(0, 2**32 - 1),
)
def test_zero_padding_the_last_chunk_is_exact(length, hop, extra, seed):
    hop = min(hop, length)
    n = length + extra
    assume(extra % hop != 0)  # the last chunk is cut off at the signal end
    chunks = make_chunks(n, ChunkingConfig(length, hop), RATE)
    rng = np.random.default_rng(seed)
    # Integer samples make every dot product exact, so any summation order
    # (and any number of appended zeros) must give the same bits.
    e, t = (rng.integers(-50, 51, size=n).astype(float) for _ in range(2))
    t[t == 0] = 1.0
    last = chunks[-1]
    padded = _si_sdr_rows(chunks.rows(e)[-1:], chunks.rows(t)[-1:], CFG)
    alone = _si_sdr_rows(e[None, last.start:last.end], t[None, last.start:last.end], CFG)
    assert padded.ref_energy[0] == alone.ref_energy[0]
    assert np.vecdot(chunks.rows(e)[-1], chunks.rows(t)[-1]) == np.dot(e[last.start:last.end], t[last.start:last.end])
    assert abs(padded.value[0] - alone.value[0]) <= 1e-12
    assert len(last) < length and not chunks.rows(e)[-1][len(last):].any()


@PROPERTY
@given(st.integers(2, 64), st.integers(1, 64), st.integers(0, 300), st.integers(0, 2**32 - 1))
def test_overlap_add_is_the_adjoint_of_the_row_view(length, hop, extra, seed):
    n = length + extra
    grid = make_chunks(n, ChunkingConfig(length, min(hop, length)), RATE)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    rows = rng.normal(size=(grid.count, grid.length))
    lhs = float(np.sum(grid.rows(x) * rows))
    assert lhs == pytest.approx(float(x @ grid.overlap_add(rows)), rel=1e-12, abs=1e-12)


def test_silent_mixture_chunk_is_excluded_by_metric_and_loss():
    # The first chunk's mixture is exactly zero while target and estimate
    # are loud: SI-SDR against that mixture chunk is undefined, so neither
    # the statistics nor the weighted loss may count the chunk.
    rng = np.random.default_rng(11)
    n = 512
    t = rng.normal(size=n)
    y = t + rng.normal(size=n)
    e = t + 0.5 * rng.normal(size=n)
    y[:128] = 0.0
    chunks = make_chunks(n, ChunkingConfig(128, 64), RATE)
    stats = sc_statistics(*waves(e, t, y), chunks)
    assert stats.n_valid == len(chunks) - 1
    res = loss_weight_sisdr(*waves(e, t, y), chunks)
    want_value, want_grad = LoopReference.weight_loss(e, t, y, chunks, ActivityConfig())
    assert res.value == pytest.approx(want_value, abs=1e-12)
    np.testing.assert_allclose(res.grad_estimate, want_grad, rtol=0, atol=1e-12)
    unit = loss_weight_sisdr(*waves(e, t, y), chunks, wcfg=WeightLossConfig((1.0,) * 4))
    assert unit.value == pytest.approx(-float(np.mean(stats.chunk_sisdri)), abs=1e-12)


def test_irregular_chunk_lists_are_rejected():
    e, t, y = waves(*np.random.default_rng(12).normal(size=(3, 300)))
    for chunks in (
        [ChunkIndex(0, 100), ChunkIndex(50, 150), ChunkIndex(120, 220)],  # uneven hop
        [ChunkIndex(0, 100), ChunkIndex(100, 150), ChunkIndex(200, 300)],  # cut short mid-signal
        [ChunkIndex(0, 100), ChunkIndex(200, 400)],  # past the end
        [],
    ):
        with pytest.raises(ValueError):
            sc_statistics(e, t, y, chunks)


def test_chunks_made_for_another_length_are_rejected():
    # Before, a grid for 250 samples scored 300-sample signals and silently
    # left the last 50 samples out.
    for made_for, n in ((250, 300), (300, 250)):
        chunks = make_chunks(made_for, ChunkingConfig(100, 50), RATE)
        e, t, y = waves(*np.random.default_rng(13).normal(size=(3, n)))
        for score in (sc_statistics, chunkwise_sisdri, loss_weight_sisdr):
            with pytest.raises(LengthMismatch):
                score(e, t, y, chunks)


def test_weight_mode_flag_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--weight-mode", "count", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--weight-mode" in capsys.readouterr().err


# Tiling: rows longer than metrics._BLOCK_SAMPLES are scored in column tiles.
SMALL_BLOCK = 64


def tiling_rows(shape, seed):
    """Estimate and reference rows, with a clamped-high, a clamped-low and a silent row."""
    rng = np.random.default_rng(seed)
    ref = rng.normal(size=shape)
    est = ref + rng.uniform(0.1, 2.0, size=(shape[0], 1)) * rng.normal(size=shape)
    if shape[0] > 1:
        est[0] = ref[0]
        noise = rng.normal(size=shape[1])
        est[1] = noise - (noise @ ref[1] / (ref[1] @ ref[1]) - 1e-5) * ref[1]
        ref[2] = 0.0
    return est, ref


# the last two: eval-short's 8 chunks of 2000 samples, and its 2 s utterance at 8 kHz
@pytest.mark.parametrize("shape", [(1, 1000), (1, 65), (7, 300), (5, 129), (8, 2000), (1, 16000)])
@pytest.mark.parametrize("grad", [False, True])
def test_column_tiles_match_the_untiled_kernel(monkeypatch, shape, grad):
    est, ref = tiling_rows(shape, seed=shape[1])
    untiled = _si_sdr_rows(est, ref, CFG, grad)
    monkeypatch.setattr(metrics, "_BLOCK_SAMPLES", SMALL_BLOCK)
    tiled = _si_sdr_rows(est, ref, CFG, grad)
    np.testing.assert_allclose(tiled.value, untiled.value, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(tiled.clamped, untiled.clamped)
    np.testing.assert_allclose(tiled.ref_energy, untiled.ref_energy, rtol=1e-15, atol=0)
    if shape[0] > 1:
        assert untiled.clamped[:2].all() and np.isnan(untiled.value[2])
    if grad:
        scale = np.abs(untiled.grad).max(axis=1, keepdims=True)
        assert np.all(np.abs(tiled.grad - untiled.grad) <= 1e-12 * scale)


@pytest.mark.parametrize("shape", [(1, 64), (12, 64), (12, 50)])
def test_rows_within_one_tile_are_bit_identical(monkeypatch, shape):
    est, ref = tiling_rows(shape, seed=shape[0])
    untiled = _si_sdr_rows(est, ref, CFG, grad=True)
    monkeypatch.setattr(metrics, "_BLOCK_SAMPLES", SMALL_BLOCK)
    tiled = _si_sdr_rows(est, ref, CFG, grad=True)
    np.testing.assert_array_equal(tiled.value, untiled.value)
    np.testing.assert_array_equal(tiled.grad, untiled.grad)


@pytest.mark.parametrize("shape", [(8, 2000), (1, 16000)], ids=["chunks", "utterance"])
@pytest.mark.parametrize("grad", [False, True])
def test_eval_short_rows_give_the_bits_of_row_tiles_and_of_the_formula(monkeypatch, shape, grad):
    est, ref = tiling_rows(shape, seed=shape[1])
    untiled = _si_sdr_rows(est, ref, CFG, grad)
    # one row per tile
    monkeypatch.setattr(metrics, "_BLOCK_SAMPLES", shape[1])
    tiled = _si_sdr_rows(est, ref, CFG, grad)
    for field in ("value", "clamped", "ref_energy", "grad"):
        np.testing.assert_array_equal(getattr(tiled, field), getattr(untiled, field))
    # a row in one tile has the dot products of the textbook formula
    sound = np.vecdot(ref, ref) >= _EPS
    alpha = np.vecdot(est[sound], ref[sound]) / np.vecdot(ref[sound], ref[sound])
    projection = alpha[:, None] * ref[sound]
    residual = est[sound] - projection
    ratio = (np.vecdot(projection, projection) + _EPS) / (np.vecdot(residual, residual) + _EPS)
    np.testing.assert_array_equal(
        untiled.value[sound], np.clip(10.0 * np.log10(ratio), -CFG.clamp_db, CFG.clamp_db)
    )


@pytest.mark.parametrize("kind", list(LossKind))
def test_gradient_check_passes_with_column_tiles(monkeypatch, kind):
    monkeypatch.setattr(metrics, "_BLOCK_SAMPLES", SMALL_BLOCK)
    rng = np.random.default_rng(41)
    t = rng.normal(size=512)
    y = t + rng.normal(size=512)
    e = t + 0.8 * rng.normal(size=512)
    # 100-sample chunks span two or three column tiles, the utterance eight
    setup = LossSetup(kind, chunking=ChunkingConfig(100, 50))
    fd_step = {LossKind.PLAIN: 3e-4, LossKind.SCALE: 3e-4, LossKind.WEIGHT: 1e-4}[kind]
    assert gradient_check(setup, *waves(e, t, y), fd_step=fd_step) < 1e-5
