from dataclasses import replace

import numpy as np
import pytest

from chunksc import (
    ActivityConfig,
    ChunkingConfig,
    LossKind,
    LossSetup,
    NoValidChunks,
    ScaleLossConfig,
    Waveform,
    WeightLossConfig,
    gradient_check,
    loss_scale_sisdr,
    loss_sisdr,
    loss_weight_sisdr,
    make_chunks,
    sc_statistics,
    si_sdr,
)

RATE = 8000

# Finite-difference steps verified to sit in the sweet spot between
# truncation (large step) and roundoff on small-gradient coordinates
# (small step) for each objective on length-512 signals.
FD_STEP = {LossKind.PLAIN: 3e-4, LossKind.SCALE: 3e-4, LossKind.WEIGHT: 1e-4}

# gamma2 < gamma1 keeps the scaling factor away from zero even when the
# confusion ratio saturates, so the scaled objective stays informative.
SCALE_CFG = ScaleLossConfig(gamma1=1.0, gamma2=0.5)


def wav(x):
    return Waveform(np.asarray(x, dtype=float), RATE)


# The chunking of every random instance, and of the LossSetup its losses
# and gradients are computed with.
CHUNKING = ChunkingConfig(16, 8)
SETUP = LossSetup(chunking=CHUNKING)


def random_instance(seed, n=512):
    rng = np.random.default_rng(seed)
    t = rng.normal(size=n)
    m = t + rng.normal(size=n)
    e = t + rng.uniform(0.3, 1.5) * rng.normal(size=n)
    chunks = make_chunks(n, CHUNKING, RATE)
    return wav(e), wav(t), wav(m), chunks


class TestLossSisdr:
    def test_perfect_estimate_clamped_zero_grad(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=64)
        res = loss_sisdr(SETUP, wav(t), wav(t))
        assert res.value == pytest.approx(-60.0)
        assert np.all(res.grad_estimate == 0.0)

    def test_value_is_negated_si_sdr(self):
        e, t, _, _ = random_instance(1)
        assert loss_sisdr(SETUP, e, t).value == pytest.approx(-si_sdr(e, t), abs=1e-12)

    def test_value_scale_invariant(self):
        e, t, _, _ = random_instance(2)
        doubled = wav(2.0 * e.samples)
        assert loss_sisdr(SETUP, doubled, t).value == pytest.approx(
            loss_sisdr(SETUP, e, t).value, abs=1e-9
        )

    def test_gradient_orthogonal_to_estimate(self):
        # Scale invariance means moving along the estimate itself changes
        # nothing, so the gradient has no component along it.
        for seed in range(100):
            e, t, _, _ = random_instance(seed, n=256)
            g = loss_sisdr(SETUP, e, t).grad_estimate
            bound = 1e-8 * np.linalg.norm(g) * np.linalg.norm(e.samples)
            assert abs(float(g @ e.samples)) <= bound

    def test_gradient_matches_finite_differences_len32(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = rng.normal(size=32)
            e = t + rng.uniform(0.3, 1.5) * rng.normal(size=32)
            err = gradient_check(LossSetup(LossKind.PLAIN), wav(e), wav(t), fd_step=1e-5)
            assert err < 1e-5

    def test_grad_finite_and_sized(self):
        e, t, _, _ = random_instance(4)
        g = loss_sisdr(SETUP, e, t).grad_estimate
        assert g.shape == e.samples.shape
        assert np.isfinite(g).all()


class TestLossScaleSisdr:
    def test_substitution_positive_branch(self):
        # scaling factor 1 - 1*0.2 = 0.8 applied to +10 dB -> value -8.0
        assert _scale_value(r=0.2, sisdr_db=10.0) == pytest.approx(-8.0, abs=1e-12)

    def test_substitution_negative_branch(self):
        # scaling factor 1 + 1*0.2 = 1.2 applied to -5 dB -> value +6.0
        assert _scale_value(r=0.2, sisdr_db=-5.0) == pytest.approx(6.0, abs=1e-12)

    def test_collapse_to_plain_when_no_confusion(self):
        # r_scr = 0 and gamma1 = 1 must reproduce the plain loss bit-for-bit.
        hits = 0
        for seed in range(200):
            e, t, m, chunks = random_instance(seed)
            stats = sc_statistics(e, t, m, chunks)
            if stats.degenerate or stats.n_sc != 0:
                continue
            hits += 1
            plain = loss_sisdr(SETUP, e, t)
            scaled = loss_scale_sisdr(SETUP, e, t, m)
            assert scaled.value == plain.value
            assert np.array_equal(scaled.grad_estimate, plain.grad_estimate)
            if hits >= 50:
                break
        assert hits >= 50

    def test_constructed_no_confusion_case(self):
        rng = np.random.default_rng(5)
        t = rng.normal(size=512)
        m = t + rng.normal(size=512)
        e = t + 0.05 * rng.normal(size=512)  # near-perfect: no SC chunks
        chunks = make_chunks(512, CHUNKING, RATE)
        stats = sc_statistics(wav(e), wav(t), wav(m), chunks)
        assert stats.n_sc == 0
        assert loss_scale_sisdr(SETUP, wav(e), wav(t), wav(m)).value == loss_sisdr(
            SETUP, wav(e), wav(t)
        ).value

    @pytest.mark.parametrize("field", ["gamma1", "gamma2"])
    def test_scale_factors_must_be_finite(self, field):
        with pytest.raises(ValueError) as exc:
            ScaleLossConfig(**{field: float("inf")})
        assert (exc.value.field, exc.value.value) == (field, float("inf"))

    def test_degenerate_uses_gamma1(self):
        # All chunks inactive: scaling factor falls back to gamma1 alone.
        n = 512
        t = 1e-4 * np.ones(n)
        m = t + 1e-4
        e = 1e-4 * np.ones(n)
        setup = replace(SETUP, scale_cfg=ScaleLossConfig(gamma1=2.0))
        res = loss_scale_sisdr(setup, wav(e), wav(t), wav(m))
        assert res.degenerate
        assert res.value == pytest.approx(-2.0 * si_sdr(wav(e), wav(t)), abs=1e-9)

    def test_gradient_is_alpha_times_plain(self):
        for seed in range(20):
            e, t, m, chunks = random_instance(seed + 100)
            stats = sc_statistics(e, t, m, chunks)
            r = 0.0 if stats.degenerate else stats.r_scr / 100.0
            v = si_sdr(e, t)
            alpha = 1.0 - 0.5 * r if v >= 0 else 1.0 + 0.5 * r
            res = loss_scale_sisdr(replace(SETUP, scale_cfg=SCALE_CFG), e, t, m)
            plain = loss_sisdr(SETUP, e, t)
            assert res.value == pytest.approx(alpha * plain.value, abs=1e-9)
            np.testing.assert_allclose(
                res.grad_estimate, alpha * plain.grad_estimate, atol=1e-12
            )

    def test_gradient_matches_finite_differences(self):
        for seed in range(20):
            e, t, m, _ = random_instance(seed + 200)
            setup = LossSetup(LossKind.SCALE, chunking=CHUNKING, scale_cfg=SCALE_CFG)
            err = gradient_check(setup, e, t, m, fd_step=FD_STEP[LossKind.SCALE])
            assert err < 1e-5


def _scale_value(r, sisdr_db):
    """Direct substitution into the scaled objective with gamma1=gamma2=1."""
    alpha = 1.0 - r if sisdr_db >= 0 else 1.0 + r
    return -alpha * sisdr_db


class WeightOracle:
    """Independent evaluation of the weighted objective from raw chunk values."""

    @staticmethod
    def value(chunk_values, weights, edges=(-5.0, 0.0, 5.0), count_mode=False):
        total = 0.0
        for v in chunk_values:
            j = 0
            while j < 3 and v > edges[j]:
                j += 1
            total += weights[j] if count_mode else weights[j] * v
        return -total / len(chunk_values)


class TestWeightOracleValues:
    """Hand-derived numbers for the weighted objective, evaluated through the
    independent oracle on the stated chunk values."""

    VALUES = [-6.0, -1.0, 2.0, 7.0]

    def test_default_weights(self):
        # -(1/4)(5*(-6) + 5*(-1) + 1*2 + 1*7) = 6.5
        got = WeightOracle.value(self.VALUES, (5, 5, 1, 1))
        assert got == pytest.approx(6.5, abs=1e-12)

    def test_unit_weights(self):
        # collapses to the negative mean improvement: -0.5
        got = WeightOracle.value(self.VALUES, (1, 1, 1, 1))
        assert got == pytest.approx(-0.5, abs=1e-12)

    def test_count_mode(self):
        # -(1/4)(5+5+1+1) = -3.0
        got = WeightOracle.value(self.VALUES, (5, 5, 1, 1), count_mode=True)
        assert got == pytest.approx(-3.0, abs=1e-12)


class TestLossWeightSisdr:
    def test_matches_oracle_on_random_instances(self):
        for seed in range(30):
            e, t, m, chunks = random_instance(seed)
            stats = sc_statistics(e, t, m, chunks)
            if stats.degenerate:
                continue
            res = loss_weight_sisdr(SETUP, e, t, m)
            want = WeightOracle.value(list(stats.chunk_sisdri), (5.0, 5.0, 1.0, 1.0))
            assert res.value == pytest.approx(want, abs=1e-9)

    def test_unit_weight_collapse(self):
        setup = replace(SETUP, weight_cfg=WeightLossConfig(weights=(1.0, 1.0, 1.0, 1.0)))
        for seed in range(50):
            e, t, m, chunks = random_instance(seed)
            stats = sc_statistics(e, t, m, chunks)
            if stats.degenerate:
                continue
            res = loss_weight_sisdr(setup, e, t, m)
            assert res.value == pytest.approx(
                -float(np.mean(stats.chunk_sisdri)), abs=1e-12
            )

    def test_weight_monotonicity(self):
        # Raising the weight of the worst class cannot reduce the loss while
        # that class's chunk sum is negative.
        for seed in range(100):
            e, t, m, chunks = random_instance(seed)
            stats = sc_statistics(e, t, m, chunks)
            if stats.degenerate or stats.class_sum[0] >= 0.0:
                continue
            lo = loss_weight_sisdr(
                replace(SETUP, weight_cfg=WeightLossConfig(weights=(5.0, 5.0, 1.0, 1.0))), e, t, m
            )
            hi = loss_weight_sisdr(
                replace(SETUP, weight_cfg=WeightLossConfig(weights=(8.0, 5.0, 1.0, 1.0))), e, t, m
            )
            assert hi.value >= lo.value

    def test_no_valid_chunks_raises(self):
        n = 512
        t = 1e-4 * np.ones(n)
        m = t + 1e-4
        e = 1e-4 * np.ones(n)
        with pytest.raises(NoValidChunks):
            loss_weight_sisdr(SETUP, wav(e), wav(t), wav(m))

    def test_weight_ordering_enforced(self):
        with pytest.raises(ValueError) as exc:
            WeightLossConfig(weights=(1.0, 5.0, 1.0, 1.0))
        assert (exc.value.field, exc.value.value) == ("weights", (1.0, 5.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            WeightLossConfig(weights=(5.0, 5.0, 1.0, 0.0))
        with pytest.raises(ValueError, match="^weights must be 4 numbers, got"):
            WeightLossConfig(weights=(5.0, 1.0, 1.0))

    def test_gradient_matches_finite_differences(self):
        for seed in range(20):
            e, t, m, _ = random_instance(seed + 300)
            setup = LossSetup(LossKind.WEIGHT, chunking=CHUNKING)
            err = gradient_check(setup, e, t, m, fd_step=FD_STEP[LossKind.WEIGHT])
            assert err < 1e-5


class TestGradientCheckHarness:
    def test_weight_checks_the_plain_fallback_when_no_chunk_is_valid(self):
        e, t, m, _ = random_instance(7)
        quiet_gate = ActivityConfig(eta_db=60.0)  # above every chunk of these signals
        setup = LossSetup(LossKind.WEIGHT, chunking=CHUNKING, activity=quiet_gate)
        with pytest.raises(NoValidChunks):
            loss_weight_sisdr(setup, e, t, m)
        step = FD_STEP[LossKind.PLAIN]
        err = gradient_check(setup, e, t, m, fd_step=step)
        assert err < 1e-5
        plain = replace(setup, loss_kind=LossKind.PLAIN)
        assert err == gradient_check(plain, e, t, m, fd_step=step)

    def test_rejects_long_signals(self):
        rng = np.random.default_rng(8)
        t = rng.normal(size=600)
        with pytest.raises(ValueError):
            gradient_check(LossSetup(LossKind.PLAIN), wav(t), wav(t))

    def test_rejects_bad_step(self):
        rng = np.random.default_rng(9)
        t = rng.normal(size=32)
        with pytest.raises(ValueError):
            gradient_check(LossSetup(LossKind.PLAIN), wav(t), wav(t), fd_step=0.0)
