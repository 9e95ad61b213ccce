import math

import numpy as np
import pytest

from chunksc import (
    ActivityConfig,
    BinEdges,
    ChunkingConfig,
    EmptyInput,
    LengthMismatch,
    ScStatistics,
    SiSdrConfig,
    Waveform,
    ZeroTarget,
    chunkwise_sisdri,
    distribution_report,
    make_chunks,
    sc_statistics,
    si_sdr,
    si_sdr_improvement,
)

RATE = 8000


def wav(x):
    return Waveform(np.asarray(x, dtype=float), RATE)


def oracle_si_sdr(e, t, clamp_db=60.0, eps=1e-12):
    """Independent textbook formula, written without reusing library code."""
    e = np.asarray(e, dtype=float)
    t = np.asarray(t, dtype=float)
    alpha = float(e @ t) / float(t @ t)
    s = alpha * t
    n = e - s
    val = 10.0 * math.log10((float(s @ s) + eps) / (float(n @ n) + eps))
    return min(max(val, -clamp_db), clamp_db)


class TestSiSdr:
    def test_perfect_estimate_saturates_clamp(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=400)
        assert si_sdr(wav(t), wav(t)) == pytest.approx(60.0)

    def test_orthogonal_estimate_saturates_negative_clamp(self):
        t = np.array([1.0, 0.0, 0.0, 0.0])
        e = np.array([0.0, 1.0, 0.0, 0.0])
        assert si_sdr(wav(e), wav(t)) == pytest.approx(-60.0)

    def test_hand_worked_example(self):
        # e=[1,1], t=[1,0]: alpha=1, projection [1,0], residual [0,1] -> 0 dB
        assert si_sdr(wav([1.0, 1.0]), wav([1.0, 0.0])) == pytest.approx(0.0, abs=1e-9)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(8, 600))
            t = rng.normal(size=n)
            e = t + rng.normal(scale=rng.uniform(0.05, 2.0), size=n)
            assert si_sdr(wav(e), wav(t)) == pytest.approx(
                oracle_si_sdr(e, t), abs=1e-9
            )

    @pytest.mark.parametrize("c", [1e-3, 0.5, 2.0, 1e3, -1.0])
    def test_scale_invariance_in_estimate(self, c):
        rng = np.random.default_rng(2)
        t = rng.normal(size=300)
        e = t + 0.3 * rng.normal(size=300)
        assert si_sdr(wav(c * e), wav(t)) == pytest.approx(
            si_sdr(wav(e), wav(t)), abs=1e-6
        )

    @pytest.mark.parametrize("c", [1e-3, 0.5, 2.0, 1e3])
    def test_scale_invariance_in_target(self, c):
        rng = np.random.default_rng(3)
        t = rng.normal(size=300)
        e = t + 0.3 * rng.normal(size=300)
        assert si_sdr(wav(e), wav(c * t)) == pytest.approx(
            si_sdr(wav(e), wav(t)), abs=1e-8
        )

    def test_clamp_bounds_hold(self):
        rng = np.random.default_rng(4)
        cfg = SiSdrConfig(clamp_db=40.0)
        for _ in range(50):
            t = rng.normal(size=64)
            e = rng.normal(size=64) * rng.uniform(1e-6, 1e6)
            v = si_sdr(wav(e), wav(t), cfg)
            assert -40.0 <= v <= 40.0

    def test_zero_target_rejected(self):
        with pytest.raises(ZeroTarget):
            si_sdr(wav(np.ones(16)), wav(np.zeros(16)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatch):
            si_sdr(wav(np.ones(16)), wav(np.ones(17)))

    def test_clamp_below_30_rejected(self):
        with pytest.raises(ValueError) as exc:
            SiSdrConfig(clamp_db=20.0)
        assert (exc.value.field, exc.value.value) == ("clamp_db", 20.0)

    def test_nan_clamp_rejected_inf_clamp_accepted(self):
        # NaN fails every comparison, so "clamp_db < 30" let it through.
        with pytest.raises(ValueError):
            SiSdrConfig(clamp_db=math.nan)
        t = np.random.default_rng(9).normal(size=64)
        e = t + 1e-4 * np.random.default_rng(10).normal(size=64)
        got = si_sdr(wav(e), wav(t), SiSdrConfig(clamp_db=math.inf))
        assert got == pytest.approx(oracle_si_sdr(e, t, clamp_db=math.inf), abs=1e-9)

    def test_sample_rate_mismatch_rejected(self):
        x = np.random.default_rng(8).normal(size=64)
        with pytest.raises(ValueError, match="^sample rates differ: estimate 8000 Hz, target 16000 Hz$"):
            si_sdr(Waveform(x, 8000), Waveform(x, 16000))


class TestSiSdrImprovement:
    def test_estimate_equals_mixture_gives_zero(self):
        rng = np.random.default_rng(5)
        t = rng.normal(size=400)
        m = t + rng.normal(size=400)
        assert si_sdr_improvement(wav(m), wav(t), wav(m)) == pytest.approx(0.0)

    def test_two_call_identity(self):
        rng = np.random.default_rng(6)
        t = rng.normal(size=400)
        m = t + rng.normal(size=400)
        e = t + 0.2 * rng.normal(size=400)
        got = si_sdr_improvement(wav(e), wav(t), wav(m))
        want = si_sdr(wav(e), wav(t)) - si_sdr(wav(m), wav(t))
        assert got == pytest.approx(want, abs=1e-12)


class TestBinEdges:
    def test_example_values_land_one_per_class(self):
        b = BinEdges()
        assert [b.classify(v) for v in (-7.0, -2.0, 1.0, 9.0)] == [0, 1, 2, 3]

    def test_boundaries_closed_on_right(self):
        b = BinEdges()
        assert b.classify(-5.0) == 0
        assert b.classify(0.0) == 1
        assert b.classify(5.0) == 2
        assert b.classify(5.0 + 1e-12) == 3

    def test_edges_must_increase(self):
        with pytest.raises(ValueError) as exc:
            BinEdges(edges=(0.0, 0.0, 5.0))
        assert (exc.value.field, exc.value.value) == ("edges", (0.0, 0.0, 5.0))


def two_tone_setup(n_chunks=8, chunk_ms=250):
    """Mixture of two sinusoids; the estimate tracks the target except in
    chunk 2, where it reproduces the interferer instead."""
    chunk_len = chunk_ms * RATE // 1000
    n = n_chunks * chunk_len
    t_axis = np.arange(n) / RATE
    target = np.sin(2 * np.pi * 220.0 * t_axis)
    interferer = np.sin(2 * np.pi * 330.0 * t_axis)
    mixture = target + interferer
    estimate = target.copy()
    lo, hi = 2 * chunk_len, 3 * chunk_len
    estimate[lo:hi] = interferer[lo:hi]
    cfg = ChunkingConfig(chunk_len_ms=chunk_ms, hop_ms=chunk_ms)
    chunks = make_chunks(n, cfg, RATE)
    return wav(estimate), wav(target), wav(mixture), chunks


class TestChunkwiseSisdri:
    def test_estimate_equals_mixture_is_uniformly_negative(self):
        # With the mixture itself as estimate, the second term saturates the
        # clamp and every chunk scores si_sdr(m_k, t_k) - clamp_db < 0.
        rng = np.random.default_rng(7)
        t = rng.normal(size=8000)
        m = t + rng.normal(size=8000)
        chunks = make_chunks(8000, ChunkingConfig(250, 125), RATE)
        vals = chunkwise_sisdri(wav(m), wav(t), wav(m), chunks)
        for k in range(len(chunks)):
            idx = slice(chunks.hop * k, min(chunks.hop * k + chunks.length, 8000))
            want = oracle_si_sdr(m[idx], t[idx]) - 60.0
            assert vals[k] == pytest.approx(want, abs=1e-9)
        assert (vals < 0).all()

    def test_estimate_equals_target_is_uniformly_positive(self):
        rng = np.random.default_rng(70)
        t = rng.normal(size=8000)
        m = t + rng.normal(size=8000)
        chunks = make_chunks(8000, ChunkingConfig(250, 125), RATE)
        vals = chunkwise_sisdri(wav(t), wav(t), wav(m), chunks)
        assert (vals > 0).all()

    def test_single_chunk_matches_direct_formula(self):
        rng = np.random.default_rng(8)
        t = rng.normal(size=2000)
        m = t + rng.normal(size=2000)
        e = t + 0.1 * rng.normal(size=2000)
        chunks = make_chunks(2000, ChunkingConfig(250, 250), RATE)
        vals = chunkwise_sisdri(wav(e), wav(t), wav(m), chunks)
        for k in range(len(chunks)):
            idx = slice(chunks.hop * k, min(chunks.hop * k + chunks.length, 2000))
            want = oracle_si_sdr(e[idx], t[idx]) - oracle_si_sdr(e[idx], m[idx])
            assert vals[k] == pytest.approx(want, abs=1e-9)

    def test_silent_target_chunk_gets_nan(self):
        # 16000 samples at 8 kHz with 250 ms tiles -> 8 chunks of 2000.
        t = np.zeros(16000)
        t[8000:] = 1.0
        m = t + 0.5
        chunks = make_chunks(16000, ChunkingConfig(250, 250), RATE)
        assert len(chunks) == 8
        vals = chunkwise_sisdri(wav(m), wav(t), wav(m), chunks)
        assert np.isnan(vals[:4]).all()
        assert np.isfinite(vals[4:]).all()

    def test_planted_confused_chunk_is_the_only_negative(self):
        est, tgt, mix, chunks = two_tone_setup()
        vals = chunkwise_sisdri(est, tgt, mix, chunks)
        assert vals[2] < 0
        neg = [k for k, v in enumerate(vals) if v < 0]
        assert neg == [2]


class TestScStatistics:
    def test_planted_confusion_counted(self):
        est, tgt, mix, chunks = two_tone_setup()
        stats = sc_statistics(est, tgt, mix, chunks)
        assert stats.n_valid == 8
        assert stats.n_sc == 1
        assert stats.r_scr == pytest.approx(100.0 / 8.0)
        assert not stats.degenerate

    def test_all_silent_is_degenerate(self):
        # Estimate quiet enough that no chunk passes the 15 dB activity gate
        # (target stays non-silent so per-chunk values remain computable).
        n = 4000
        t = 1e-4 * np.ones(n)
        e = 1e-4 * np.ones(n)
        m = t + 1e-4
        chunks = make_chunks(n, ChunkingConfig(250, 250), RATE)
        stats = sc_statistics(wav(e), wav(t), wav(m), chunks)
        assert stats.degenerate
        assert stats.n_valid == 0 and stats.n_sc == 0
        assert stats.r_scr == 0.0
        assert stats.class_freq == (0, 0, 0, 0)

    def test_sample_rate_mismatch_rejected(self):
        x = np.random.default_rng(8).normal(size=4000)
        chunks = make_chunks(len(x), ChunkingConfig(250, 125), RATE)
        with pytest.raises(ValueError, match="16000 Hz"):
            sc_statistics(wav(x), Waveform(x, 16000), wav(x), chunks)

    def test_invariants_on_random_signals(self):
        rng = np.random.default_rng(9)
        chunks = make_chunks(8000, ChunkingConfig(250, 125), RATE)
        for _ in range(20):
            t = rng.normal(size=8000)
            m = t + rng.normal(size=8000)
            e = t + rng.uniform(0.1, 3.0) * rng.normal(size=8000)
            stats = sc_statistics(wav(e), wav(t), wav(m), chunks)
            assert sum(stats.class_freq) == stats.n_valid
            assert stats.n_sc <= stats.n_valid
            assert 0.0 <= stats.r_scr <= 100.0
            # negative-class counts cannot exceed the confusion count by more
            # than the chunks sitting exactly in (-5, 0]... they are bounded
            # by it from below via class 0 alone.
            assert stats.class_freq[0] <= stats.n_sc
            assert stats.n_sc <= stats.class_freq[0] + stats.class_freq[1]

    def test_r_scr_uses_activity_filter(self):
        est, tgt, mix, chunks = two_tone_setup()
        strict = sc_statistics(est, tgt, mix, chunks, ActivityConfig(eta_db=45.0))
        assert strict.n_valid < 8


class TestDistributionReport:
    @staticmethod
    def stats_for(seed):
        rng = np.random.default_rng(seed)
        t = rng.normal(size=8000)
        m = t + rng.normal(size=8000)
        e = t + rng.uniform(0.2, 2.0) * rng.normal(size=8000)
        chunks = make_chunks(8000, ChunkingConfig(250, 125), RATE)
        return sc_statistics(wav(e), wav(t), wav(m), chunks)

    def test_single_utterance_passthrough(self):
        s = self.stats_for(10)
        rep = distribution_report([s])
        assert rep.class_freq == s.class_freq
        assert rep.n_valid == s.n_valid and rep.n_sc == s.n_sc

    def test_pooling_is_elementwise_addition(self):
        stats = [self.stats_for(s) for s in range(11, 21)]
        rep = distribution_report(stats)
        want_freq = tuple(sum(s.class_freq[j] for s in stats) for j in range(4))
        want_sum = tuple(sum(s.class_sum[j] for s in stats) for j in range(4))
        assert rep.class_freq == want_freq
        assert rep.class_sum == pytest.approx(want_sum)
        assert rep.n_valid == sum(s.n_valid for s in stats)
        assert rep.n_sc == sum(s.n_sc for s in stats)

    def test_pooling_matches_brute_force_rebinning(self):
        stats = [self.stats_for(s) for s in range(21, 31)]
        rep = distribution_report(stats)
        b = BinEdges()
        all_vals = np.concatenate([s.chunk_sisdri for s in stats])
        freq = [0, 0, 0, 0]
        for v in all_vals:
            freq[b.classify(float(v))] += 1
        assert rep.class_freq == tuple(freq)
        assert rep.n_sc == int(np.sum(all_vals < 0))
        assert isinstance(rep, ScStatistics)
        assert np.array_equal(rep.chunk_sisdri, all_vals)
        assert rep.degenerate is (rep.n_valid == 0) and not rep.degenerate

    @staticmethod
    def with_counts(n_sc, n_valid):
        """n_valid chunks, the first n_sc of them confused (class 0), the rest in class 2."""
        n_ok = n_valid - n_sc
        return ScStatistics(
            chunk_sisdri=np.array([-10.0] * n_sc + [1.0] * n_ok),
            class_freq=(n_sc, 0, n_ok, 0),
            class_sum=(-10.0 * n_sc, 0.0, float(n_ok), 0.0),
        )

    def test_r_scr_pools_counts_not_ratios(self):
        rep = distribution_report([self.with_counts(1, 1), self.with_counts(0, 3)])
        assert rep.r_scr == 25.0  # the mean of the two ratios would be 50

    def test_r_scr_is_zero_when_no_chunk_is_valid(self):
        assert distribution_report([self.with_counts(0, 0)]).r_scr == 0.0

    def test_no_valid_chunk_in_the_corpus_is_degenerate(self):
        rep = distribution_report([self.with_counts(0, 0), self.with_counts(0, 0)])
        assert rep.degenerate and rep.n_valid == 0 and rep.chunk_sisdri.size == 0

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInput):
            distribution_report([])

    def test_degenerate_utterances_contribute_nothing(self):
        s = self.stats_for(31)
        empty = ScStatistics(
            chunk_sisdri=np.array([]), class_freq=(0, 0, 0, 0), class_sum=(0.0, 0.0, 0.0, 0.0)
        )
        assert empty.degenerate and empty.n_valid == 0 and empty.n_sc == 0 and empty.r_scr == 0.0
        assert distribution_report([s, empty]).class_freq == s.class_freq
