import numpy as np
import pytest

from chunksc import SameSpeaker, gen_example, make_corpus, make_speakers
from chunksc.synth import DEFAULT_SAMPLE_RATE, ENROLLMENT_SECONDS, render_utterance


@pytest.fixture(scope="module")
def speakers():
    return make_speakers(8, seed=0)


class TestMakeSpeakers:
    def test_ids_unique(self, speakers):
        assert len({s.id for s in speakers}) == 8

    def test_fundamentals_well_separated(self, speakers):
        f0 = sorted(s.fundamental_hz for s in speakers)
        assert all(b - a >= 30.0 for a, b in zip(f0, f0[1:]))

    def test_deterministic(self):
        assert make_speakers(4, seed=7) == make_speakers(4, seed=7)


class TestRenderUtterance:
    def test_rms_normalized(self, speakers):
        rng = np.random.default_rng(1)
        x = render_utterance(speakers[0], 2.0, DEFAULT_SAMPLE_RATE, rng)
        assert np.sqrt(np.mean(x**2)) == pytest.approx(0.25, rel=1e-9)

    def test_draws_differ(self, speakers):
        rng = np.random.default_rng(2)
        a = render_utterance(speakers[0], 1.0, DEFAULT_SAMPLE_RATE, rng)
        b = render_utterance(speakers[0], 1.0, DEFAULT_SAMPLE_RATE, rng)
        assert not np.allclose(a, b)

    def test_has_quiet_stretches(self, speakers):
        # The squared raised-sine envelope must produce near-silent spans so
        # the activity filter has something to reject.
        rng = np.random.default_rng(3)
        x = render_utterance(speakers[0], 2.0, DEFAULT_SAMPLE_RATE, rng)
        frame_rms = np.sqrt(np.mean(x[: 16000 // 50 * 50].reshape(50, -1) ** 2, axis=1))
        assert frame_rms.min() < 0.05 * frame_rms.max()


class TestGenExample:
    def test_deterministic_in_seed(self, speakers):
        a = gen_example(speakers[0], speakers[1], 2.0, 0.0, seed=5)
        b = gen_example(speakers[0], speakers[1], 2.0, 0.0, seed=5)
        assert np.array_equal(a.mixture.samples, b.mixture.samples)
        assert np.array_equal(a.enrollment.samples, b.enrollment.samples)

    def test_seeds_differ(self, speakers):
        a = gen_example(speakers[0], speakers[1], 2.0, 0.0, seed=5)
        b = gen_example(speakers[0], speakers[1], 2.0, 0.0, seed=6)
        assert not np.allclose(a.mixture.samples, b.mixture.samples)

    def test_mixture_is_exact_sum(self, speakers):
        ex = gen_example(speakers[2], speakers[3], 2.0, 1.0, seed=9)
        assert np.array_equal(
            ex.mixture.samples, ex.target.samples + ex.interferer.samples
        )

    @pytest.mark.parametrize("snr", [-2.0, 0.0, 3.0])
    def test_snr_ratio_exact(self, speakers, snr):
        ex = gen_example(speakers[0], speakers[4], 2.0, snr, seed=11)
        ratio = np.dot(ex.target.samples, ex.target.samples) / np.dot(
            ex.interferer.samples, ex.interferer.samples
        )
        assert ratio == pytest.approx(10.0 ** (snr / 10.0), rel=1e-6)

    def test_enrollment_length_and_speaker(self, speakers):
        ex = gen_example(speakers[5], speakers[6], 2.0, 0.0, seed=13)
        assert len(ex.enrollment) == int(ENROLLMENT_SECONDS * DEFAULT_SAMPLE_RATE)
        assert ex.target_id == speakers[5].id

    def test_same_speaker_rejected(self, speakers):
        with pytest.raises(SameSpeaker):
            gen_example(speakers[0], speakers[0], 2.0, 0.0, seed=1)

    def test_short_duration_rejected(self, speakers):
        with pytest.raises(ValueError):
            gen_example(speakers[0], speakers[1], 0.5, 0.0, seed=1)


class TestMakeCorpus:
    def test_size_shape_and_determinism(self):
        corpus = make_corpus(5, seed=21)
        assert len(corpus) == 5
        for ex in corpus:
            assert len(ex.mixture) == 2 * DEFAULT_SAMPLE_RATE
            assert 0 <= ex.target_id < 8
        again = make_corpus(5, seed=21)
        for a, b in zip(corpus, again):
            assert np.array_equal(a.mixture.samples, b.mixture.samples)

    @pytest.mark.parametrize("n", [0, -3])
    def test_no_examples_rejected(self, n):
        with pytest.raises(ValueError, match="n_examples"):
            make_corpus(n, seed=21)
