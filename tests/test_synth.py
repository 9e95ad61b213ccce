import os
import sys
import threading
import time

import numpy as np
import pytest

from chunksc import InvalidSetting, SameSpeaker, gen_example, make_corpus, make_speakers, synth
from chunksc import _blas
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
        x = render_utterance(speakers[0], DEFAULT_SAMPLE_RATE, rng, np.zeros(16000))
        assert np.sqrt(np.mean(x**2)) == pytest.approx(0.25, rel=1e-9)

    def test_draws_differ(self, speakers):
        rng = np.random.default_rng(2)
        a = render_utterance(speakers[0], DEFAULT_SAMPLE_RATE, rng, np.zeros(8000))
        b = render_utterance(speakers[0], DEFAULT_SAMPLE_RATE, rng, np.zeros(8000))
        assert not np.allclose(a, b)

    def test_has_quiet_stretches(self, speakers):
        # The squared raised-sine envelope must produce near-silent spans so
        # the activity filter has something to reject.
        rng = np.random.default_rng(3)
        x = render_utterance(speakers[0], DEFAULT_SAMPLE_RATE, rng, np.zeros(16000))
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
        with pytest.raises(ValueError, match="n_examples") as exc:
            make_corpus(n, seed=21)
        assert (exc.value.field, exc.value.value) == ("n_examples", n)

    def test_corpus_larger_than_physical_memory_refused_before_allocating(self, monkeypatch):
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        # three float64 signals of 4 s and one enrollment
        example = 8 * (3 * 4 + ENROLLMENT_SECONDS) * DEFAULT_SAMPLE_RATE
        fits = int(memory // example)
        synth.check_corpus_size(fits, 4.0)

        def allocates(*args):
            raise AssertionError("the corpus was allocated")

        monkeypatch.setattr(np, "zeros", allocates)
        with pytest.raises(InvalidSetting, match=f"n_examples {fits + 1} at duration_s 4.0") as exc:
            make_corpus(fits + 1, seed=21, duration_s=4.0)
        assert (exc.value.field, exc.value.value) == ("n_examples", fits + 1)

    @pytest.mark.parametrize("kw, name", [
        ({"sample_rate": 0}, "sample_rate"),
        ({"sample_rate": -8000}, "sample_rate"),
        ({"duration_s": 0.5}, "duration_s"),
        ({"duration_s": 1e308}, "duration_s"),
    ], ids=["rate-zero", "rate-negative", "duration-short", "duration-overflows"])
    def test_bad_argument_refused_by_name_before_rendering(self, monkeypatch, kw, name):
        def renders(*args):
            raise AssertionError("rendering started")

        monkeypatch.setattr(synth, "_render_in_threads", renders)
        with pytest.raises(ValueError, match=name) as exc:
            make_corpus(3, seed=21, **kw)
        assert (exc.value.field, exc.value.value) == (name, kw[name])


def draws_of(n_examples, seed):
    """(target, interferer, snr_db, seed) of each example of make_corpus,
    drawn as it draws them, one example after another."""
    speakers = make_speakers(8, seed)
    rng = np.random.default_rng(seed + 1)
    draws = []
    for _ in range(n_examples):
        a, b = rng.choice(8, size=2, replace=False)
        snr = float(rng.uniform(-2.0, 2.0))
        draws.append((speakers[a], speakers[b], snr, int(rng.integers(0, 2**31))))
    return draws


def waveforms(ex):
    return [w.samples for w in (ex.mixture, ex.target, ex.interferer, ex.enrollment)]


class TestRenderThreads:
    @pytest.fixture
    def blocks(self, monkeypatch):
        """(thread name, example indices) of each block rendered; the blocks of
        one call may come in any order."""
        seen, real_render = [], synth._render_examples

        def recorded(sample_rate, signals, enrollments, draws):
            seen.append((threading.current_thread().name, [j for j, *_ in draws]))
            return real_render(sample_rate, signals, enrollments, draws)

        monkeypatch.setattr(synth, "_render_examples", recorded)
        return seen

    def test_every_example_is_its_draw_at_any_thread_count(self, monkeypatch, blocks):
        expected = [gen_example(a, b, 2.0, snr, seed) for a, b, snr, seed in draws_of(7, seed=30)]
        blocks.clear()  # gen_example renders through the same function
        corpora = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            for count in (1, 2, 3):
                monkeypatch.setattr(synth, "_thread_count", lambda count=count: count)
                corpora[count] = make_corpus(7, seed=30)
        finally:
            sys.setswitchinterval(interval)
        for count, corpus in corpora.items():
            for ex, want in zip(corpus, expected, strict=True):
                assert ex.target_id == want.target_id
                for got, ref in zip(waveforms(ex), waveforms(want)):
                    assert np.array_equal(got, ref), count
        # contiguous blocks, the larger first, the first on the calling thread
        main = threading.current_thread().name
        assert blocks[:1] == [(main, list(range(7)))]
        assert sorted(blocks[1:3]) == sorted([(main, [0, 1, 2, 3]), ("chunksc render 1", [4, 5, 6])])
        assert sorted(blocks[3:]) == sorted([(main, [0, 1, 2]), ("chunksc render 1", [3, 4]),
                                             ("chunksc render 2", [5, 6])])

    def test_every_example_is_its_draw_at_two_blas_threads(self):
        # gen_example scales by a dot product of 16,000 samples, whose last
        # bits follow the BLAS thread count; it and make_corpus each hold
        # BLAS to one thread, whatever the caller set
        controls = _blas._openblas_controls()
        if not controls:
            pytest.skip("no OpenBLAS is loaded")
        restore = [(set_, get()) for get, set_ in controls]
        for _, set_ in controls:
            set_(2)
        try:
            corpus = make_corpus(7, seed=30)
            expected = [gen_example(a, b, 2.0, snr, seed) for a, b, snr, seed in draws_of(7, seed=30)]
        finally:
            for set_, threads in restore:
                set_(threads)
        for ex, want in zip(corpus, expected, strict=True):
            for got, ref in zip(waveforms(ex), waveforms(want)):
                assert np.array_equal(got, ref)

    def test_at_most_one_thread_per_example(self, monkeypatch, blocks):
        monkeypatch.setattr(synth, "_thread_count", lambda: 4)
        make_corpus(2, seed=30)
        assert sorted(blocks) == sorted([(threading.current_thread().name, [0]),
                                         ("chunksc render 1", [1])])

    def test_first_error_in_block_order_reaches_the_caller_after_every_thread_ends(
        self, monkeypatch
    ):
        real_render = synth._render_examples

        def blocks_1_and_2_fail(sample_rate, signals, enrollments, draws):
            first = draws[0][0]
            if first == 2:
                time.sleep(0.2)  # block 2 fails first
                raise RuntimeError("block 1 failed")
            if first == 4:
                raise RuntimeError("block 2 failed")
            return real_render(sample_rate, signals, enrollments, draws)

        monkeypatch.setattr(synth, "_thread_count", lambda: 3)
        monkeypatch.setattr(synth, "_render_examples", blocks_1_and_2_fail)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="block 1 failed"):
            make_corpus(6, seed=30)
        assert threading.active_count() == before

    def test_forks_nothing(self, monkeypatch):
        expected = make_corpus(3, seed=31)

        def no_fork():
            raise AssertionError("make_corpus forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(synth, "_thread_count", lambda: 2)
        for ex, want in zip(make_corpus(3, seed=31), expected, strict=True):
            for got, ref in zip(waveforms(ex), waveforms(want)):
                assert np.array_equal(got, ref)
