import math
import pickle

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from chunksc import (
    ActivityConfig,
    ChunkLenExceedsSignal,
    ChunkingConfig,
    InvalidHop,
    InvalidSetting,
    LengthMismatch,
    Waveform,
    make_chunks,
)
from chunksc.signal_core import ENERGY_FLOOR, active_mask, energy_db, is_active


def naive_chunk_starts(n_samples, chunk_len, hop):
    """Independent enumerator: emit starts until a chunk reaches the end."""
    starts = [0]
    while starts[-1] + chunk_len < n_samples:
        starts.append(starts[-1] + hop)
    return starts


def chunk_energy(x, idx):
    """Sum of squares of x over one chunk."""
    chunk = np.asarray(x, dtype=float)[idx.start:idx.end]
    return np.dot(chunk, chunk)


class TestMakeChunks:
    def test_overlapping_example(self):
        # T=1000, L=250, O=125 at 1 kHz -> 7 chunks
        cfg = ChunkingConfig(chunk_len_ms=250, hop_ms=125)
        chunks = make_chunks(1000, cfg, 1000)
        assert len(chunks) == 7
        assert [c.start for c in chunks] == [0, 125, 250, 375, 500, 625, 750]

    def test_single_chunk(self):
        cfg = ChunkingConfig(chunk_len_ms=250, hop_ms=100)
        chunks = make_chunks(250, cfg, 1000)
        assert len(chunks) == 1
        assert (chunks[0].start, chunks[0].end) == (0, 250)

    def test_inference_mode_tiles_without_overlap(self):
        cfg = ChunkingConfig(chunk_len_ms=250, hop_ms=250)
        chunks = make_chunks(1000, cfg, 1000)
        assert [c.start for c in chunks] == [0, 250, 500, 750]

    def test_count_matches_formula_and_naive_oracle(self):
        rng = np.random.default_rng(0)
        pick = np.random.default_rng(1)  # indices and slices, apart from the grid draws
        for _ in range(300):
            chunk_len = int(rng.integers(2, 200))
            hop = int(rng.integers(1, chunk_len + 1))
            n = int(rng.integers(chunk_len, 2000))
            cfg = ChunkingConfig(chunk_len_ms=chunk_len, hop_ms=hop)
            chunks = make_chunks(n, cfg, 1000)
            assert len(chunks) == math.ceil((n - chunk_len) / hop) + 1
            assert [c.start for c in chunks] == naive_chunk_starts(n, chunk_len, hop)
            # full coverage, no empty chunks, exact hop between starts
            assert chunks[0].start == 0 and chunks[-1].end == n
            assert all(c.end > c.start for c in chunks)
            assert all(
                b.start - a.start == hop for a, b in zip(chunks, chunks[1:])
            )
            assert all(c.end - c.start == chunk_len for c in chunks[:-1])
            # the grid as a sequence: iteration, int indexing and slices
            as_list = list(chunks)
            assert [(c.start, c.end) for c in as_list] == [
                (s, min(s + chunk_len, n)) for s in naive_chunk_starts(n, chunk_len, hop)
            ]
            k = int(pick.integers(1, len(chunks) + 1))
            assert chunks[k - 1] == as_list[k - 1] and chunks[-k] == as_list[-k]
            lo, hi = (int(x) for x in pick.integers(-len(chunks) - 2, len(chunks) + 3, size=2))
            step = int(pick.choice([-3, -1, 1, 2]))
            assert chunks[lo:hi:step] == as_list[lo:hi:step]
            for out_of_range in (len(chunks), -len(chunks) - 1):
                with pytest.raises(IndexError):
                    chunks[out_of_range]

    def test_last_chunk_truncated(self):
        cfg = ChunkingConfig(chunk_len_ms=250, hop_ms=125)
        chunks = make_chunks(900, cfg, 1000)
        assert chunks[-1].end == 900
        assert chunks[-1].end - chunks[-1].start < 250

    def test_chunk_longer_than_signal(self):
        with pytest.raises(ChunkLenExceedsSignal):
            make_chunks(100, ChunkingConfig(chunk_len_ms=250, hop_ms=125), 1000)

    def test_zero_hop_rejected_in_training(self):
        with pytest.raises(InvalidHop):
            make_chunks(1000, ChunkingConfig(chunk_len_ms=250, hop_ms=0), 1000)

    def test_hop_exceeding_length_rejected(self):
        with pytest.raises(InvalidHop):
            make_chunks(1000, ChunkingConfig(chunk_len_ms=100, hop_ms=150), 1000)


@pytest.mark.parametrize("make, error, field, value, message", [
    (lambda: ChunkingConfig(chunk_len_ms=math.inf), InvalidSetting, "chunk_len_ms", math.inf,
     "chunk_len_ms must be finite, got inf"),
    (lambda: ChunkingConfig(chunk_len_ms=-1.0), InvalidSetting, "chunk_len_ms", -1.0,
     "chunk_len_ms must be positive, got -1.0"),
    (lambda: ChunkingConfig(100, 150), InvalidHop, "hop_ms", 150,
     "hop_ms must be positive and at most chunk_len_ms 100, got 150"),
    (lambda: ActivityConfig(eta_db=-math.inf), InvalidSetting, "eta_db", -math.inf,
     "eta_db must be finite, got -inf"),
    (lambda: make_chunks(1000, ChunkingConfig(0.01, 0.01), 8000), InvalidSetting,
     "chunk_len_ms", 0.01, "chunk_len_ms 0.01 is under 1 sample at 8000 Hz"),
    (lambda: make_chunks(4000, ChunkingConfig(250, 1e-9), 8000), InvalidHop,
     "hop_ms", 1e-9, "hop_ms 1e-09 is under 1 sample at 8000 Hz"),
    (lambda: make_chunks(1000, ChunkingConfig(1e308, 1e308), 8000), InvalidSetting,
     "chunk_len_ms", 1e308, "chunk_len_ms 1e+308 overflows a sample count at 8000 Hz"),
    (lambda: make_chunks(100, ChunkingConfig(250, 125), 1000), ChunkLenExceedsSignal,
     "chunk_len_ms", 250, "chunk_len_ms 250 is 250 samples at 1000 Hz, more than the 100 of the signal"),
], ids=["chunk-inf", "chunk-negative", "hop-over-chunk", "eta-inf", "chunk-under-1-sample",
        "hop-under-1-sample", "chunk-overflows", "chunk-over-signal"])
def test_refusal_carries_the_setting_and_its_value(make, error, field, value, message):
    with pytest.raises(error) as exc:
        make()
    assert isinstance(exc.value, ValueError)
    assert (exc.value.field, exc.value.value, str(exc.value)) == (field, value, message)
    assert str(pickle.loads(pickle.dumps(exc.value))) == message  # as a forked process sends it


class TestChunkRows:
    """`ChunkGrid.rows` against numpy's sliding-window layout."""

    @staticmethod
    def sliding_rows(x, grid):
        span = (grid.count - 1) * grid.hop + grid.length
        padded = np.concatenate([x, np.zeros(max(0, span - x.size))])
        return sliding_window_view(padded[:span], grid.length)[:: grid.hop]

    @pytest.mark.parametrize(
        "n, length, hop",
        [(1000, 250, 125), (1000, 250, 250), (900, 250, 125), (1001, 250, 250), (16000, 2000, 2000)],
        ids=["hop-below-length", "hop-equals-length", "cut-off-overlapping", "cut-off-tiled",
             "eval-short"],
    )
    def test_matches_the_sliding_window_layout(self, n, length, hop):
        x = np.random.default_rng(n).normal(size=n)
        grid = make_chunks(n, ChunkingConfig(length, hop), 1000)
        rows, expected = grid.rows(x), self.sliding_rows(x, grid)
        assert rows.shape == expected.shape == (grid.count, length)
        assert rows.strides == expected.strides == (8 * hop, 8)
        np.testing.assert_array_equal(rows, expected)
        cut_off = len(grid[-1]) < length
        assert np.shares_memory(rows, x) is not cut_off
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0

    def test_non_contiguous_input_is_copied_into_the_same_layout(self):
        x = np.random.default_rng(0).normal(size=2000)[::2]
        grid = make_chunks(1000, ChunkingConfig(250, 125), 1000)
        rows = grid.rows(x)
        expected = self.sliding_rows(np.ascontiguousarray(x), grid)
        assert rows.strides == expected.strides == (8 * 125, 8)
        np.testing.assert_array_equal(rows, expected)
        assert not rows.flags.writeable and not np.shares_memory(rows, x)


class TestChunkEnergy:
    """`energy_db` of one chunk's sum of squares."""

    idx = make_chunks(250, ChunkingConfig(250, 125), 1000)[0]

    def test_zero_chunk_hits_floor(self):
        energy = chunk_energy(np.zeros(250), self.idx)
        assert energy_db(energy) == pytest.approx(10 * math.log10(ENERGY_FLOOR))

    def test_unit_chunk(self):
        # 250 unit samples: 10*log10(250) = 23.979 dB
        assert energy_db(chunk_energy(np.ones(250), self.idx)) == pytest.approx(23.9794, abs=1e-3)

    def test_scaling_adds_20db_per_decade(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=250)
        base = energy_db(chunk_energy(x, self.idx))
        scaled = energy_db(chunk_energy(10 * x, self.idx))
        assert scaled - base == pytest.approx(20.0, abs=1e-9)


class TestIsActive:
    """The activity rule, `active_mask`, on one chunk's target and estimate
    energies, and its per-chunk form `is_active` on waveforms."""

    idx = make_chunks(250, ChunkingConfig(250, 125), 1000)[0]
    cfg = ActivityConfig(eta_db=15.0)

    def active(self, target, estimate):
        return bool(active_mask(chunk_energy(target, self.idx), chunk_energy(estimate, self.idx), self.cfg))

    def test_silence_inactive(self):
        z = np.zeros(250)
        assert not self.active(z, z)

    def test_both_factors_required(self):
        loud = np.full(250, 2.0)  # ~30 dB
        silent = np.zeros(250)
        assert not self.active(loud, silent)
        assert not self.active(silent, loud)

    def test_both_active(self):
        w = np.ones(250)  # 23.98 dB > 15
        assert self.active(w, w)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=250)
        b = 0.05 * rng.normal(size=250)
        assert self.active(a, b) == self.active(b, a)

    def test_length_mismatch(self):
        a = Waveform(np.ones(250), 1000)
        b = Waveform(np.ones(300), 1000)
        with pytest.raises(LengthMismatch):
            is_active(a, b, self.idx, self.cfg)


class TestWaveform:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Waveform(np.array([]), 8000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Waveform(np.ones(4), 0)

    @pytest.mark.parametrize("rate", [float("nan"), 8000.0])
    def test_rejects_a_rate_that_is_not_an_integer(self, rate):
        # a WAV header holds only a whole number of Hz
        with pytest.raises(ValueError, match=f"sample_rate must be a positive integer, got {rate}$"):
            Waveform(np.ones(4), rate)

    @pytest.mark.parametrize("rate", [np.int16(8000), np.int64(8000), np.uint32(8000)],
                             ids=["int16", "int64", "uint32"])
    def test_takes_a_numpy_integer_rate_as_an_int(self, rate):
        w = Waveform(np.ones(4), rate)
        assert w.sample_rate == 8000 and type(w.sample_rate) is int

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_samples(self, bad):
        x = np.ones(16)
        x[5] = bad
        with pytest.raises(ValueError, match="finite"):
            Waveform(x, 8000)
