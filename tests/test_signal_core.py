import math

import numpy as np
import pytest

from chunksc import (
    ActivityConfig,
    ChunkLenExceedsSignal,
    ChunkingConfig,
    InvalidHop,
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
