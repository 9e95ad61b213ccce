"""Synthetic two-speaker mixtures for desk-scale training.

A "speaker" is a harmonic tone stack with a speaker-specific fundamental,
harmonic envelope and amplitude-modulation rate. The AM envelope produces
speech-like energy fluctuation, including near-silent stretches, so the
chunk activity filter and the speaker-confusion statistics are both
exercised for real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from ._fork import Workers
from .errors import SameSpeaker
from .signal_core import Waveform

DEFAULT_SAMPLE_RATE = 8000
ENROLLMENT_SECONDS = 1.0
_TARGET_RMS = 0.25


@dataclass(frozen=True)
class SyntheticSpeaker:
    """Harmonic stand-in for a speaker identity."""

    id: int
    fundamental_hz: float
    harmonic_weights: tuple[float, ...]
    am_rate_hz: float

    def __post_init__(self):
        if self.fundamental_hz <= 0 or self.am_rate_hz <= 0:
            raise ValueError("fundamental_hz and am_rate_hz must be positive")
        w = np.asarray(self.harmonic_weights)
        if np.any(w < 0) or not np.any(w > 0):
            raise ValueError("harmonic_weights must be non-negative, not all zero")


@dataclass(frozen=True)
class MixtureExample:
    """A mixture with its clean components and an enrollment utterance."""

    mixture: Waveform
    target: Waveform
    interferer: Waveform
    enrollment: Waveform
    target_id: int


def render_utterance(
    spk: SyntheticSpeaker,
    duration_s: float,
    sample_rate: int,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One random draw from a speaker: harmonic stack under an AM envelope,
    written into `out` when given.

    Each draw randomizes phases, AM phase and a small fundamental jitter, so
    two draws from the same speaker differ while staying identifiable.
    """
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    f0 = spk.fundamental_hz * (1.0 + 0.02 * rng.uniform(-1.0, 1.0))
    sig = np.zeros(n)
    for h, w in enumerate(spk.harmonic_weights, start=1):
        if w == 0.0 or h * f0 >= sample_rate / 2:
            continue
        sig += w * np.sin(2.0 * np.pi * h * f0 * t + rng.uniform(0.0, 2.0 * np.pi))
    # Squared raised sine: deep nulls give genuinely inactive chunks.
    env = (0.5 * (1.0 + np.sin(2.0 * np.pi * spk.am_rate_hz * t + rng.uniform(0.0, 2.0 * np.pi)))) ** 2
    sig *= env
    rms = np.sqrt(np.mean(sig**2))
    return np.divide(_TARGET_RMS * sig, rms, out=out)


def gen_example(
    spk_a: SyntheticSpeaker,
    spk_b: SyntheticSpeaker,
    duration_s: float,
    snr_db: float,
    seed: int,
    sample_rate: int = DEFAULT_SAMPLE_RATE,
) -> MixtureExample:
    """Deterministic mixture of spk_a (target) and spk_b at the given SNR.

    The interferer is rescaled so the target/interferer energy ratio equals
    the requested SNR exactly; the mixture is their exact sum. The enrollment
    is a fresh draw from the target speaker.
    """
    if spk_a.id == spk_b.id:
        raise SameSpeaker(f"target and interferer share speaker id {spk_a.id}")
    signals = np.zeros((3, _n_samples(duration_s, sample_rate)))
    enrollment = np.zeros(_n_samples(ENROLLMENT_SECONDS, sample_rate))
    _render_examples(duration_s, sample_rate, signals[None], enrollment[None],
                     [(0, spk_a, spk_b, snr_db, seed)])
    return _example(signals, enrollment, sample_rate, spk_a.id)


def _n_samples(duration_s: float, sample_rate: int) -> int:
    if not 1.0 <= duration_s < np.inf:
        raise ValueError(f"duration_s must be finite and >= 1.0, got {duration_s}")
    return int(round(duration_s * sample_rate))


def corpus_floats(
    n_examples: int, duration_s: float, sample_rate: int = DEFAULT_SAMPLE_RATE
) -> int:
    """The float64 values a corpus of `make_corpus` holds."""
    per_example = 3 * _n_samples(duration_s, sample_rate)
    return n_examples * (per_example + _n_samples(ENROLLMENT_SECONDS, sample_rate))


def _render_examples(duration_s, sample_rate, signals, enrollments, draws):
    """Render example j of each (j, spk_a, spk_b, snr_db, seed) draw into
    signals[j] (mixture, target and interferer rows) and enrollments[j]."""
    for j, spk_a, spk_b, snr_db, seed in draws:
        mixture, target, interferer = signals[j]
        rng = np.random.default_rng(seed)
        render_utterance(spk_a, duration_s, sample_rate, rng, out=target)
        raw = render_utterance(spk_b, duration_s, sample_rate, rng)
        gain = np.sqrt(np.dot(target, target) / (np.dot(raw, raw) * 10.0 ** (snr_db / 10.0)))
        np.multiply(gain, raw, out=interferer)
        np.add(target, interferer, out=mixture)
        render_utterance(spk_a, ENROLLMENT_SECONDS, sample_rate, rng, out=enrollments[j])


def _example(signals, enrollment, sample_rate, target_id) -> MixtureExample:
    mixture, target, interferer = (Waveform(x, sample_rate) for x in signals)
    return MixtureExample(mixture, target, interferer, Waveform(enrollment, sample_rate), target_id)


def make_speakers(n: int, seed: int) -> list[SyntheticSpeaker]:
    """Speaker inventory with fundamentals separated by at least 30 Hz."""
    rng = np.random.default_rng(seed)
    fundamentals = 110.0 + 35.0 * np.arange(n) + rng.uniform(-2.0, 2.0, size=n)
    speakers = []
    for i in range(n):
        weights = rng.uniform(0.2, 1.0, size=5) * (0.7 ** np.arange(5))
        speakers.append(
            SyntheticSpeaker(
                id=i,
                fundamental_hz=float(fundamentals[i]),
                harmonic_weights=tuple(float(w) for w in weights),
                am_rate_hz=float(rng.uniform(1.5, 4.0)),
            )
        )
    return speakers


@one_blas_thread()
def make_corpus(
    n_examples: int,
    seed: int,
    n_speakers: int = 8,
    duration_s: float = 2.0,
    snr_lo_db: float = -2.0,
    snr_hi_db: float = 2.0,
    sample_rate: int = DEFAULT_SAMPLE_RATE,
    workers: Workers | None = None,
) -> list[MixtureExample]:
    """A corpus of random speaker pairs at random mixing SNRs, the same bits
    whatever the BLAS thread count (`gen_example` scales by dot products).

    The pairs, SNRs and seeds are drawn here, one example after another;
    then the examples are rendered into one block of memory, split across
    `workers` when given (in their shared buffer), to the same bits.
    """
    if n_examples < 1:
        raise ValueError(f"n_examples must be at least 1, got {n_examples}")
    n = _n_samples(duration_s, sample_rate)
    speakers = make_speakers(n_speakers, seed)
    rng = np.random.default_rng(seed + 1)
    draws = []
    for j in range(n_examples):
        a, b = rng.choice(len(speakers), size=2, replace=False)
        snr = rng.uniform(snr_lo_db, snr_hi_db)
        draws.append((j, speakers[a], speakers[b], float(snr), int(rng.integers(0, 2**31))))
    workers = workers or Workers()
    signals = workers.array((n_examples, 3, n))
    enrollments = workers.array((n_examples, _n_samples(ENROLLMENT_SECONDS, sample_rate)))
    blocks = workers.split(draws)
    workers.map(_render_examples, blocks, duration_s, sample_rate, signals, enrollments)
    return [
        _example(signals[j], enrollments[j], sample_rate, spk_a.id)
        for j, spk_a, *_ in draws
    ]
