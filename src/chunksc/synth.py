"""Synthetic two-speaker mixtures for desk-scale training.

A "speaker" is a harmonic tone stack with a speaker-specific fundamental,
harmonic envelope and amplitude-modulation rate. The AM envelope produces
speech-like energy fluctuation, including near-silent stretches, so the
chunk activity filter and the speaker-confusion statistics are both
exercised for real.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from ._blas import one_blas_thread
from ._fork import split, worker_count
from .errors import InvalidSetting, SameSpeaker
from .signal_core import Waveform

DEFAULT_SAMPLE_RATE = 8000
ENROLLMENT_SECONDS = 1.0
_TARGET_RMS = 0.25
# The speakers of a corpus, and the range its mixing SNRs are drawn from, in dB.
CORPUS_SPEAKERS = 8
CORPUS_SNR_DB = (-2.0, 2.0)


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
    spk: SyntheticSpeaker, sample_rate: int, rng: np.random.Generator, out: np.ndarray
) -> np.ndarray:
    """One random draw from a speaker, a harmonic stack under an AM envelope,
    written into `out`, which holds as many samples as the draw.

    Each draw randomizes phases, AM phase and a small fundamental jitter, so
    two draws from the same speaker differ while staying identifiable.
    """
    n = out.size
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


@one_blas_thread()
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
    is a fresh draw from the target speaker. Rendered on one BLAS thread, as
    in `make_corpus`, so a corpus example has the bits of `gen_example` of
    its draw.
    """
    if spk_a.id == spk_b.id:
        raise SameSpeaker(f"target and interferer share speaker id {spk_a.id}")
    signals = np.zeros((3, n_samples(duration_s, sample_rate)))
    enrollment = np.zeros(n_samples(ENROLLMENT_SECONDS, sample_rate))
    _render_examples(sample_rate, signals[None], enrollment[None], [(0, spk_a, spk_b, snr_db, seed)])
    return _example(signals, enrollment, sample_rate, spk_a.id)


def n_samples(duration_s: float, sample_rate: int = DEFAULT_SAMPLE_RATE) -> int:
    """The samples of an utterance of `duration_s`, which must be finite, at
    least 1 s, and short enough to count in samples (as an array index)."""
    if not 1.0 <= duration_s < math.inf:
        raise InvalidSetting("duration_s", duration_s, "must be finite and at least 1.0")
    samples = duration_s * sample_rate
    if samples > np.iinfo(np.intp).max:
        rule = f"{{value}} overflows a sample count at {sample_rate} Hz"
        raise InvalidSetting("duration_s", duration_s, rule)
    return int(round(samples))


def check_corpus_size(n_examples: int, duration_s: float, sample_rate: int = DEFAULT_SAMPLE_RATE):
    """`make_corpus`'s rule on its size: at least 1 example, and no more
    bytes of samples than this machine's physical memory, which the corpus
    could never be held in. `duration_s` must pass `n_samples`."""
    if n_examples < 1:
        raise InvalidSetting("n_examples", n_examples, "must be at least 1")
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if _corpus_bytes(n_examples, duration_s, sample_rate) > memory:
        raise _too_large(n_examples, duration_s, sample_rate,
                         f"the {memory / 2**30:.1f} GiB of physical memory")


def _corpus_bytes(n_examples: int, duration_s: float, sample_rate: int) -> int:
    example = 3 * n_samples(duration_s, sample_rate) + n_samples(ENROLLMENT_SECONDS, sample_rate)
    return 8 * example * n_examples  # float64


def _too_large(n_examples: int, duration_s: float, sample_rate: int, limit: str) -> InvalidSetting:
    # a Decimal, not a float: a count of examples may have hundreds of digits
    gib = Decimal(_corpus_bytes(n_examples, duration_s, sample_rate)) / 2**30
    rule = f"{{value}} at {{duration_s}} {duration_s} needs {gib:.1f} GiB of samples, more than {limit}"
    return InvalidSetting("n_examples", n_examples, rule)


def _render_examples(sample_rate, signals, enrollments, draws):
    """Render example j of each (j, spk_a, spk_b, snr_db, seed) draw into
    signals[j] (mixture, target and interferer rows) and enrollments[j]."""
    for j, spk_a, spk_b, snr_db, seed in draws:
        mixture, target, interferer = signals[j]
        rng = np.random.default_rng(seed)
        render_utterance(spk_a, sample_rate, rng, target)
        render_utterance(spk_b, sample_rate, rng, interferer)
        interferer *= np.sqrt(
            np.dot(target, target) / (np.dot(interferer, interferer) * 10.0 ** (snr_db / 10.0))
        )
        np.add(target, interferer, out=mixture)
        render_utterance(spk_a, sample_rate, rng, enrollments[j])


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


def _thread_count() -> int:
    """Threads that render a corpus: one per CPU this process may run on."""
    return 1 + worker_count()


def _render_in_threads(sample_rate, signals, enrollments, draws):
    """`_render_examples` over the blocks of `draws` that `_fork.split` makes
    for one thread per CPU, the first block on this thread. np.sin and the
    other whole-array ufuncs release the GIL, so the threads run at once.
    Every thread has ended before the return, also on error; then the first
    error in block order is raised."""
    blocks = split(draws, _thread_count())
    errors = [None] * len(blocks)

    def render(k):
        try:
            _render_examples(sample_rate, signals, enrollments, blocks[k])
        except Exception as exc:  # raised below, once every thread has ended
            errors[k] = exc

    started = []
    try:
        for k in range(1, len(blocks)):
            thread = threading.Thread(target=render, args=(k,), name=f"chunksc render {k}")
            thread.start()
            started.append(thread)
        render(0)
    finally:
        for thread in started:
            thread.join()
    for error in errors:
        if error is not None:
            raise error


@one_blas_thread()
def make_corpus(
    n_examples: int,
    seed: int,
    duration_s: float = 2.0,
    sample_rate: int = DEFAULT_SAMPLE_RATE,
) -> list[MixtureExample]:
    """A corpus of random pairs of the seed's `CORPUS_SPEAKERS` speakers at
    mixing SNRs uniform in `CORPUS_SNR_DB`, the same bits whatever the BLAS
    thread count (`gen_example` scales by dot products).

    The pairs, SNRs and seeds are drawn here, one example after another;
    then the examples are rendered on threads, one per CPU this process may
    run on, each into its own rows of one array, to the same bits as
    `gen_example` of each draw on one BLAS thread. No process is forked,
    and no thread outlives the call. Besides `check_corpus_size`'s rule, a
    corpus whose samples this process cannot allocate is refused as an
    InvalidSetting of `n_examples`.
    """
    if not 0 < sample_rate < math.inf:
        raise InvalidSetting("sample_rate", sample_rate, "must be finite and positive")
    check_corpus_size(n_examples, duration_s, sample_rate)
    n = n_samples(duration_s, sample_rate)
    speakers = make_speakers(CORPUS_SPEAKERS, seed)
    rng = np.random.default_rng(seed + 1)
    draws = []
    for j in range(n_examples):
        a, b = rng.choice(len(speakers), size=2, replace=False)
        snr = rng.uniform(*CORPUS_SNR_DB)
        draws.append((j, speakers[a], speakers[b], float(snr), int(rng.integers(0, 2**31))))
    try:
        signals = np.zeros((n_examples, 3, n))
        enrollments = np.zeros((n_examples, n_samples(ENROLLMENT_SECONDS, sample_rate)))
        _render_in_threads(sample_rate, signals, enrollments, draws)
    except MemoryError:  # e.g. beyond the address-space limit (ulimit -v)
        raise _too_large(n_examples, duration_s, sample_rate, "this process could allocate") from None
    return [
        _example(signals[j], enrollments[j], sample_rate, spk_a.id)
        for j, spk_a, *_ in draws
    ]
