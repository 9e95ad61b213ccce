"""Chunk-level speaker-confusion metrics and SC-aware SI-SDR training losses."""

from .errors import (
    ChunkLenExceedsSignal,
    ChunkscError,
    DimensionMismatch,
    DivergenceDetected,
    EmptyInput,
    FineTuneLost,
    InvalidHop,
    InvalidSetting,
    LengthMismatch,
    NoValidChunks,
    SameSpeaker,
    ZeroTarget,
)
from .losses import (
    LossKind,
    LossResult,
    LossSetup,
    ScaleLossConfig,
    WeightLossConfig,
    gradient_check,
    loss_scale_sisdr,
    loss_sisdr,
    loss_weight_sisdr,
)
from .metrics import (
    BinEdges,
    ScStatistics,
    SiSdrConfig,
    chunkwise_sisdri,
    distribution_report,
    sc_statistics,
    si_sdr,
    si_sdr_improvement,
)
from .signal_core import (
    ActivityConfig,
    ChunkGrid,
    ChunkingConfig,
    Waveform,
    make_chunks,
)
from .synth import MixtureExample, SyntheticSpeaker, gen_example, make_corpus, make_speakers
from .wav_io import read_wav, write_wav

__version__ = "0.1.0"
