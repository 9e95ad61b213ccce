"""Exception hierarchy for the chunksc toolkit."""


class ChunkscError(Exception):
    """Base class for all chunksc errors."""


class LengthMismatch(ChunkscError):
    """Waveforms that must share a sample count do not."""


class ChunkLenExceedsSignal(ChunkscError):
    """Requested chunk length is longer than the signal."""


class InvalidHop(ChunkscError):
    """Chunk hop must be positive and no larger than the chunk length."""


class ZeroTarget(ChunkscError):
    """Reference signal has (numerically) zero energy; SI-SDR is undefined."""


class NoValidChunks(ChunkscError):
    """No chunk passed the activity filter; the chunkwise loss is undefined."""


class SameSpeaker(ChunkscError):
    """Target and interferer must be distinct synthetic speakers."""


class DimensionMismatch(ChunkscError):
    """Extractor parameter matrices have inconsistent shapes."""


class DivergenceDetected(ChunkscError):
    """Training loss became non-finite; `history` holds the completed epochs."""

    def __init__(self, message: str, history: list):
        super().__init__(message)
        self.history = history

    def __reduce__(self):
        # unpickling calls cls(*args), and args holds only the message
        return type(self), (str(self), self.history)


class EmptyInput(ChunkscError):
    """An aggregate was requested over an empty collection."""
