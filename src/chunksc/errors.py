"""Exception hierarchy for the chunksc toolkit."""


class ChunkscError(Exception):
    """Base class for all chunksc errors."""


class LengthMismatch(ChunkscError):
    """Waveforms that must share a sample count do not."""


class InvalidSetting(ValueError, ChunkscError):
    """A setting that breaks its rule: `field` names the setting (a config
    field or a function argument), `value` is what it got, and `rule` words
    the refusal after the setting's name, ending in ", got <value>" unless
    it places `{value}` itself; `{name}` names another setting, or an input
    such as the `{signal}`."""

    def __init__(self, field: str, value, rule: str):
        super().__init__(field, value, rule)
        self.field, self.value, self.rule = field, value, rule

    def __str__(self) -> str:
        return self.worded({})

    def worded(self, names: dict) -> str:
        """The message, calling each setting by its entry in `names`, or by
        its own name; an entry for "value" is the text shown for the value."""
        names = _OwnNames({"value": self.value, **names})
        rule = self.rule if "{value}" in self.rule else self.rule + ", got {value}"
        return f"{names[self.field]} {rule.format_map(names)}"


class _OwnNames(dict):
    def __missing__(self, key):
        return key


class ChunkLenExceedsSignal(InvalidSetting):
    """Requested chunk length is longer than the signal."""


class InvalidHop(InvalidSetting):
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


class FineTuneLost(ChunkscError):
    """A fine-tune process could not be forked, or a fine-tune or worker
    process ended without sending back its result or its error."""


class EmptyInput(ChunkscError):
    """An aggregate was requested over an empty collection."""
