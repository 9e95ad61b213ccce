"""Mono WAV reading and writing.

The reader accepts little-endian RIFF and RF64 files holding one channel of
16-bit PCM (9 to 16 valid bits in 2-byte samples), 32-bit float or 64-bit
float, in a plain or a WAVE_FORMAT_EXTENSIBLE `fmt ` chunk. It refuses,
naming the path, anything multi-channel, any other sample format (8-bit,
24/32-bit PCM, big-endian RIFX, compressed), a file that is not a WAV, one
without a `data` chunk, and one whose `data` chunk is cut short. It reads
each file in one pass, parsing the header itself, and converts the data
bytes in one numpy call into the caller's buffer. The writer always emits
32-bit float (through scipy).
"""

from __future__ import annotations

import struct

import numpy as np
from scipy.io import wavfile

from .signal_core import Waveform

_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# the last 12 bytes of a WAVE_FORMAT_EXTENSIBLE subformat GUID; its first 4
# hold the format tag (RFC 2361)
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def read_wav(path: str, out: np.ndarray | None = None) -> Waveform:
    """Load a mono WAV file as a float64 Waveform.

    16-bit PCM is scaled to [-1, 1); float input is passed through. The
    samples are written into `out[:n]` and the Waveform views them, so
    reading the next file into the same `out` overwrites them; when `out`
    is None or shorter than the file, a new array of exactly n samples is
    allocated instead.
    """
    try:
        with open(path, "rb") as fh:
            rate, dtype, raw = _read_riff(fh)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    data = np.frombuffer(raw, dtype)
    if out is None or out.size < data.size:
        out = np.empty(data.size)
    samples = out[: data.size]
    if dtype == "<i2":
        np.divide(data, 32768.0, out=samples)
    else:
        np.copyto(samples, data)
    try:
        return Waveform(samples, rate)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _read_riff(fh) -> tuple[int, str, bytes]:
    """(sample rate, sample dtype, data bytes) of a mono WAV file, read in
    one pass up to the end of its `data` chunk."""
    form = fh.read(12)
    if form[:4] == b"RIFX":
        raise ValueError("unsupported sample format: big-endian RIFX")
    if len(form) < 12 or form[:4] not in (b"RIFF", b"RF64") or form[8:] != b"WAVE":
        raise ValueError(f"not a WAV file (starts with {form[:12]!r})")
    data_size = None
    if form[:4] == b"RF64":  # the data size is in the ds64 chunk that follows
        chunk_id, size = _chunk_header(fh)
        body = fh.read(size + size % 2)
        if chunk_id != b"ds64" or len(body) < 16:
            raise ValueError("RF64 file without a ds64 chunk")
        data_size = struct.unpack_from("<Q", body, 8)[0]
    fmt = None
    while True:
        chunk_id, size = _chunk_header(fh)
        if chunk_id == b"data":
            break
        if chunk_id == b"fmt ":
            fmt = _parse_fmt(fh.read(size))
        else:
            fh.seek(size, 1)
        fh.seek(size % 2, 1)  # an odd-sized chunk has a pad byte
    if fmt is None:
        raise ValueError("no fmt chunk before the data chunk")
    rate, dtype = fmt
    width = np.dtype(dtype).itemsize
    n_bytes = (size if data_size is None else data_size) // width * width
    raw = fh.read(n_bytes)
    if len(raw) < n_bytes:
        raise ValueError(f"data chunk cut short: {len(raw)} of {n_bytes} bytes")
    return rate, dtype, raw


def _chunk_header(fh) -> tuple[bytes, int]:
    header = fh.read(8)
    if len(header) < 8:
        raise ValueError("no data chunk")
    return header[:4], struct.unpack_from("<I", header, 4)[0]


def _parse_fmt(body: bytes) -> tuple[int, str]:
    """(sample rate, sample dtype) from a `fmt ` chunk, or ValueError for a
    file that is not mono PCM16 or float."""
    if len(body) < 16:
        raise ValueError("fmt chunk shorter than 16 bytes")
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack_from("<HHIIHH", body)
    if tag == _EXTENSIBLE:
        if len(body) < 40 or struct.unpack_from("<H", body, 16)[0] < 22:
            raise ValueError("WAVE_FORMAT_EXTENSIBLE fmt chunk too short")
        if body[28:40] == _GUID_TAIL:
            tag = struct.unpack_from("<I", body, 24)[0]
    if channels != 1:
        raise ValueError(f"expected mono audio, got {channels} channels")
    if tag == _PCM and byte_rate != rate * block_align:
        raise ValueError(
            f"WAV header is invalid: byte rate {byte_rate} is not "
            f"sample rate {rate} x block align {block_align}"
        )
    if tag == _PCM and 8 < bits <= 16 and block_align == 2:
        return rate, "<i2"
    if tag == _IEEE_FLOAT and bits in (32, 64) and block_align in (4, 8):
        return rate, f"<f{block_align}"
    raise ValueError(
        f"unsupported sample format: format tag {tag:#06x}, {bits} bits in {block_align} bytes"
    )


def write_wav(path: str, w: Waveform) -> None:
    """Write a Waveform as 32-bit float WAV."""
    wavfile.write(path, w.sample_rate, w.samples.astype(np.float32))
