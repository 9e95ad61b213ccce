"""Mono WAV reading and writing.

The reader accepts little-endian RIFF and RF64 files holding one channel of
16-bit PCM (9 to 16 valid bits in 2-byte samples), 32-bit float or 64-bit
float, in a plain or a WAVE_FORMAT_EXTENSIBLE `fmt ` chunk. It refuses,
naming the path, anything multi-channel, any other sample format (8-bit,
24/32-bit PCM, big-endian RIFX, compressed), a file that is not a WAV, one
without a `data` chunk, and one whose `data` chunk is cut short. It reads
each file in one pass, parsing the header itself. Float64 data is read
straight into the samples it returns, narrower data through one scratch
block that is widened into them block by block. Samples it allocates live
in a private anonymous mapping of their own (`_private_samples`). The
writer always emits 32-bit float.
"""

from __future__ import annotations

import mmap
import os
import struct

import numpy as np

from .signal_core import Waveform

_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
_INT16, _FLOAT32, _FLOAT64 = np.dtype("<i2"), np.dtype("<f4"), np.dtype("<f8")
# the last 12 bytes of a WAVE_FORMAT_EXTENSIBLE subformat GUID; its first 4
# hold the format tag (RFC 2361)
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# Samples read and widened to float64 at a time (see `_read_samples`).
_WIDEN_BLOCK = 1 << 16
# RIFF, an 18-byte `fmt ` chunk, a `fact` chunk and the `data` chunk header:
# the float32 header scipy.io.wavfile.write writes
_FLOAT_HEADER = struct.Struct("<4sI4s4sIHHIIHHH4sII4sI")


def read_wav(path: str, out: np.ndarray | None = None) -> Waveform:
    """Load a mono WAV file as a float64 Waveform.

    16-bit PCM is scaled to [-1, 1); float input is passed through. The
    samples are written into `out[:n]` and the Waveform views them, so
    reading the next file into the same `out` overwrites them; when `out`
    is None or shorter than the file, a new array of exactly n samples is
    allocated instead, in a fresh private mapping (`_private_samples`),
    and memory that cannot be mapped raises OSError (ENOMEM). `out` must
    be a 1-D C-contiguous float64 array. A refused file may leave `out`
    partly overwritten.
    """
    if out is not None and not (
        out.dtype == np.float64 and out.ndim == 1 and out.flags.c_contiguous
    ):
        layout = "C-contiguous" if out.flags.c_contiguous else "non-contiguous"
        raise ValueError(
            f"out must be a 1-D C-contiguous float64 array, got a {out.ndim}-D "
            f"{layout} {out.dtype} array"
        )
    try:
        with open(path, "rb") as fh:
            rate, dtype, n = _read_header(fh)
            if out is None or out.size < n:
                # a header that claims more than the file holds allocates nothing
                left, n_bytes = os.fstat(fh.fileno()).st_size - fh.tell(), n * dtype.itemsize
                if left < n_bytes:
                    raise ValueError(f"data chunk cut short: {left} of {n_bytes} bytes")
                out = _private_samples(n)
            samples = out[:n]
            _read_samples(fh, dtype, samples)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    try:
        return Waveform(samples, rate)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _private_samples(n: int) -> np.ndarray:
    """n float64 samples in a fresh private anonymous mapping, advised to
    use huge pages where the platform has that advice; unmapped with the
    array.

    Not from the malloc heap: glibc raises its mmap threshold as large
    arrays are freed, so multi-MB samples come from heap pages that
    earlier calls freed, and a process forked afterwards (`eval`'s
    workers) shares those copy-on-write; the first write to each 4 KiB
    page on either side then copies it. A mapping made after the fork
    shares nothing, and huge pages take fewer first-touch faults. No
    samples map nothing: the Waveform refuses them.
    """
    if n == 0:
        return np.empty(0)
    pages = mmap.mmap(-1, 8 * n, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        pages.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(pages, np.float64)


def _read_header(fh) -> tuple[int, np.dtype, int]:
    """(sample rate, sample dtype, sample count) of a mono WAV file, read up
    to the start of its `data` chunk."""
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
    return rate, dtype, (size if data_size is None else data_size) // dtype.itemsize


def _read_samples(fh, dtype: np.dtype, samples: np.ndarray) -> None:
    """Read len(samples) samples of `dtype` from `fh` into `samples`, as
    float64, with no temporary the size of the data.

    Float64 is read in place. PCM16 and float32 are read through one scratch
    block of at most `_WIDEN_BLOCK` samples, and each block is widened into
    its samples: PCM16 divided by 32768.0, float32 cast.
    """
    n_bytes = samples.size * dtype.itemsize
    if dtype == samples.dtype:  # little-endian float64
        got = fh.readinto(samples)
    else:
        block, got = np.empty(min(samples.size, _WIDEN_BLOCK), dtype), 0
        for lo in range(0, samples.size, _WIDEN_BLOCK):
            part = block[: samples.size - lo]
            got += fh.readinto(part)
            if got < (lo + part.size) * dtype.itemsize:
                break
            if dtype is _INT16:
                np.divide(part, 32768.0, out=samples[lo : lo + part.size])
            else:
                np.copyto(samples[lo : lo + part.size], part)
    if got < n_bytes:
        raise ValueError(f"data chunk cut short: {got} of {n_bytes} bytes")


def _chunk_header(fh) -> tuple[bytes, int]:
    header = fh.read(8)
    if len(header) < 8:
        raise ValueError("no data chunk")
    return header[:4], struct.unpack_from("<I", header, 4)[0]


def _parse_fmt(body: bytes) -> tuple[int, np.dtype]:
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
        return rate, _INT16
    if tag == _IEEE_FLOAT and bits in (32, 64) and block_align in (4, 8):
        return rate, _FLOAT32 if block_align == 4 else _FLOAT64
    raise ValueError(
        f"unsupported sample format: format tag {tag:#06x}, {bits} bits in {block_align} bytes"
    )


def write_wav(path: str, w: Waveform) -> None:
    """Write a Waveform as a 32-bit float WAV, the same bytes as
    scipy.io.wavfile.write of its samples as float32: RIFF, an 18-byte `fmt `
    chunk, a `fact` chunk holding the sample count, then `data`. More data
    than a RIFF size field holds (scipy writes RF64 there), or a rate whose
    byte rate (4 bytes a sample) overflows its 32-bit field, is refused."""
    n = w.samples.size
    riff_size = _FLOAT_HEADER.size - 8 + 4 * n
    if riff_size > 0xFFFFFFFF:
        raise ValueError(f"{path}: {n} samples are too many for a 32-bit float WAV file")
    if 4 * w.sample_rate > 0xFFFFFFFF:
        raise ValueError(f"{path}: {w.sample_rate} Hz is too high a rate for a 32-bit float WAV file")
    header = _FLOAT_HEADER.pack(
        b"RIFF", riff_size, b"WAVE", b"fmt ", 18, _IEEE_FLOAT, 1, w.sample_rate,
        4 * w.sample_rate, 4, 32, 0, b"fact", 4, n, b"data", 4 * n,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(w.samples.astype("<f4"))
