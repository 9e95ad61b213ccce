import re
import struct

import numpy as np
import pytest
from scipy.io import wavfile

from chunksc import Waveform, read_wav, write_wav


def test_float_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    w = Waveform(rng.uniform(-0.9, 0.9, size=800), 8000)
    path = str(tmp_path / "x.wav")
    write_wav(path, w)
    back = read_wav(path)
    assert back.sample_rate == 8000
    np.testing.assert_allclose(back.samples, w.samples, atol=1e-6)


def test_int16_scaled(tmp_path):
    path = str(tmp_path / "pcm.wav")
    data = np.array([0, 16384, -16384, 32767], dtype=np.int16)
    wavfile.write(path, 8000, data)
    w = read_wav(path)
    np.testing.assert_allclose(
        w.samples, data.astype(np.float64) / 32768.0, atol=1e-12
    )


def test_stereo_rejected(tmp_path):
    path = str(tmp_path / "stereo.wav")
    wavfile.write(path, 8000, np.zeros((100, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        read_wav(path)


def test_unsupported_dtype_rejected(tmp_path):
    path = str(tmp_path / "u8.wav")
    wavfile.write(path, 8000, np.zeros(100, dtype=np.uint8))
    with pytest.raises(ValueError):
        read_wav(path)


def test_non_finite_float_samples_rejected_with_the_path(tmp_path):
    path = str(tmp_path / "nan.wav")
    data = np.zeros(100, dtype=np.float32)
    data[3] = np.nan
    wavfile.write(path, 8000, data)
    with pytest.raises(ValueError, match="nan.wav: samples must be finite"):
        read_wav(path)


# Reader parity: scipy.io.wavfile.read plus the conversion read_wav used to
# apply is the oracle, on files written by scipy and on files built here.

_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def scipy_read(path):
    rate, data = wavfile.read(path)
    if data.ndim != 1:
        raise ValueError(f"{path}: expected mono audio")
    if data.dtype == np.int16:
        return rate, data.astype(np.float64) / 32768.0
    if data.dtype in (np.float32, np.float64):
        return rate, data.astype(np.float64)
    raise ValueError(f"{path}: unsupported sample format {data.dtype}")


def chunk(chunk_id, body, endian="<"):
    return chunk_id + struct.pack(endian + "I", len(body)) + body + b"\0" * (len(body) % 2)


def fmt_body(tag, rate, data, endian="<", subformat=None):
    width = data.dtype.itemsize
    body = struct.pack(endian + "HHIIHH", tag, 1, rate, rate * width, width, 8 * width)
    if subformat is not None:
        body += struct.pack("<HHI", 22, 8 * width, 4) + struct.pack("<I", subformat) + _GUID_TAIL
    return body


def riff(*chunks, form=b"RIFF", endian="<"):
    body = b"WAVE" + b"".join(chunks)
    return form + struct.pack(endian + "I", len(body)) + body


def rf64(fmt, data):
    # RIFF size and data size live in the ds64 chunk; the other two read 0xFFFFFFFF
    tail = chunk(b"fmt ", fmt) + b"data" + struct.pack("<I", 0xFFFFFFFF) + data
    ds64 = chunk(b"ds64", struct.pack("<QQQI", 4 + 36 + len(tail), len(data), 0, 0))
    return b"RF64" + struct.pack("<I", 0xFFFFFFFF) + b"WAVE" + ds64 + tail


def samples_of(dtype):
    rng = np.random.default_rng(7)
    if dtype == np.int16:
        data = rng.integers(-32768, 32768, size=999).astype(np.int16)
        data[:2] = (-32768, 32767)
        return data
    return rng.uniform(-1, 1, size=999).astype(dtype)


def build(kind, dtype):
    data = samples_of(dtype)
    tag = 1 if dtype == np.int16 else 3
    fmt = fmt_body(tag, 16000, data)
    if kind == "extensible":
        return riff(chunk(b"fmt ", fmt_body(0xFFFE, 16000, data, subformat=tag)),
                    chunk(b"data", data.tobytes()))
    if kind == "odd-list":
        return riff(chunk(b"fmt ", fmt), chunk(b"LIST", b"INFOISFT\x03\x00\x00\x00ab\x00"),
                    chunk(b"data", data.tobytes()))
    if kind == "rf64":
        return rf64(fmt, data.tobytes())
    raise ValueError(kind)


ACCEPTED = [
    ("scipy", np.int16), ("scipy", np.float32), ("scipy", np.float64),
    ("extensible", np.int16), ("extensible", np.float32), ("extensible", np.float64),
    ("odd-list", np.int16), ("rf64", np.int16), ("rf64", np.float32),
]


@pytest.mark.parametrize(
    "kind, dtype", ACCEPTED, ids=[f"{k}-{np.dtype(d).name}" for k, d in ACCEPTED]
)
def test_accepts_what_scipy_accepts_with_equal_samples(tmp_path, kind, dtype):
    path = str(tmp_path / "x.wav")
    if kind == "scipy":
        wavfile.write(path, 16000, samples_of(dtype))
    else:
        with open(path, "wb") as fh:
            fh.write(build(kind, dtype))
    rate, expected = scipy_read(path)
    for out in (None, np.full(5000, np.nan)):
        w = read_wav(path, out)
        assert w.sample_rate == rate == 16000
        np.testing.assert_array_equal(w.samples, expected)


def refused_file(tmp_path, kind):
    path = tmp_path / f"{kind}.wav"
    if kind == "stereo":
        wavfile.write(str(path), 8000, np.zeros((100, 2), dtype=np.int16))
    elif kind in ("uint8", "int32"):
        wavfile.write(str(path), 8000, np.zeros(100, dtype=kind))
    elif kind == "rifx":
        data = samples_of(np.int16).astype(">i2")
        path.write_bytes(riff(chunk(b"fmt ", fmt_body(1, 8000, data, ">"), ">"),
                              chunk(b"data", data.tobytes(), ">"), form=b"RIFX", endian=">"))
    return str(path)


@pytest.mark.parametrize("kind", ["stereo", "uint8", "int32", "rifx"])
def test_refuses_what_scipy_read_refused_naming_the_path(tmp_path, kind):
    path = refused_file(tmp_path, kind)
    with pytest.raises(ValueError):
        scipy_read(path)
    with pytest.raises(ValueError, match=re.escape(path)):
        read_wav(path)


def test_refuses_a_file_that_is_not_a_wav_naming_the_path(tmp_path):
    path = tmp_path / "notes.wav"
    path.write_text("estimate,target,mixture\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: not a WAV file")):
        read_wav(str(path))


def test_refuses_a_file_without_a_data_chunk_naming_the_path(tmp_path):
    path = tmp_path / "nodata.wav"
    path.write_bytes(riff(chunk(b"fmt ", fmt_body(1, 8000, samples_of(np.int16)))))
    with pytest.raises(ValueError, match=re.escape(f"{path}: no data chunk")):
        read_wav(str(path))


def test_refuses_a_cut_short_data_chunk_naming_the_path(tmp_path):
    # scipy returns the samples that are there, with a warning
    path = tmp_path / "cut.wav"
    wavfile.write(str(path), 8000, samples_of(np.float32))
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(ValueError, match=re.escape(f"{path}: data chunk cut short")):
        read_wav(str(path))


def test_reads_into_out_when_it_is_long_enough(tmp_path):
    path = str(tmp_path / "x.wav")
    wavfile.write(path, 8000, samples_of(np.int16))
    long_enough = np.full(1500, np.nan)
    w = read_wav(path, long_enough)
    assert np.shares_memory(w.samples, long_enough) and len(w) == 999
    assert np.isnan(long_enough[999:]).all()  # past the samples, untouched
    too_short = np.full(998, np.nan)
    w = read_wav(path, too_short)
    assert not np.shares_memory(w.samples, too_short) and w.samples.size == 999
    assert np.isnan(too_short).all()
