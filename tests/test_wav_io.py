import mmap
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.io import wavfile

import chunksc
from chunksc import Waveform, read_wav, write_wav
from chunksc.wav_io import _WIDEN_BLOCK as B


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


def samples_of(dtype, n=999):
    rng = np.random.default_rng(7)
    if dtype == np.int16:
        data = rng.integers(-32768, 32768, size=n).astype(np.int16)
        data[:2] = (-32768, 32767)
        return data
    return rng.uniform(-1, 1, size=n).astype(dtype)


def build(kind, dtype, n=999):
    data = samples_of(dtype, n)
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
    # lengths around the scratch block that read_wav reads and widens samples
    # through, so the last block is partly filled; `out` absent, long enough,
    # too short
    path = str(tmp_path / "x.wav")
    for n in (999, B - 1, B, B + 1, 2 * B + 1):
        if kind == "scipy":
            wavfile.write(path, 16000, samples_of(dtype, n))
        else:
            with open(path, "wb") as fh:
                fh.write(build(kind, dtype, n))
        rate, expected = scipy_read(path)
        for out in (None, np.full(n + 5, np.nan), np.full(n - 1, np.nan)):
            w = read_wav(path, out)
            assert w.sample_rate == rate == 16000
            assert w.samples.tobytes() == expected.tobytes(), (n, out is None)


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
    # checked before a buffer is allocated, and by the read into a long-enough `out`
    for out in (None, np.empty(2000)):
        with pytest.raises(ValueError, match=re.escape(
            f"{path}: data chunk cut short: 3986 of 3996 bytes"
        )):
            read_wav(str(path), out)


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


def test_allocates_samples_in_a_private_mapping_of_their_own(tmp_path):
    # not heap pages that a process forked later would share copy-on-write
    path = str(tmp_path / "x.wav")
    wavfile.write(path, 8000, samples_of(np.float32))
    w = read_wav(path, np.empty(998))
    owner = w.samples
    while isinstance(owner, np.ndarray):
        owner = owner.base
    assert isinstance(owner.obj, mmap.mmap) and w.samples.flags.writeable
    assert w.samples.size == 999


def test_refuses_a_data_chunk_without_samples_as_empty_samples(tmp_path):
    path = tmp_path / "empty.wav"
    empty = np.zeros(0, np.float32)
    path.write_bytes(riff(chunk(b"fmt ", fmt_body(3, 8000, empty)), chunk(b"data", b"")))
    for out in (None, np.empty(10)):
        with pytest.raises(ValueError, match=re.escape(
            f"{path}: samples must be a non-empty 1-D sequence"
        )):
            read_wav(str(path), out)


@pytest.mark.parametrize("form", ["riff", "rf64"])
def test_refuses_an_over_declared_data_chunk_without_allocating_it(tmp_path, form):
    data = samples_of(np.float32).tobytes()
    fmt = fmt_body(3, 8000, samples_of(np.float32))
    if form == "riff":
        declared = 0xFFFFFFFF
        body = riff(chunk(b"fmt ", fmt), b"data" + struct.pack("<I", declared) + data)
    else:
        declared = 1 << 62
        body = bytearray(rf64(fmt, data))
        struct.pack_into("<Q", body, 28, declared)  # the ds64 data size
    path = tmp_path / "over.wav"
    path.write_bytes(body)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(
            f"{path}: data chunk cut short: {len(data)} of {declared // 4 * 4} bytes"
        )):
            read_wav(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_reads_into_out_without_a_copy_of_the_data(tmp_path):
    path = str(tmp_path / "long.wav")
    wavfile.write(path, 16000, samples_of(np.float32, 10**6))
    out = np.empty(10**6 + 1)
    tracemalloc.start()
    try:
        w = read_wav(path, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(w.samples, out)
    assert peak < 1 << 20  # the float32 data alone is 4 MB


@pytest.mark.parametrize("out, problem", [
    (np.zeros(2000, dtype=np.float32), "1-D C-contiguous float32"),
    (np.zeros(4000)[::2], "1-D non-contiguous float64"),
    (np.zeros((2, 1000)), "2-D C-contiguous float64"),
], ids=["float32", "strided", "2-D"])
def test_refuses_an_out_that_is_not_contiguous_float64(tmp_path, out, problem):
    path = str(tmp_path / "x.wav")
    wavfile.write(path, 8000, samples_of(np.int16))
    before = out.copy()
    with pytest.raises(ValueError, match=re.escape(
        f"out must be a 1-D C-contiguous float64 array, got a {problem} array"
    )):
        read_wav(path, out)
    assert out.tobytes() == before.tobytes()


@pytest.mark.parametrize("rate", [8000, 16000, 44100])
def test_writes_the_bytes_scipy_writes(tmp_path, rate):
    rng = np.random.default_rng(rate)
    ours, theirs = tmp_path / "ours.wav", tmp_path / "scipy.wav"
    for n in (1, 999, 12345, 16000):
        samples = rng.uniform(-1, 1, size=n)
        write_wav(str(ours), Waveform(samples, rate))
        wavfile.write(str(theirs), rate, samples.astype(np.float32))
        assert ours.read_bytes() == theirs.read_bytes(), n


def test_refuses_to_write_more_than_a_riff_size_holds(tmp_path):
    path = tmp_path / "huge.wav"
    # 2**30 float32 samples need 4 GiB; a zero-stride view allocates none
    huge = SimpleNamespace(samples=np.broadcast_to(0.0, (1 << 30,)), sample_rate=8000)
    with pytest.raises(ValueError, match=re.escape(f"{path}: 1073741824 samples are too many")):
        write_wav(str(path), huge)
    assert not path.exists()


@pytest.mark.parametrize("rate", [1 << 30, 10**12])
def test_refuses_a_rate_whose_byte_rate_overflows_the_header(tmp_path, rate):
    path = tmp_path / "fast.wav"
    with pytest.raises(ValueError, match=re.escape(f"{path}: {rate} Hz is too high a rate")):
        write_wav(str(path), Waveform(np.zeros(4), rate))
    assert not path.exists()
    highest = (1 << 30) - 1  # 4 bytes a sample: the byte rate fills 32 bits
    write_wav(str(path), Waveform(np.zeros(4), highest))
    assert read_wav(str(path)).sample_rate == highest


def scipy_modules_after(script, *args):
    """The list of scipy modules that a fresh `python -c script args`, with
    chunksc on its path, has loaded when the script ends, as printed."""
    src = os.path.dirname(os.path.dirname(chunksc.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script += "; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    run = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True,
                         text=True, check=True)
    return run.stdout.splitlines()[-1]


def test_importing_the_package_and_cli_loads_no_scipy_io():
    # nor any other scipy module: the package runs on numpy alone
    assert scipy_modules_after("import sys, chunksc, chunksc.cli") == "[]"


def test_an_eval_run_loads_no_scipy(tmp_path):
    rng = np.random.default_rng(0)
    paths = [str(tmp_path / f"{name}.wav") for name in ("est", "tgt", "mix")]
    for path in paths:
        write_wav(path, Waveform(rng.uniform(-0.5, 0.5, size=4000), 8000))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(",".join(paths) + "\n")
    out = tmp_path / "report.csv"
    script = "import sys; from chunksc.cli import main; assert main(sys.argv[1:]) == 0"
    assert scipy_modules_after(script, "eval", "--manifest", str(manifest), "--out", str(out)) == "[]"
    assert out.exists()
