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
