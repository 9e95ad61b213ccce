"""Tests of the benchmark's span tracer (perfbench/tracer.py)."""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import chunksc  # noqa: E402
import chunksc.cli  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402


def _originals():
    return {
        f"{layer}.{name}": getattr(sys.modules[f"chunksc.{layer}"], name)
        for layer, names in TRACED.items()
        for name in names
    }


def _bindings_of(functions):
    """(module, attribute) of every chunksc module binding one of `functions`."""
    ids = {id(f) for f in functions}
    return [
        (mod_name, attr)
        for mod_name, mod in list(sys.modules.items())
        if mod is not None and (mod_name == "chunksc" or mod_name.startswith("chunksc."))
        for attr, value in vars(mod).items()
        if id(value) in ids
    ]


def _tiny_manifest(tmp_path):
    lines = ["estimate,target,mixture"]
    for i, ex in enumerate(chunksc.make_corpus(2, seed=5)):
        noisy = chunksc.Waveform(ex.target.samples + 0.3 * ex.interferer.samples, ex.target.sample_rate)
        paths = [str(tmp_path / f"{role}{i}.wav") for role in ("e", "t", "y")]
        for path, w in zip(paths, (noisy, ex.target, ex.mixture)):
            chunksc.write_wav(path, w)
        lines.append(",".join(paths))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    return str(manifest)


def test_every_binding_of_a_traced_function_is_wrapped():
    originals = _originals()
    # sc_statistics alone is bound in metrics, the package, cli, extractor and losses.
    assert len(_bindings_of([originals["metrics.sc_statistics"]])) >= 5
    tracer = Tracer().install()
    try:
        assert _bindings_of(originals.values()) == []
        assert chunksc.cli.sc_statistics.__wrapped__ is originals["metrics.sc_statistics"]
    finally:
        tracer.uninstall()
    assert sys.modules["chunksc.losses"].sc_statistics is originals["metrics.sc_statistics"]


def test_self_times_and_untraced_remainder_add_up_to_the_root(tmp_path):
    manifest = _tiny_manifest(tmp_path)
    tracer = Tracer().install()
    try:
        with tracer.root():
            assert chunksc.cli.main(["eval", "--manifest", manifest, "--out", str(tmp_path / "r.csv")]) == 0
            assert chunksc.cli.main([
                "compare", "--out", str(tmp_path / "cmp"), "--train-size", "3", "--val-size", "2",
                "--warmup-epochs", "1", "--finetune-epochs", "1",
            ]) == 0
    finally:
        tracer.uninstall()

    names, start, end, parent = tracer.spans()
    own = tracer.self_times()
    assert np.all(own >= -1e-9)
    assert np.all(parent < np.arange(parent.size))  # a parent opens before its children
    root = (end - start)[0]
    assert own.sum() == pytest.approx(root, rel=1e-9, abs=1e-9)

    summary = tracer.summary()
    traced_self = sum(s["self_s"] for s in summary["spans"].values())
    assert traced_self + summary["untraced_s"] == pytest.approx(summary["root_s"], rel=1e-9)
    spans = summary["spans"]
    assert spans["cli.main"]["calls"] == 2
    assert spans["wav_io.read_wav"]["calls"] == 6
    assert spans["extractor.backward"]["calls"] > 0
    assert spans["metrics.sc_statistics"]["calls"] > 2  # via cli, evaluate_corpus and the scaled loss
    assert summary["counters"]["metrics.chunks_scored"] >= summary["counters"]["metrics.chunks_valid"] > 0
    assert summary["counters"]["extractor.checkpoint_bytes"] > 0


def test_a_missing_traced_name_reports_zero_calls_with_a_warning():
    traced = {"metrics": ("si_sdr", "no_such_function"), "no_such_module": ("f",)}
    tracer = Tracer(traced=traced)
    with pytest.warns(RuntimeWarning, match="not found"):
        tracer.install()
    try:
        with tracer.root():
            chunksc.si_sdr(chunksc.Waveform(np.ones(8), 8000), chunksc.Waveform(np.arange(8.0), 8000))
    finally:
        tracer.uninstall()
    spans = tracer.summary()["spans"]
    assert spans["metrics.si_sdr"]["calls"] == 1
    assert spans["metrics.no_such_function"]["calls"] == 0
    assert spans["no_such_module.f"] == {"calls": 0, "self_s": 0.0, "failed": 0}
    assert len(tracer.warnings) == 2
