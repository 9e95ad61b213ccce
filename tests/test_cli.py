import argparse
import errno
import itertools
import json
import multiprocessing
import os
import pickle
import platform
import signal
import struct
import subprocess
import sys
import time
from contextlib import closing, contextmanager, nullcontext
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from chunksc import (
    ChunkingConfig,
    DivergenceDetected,
    LossKind,
    ScaleLossConfig,
    Waveform,
    WeightLossConfig,
    cli,
    extractor,
    make_corpus,
    metrics,
    read_wav,
    si_sdr,
    si_sdr_improvement,
    write_wav,
)
from chunksc import _fork
from chunksc._blas import one_blas_thread
from chunksc._fork import Workers
from chunksc.cli import _evaluate_manifest, main, parse_args
from chunksc.extractor import (
    HistoryRow,
    LossSetup,
    TrainConfig,
    history_to_csv,
    load_checkpoint,
    save_checkpoint,
    train,
)

RATE = 8000


def write_manifest(tmp_path, triples, header=False, comment=False):
    lines = []
    if comment:
        lines.append("# synthetic manifest")
    if header:
        lines.append("estimate,target,mixture")
    lines += [",".join(t) for t in triples]
    path = tmp_path / "manifest.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(3, seed=500)


def manifest_for(tmp_path, corpus, estimate_source):
    """estimate_source: 'target' or 'mixture'."""
    triples = []
    for i, ex in enumerate(corpus):
        est_p = tmp_path / f"est{i}.wav"
        tgt_p = tmp_path / f"tgt{i}.wav"
        mix_p = tmp_path / f"mix{i}.wav"
        write_wav(str(est_p), getattr(ex, estimate_source))
        write_wav(str(tgt_p), ex.target)
        write_wav(str(mix_p), ex.mixture)
        triples.append((str(est_p), str(tgt_p), str(mix_p)))
    return write_manifest(tmp_path, triples, header=True)


def partial_estimate_triples(tmp_path, corpus):
    """WAV triples whose estimate keeps some of the interferer."""
    triples = []
    for i, ex in enumerate(corpus):
        est = Waveform(0.7 * ex.target.samples + 0.4 * ex.interferer.samples, RATE)
        paths = [str(tmp_path / f"{name}{i}.wav") for name in ("est", "tgt", "mix")]
        for path, w in zip(paths, (est, ex.target, ex.mixture)):
            write_wav(path, w)
        triples.append(paths)
    return triples


def read_report_csv(path):
    lines = [l for l in open(path).read().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


class TestEval:
    def test_perfect_estimate(self, tmp_path, corpus):
        manifest = manifest_for(tmp_path, corpus, "target")
        out = str(tmp_path / "report.csv")
        assert main(["eval", "--manifest", manifest, "--out", out]) == 0
        header, rows = read_report_csv(out)
        assert header[:4] == ["id", "si_sdr", "si_sdri", "r_scr"]
        body, summary = rows[:-1], rows[-1]
        assert len(body) == 3
        for row in body:
            assert float(row[1]) == pytest.approx(60.0)  # clamp saturated
            assert float(row[3]) == 0.0  # no confused chunks
        assert summary[0] == "summary"
        assert float(summary[3]) == 0.0  # pooled corpus ratio

    def test_mixture_as_estimate_gives_zero_improvement(self, tmp_path, corpus):
        manifest = manifest_for(tmp_path, corpus, "mixture")
        out = str(tmp_path / "report.csv")
        assert main(["eval", "--manifest", manifest, "--out", out]) == 0
        _, rows = read_report_csv(out)
        for row in rows[:-1]:
            assert float(row[2]) == pytest.approx(0.0, abs=1e-6)

    def test_json_output_is_valid(self, tmp_path, corpus):
        manifest = manifest_for(tmp_path, corpus, "target")
        out = str(tmp_path / "report.json")
        assert main(["eval", "--manifest", manifest, "--out", out]) == 0
        payload = json.loads(open(out).read())
        assert payload["columns"][0] == "id"
        assert len(payload["rows"]) == 3
        # the summary's si_sdr slot is deliberately empty -> null
        assert payload["summary"][1] is None

    def test_si_sdri_is_si_sdr_improvement_bit_for_bit(self, tmp_path, corpus, monkeypatch):
        # small tiles, so the 16000-sample utterances span many column tiles
        monkeypatch.setattr(metrics, "_BLOCK_SAMPLES", 1000)
        triples = partial_estimate_triples(tmp_path, corpus)
        args = parse_args(["eval", "--manifest", write_manifest(tmp_path, triples),
                           "--out", str(tmp_path / "r.csv")])
        report = _evaluate_manifest(args)
        for row, paths in zip(report, triples):
            est, tgt, mix = (read_wav(p) for p in paths)
            # eval scores on one BLAS thread, whose dot products over 16000
            # samples have other last bits than at the default thread count
            with one_blas_thread():
                assert row["si_sdr"] == si_sdr(est, tgt)
                assert row["si_sdri"] == si_sdr_improvement(est, tgt, mix)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--chunk-ms", "0.01"], "--chunk-ms 0.01 is under 1 sample at 8000 Hz"),
            (["--hop-ms", "1e-9", "--eval-hop", "overlap"],
             "--hop-ms 1e-09 is under 1 sample at 8000 Hz"),
            (["--chunk-ms", "1e308"], "--chunk-ms 1e+308 overflows a sample count at 8000 Hz"),
            (["--chunk-ms", "3000"],
             "--chunk-ms 3000.0 is 24000 samples at 8000 Hz, more than the 16000 of the signal"),
            (["--chunk-ms", "inf"], "--chunk-ms must be finite, got inf"),
            (["--hop-ms", "inf", "--eval-hop", "overlap"], "--hop-ms must be finite, got inf"),
            (["--clamp-db", "nan"], "--clamp-db must be finite, got nan"),
        ],
        ids=["chunk-under-1-sample", "hop-under-1-sample", "chunk-overflows", "chunk-over-the-row",
             "chunk-inf", "hop-inf", "clamp-nan"],
    )
    def test_unusable_chunk_or_clamp_setting_exits_2(self, tmp_path, corpus, capsys, flags, message):
        manifest = manifest_for(tmp_path, corpus, "target")
        assert main(["eval", "--manifest", manifest, "--out", str(tmp_path / "r.csv"), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "Traceback" not in err

    @pytest.mark.parametrize("flags, message", [
        (["--bins", "a,0,5"], "--bins needs 3 comma-separated numbers, got 'a,0,5'"),
        (["--bins", "0,0,5"], "--bins must be 3 strictly increasing numbers, got '0,0,5'"),
        (["--eta", "nan"], "--eta must be finite, got nan"),
        # a setting this run does not use is echoed all the same
        (["--format", "json", "--hop-ms", "nan"], "--hop-ms must be finite, got nan"),
    ], ids=["bins-not-a-number", "bins-not-increasing", "eta-nan", "unused-hop-nan"])
    def test_scoring_refusal_names_the_flag_before_the_manifest_is_read(
        self, tmp_path, capsys, flags, message
    ):
        out = tmp_path / "r.csv"
        manifest = str(tmp_path / "absent.csv")  # a read would fail naming it
        assert main(["eval", "--manifest", manifest, "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_infinite_clamp_exits_2_without_a_report(self, tmp_path, corpus, capsys):
        manifest = manifest_for(tmp_path, corpus, "target")
        out = tmp_path / "r.json"
        for value in ("inf", "-inf"):
            assert main(["eval", "--manifest", manifest, "--out", str(out), f"--clamp-db={value}"]) == 2
            assert capsys.readouterr().err == f"error: --clamp-db must be finite, got {float(value)}\n"
            assert not out.exists()

    def test_unusable_hop_exits_2_naming_the_setting_not_a_row(self, tmp_path, corpus, capsys):
        manifest = manifest_for(tmp_path, corpus, "target")
        out = tmp_path / "r.csv"
        args = ["eval", "--manifest", manifest, "--out", str(out), "--eval-hop", "overlap"]
        assert main([*args, "--hop-ms", "300"]) == 2
        assert capsys.readouterr().err == (
            "error: --hop-ms must be positive and at most --chunk-ms 250.0, got 300.0\n"
        )
        assert not out.exists()

    def test_missing_file_exits_2(self, tmp_path):
        manifest = write_manifest(
            tmp_path, [("/nonexistent/a.wav", "/nonexistent/b.wav", "/nonexistent/c.wav")]
        )
        assert main(["eval", "--manifest", manifest, "--out", str(tmp_path / "r.csv")]) == 2

    @pytest.mark.parametrize(
        "name, samples, rate, message",
        [
            ("tgt", -1, RATE,
             "sample counts differ: estimate 16000, target 15999; expected the target's 15999\n"),
            ("tgt", None, 16000, "sample rates differ: estimate 8000 Hz, target 16000 Hz\n"),
            # shorter than one chunk: the mismatch is reported, not the chunk length
            ("est", 100, RATE,
             "sample counts differ: estimate 100, target 16000; expected the target's 16000\n"),
            ("mix", -1, RATE, "sample counts differ: estimate 16000, target 16000, "
                              "mixture 15999; expected the grid's 16000\n"),
        ],
        ids=["length", "rate", "estimate-under-one-chunk", "mixture-length"],
    )
    def test_mismatched_row_exits_2_naming_row_and_mismatch(
        self, tmp_path, corpus, capsys, name, samples, rate, message
    ):
        manifest = manifest_for(tmp_path, corpus, "mixture")
        signal = corpus[1].target.samples[:samples]
        write_wav(str(tmp_path / f"{name}1.wav"), Waveform(signal, rate))
        assert main(["eval", "--manifest", manifest, "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: manifest line 3 ({tmp_path / 'est1.wav'}): {message}"

    def test_reports_are_the_same_bytes_at_any_blas_thread_count(self, tmp_path, corpus):
        # 16000-sample rows: OpenBLAS splits dot products over 10,000 samples across threads
        manifest = write_manifest(tmp_path, partial_estimate_triples(tmp_path, corpus))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        reports = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            run_dir = tmp_path / f"threads{threads}"
            run_dir.mkdir()
            for command, out in (("eval", "r.csv"), ("eval", "r.json"), ("distribution", "d.csv")):
                subprocess.run(
                    [sys.executable, "-m", "chunksc.cli", command, "--manifest", manifest,
                     "--out", out], cwd=run_dir, env=env, check=True, timeout=60,
                )
            reports[threads] = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        assert sorted(reports["1"]) == ["d.csv", "r.csv", "r.json"]
        assert reports["2"] == reports["1"]

    @pytest.mark.parametrize("rows", [1, 2])
    def test_a_read_that_cannot_get_its_memory_exits_2_naming_the_row(
        self, tmp_path, corpus, run_limited, rows
    ):
        # the last estimate holds 2**26 zero samples (512 MiB as float64,
        # twice the headroom) in a file whose data is a hole, so it takes
        # no disk; with 2 rows it is a worker's, where a second CPU exists
        huge = tmp_path / "huge.wav"
        n = 1 << 26
        fmt = struct.pack("<HHIIHH", 1, 1, RATE, 2 * RATE, 2, 16)
        header = (b"RIFF" + struct.pack("<I", 36 + 2 * n) + b"WAVE" + b"fmt "
                  + struct.pack("<I", 16) + fmt + b"data" + struct.pack("<I", 2 * n))
        with open(huge, "wb") as fh:
            fh.write(header)
            fh.truncate(len(header) + 2 * n)
        triples = partial_estimate_triples(tmp_path, corpus)[:rows]
        triples[-1][0] = str(huge)
        manifest = write_manifest(tmp_path, triples)
        run = run_limited(["eval", "--manifest", manifest, "--out", "r.csv"], tmp_path,
                          headroom=256 << 20)
        assert (run.returncode, run.stderr) == (
            2, f"error: manifest line {rows} ({huge}): [Errno 12] Cannot allocate memory\n")
        assert not (tmp_path / "r.csv").exists()

    def test_a_row_whose_scoring_cannot_get_its_memory_exits_2_naming_it(
        self, tmp_path, corpus, monkeypatch, capsys
    ):
        def no_memory(*args):
            raise MemoryError("Unable to allocate 7.32 MiB for an array")

        monkeypatch.setattr(cli, "sc_statistics", no_memory)
        manifest = manifest_for(tmp_path, corpus, "target")
        assert main(["eval", "--manifest", manifest, "--out", str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error: manifest line 2 ({tmp_path / 'est0.wav'}): "
            "Unable to allocate 7.32 MiB for an array\n")
        assert not (tmp_path / "r.csv").exists()

    def test_malformed_manifest_exits_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("only,two\n")
        assert main(["eval", "--manifest", str(path), "--out", str(tmp_path / "r.csv")]) == 2

    def test_malformed_row_is_named_by_its_file_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("estimate,target,mixture\n# one triple\ne.wav,t.wav,m.wav\nonly,two\n")
        assert main(["eval", "--manifest", str(path), "--out", str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr().err == "error: manifest line 4: expected 3 paths, got 2\n"

    def test_header_after_a_comment_is_skipped(self, tmp_path, corpus):
        manifest_for(tmp_path, corpus, "target")
        triples = [tuple(str(tmp_path / f"{s}{i}.wav") for s in ("est", "tgt", "mix")) for i in range(3)]
        manifest = write_manifest(tmp_path, triples, header=True, comment=True)
        out = tmp_path / "r.csv"
        assert main(["eval", "--manifest", manifest, "--out", str(out)]) == 0
        _, rows = read_report_csv(str(out))
        assert [r[0] for r in rows] == ["est0", "est1", "est2", "summary"]

    def test_empty_manifest_exits_2(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# nothing here\n")
        assert main(["eval", "--manifest", str(path), "--out", str(tmp_path / "r.csv")]) == 2

    def test_rows_read_into_reused_buffers_score_as_each_row_alone(
        self, tmp_path, monkeypatch, capsys
    ):
        # long -> short -> long, float32 at 16 kHz and PCM16 at 8 kHz
        rng = np.random.default_rng(3)
        triples = []
        for i, (seconds, rate, pcm) in enumerate([(2, 16000, False), (1, 8000, True),
                                                  (3, 16000, False)]):
            tgt, other = rng.uniform(-0.5, 0.5, size=(2, seconds * rate))
            paths = [str(tmp_path / f"{name}{i}.wav") for name in ("est", "tgt", "mix")]
            for path, x in zip(paths, (tgt + 0.3 * other, tgt, tgt + other)):
                if pcm:
                    wavfile.write(path, rate, np.round(x * 32767).astype(np.int16))
                else:
                    write_wav(path, Waveform(x, rate))
            triples.append(paths)
        args = ["--eval-hop", "overlap"]

        def report_rows(rows, name):
            out = tmp_path / f"{name}.csv"
            manifest = tmp_path / f"{name}-manifest.csv"
            manifest.write_text("".join(",".join(t) + "\n" for t in rows))
            assert main(["eval", "--manifest", str(manifest), "--out", str(out), *args]) == 0
            return out.read_text().splitlines()[2:-1]  # no config, header or summary

        alone = [line for i, t in enumerate(triples) for line in report_rows([t], f"alone{i}")]
        assert report_rows(triples, "together") == alone

        reads, real_read = [], cli.read_wav

        def recording_read(path, out):
            reads.append(real_read(path, out))
            return reads[-1]

        monkeypatch.setattr(cli, "read_wav", recording_read)
        report = _evaluate_manifest(parse_args(
            ["eval", "--manifest", write_manifest(tmp_path, triples), "--out", "r.csv", *args]))
        estimates = [w.samples for w in reads[::3]]
        assert np.shares_memory(estimates[1], estimates[0])  # the short row reused the buffer
        for row in report:
            assert not any(np.shares_memory(row["stats"].chunk_sisdri, w.samples) for w in reads)

        broken = tmp_path / "broken.wav"
        broken.write_text("not audio\n")
        manifest = write_manifest(tmp_path, [*triples, (triples[0][0], str(broken), triples[0][2])])
        monkeypatch.undo()
        assert main(["eval", "--manifest", manifest, "--out", str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: manifest line 4 ({triples[0][0]}): {broken}: not a WAV file"
        )


class TestDistribution:
    def test_counts_are_consistent(self, tmp_path, corpus):
        manifest = manifest_for(tmp_path, corpus, "mixture")
        out = str(tmp_path / "dist.csv")
        assert main(["distribution", "--manifest", manifest, "--out", out]) == 0
        header, rows = read_report_csv(out)
        assert header == ["s0", "s1", "s2", "s3", "sc_s0", "sc_s1", "n_valid", "n_sc"]
        s0, s1, s2, s3, sc0, sc1, n_valid, n_sc = (int(v) for v in rows[0])
        assert s0 + s1 + s2 + s3 == n_valid
        assert (sc0, sc1) == (s0, s1)
        assert n_sc == s0 + s1  # strict negatives coincide with classes 0-1 here


class TestConfigPrecedence:
    def test_config_file_sets_defaults_flags_override(self, tmp_path, corpus):
        manifest = manifest_for(tmp_path, corpus, "target")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"clamp_db": 45.0}))
        out = str(tmp_path / "a.csv")
        assert main(["--config", str(cfg), "eval", "--manifest", manifest, "--out", out]) == 0
        _, rows = read_report_csv(out)
        assert float(rows[0][1]) == pytest.approx(45.0)

        out2 = str(tmp_path / "b.csv")
        assert (
            main(
                ["--config", str(cfg), "eval", "--manifest", manifest,
                 "--out", out2, "--clamp-db", "50"]
            )
            == 0
        )
        _, rows2 = read_report_csv(out2)
        assert float(rows2[0][1]) == pytest.approx(50.0)

    def test_bad_config_file_exits_2(self, tmp_path, corpus):
        manifest = manifest_for(tmp_path, corpus, "target")
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        code = main(
            ["--config", str(cfg), "eval", "--manifest", manifest,
             "--out", str(tmp_path / "r.csv")]
        )
        assert code == 2

    @pytest.mark.parametrize("key", ["epoch", "weight-mode"])
    def test_config_key_matching_no_flag_exits_2(self, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        out = tmp_path / "run"
        assert main(["--config", str(cfg), *train_args(str(out))]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["--config", str(tmp_path / "absent.json"), *train_args(str(out))]) == 2
        assert "absent.json" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        out = tmp_path / "run"
        assert main(["--config", str(cfg), *train_args(str(out))]) == 2
        assert "JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_config_key_of_another_subcommand_is_accepted(self, tmp_path, corpus):
        # a config file shared by eval and train may carry training-only keys
        manifest = manifest_for(tmp_path, corpus, "target")
        cfg = tmp_path / "shared.json"
        cfg.write_text(json.dumps({"lr": 0.1, "clamp_db": 45.0}))
        out = str(tmp_path / "r.csv")
        assert main(["--config", str(cfg), "eval", "--manifest", manifest, "--out", out]) == 0
        _, rows = read_report_csv(out)
        assert float(rows[0][1]) == pytest.approx(45.0)

    def test_float_for_an_int_flag_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1.5}))
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "train", "--train-size", "4", "--val-size", "2",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "invalid int value: '1.5'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "value", [True, [4], {"n": 4}, None], ids=["bool", "list", "object", "null"]
    )
    def test_value_that_is_no_number_or_string_exits_2(self, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train-size": value}))
        out = tmp_path / "run"
        assert main(["--config", str(cfg), *train_args(str(out))]) == 2
        assert "train-size" in capsys.readouterr().err
        assert not out.exists()

    def test_value_outside_the_flag_choices_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"loss": "bogus"}))
        out = tmp_path / "run"
        assert main(["--config", str(cfg), *train_args(str(out))]) == 2
        assert "loss must be one of" in capsys.readouterr().err
        assert not out.exists()

    def test_values_are_converted_by_the_flag_type(self, tmp_path):
        # an int for a float flag and a numeric string for an int flag
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"clamp-db": 45, "batch": "3"}))
        out = tmp_path / "run"
        assert main(["--config", str(cfg), *train_args(str(out))]) == 0
        header = (out / "history.csv").read_text().splitlines()[0]
        config = json.loads(header.removeprefix("# config: "))
        assert config["clamp_db"] == 45.0 and isinstance(config["clamp_db"], float)
        assert config["batch"] == 3


class TestEvalHop:
    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_training_commands_reject_it(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--eval-hop", "overlap", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--eval-hop" in capsys.readouterr().err

    def test_overlap_scores_more_chunks_in_eval(self, tmp_path, corpus):
        manifest = manifest_for(tmp_path, corpus, "target")
        n_chunks = {}
        for hop in ("none", "overlap"):
            out = str(tmp_path / f"{hop}.csv")
            assert main(["eval", "--manifest", manifest, "--out", out, "--eval-hop", hop]) == 0
            _, rows = read_report_csv(out)
            n_chunks[hop] = sum(int(v) for row in rows[:-1] for v in row[4:8])
        assert n_chunks["overlap"] > n_chunks["none"] > 0


def train_args(out, extra=()):
    return [
        "train", "--epochs", "2", "--train-size", "6", "--val-size", "3",
        "--seed", "1", "--out", out, *extra,
    ]


class TestTrain:
    def test_produces_history_and_checkpoint(self, tmp_path):
        out = tmp_path / "run"
        assert main(train_args(str(out))) == 0
        lines = (out / "history.csv").read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "epoch,train_loss,val_sisdri,val_rscr"
        assert len(lines) == 2 + 3  # baseline row + 2 epochs
        assert (out / "checkpoint.json").exists()

    def test_identical_seeds_byte_identical_history(self, tmp_path):
        out = tmp_path / "run"
        assert main(train_args(str(out))) == 0
        first = (out / "history.csv").read_bytes()
        assert main(train_args(str(out))) == 0
        assert (out / "history.csv").read_bytes() == first

    def test_seed_changes_history(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(train_args(str(a))) == 0
        args = train_args(str(b))
        args[args.index("--seed") + 1] = "2"
        assert main(args) == 0
        strip = lambda p: (p / "history.csv").read_text().splitlines()[1:]
        assert strip(a) != strip(b)

    def test_weight_loss_accepted(self, tmp_path):
        out = tmp_path / "w"
        assert main(train_args(str(out), extra=("--loss", "weight"))) == 0

    def test_batch_larger_than_the_corpus_trains_as_the_whole_corpus(self, tmp_path):
        # Gradient slots for 1e8 rows once failed to map: exit 2, naming no flag.
        outputs = []
        for batch in ("100000000", "3"):
            out = tmp_path / batch
            args = ["train", "--batch", batch, "--train-size", "3", "--val-size", "2",
                    "--epochs", "2", "--out", str(out)]
            assert main(args) == 0
            history = (out / "history.csv").read_text().splitlines()
            assert history[0].startswith("# config:")
            outputs.append((history[1:], (out / "checkpoint.json").read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--lr", "nan"], "--lr must be finite and positive, got nan"),
            (["--lr", "inf"], "--lr must be finite and positive, got inf"),
            (["--finetune-lr", "nan", "--warmup-epochs", "1"],
             "--finetune-lr must be finite and positive, got nan"),
            (["--duration", "inf"], "--duration must be finite and at least 1.0, got inf"),
            (["--duration", "nan"], "--duration must be finite and at least 1.0, got nan"),
        ],
        ids=["lr-nan", "lr-inf", "finetune-lr-nan", "duration-inf", "duration-nan"],
    )
    def test_non_finite_setting_exits_2_before_training(self, tmp_path, capsys, flags, message):
        out = tmp_path / "run"
        assert main(train_args(str(out), extra=flags)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "Traceback" not in err
        assert not (out / "history.csv").exists()


    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_refused_setting_creates_no_out_directory(self, tmp_path, capsys, command):
        out = tmp_path / "run"
        for flags in (("--lr", "nan"), ("--train-size", "0"), ("--val-size", "0"),
                      ("--train-size", "-3"), ("--hop-ms", "300"), ("--chunk-ms", "5000"),
                      ("--duration", "0.5"), ("--seed", "-1"), ("--batch", "0"),
                      ("--warmup-epochs", "-1"), ("--lr", "0"),
                      ("--warmup-epochs", "1", "--finetune-lr", "0"), ("--bins", "a,0,5"),
                      ("--bins", "0,0,5"), ("--weights", "5,5,x,1"), ("--eta", "nan"),
                      ("--duration", "1e300")):
            args = [command, "--train-size", "4", "--val-size", "2", *flags, "--out", str(out)]
            assert main(args) == 2, flags
            assert not out.exists(), flags
            assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "compare"])
    @pytest.mark.parametrize("flag", ["--train-size", "--val-size"])
    def test_corpus_size_refusal_names_the_flag(self, tmp_path, capsys, command, flag):
        out = tmp_path / "run"
        args = [command, "--train-size", "2", "--val-size", "2", flag, "0", "--out", str(out)]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {flag} must be at least 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    @pytest.mark.parametrize("flag", ["--train-size", "--val-size"])
    def test_corpus_larger_than_physical_memory_exits_2_naming_the_flag(
        self, tmp_path, capsys, command, flag
    ):
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        size = memory // (8 * (3 * 4 + 1) * RATE) + 1  # float64 4 s signals, 1 s enrollment
        out = tmp_path / "run"
        args = [command, "--train-size", "2", "--val-size", "2", "--duration", "4", flag, str(size),
                "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} {size} at --duration 4.0 needs "), err
        assert err.endswith(" GiB of physical memory\n") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    @pytest.mark.parametrize("flag", ["--train-size", "--val-size"])
    def test_corpus_beyond_the_address_space_limit_exits_2_naming_the_flag(
        self, tmp_path, run_limited, command, flag
    ):
        # 40 examples of 60 s need 0.43 GiB, twice the headroom; the other
        # corpus has 1 example, which fits
        sizes = {"--train-size": "1", "--val-size": "1", flag: "40"}
        args = [command, "--epochs" if command == "train" else "--finetune-epochs", "1",
                "--duration", "60", *itertools.chain(*sizes.items()), "--out", "run"]
        run = run_limited(args, tmp_path, headroom=220 << 20)
        assert (run.returncode, run.stderr) == (2, (
            f"error: {flag} 40 at --duration 60.0 needs 0.4 GiB of samples, "
            "more than this process could allocate\n"))
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_negative_seed_refusal_names_the_flag(self, tmp_path, capsys, command):
        out = tmp_path / "run"
        args = [command, "--train-size", "2", "--val-size", "2", "--seed", "-1", "--out", str(out)]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: --seed must be at least 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["train", "--batch", "0"], "--batch must be at least 1, got 0"),
        (["train", "--epochs", "-1"], "--epochs must be at least 0, got -1"),
        (["train", "--warmup-epochs", "-1"], "--warmup-epochs must be at least 0, got -1"),
        (["train", "--lr", "0"], "--lr must be finite and positive, got 0.0"),
        (["train", "--warmup-epochs", "1", "--finetune-lr", "0"],
         "--finetune-lr must be finite and positive, got 0.0"),
        (["compare", "--batch", "0"], "--batch must be at least 1, got 0"),
        (["compare", "--warmup-epochs", "-1"], "--warmup-epochs must be at least 0, got -1"),
        (["compare", "--finetune-lr", "-1"], "--finetune-lr must be finite and positive, got -1.0"),
        (["train", "--bins", "a,0,5"], "--bins needs 3 comma-separated numbers, got 'a,0,5'"),
        (["train", "--weights", "5,5,x,1"], "--weights needs 4 comma-separated numbers, got '5,5,x,1'"),
        (["train", "--bins", "0,0,5"], "--bins must be 3 strictly increasing numbers, got '0,0,5'"),
        (["train", "--eta", "nan"], "--eta must be finite, got nan"),
        (["train", "--weights", "1,5,1,1"],
         "--weights must be finite, non-increasing and positive, got '1,5,1,1'"),
        (["train", "--weights", "5,5,1,0"],
         "--weights must be finite, non-increasing and positive, got '5,5,1,0'"),
        (["train", "--clamp-db", "nan"], "--clamp-db must be finite, got nan"),
        (["train", "--clamp-db", "20"], "--clamp-db must be at least 30, got 20.0"),
        (["train", "--gamma1", "nan"], "--gamma1 must be finite, got nan"),
        (["compare", "--gamma2", "inf"], "--gamma2 must be finite, got inf"),
        (["train", "--chunk-ms", "nan"], "--chunk-ms must be finite, got nan"),
        (["train", "--hop-ms", "nan"], "--hop-ms must be finite, got nan"),
        (["train", "--hop-ms", "300"],
         "--hop-ms must be positive and at most --chunk-ms 250.0, got 300.0"),
        (["train", "--chunk-ms", "0.01"],
         "--hop-ms must be positive and at most --chunk-ms 0.01, got 125.0"),
        (["train", "--duration", "inf"], "--duration must be finite and at least 1.0, got inf"),
        (["compare", "--duration", "0.5"], "--duration must be finite and at least 1.0, got 0.5"),
        (["train", "--hop-ms", "1e-9"], "--hop-ms 1e-09 is under 1 sample at 8000 Hz"),
        (["train", "--duration", "1e308"], "--duration 1e+308 overflows a sample count at 8000 Hz"),
        (["train", "--duration", "1e300"], "--duration 1e+300 overflows a sample count at 8000 Hz"),
        # without a warm-up train does not use --finetune-lr, but echoes it
        (["train", "--finetune-lr", "nan"], "--finetune-lr must be finite, got nan"),
        (["train", "--chunk-ms", "1e308", "--hop-ms", "1e308"],
         "--chunk-ms 1e+308 overflows a sample count at 8000 Hz"),
        (["train", "--chunk-ms", "3000"], "--chunk-ms 3000.0 is 24000 samples at 8000 Hz, "
                                          "more than the 16000 of the utterance of --duration 2.0"),
        (["compare", "--chunk-ms", "5000", "--duration", "4"],
         "--chunk-ms 5000.0 is 40000 samples at 8000 Hz, "
         "more than the 32000 of the utterance of --duration 4.0"),
    ], ids=["train-batch", "train-epochs", "train-warmup-epochs", "train-lr", "train-finetune-lr",
            "compare-batch", "compare-warmup-epochs", "compare-finetune-lr", "train-bins-not-a-number",
            "train-weights-not-a-number", "train-bins-not-increasing", "train-eta-nan",
            "train-weights-increasing", "train-weights-zero", "train-clamp-nan", "train-clamp-20",
            "train-gamma1-nan", "compare-gamma2-inf", "train-chunk-nan", "train-hop-nan",
            "train-hop-300", "train-chunk-under-hop", "train-duration-inf", "compare-duration-0.5",
            "train-hop-under-1-sample", "train-duration-overflows",
            "train-duration-overflows-the-index", "train-unused-finetune-lr-nan", "train-chunk-overflows",
            "train-chunk-over-duration", "compare-chunk-over-duration"])
    def test_training_refusal_names_the_flag(self, tmp_path, capsys, args, message):
        out = tmp_path / "run"
        assert main([*args, "--train-size", "2", "--val-size", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_finetune_lr_without_a_warm_up_is_not_checked(self, tmp_path):
        # without a warm-up, train runs its one stage at --lr; a non-finite
        # value is refused all the same, as the config header cannot hold it
        out = tmp_path / "run"
        assert main(train_args(str(out), extra=("--epochs", "1", "--finetune-lr", "0"))) == 0
        assert (out / "checkpoint.json").exists()

    def test_non_finite_weights_exit_2_before_out_is_made(self, tmp_path, capsys):
        out = tmp_path / "run"
        for weights in ("inf,inf,1,1", "5,5,1,nan"):
            assert main(train_args(str(out), extra=("--loss", "weight", "--weights", weights))) == 2
            assert capsys.readouterr().err == (
                f"error: --weights must be finite, non-increasing and positive, got {weights!r}\n"
            )
            assert not out.exists()

    def test_unusable_out_fails_before_any_epoch(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "taken"
        out.write_text("a file, not a directory")
        monkeypatch.setattr(cli, "train", lambda *a: pytest.fail("trained before --out was made"))
        assert main(train_args(str(out))) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_matches_an_in_process_warm_up_and_fine_tune_byte_for_byte(self, tmp_path):
        out = tmp_path / "run"
        assert main(train_args(str(out), extra=("--warmup-epochs", "2", "--loss", "weight"))) == 0
        setup = LossSetup(chunking=ChunkingConfig(chunk_len_ms=250.0, hop_ms=125.0))
        corpus, validation = make_corpus(6, seed=1), make_corpus(3, seed=1001)
        warm_cfg = TrainConfig(learning_rate=0.2, epochs=2, batch=8, seed=1)
        warm, history = train(warm_cfg, corpus, validation, setup)
        tune_cfg = replace(warm_cfg, learning_rate=0.0002)
        params, rows = train(tune_cfg, corpus, validation,
                             replace(setup, loss_kind=LossKind.WEIGHT), warm)
        for row in rows:
            row.epoch += 2
        history += rows
        # the fine-tune's row 0 repeats the warm-up's last validation
        assert [row.epoch for row in history] == [0, 1, 2, 2, 3, 4]
        warm_last, tune_first = history[2:4]
        assert np.isnan(tune_first.train_loss)
        assert (tune_first.val_sisdri, tune_first.val_rscr) == (warm_last.val_sisdri, warm_last.val_rscr)
        body = (out / "history.csv").read_text().split("\n", 1)[1]
        assert body == history_to_csv(history)
        save_checkpoint(str(tmp_path / "expected.json"), params)
        assert (out / "checkpoint.json").read_bytes() == (tmp_path / "expected.json").read_bytes()

    def test_divergence_exits_3_with_the_renumbered_history(self, tmp_path, monkeypatch, capsys):
        real_train = cli.train
        rows = [HistoryRow(0, float("nan"), 1.5, 40.0), HistoryRow(1, 2.0, 1.75, 30.0)]

        def diverging_finetune(cfg, corpus, validation, setup, params, **kw):
            if setup.loss_kind is LossKind.PLAIN:
                return real_train(cfg, corpus, validation, setup, params, **kw)
            raise DivergenceDetected("diverged in the fine-tune", rows)

        monkeypatch.setattr(cli, "train", diverging_finetune)
        out = tmp_path / "run"
        assert main(train_args(str(out), extra=("--loss", "scale", "--warmup-epochs", "1"))) == 3
        assert capsys.readouterr().err == "error: diverged in the fine-tune\n"
        lines = (out / "history.csv").read_text().splitlines()
        assert [int(line.split(",")[0]) for line in lines[2:]] == [0, 1, 1, 2]
        assert lines[-1] == "2,2.000000,1.750000,30.000000"
        assert not (out / "checkpoint.json").exists()


class Accepted(Exception):
    """Raised by the stubbed first stage of `train` and `compare`: every setting passed."""


# Edge values for every setting flag, and list items for --bins and --weights.
EDGE_VALUES = ["nan", "inf", "-inf", "0", "-1", "1e300", "-1e300", "1e-300", str(10**30), str(10**400),
               "x", ""]
SCORING_FLAGS = ["--chunk-ms", "--hop-ms", "--eta", "--clamp-db", "--bins"]
TRAINING_FLAGS = [*SCORING_FLAGS, "--seed", "--lr", "--finetune-lr", "--batch", "--train-size",
                  "--val-size", "--duration", "--gamma1", "--gamma2", "--weights", "--warmup-epochs"]
SETTING_FLAGS = {"eval": SCORING_FLAGS, "distribution": SCORING_FLAGS,
                 "train": [*TRAINING_FLAGS, "--epochs"], "compare": [*TRAINING_FLAGS, "--finetune-epochs"]}
LIST_LENGTHS = {"--bins": 3, "--weights": 4}
RUN_NUMBERS = itertools.count()  # a fresh --out for each example


@st.composite
def setting_runs(draw):
    """(command, the setting flags given, their arguments)."""
    command = draw(st.sampled_from(sorted(SETTING_FLAGS)))
    flags = draw(st.lists(st.sampled_from(SETTING_FLAGS[command]), min_size=1, max_size=3, unique=True))
    argv = []
    for flag in flags:
        if flag in LIST_LENGTHS:
            items = st.lists(st.sampled_from(EDGE_VALUES), max_size=LIST_LENGTHS[flag] + 1)
            argv.append(f"{flag}={','.join(draw(items))}")
        else:
            argv.append(f"{flag}={draw(st.sampled_from(EDGE_VALUES))}")
    if command in ("eval", "distribution") and draw(st.booleans()):
        argv.append("--eval-hop=overlap")
    return command, flags, argv


@pytest.fixture(scope="module")
def one_row_manifest(tmp_path_factory, corpus):
    root = tmp_path_factory.mktemp("one-row")
    paths = [str(root / f"{name}.wav") for name in ("est", "tgt", "mix")]
    ex = corpus[0]
    for path, w in zip(paths, (ex.target, ex.target, ex.mixture)):
        write_wav(path, w)
    return write_manifest(root, [paths])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=setting_runs())
def test_a_setting_is_taken_or_refused_naming_its_flag(tmp_path, monkeypatch, capsys,
                                                         one_row_manifest, run):
    command, flags, argv = run
    assert_taken_or_refused_naming_a_flag(monkeypatch, capsys, tmp_path, one_row_manifest,
                                          command, argv, flags)


# Every key a config file may hold for each subcommand: the dest of each of
# its flags but --help.
CONFIG_KEYS = {
    command: sorted(a.dest for a in sub._actions if a.option_strings and a.dest != "help")
    for command, sub in next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices.items()
}
# JSON value tokens, as written in the file: the non-standard NaN and
# Infinity that Python's json reads, integers beyond a float and beyond
# Python's 4300-digit int-to-string limit, booleans, null, lists, objects,
# and strings, some of them a flag's choice.
CONFIG_TOKENS = [
    "NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 30, "1" + "0" * 400, "-1" + "0" * 400,
    "1" + "0" * 5000, "0", "-1", "1.5", "1e-300", "true", "false", "null", "[]", "[4]",
    "{}", '{"n": 4}',
    *(json.dumps(v) for v in [*EDGE_VALUES, "overlap", "json", "weight", "-5,0,5", "1,1,1,1"]),
]


@st.composite
def config_runs(draw):
    """(command, the flags of the keys given, the config file's text)."""
    command = draw(st.sampled_from(sorted(CONFIG_KEYS)))
    keys = draw(st.lists(st.sampled_from(CONFIG_KEYS[command]), min_size=1, max_size=3, unique=True))
    entries = []
    for key in keys:
        spelled = key.replace("_", "-") if draw(st.booleans()) else key
        entries.append(f"{json.dumps(spelled)}: {draw(st.sampled_from(CONFIG_TOKENS))}")
    return command, [f"--{key.replace('_', '-')}" for key in keys], "{" + ", ".join(entries) + "}"


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=config_runs())
def test_a_config_value_is_taken_or_refused_naming_its_flag(tmp_path, monkeypatch, capsys,
                                                             one_row_manifest, run):
    command, flags, text = run
    config = tmp_path / f"config{next(RUN_NUMBERS)}.json"
    config.write_text(text)
    assert_taken_or_refused_naming_a_flag(monkeypatch, capsys, tmp_path, one_row_manifest,
                                          command, [], flags, config=str(config))


def assert_taken_or_refused_naming_a_flag(monkeypatch, capsys, tmp_path, manifest, command,
                                          argv, flags, config=None):
    """Run `command` with `argv` (and --config `config`): it exits 0 or 2,
    with no traceback, and a refusal names one of `flags` and makes no
    --out. train and compare stop at their first stage, so nothing is
    rendered, trained or forked."""
    def first_stage(*args, **kwargs):
        raise Accepted

    for name in ("make_corpus", "train"):
        monkeypatch.setattr(cli, name, first_stage)
    monkeypatch.setattr(cli, "keep_freed_heap", lambda: None)
    out = tmp_path / f"out{next(RUN_NUMBERS)}.csv"
    if command in ("eval", "distribution"):
        argv = [*argv, "--manifest", manifest]
    try:
        code = main([*(["--config", config] if config else []), command, *argv, "--out", str(out)])
    except SystemExit as exc:  # argparse refuses a value its flag's type does not take
        code = exc.code
    except Accepted:
        code = 0
    err = capsys.readouterr().err
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 2:
        assert any(flag in err.splitlines()[-1] for flag in flags), err
        assert not out.exists()


@contextmanager
def deadline(seconds):
    """Fail the test, rather than hang the suite, if the block outlasts `seconds`."""

    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def compare_args(out, *extra):
    return [
        "compare", "--warmup-epochs", "1", "--finetune-epochs", "1",
        "--train-size", "4", "--val-size", "2", "--out", str(out), *extra,
    ]


def read_outputs(path):
    return {p.name: p.read_bytes() for p in path.iterdir()}


def run_with_workers(monkeypatch, run_dir, n_workers, args):
    """main(args) in run_dir with `n_workers` workers asked for; returns the
    exit code and the number of workers each call of this process forked,
    in call order."""
    started, real_init = [], Workers.__init__

    def counting_init(self, *a):
        real_init(self, *a)
        started.append(len(self._workers))

    monkeypatch.setattr(cli, "worker_count", lambda: n_workers)
    monkeypatch.setattr(Workers, "__init__", counting_init)
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    with deadline(60):
        return main(args), started


@pytest.fixture(scope="module")
def forking_manifest(tmp_path_factory):
    """Six rows of 8 kHz noise whose estimate files hold 3 x `cli._SHARE_BYTES`
    between them: above the size rule for up to three processes."""
    root = tmp_path_factory.mktemp("forking")
    rng = np.random.default_rng(7)
    samples = cli._SHARE_BYTES // 8 + 1  # 4 bytes a sample: half a share a row
    triples = []
    for i in range(6):
        tgt, other = rng.uniform(-0.5, 0.5, size=(2, samples))
        paths = [str(root / f"{name}{i}.wav") for name in ("est", "tgt", "mix")]
        for path, x in zip(paths, (tgt + (0.1 + 0.2 * i) * other, tgt, tgt + other)):
            write_wav(path, Waveform(x, RATE))
        triples.append(paths)
    return write_manifest(root, triples)


def alive(pid):
    """Whether process `pid` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestWorkers:
    @pytest.mark.parametrize("args, calls", [
        # train: warm-up, fine-tune; compare: warm-up (the corpora are rendered on threads)
        (train_args("run", extra=("--warmup-epochs", "1", "--loss", "scale")), 2),
        # batches of 3, 3 and 1 an epoch: the last one shorter than the processes
        (train_args("run", extra=("--train-size", "7", "--batch", "3", "--warmup-epochs", "1",
                                  "--loss", "weight")), 2),
        (compare_args("run"), 1),
    ], ids=["train", "train-short-last-batch", "compare"])
    def test_outputs_are_the_same_bytes_at_any_worker_count(self, tmp_path, monkeypatch, args, calls):
        outputs = {}
        for n in (0, 1, 2):
            code, started = run_with_workers(monkeypatch, tmp_path / f"w{n}", n, args)
            assert (code, started) == (0, [n] * calls)
            outputs[n] = read_outputs(tmp_path / f"w{n}" / "run")
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        assert multiprocessing.active_children() == []

    def test_a_warm_up_that_diverges_in_a_worker_exits_3_as_in_process(
        self, tmp_path, monkeypatch, capsys
    ):
        # train_args: 6 examples at seed 1, one batch of 6 an epoch; with one
        # worker, the last 3 positions of a batch are the worker's
        rng = np.random.default_rng(1)
        rng.permutation(6)
        bad = int(rng.permutation(6)[-1])
        marker = make_corpus(6, seed=1)[bad].mixture.samples[0]
        real_backward = extractor.backward

        def diverges_in_epoch_2(params, example, setup):
            grads, result = real_backward(params, example, setup)
            if params.mask_b2.any() and example.mixture.samples[0] == marker:  # trained once
                result = replace(result, value=float("nan"))
            return grads, result

        monkeypatch.setattr(extractor, "backward", diverges_in_epoch_2)
        args = train_args("run", extra=("--warmup-epochs", "3", "--loss", "weight"))
        runs = {}
        for n in (0, 1):
            code, started = run_with_workers(monkeypatch, tmp_path / f"w{n}", n, args)
            assert (code, started) == (3, [n])  # the warm-up
            runs[n] = (capsys.readouterr().err, read_outputs(tmp_path / f"w{n}" / "run"))
        assert runs[1] == runs[0]
        err, files = runs[1]
        assert err == f"error: non-finite loss on example {bad} in epoch 2\n"
        assert sorted(files) == ["history.csv"]
        assert [line.split(",")[0] for line in files["history.csv"].decode().splitlines()[2:]] == ["0", "1"]
        assert multiprocessing.active_children() == []

    def test_a_worker_that_dies_mid_batch_exits_1_naming_it(self, tmp_path, monkeypatch, capsys):
        parent, real_backward = os.getpid(), extractor.backward

        def dies_in_a_worker(*args):
            if os.getpid() != parent:
                os._exit(9)
            return real_backward(*args)

        monkeypatch.setattr(extractor, "backward", dies_in_a_worker)
        code, started = run_with_workers(monkeypatch, tmp_path / "w1", 1, train_args("run"))
        # the training stage; a warm-up of 0 epochs forks nothing
        assert (code, started) == (1, [1])
        assert capsys.readouterr().err == (
            "error: the worker 1 process ended with exit code 9 before sending a result\n"
        )
        assert multiprocessing.active_children() == []

    def test_a_worker_that_cannot_be_forked_leaves_the_stage_to_the_others(
        self, tmp_path, monkeypatch
    ):
        code, started = run_with_workers(monkeypatch, tmp_path / "w0", 0, compare_args("run"))
        assert (code, started) == (0, [0])
        real_fork, forks = os.fork, []

        def second_worker_fails():
            forks.append(os.getpid())
            if len(forks) == 2:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return real_fork()

        monkeypatch.setattr(os, "fork", second_worker_fails)
        code, started = run_with_workers(monkeypatch, tmp_path / "w2", 2, compare_args("run"))
        # the warm-up gets 1 of its 2 workers; then the 3 fine-tunes
        assert (code, started, len(forks)) == (0, [1], 5)
        assert read_outputs(tmp_path / "w2" / "run") == read_outputs(tmp_path / "w0" / "run")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_no_worker_lives_between_stages(self, tmp_path, monkeypatch, command):
        monkeypatch.setattr(cli, "worker_count", lambda: 1)
        if command == "compare":
            args, kinds = compare_args(tmp_path / "run"), list(LossKind)
        else:
            args, kinds = train_args(str(tmp_path / "run"), ("--warmup-epochs", "1")), [LossKind.PLAIN]
        flags = ("--finetune-lr", "--finetune-epochs" if command == "compare" else "--epochs")
        stages = cli._training_stages(parse_args(args), kinds, *flags)
        with closing(stages), deadline(60):
            kind, _, _ = next(stages)
            assert kind is None
            # a fine-tune child may already have sent its result and ended
            names = [p.name for p in multiprocessing.active_children()]
            assert all(name.endswith(" fine-tune") for name in names), names
            assert command == "compare" or names == []
        assert multiprocessing.active_children() == []

    def test_a_training_batch_sends_a_worker_under_1_kb(self, monkeypatch):
        sent, real_send = [], _fork.Forked.send

        def measured_send(self, message):
            sent.append((message[0], len(pickle.dumps(message))))
            real_send(self, message)

        monkeypatch.setattr(_fork.Forked, "send", measured_send)
        corpus, validation = make_corpus(8, seed=4), make_corpus(2, seed=5)
        with deadline(60):
            train(TrainConfig(epochs=1, batch=8), corpus, validation, LossSetup(), workers=1)
        batches = [size for fn, size in sent if fn is extractor._backward_examples]
        assert len(batches) == 1 and batches[0] < 1024, batches
        assert len(sent) == 3  # and two validation passes
        assert multiprocessing.active_children() == []

    def test_a_worker_ends_when_its_parent_is_killed(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        script = ("import time; from chunksc._fork import Workers; pool = Workers(1); "
                  "print(pool._workers[0]._process.pid, flush=True); time.sleep(60)")
        holder = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, env=env)
        with holder:
            worker = int(holder.stdout.readline())
            try:
                holder.kill()
                holder.wait()
                ends = time.monotonic() + 5
                while alive(worker) and time.monotonic() < ends:
                    time.sleep(0.05)
                assert not alive(worker)
            finally:
                if alive(worker):
                    os.kill(worker, signal.SIGKILL)

    def test_reports_are_the_same_bytes_at_any_worker_count(
        self, tmp_path, monkeypatch, forking_manifest
    ):
        reports = {}
        for n in (0, 1, 2):
            for command, out, hop in (("eval", "r.csv", "none"), ("eval", "r.json", "overlap"),
                                      ("distribution", "d.csv", "overlap")):
                run_dir = tmp_path / f"w{n}-{out}"
                args = [command, "--manifest", forking_manifest, "--out", out, "--eval-hop", hop]
                code, started = run_with_workers(monkeypatch, run_dir, n, args)
                assert (code, started) == (0, [n])
                reports[n, out] = (run_dir / out).read_bytes()
        for (n, out), report in reports.items():
            assert report == reports[0, out], (n, out)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("bad_rows", [[4], [1, 4]], ids=["worker-block", "both-blocks"])
    def test_a_bad_row_exits_2_with_the_in_process_message(
        self, tmp_path, monkeypatch, capsys, forking_manifest, bad_rows
    ):
        # with one worker, rows 0-2 are this process's and rows 3-5 the worker's
        with open(forking_manifest) as fh:
            lines = fh.read().splitlines()
        broken = tmp_path / "broken.wav"
        broken.write_text("not audio\n")
        for k in bad_rows:
            estimate, _, mixture = lines[k].split(",")
            lines[k] = ",".join([estimate, str(broken), mixture])
        manifest = tmp_path / "bad.csv"
        manifest.write_text("\n".join(lines) + "\n")
        errors = []
        for n in (0, 1):
            args = ["eval", "--manifest", str(manifest), "--out", "r.csv"]
            code, started = run_with_workers(monkeypatch, tmp_path / f"w{n}", n, args)
            assert (code, started) == (2, [n])
            errors.append(capsys.readouterr().err)
            assert not (tmp_path / f"w{n}" / "r.csv").exists()
        first = bad_rows[0]
        assert errors[0] == errors[1]
        assert errors[0].startswith(
            f"error: manifest line {first + 1} ({lines[first].split(',')[0]}): "
            f"{broken}: not a WAV file")
        assert multiprocessing.active_children() == []

    def test_a_worker_killed_mid_block_exits_1_naming_it(
        self, tmp_path, monkeypatch, capsys, forking_manifest
    ):
        parent, real_statistics = os.getpid(), cli.sc_statistics

        def dies_in_a_worker(*args):
            if os.getpid() != parent:
                os._exit(9)
            return real_statistics(*args)

        monkeypatch.setattr(cli, "sc_statistics", dies_in_a_worker)
        args = ["distribution", "--manifest", forking_manifest, "--out", "d.csv"]
        code, started = run_with_workers(monkeypatch, tmp_path / "w1", 1, args)
        assert (code, started) == (1, [1])
        assert capsys.readouterr().err == (
            "error: the worker 1 process ended with exit code 9 before sending a result\n"
        )
        assert not (tmp_path / "w1" / "d.csv").exists()
        assert multiprocessing.active_children() == []

    def test_a_manifest_under_the_size_rule_starts_no_worker(self, tmp_path, monkeypatch, corpus):
        manifest = manifest_for(tmp_path, corpus, "mixture")  # 3 rows of 64 KB estimates
        args = ["eval", "--manifest", manifest, "--out", "r.csv"]
        code, started = run_with_workers(monkeypatch, tmp_path / "w2", 2, args)
        assert (code, started) == (0, [0])
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("estimate_bytes, n_workers, processes", [
        (0, 5, 1), (2 * cli._SHARE_BYTES - 1, 5, 1), (2 * cli._SHARE_BYTES, 5, 2),
        (6 * cli._SHARE_BYTES, 1, 2), (100 * cli._SHARE_BYTES, 5, 6),
    ])
    def test_processes_follow_the_estimate_bytes(
        self, tmp_path, monkeypatch, estimate_bytes, n_workers, processes
    ):
        # six rows; a row whose estimate is missing counts 0 bytes
        rows = []
        for k, size in enumerate([estimate_bytes // 2, estimate_bytes - estimate_bytes // 2]):
            path = tmp_path / f"est{k}.wav"
            with open(path, "wb") as fh:
                fh.truncate(size)
            rows.append((k + 1, (str(path), "t.wav", "m.wav")))
        rows += [(k + 3, (str(tmp_path / "missing.wav"), "t.wav", "m.wav")) for k in range(4)]
        monkeypatch.setattr(cli, "worker_count", lambda: n_workers)
        assert cli._process_count(rows) == processes
        assert cli._process_count(rows[:1]) == 1


def test_an_answer_to_a_parent_that_has_ended_is_dropped():
    parent_end, child_end = multiprocessing.Pipe()
    parent_end.close()
    with child_end:
        _fork.answer(child_end, lambda: 1)  # no BrokenPipeError


def test_keep_freed_heap_sets_both_settings_and_is_a_no_op_without_mallopt(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(_fork.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    _fork.keep_freed_heap()
    # M_TRIM_THRESHOLD and M_TOP_PAD of <malloc.h>
    assert calls == [(-1, 256 << 20), (-2, 64 << 20)]
    monkeypatch.setattr(_fork.ctypes, "CDLL", lambda name: SimpleNamespace())
    _fork.keep_freed_heap()  # no mallopt: nothing to call, no error


def test_training_keeps_freed_heap_once_before_its_first_fork(tmp_path, monkeypatch):
    events, real_fork = [], os.fork
    monkeypatch.setattr(cli, "keep_freed_heap", lambda: events.append("keep"))
    monkeypatch.setattr(os, "fork", lambda: events.append("fork") or real_fork())
    monkeypatch.setattr(cli, "worker_count", lambda: 1)
    assert main(compare_args(tmp_path / "refused", "--batch", "0")) == 2
    assert events == []
    with deadline(60):
        assert main(compare_args(tmp_path / "run")) == 0
    # a worker for the warm-up, then the three fine-tunes
    assert events == ["keep"] + ["fork"] * 4


BACKWARD_FAULTS = """
import resource, sys
from dataclasses import replace
from chunksc import LossKind, make_corpus
from chunksc._fork import keep_freed_heap
from chunksc.extractor import LossSetup, backward, init_params

if sys.argv[1] == "keep":
    keep_freed_heap()
example = make_corpus(1, seed=0)[0]  # 2 s at 8 kHz, as in perfbench's train-compare
params, setup = init_params(0), replace(LossSetup(), loss_kind=LossKind.WEIGHT)
backward(params, example, setup)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    backward(params, example, setup)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc")
def test_backward_in_kept_heap_takes_a_fraction_of_the_page_faults():
    # each side in a fresh interpreter: a process forked from this one would
    # inherit the setting from any train or compare it ran before
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    faults = {}
    for mode in ("keep", "default"):
        run = subprocess.run([sys.executable, "-c", BACKWARD_FAULTS, mode], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        faults[mode] = int(run.stdout)
    assert faults["keep"] < faults["default"] / 2, faults


def children_of(pid):
    with open(f"/proc/{pid}/task/{pid}/children") as fh:
        return [int(child) for child in fh.read().split()]


class TestCompare:
    def test_fine_tunes_end_quietly_when_compare_is_killed(self, tmp_path):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = compare_args("cmp", "--finetune-epochs", "50", "--train-size", "40")
        proc = subprocess.Popen([sys.executable, "-m", "chunksc.cli", *argv], cwd=tmp_path,
                                env=env, stderr=subprocess.PIPE, text=True)
        children = []
        with proc:
            try:
                # the fine-tunes are forked before the warm-up checkpoint is written
                ends = time.monotonic() + 60
                while not (tmp_path / "cmp" / "warmup_checkpoint.json").exists():
                    assert proc.poll() is None and time.monotonic() < ends
                    time.sleep(0.02)
                children = children_of(proc.pid)
                assert len(children) == 3
                proc.kill()
                proc.wait()
                ends = time.monotonic() + 2
                while any(map(alive, children)) and time.monotonic() < ends:
                    time.sleep(0.05)
                assert not any(map(alive, children))
                assert "Traceback" not in proc.communicate(timeout=10)[1]
            finally:
                proc.kill()
                for child in filter(alive, children):
                    os.kill(child, signal.SIGKILL)

    def test_smoke_run_shares_warmup(self, tmp_path):
        out = tmp_path / "cmp"
        code = main(
            ["compare", "--warmup-epochs", "1", "--finetune-epochs", "1",
             "--train-size", "6", "--val-size", "3", "--seed", "2", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_report_csv(str(out / "comparison.csv"))
        assert header == ["loss", "warmup_sha256", "final_val_sisdri", "final_val_rscr"]
        assert [r[0] for r in rows] == ["plain", "scale", "weight"]
        assert len({r[1] for r in rows}) == 1  # same warm-up checkpoint hash
        for kind in ("plain", "scale", "weight"):
            assert (out / f"{kind}_checkpoint.json").exists()
            assert (out / f"{kind}_history.csv").exists()

    def test_divergence_exits_3_after_the_stages_before_it(self, tmp_path, monkeypatch, capsys):
        real_train = cli.train

        def diverging_scale(cfg, corpus, validation, setup, params, **kw):
            if setup.loss_kind is LossKind.SCALE:
                raise DivergenceDetected("scale diverged", [])
            return real_train(cfg, corpus, validation, setup, params, **kw)

        monkeypatch.setattr(cli, "train", diverging_scale)
        out = tmp_path / "cmp"
        code = main(
            ["compare", "--warmup-epochs", "1", "--finetune-epochs", "1",
             "--train-size", "4", "--val-size", "2", "--out", str(out)]
        )
        assert code == 3
        assert capsys.readouterr().err == "error: scale diverged\n"
        assert sorted(p.name for p in out.iterdir()) == [
            "plain_checkpoint.json", "plain_history.csv", "warmup_checkpoint.json"
        ]

    def test_zero_finetune_epochs_exits_2_before_training(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = main(
            ["compare", "--warmup-epochs", "1", "--finetune-epochs", "0",
             "--train-size", "4", "--val-size", "2", "--out", str(out)]
        )
        assert code == 2
        assert "--finetune-epochs" in capsys.readouterr().err
        assert not (out / "warmup_checkpoint.json").exists()

    # 1: the command starts with OpenBLAS already on one thread; None: at its default count
    @pytest.mark.parametrize("blas_threads", [1, None])
    def test_each_fine_tune_matches_an_in_process_train_byte_for_byte(self, tmp_path, blas_threads):
        out = tmp_path / "cmp"
        extra = ("--finetune-epochs", "2", "--seed", "3", "--weights", "4,3,2,1", "--gamma2", "2.5")
        with one_blas_thread() if blas_threads == 1 else nullcontext():
            assert main(compare_args(out, *extra)) == 0
        warm = load_checkpoint(str(out / "warmup_checkpoint.json"))
        setup = LossSetup(
            chunking=ChunkingConfig(chunk_len_ms=250.0, hop_ms=125.0),
            scale_cfg=ScaleLossConfig(gamma1=1.0, gamma2=2.5),
            weight_cfg=WeightLossConfig(weights=(4.0, 3.0, 2.0, 1.0)),
        )
        tune_cfg = TrainConfig(learning_rate=0.0002, epochs=2, batch=8, seed=3)
        corpus, validation = make_corpus(4, seed=3), make_corpus(2, seed=1003)
        for kind in LossKind:
            params, history = train(tune_cfg, corpus, validation, replace(setup, loss_kind=kind), warm)
            assert (out / f"{kind.value}_history.csv").read_text() == history_to_csv(history)
            save_checkpoint(str(tmp_path / "expected.json"), params)
            expected = (tmp_path / "expected.json").read_bytes()
            assert (out / f"{kind.value}_checkpoint.json").read_bytes() == expected

    def test_outputs_are_the_same_bytes_at_any_blas_thread_count(self, tmp_path):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        # `compare` with cli.worker_count returning argv[1]
        script = ("import sys; from chunksc import cli; cli.worker_count = lambda: int(sys.argv[1]); "
                  "sys.exit(cli.main(sys.argv[2:]))")
        outputs = {}
        for threads in ("1", "2"):
            for workers in ("0", "1", "2"):
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
                env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
                run_dir = tmp_path / f"threads{threads}-workers{workers}"
                run_dir.mkdir()
                subprocess.run(
                    [sys.executable, "-c", script, workers, *compare_args("cmp")],
                    cwd=run_dir, env=env, check=True, timeout=120,
                )
                outputs[threads, workers] = read_outputs(run_dir / "cmp")
        first = outputs["1", "0"]
        assert sorted(first) == sorted(
            ["comparison.csv", "warmup_checkpoint.json"]
            + [f"{kind.value}_{part}" for kind in LossKind
               for part in ("checkpoint.json", "history.csv")]
        )
        for key, files in outputs.items():
            for name, data in first.items():
                assert files.get(name) == data, (key, name)

    def test_no_fine_tune_process_outlives_the_command(self, tmp_path, monkeypatch):
        assert main(compare_args(tmp_path / "ok")) == 0
        assert multiprocessing.active_children() == []
        real_train = cli.train

        def plain_diverges_while_the_others_run(cfg, corpus, validation, setup, params, **kw):
            if cfg.epochs == 1:  # the warm-up
                return real_train(cfg, corpus, validation, setup, params, **kw)
            if setup.loss_kind is LossKind.PLAIN:
                raise DivergenceDetected("plain diverged", [])
            time.sleep(60)

        monkeypatch.setattr(cli, "train", plain_diverges_while_the_others_run)
        with deadline(30):
            assert main(compare_args(tmp_path / "diverged", "--finetune-epochs", "2")) == 3
        assert multiprocessing.active_children() == []

    def test_a_fine_tune_process_that_dies_exits_1_naming_it(self, tmp_path, monkeypatch, capsys):
        real_train = cli.train

        def weight_dies(cfg, corpus, validation, setup, params, **kw):
            if setup.loss_kind is LossKind.WEIGHT:
                os._exit(9)
            return real_train(cfg, corpus, validation, setup, params, **kw)

        monkeypatch.setattr(cli, "train", weight_dies)
        out = tmp_path / "cmp"
        with deadline(30):
            assert main(compare_args(out)) == 1
        assert capsys.readouterr().err == (
            "error: the weight fine-tune process ended with exit code 9 before sending a result\n"
        )
        assert multiprocessing.active_children() == []
        assert sorted(p.name for p in out.iterdir()) == [
            "plain_checkpoint.json", "plain_history.csv",
            "scale_checkpoint.json", "scale_history.csv", "warmup_checkpoint.json",
        ]

    def test_an_error_in_a_fine_tune_is_raised_from_its_traceback(self, tmp_path, monkeypatch):
        real_train = cli.train

        def weight_breaks(cfg, corpus, validation, setup, params, **kw):
            if setup.loss_kind is LossKind.WEIGHT:
                raise TypeError("broken")
            return real_train(cfg, corpus, validation, setup, params, **kw)

        monkeypatch.setattr(cli, "train", weight_breaks)
        with deadline(30), pytest.raises(TypeError, match="broken") as info:
            main(compare_args(tmp_path / "cmp"))
        cause = str(info.value.__cause__)
        assert cause.startswith("in the weight fine-tune:\nTraceback (most recent call last):")
        assert 'in weight_breaks\n    raise TypeError("broken")' in cause
        assert multiprocessing.active_children() == []

    def test_a_fine_tune_process_that_cannot_be_forked_exits_1_naming_it(
        self, tmp_path, monkeypatch, capsys
    ):
        def no_fork():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        assert main(compare_args(tmp_path / "cmp")) == 1
        assert capsys.readouterr().err == (
            "error: could not start the plain fine-tune process: "
            "[Errno 11] Resource temporarily unavailable\n"
        )
        assert multiprocessing.active_children() == []
