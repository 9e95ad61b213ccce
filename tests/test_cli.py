import errno
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import replace

import numpy as np
import pytest

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
            (["--chunk-ms", "0.01"], "under 1 sample"),
            (["--chunk-ms", "inf"], "must be finite"),
            (["--hop-ms", "inf", "--eval-hop", "overlap"], "must be finite"),
            (["--clamp-db", "nan"], "clamp_db"),
        ],
        ids=["chunk-under-1-sample", "chunk-inf", "hop-inf", "clamp-nan"],
    )
    def test_unusable_chunk_or_clamp_setting_exits_2(self, tmp_path, corpus, capsys, flags, message):
        manifest = manifest_for(tmp_path, corpus, "target")
        assert main(["eval", "--manifest", manifest, "--out", str(tmp_path / "r.csv"), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "Traceback" not in err

    def test_infinite_clamp_exits_2_without_a_report(self, tmp_path, corpus, capsys):
        manifest = manifest_for(tmp_path, corpus, "target")
        out = tmp_path / "r.json"
        for value in ("inf", "-inf"):
            assert main(["eval", "--manifest", manifest, "--out", str(out), f"--clamp-db={value}"]) == 2
            assert capsys.readouterr().err == f"error: --clamp-db must be finite, got {float(value)}\n"
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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--lr", "nan"], "learning_rate"),
            (["--lr", "inf"], "learning_rate"),
            (["--finetune-lr", "nan", "--warmup-epochs", "1"], "learning_rate"),
            (["--duration", "inf"], "duration_s"),
            (["--duration", "nan"], "duration_s"),
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
                      ("--train-size", "-3")):
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

    def test_non_finite_weights_exit_2_before_out_is_made(self, tmp_path, capsys):
        out = tmp_path / "run"
        for weights in ("inf,inf,1,1", "5,5,1,nan"):
            assert main(train_args(str(out), extra=("--loss", "weight", "--weights", weights))) == 2
            assert capsys.readouterr().err.startswith("error: weights must be finite, got (")
            assert not out.exists()

    def test_unusable_out_fails_before_any_epoch(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "taken"
        out.write_text("a file, not a directory")
        monkeypatch.setattr(cli, "train", lambda *a: pytest.fail("trained before --out was made"))
        assert main(train_args(str(out))) == 2
        assert "Traceback" not in capsys.readouterr().err

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
    exit code and the number of workers that started."""
    started = []

    def workers(*a):
        pool = Workers(*a)
        started.append(len(pool._workers))
        return pool

    monkeypatch.setattr(cli, "worker_count", lambda: n_workers)
    monkeypatch.setattr(cli, "Workers", workers)
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    with deadline(60):
        return main(args), started


class TestWorkers:
    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_outputs_are_the_same_bytes_at_any_worker_count(self, tmp_path, monkeypatch, command):
        args = (compare_args("run") if command == "compare"
                else train_args("run", extra=("--warmup-epochs", "1", "--loss", "scale")))
        outputs = {}
        for n in (0, 1, 2):
            code, started = run_with_workers(monkeypatch, tmp_path / f"w{n}", n, args)
            assert (code, started) == (0, [n])
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
            assert (code, started) == (3, [n])
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

        def second_fork_fails():
            forks.append(os.getpid())
            if len(forks) == 2:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return real_fork()

        monkeypatch.setattr(os, "fork", second_fork_fails)
        code, started = run_with_workers(monkeypatch, tmp_path / "w2", 2, compare_args("run"))
        assert (code, started, len(forks)) == (0, [1], 5)  # 2 workers asked, 3 fine-tunes
        assert read_outputs(tmp_path / "w2" / "run") == read_outputs(tmp_path / "w0" / "run")
        assert multiprocessing.active_children() == []


class TestCompare:
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
