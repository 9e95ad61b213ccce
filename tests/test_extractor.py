import ctypes
import dataclasses
import io
import json
import math
import pickle
import re
import warnings

import numpy as np
import pytest
import scipy.special

from chunksc import (
    ActivityConfig,
    BinEdges,
    ChunkingConfig,
    DimensionMismatch,
    DivergenceDetected,
    EmptyInput,
    LossKind,
    ScaleLossConfig,
    SiSdrConfig,
    Waveform,
    WeightLossConfig,
    chunkwise_sisdri,
    gradient_check,
    losses,
    make_chunks,
    make_speakers,
    si_sdr,
)
from chunksc.extractor import (
    HistoryRow,
    LossSetup,
    ToyExtractorParams,
    TrainConfig,
    backward,
    checkpoint_text,
    enrollment_stats,
    evaluate_corpus,
    evaluate_loss,
    forward,
    history_to_csv,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
)
from chunksc import _blas, extractor
from chunksc._blas import one_blas_thread
from chunksc.signal_core import active_mask
from chunksc.synth import MixtureExample, gen_example, make_corpus

SPEAKERS = make_speakers(8, seed=0)
EXAMPLE = gen_example(SPEAKERS[0], SPEAKERS[1], 2.0, 0.0, seed=42)


def openblas_thread_controls():
    """(get, set) of the thread count of each OpenBLAS loaded into this
    process: numpy's 64-bit-index copy and scipy's copy."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split(None, 5)[5].strip() for line in fh if "openblas" in line})
    controls = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads"):
            if hasattr(lib, name.format("get")):
                controls.append((getattr(lib, name.format("get")), getattr(lib, name.format("set"))))
                break
    return controls


class TestInitAndShapes:
    def test_parameter_budget(self):
        p = init_params(0)
        assert p.count() == 18_624
        assert p.count() <= 50_000

    def test_deterministic(self):
        a, b = init_params(3), init_params(3)
        for f in dataclasses.fields(ToyExtractorParams):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name))

    def test_encoder_orthonormal_and_mirrored(self):
        p = init_params(1)
        gram = p.encoder.T @ p.encoder
        np.testing.assert_allclose(gram, np.eye(64), atol=1e-10)
        assert np.array_equal(p.decoder, p.encoder.T)

    def test_copy_is_deep(self):
        p = init_params(2)
        q = p.copy()
        q.encoder[0, 0] += 1.0
        assert p.encoder[0, 0] != q.encoder[0, 0]

    def test_shape_validation(self):
        p = init_params(0)
        p.decoder = p.decoder[:, :32]
        with pytest.raises(DimensionMismatch):
            forward(p, EXAMPLE.mixture, EXAMPLE.enrollment)


class TestEnrollmentStats:
    def test_unit_norm(self):
        s = enrollment_stats(EXAMPLE.enrollment)
        assert s.shape == (33,)
        assert np.linalg.norm(s) == pytest.approx(1.0)

    def test_shorter_than_one_frame_rejected(self):
        # Before, forward returned all-NaN output with only RuntimeWarnings.
        short = Waveform(EXAMPLE.enrollment.samples[:32], EXAMPLE.enrollment.sample_rate)
        with pytest.raises(ValueError, match="32 samples"):
            forward(init_params(0), EXAMPLE.mixture, short)

    def test_distinguishes_speakers(self):
        a = gen_example(SPEAKERS[0], SPEAKERS[1], 2.0, 0.0, seed=1)
        b = gen_example(SPEAKERS[5], SPEAKERS[1], 2.0, 0.0, seed=1)
        sa = enrollment_stats(a.enrollment)
        sb = enrollment_stats(b.enrollment)
        assert float(sa @ sb) < 0.9


class TestForward:
    def test_output_length_and_determinism(self):
        p = init_params(0)
        est1 = forward(p, EXAMPLE.mixture, EXAMPLE.enrollment)
        est2 = forward(p, EXAMPLE.mixture, EXAMPLE.enrollment)
        assert len(est1) == len(EXAMPLE.mixture)
        assert np.array_equal(est1.samples, est2.samples)
        assert np.isfinite(est1.samples).all()

    def test_saturated_open_mask_is_passthrough(self):
        # Bias the mask output far positive: sigmoid -> 1, and with the
        # orthonormal encoder/decoder the pipeline reproduces the mixture.
        p = init_params(0)
        p.mask_b2 = np.full(64, 800.0)
        p.mask_w2 = np.zeros_like(p.mask_w2)
        est = forward(p, EXAMPLE.mixture, EXAMPLE.enrollment)
        np.testing.assert_allclose(est.samples, EXAMPLE.mixture.samples, atol=1e-9)

    def test_saturated_closed_mask_silences(self):
        p = init_params(0)
        p.mask_b2 = np.full(64, -800.0)
        p.mask_w2 = np.zeros_like(p.mask_w2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = forward(p, EXAMPLE.mixture, EXAMPLE.enrollment)
        assert np.max(np.abs(est.samples)) < 1e-6

    def test_handles_non_frame_multiple_length(self):
        p = init_params(0)
        mix = Waveform(EXAMPLE.mixture.samples[:1000], EXAMPLE.mixture.sample_rate)
        est = forward(p, mix, EXAMPLE.enrollment)
        assert len(est) == 1000


class TestSigmoid:
    def test_matches_scipy_expit(self):
        x = np.concatenate([np.linspace(-800.0, 800.0, 160_001),
                            [0.0, -0.0, 1e-300, -1e-300, 745.2, -745.2]])
        np.testing.assert_allclose(extractor.expit(x), scipy.special.expit(x), rtol=1e-15, atol=1e-300)

    def test_saturates_to_exactly_0_and_1_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = extractor.expit(np.array([-800.0, -745.2, 745.2, 800.0]))
        assert got.tolist() == [0.0, 0.0, 1.0, 1.0]


def loud_params(seed):
    """Init with a boosted decoder so the output clears the chunk activity
    threshold, keeping the chunk-based losses on their main branch."""
    p = init_params(seed)
    p.decoder = p.decoder * 6.0
    return p


def plain_signature(est, ex, setup):
    v = si_sdr(est, ex.target, setup.sisdr_cfg)
    return (abs(v) >= setup.sisdr_cfg.clamp_db,)


def chunk_energies(w, chunks):
    """Sum of squares of w over each chunk."""
    rows = chunks.rows(w.samples)
    return np.vecdot(rows, rows)


def weight_signature(est, ex, setup):
    chunks = make_chunks(len(est), setup.chunking, est.sample_rate)
    mask = active_mask(chunk_energies(ex.target, chunks), chunk_energies(est, chunks), setup.activity)
    active = tuple(mask.tolist())
    vals = chunkwise_sisdri(est, ex.target, ex.mixture, chunks, setup.sisdr_cfg)
    classes = tuple(
        setup.bins.classify(float(v))
        for v, a in zip(vals, active)
        if a and not math.isnan(v)
    )
    return (active, classes)


def param_fd_worst(p, ex, setup, signature_fn, n_coords, seed, h=1e-3):
    """Max relative error of backward() against Richardson-extrapolated
    central differences on randomly sampled parameter coordinates.

    Coordinates whose perturbation flips a branch signature are skipped: the
    objective is non-differentiable there.
    """
    grads, _ = backward(p, ex, setup)
    names = [f.name for f in dataclasses.fields(ToyExtractorParams)]
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    while checked < n_coords:
        name = names[int(rng.integers(len(names)))]
        arr = getattr(p, name)
        flat = int(rng.integers(arr.size))
        idx = np.unravel_index(flat, arr.shape)

        def value_sig(delta):
            q = p.copy()
            getattr(q, name)[idx] += delta
            est = forward(q, ex.mixture, ex.enrollment)
            return evaluate_loss(est, ex, setup).value, signature_fn(est, ex, setup)

        evals = [value_sig(d) for d in (h, -h, h / 2, -h / 2)]
        if len({sig for _, sig in evals}) != 1:
            continue
        (vp, _), (vm, _), (vp2, _), (vm2, _) = evals
        d_h = (vp - vm) / (2.0 * h)
        d_h2 = (vp2 - vm2) / h
        numerical = (4.0 * d_h2 - d_h) / 3.0
        analytic = float(getattr(grads, name)[idx])
        rel = abs(analytic - numerical) / max(abs(analytic), abs(numerical), 1e-8)
        worst = max(worst, rel)
        checked += 1
    return worst


class TestBackward:
    def test_gradient_shapes_and_finiteness(self):
        grads, result = backward(init_params(0), EXAMPLE, LossSetup())
        p = init_params(0)
        for f in dataclasses.fields(ToyExtractorParams):
            g = getattr(grads, f.name)
            assert g.shape == getattr(p, f.name).shape
            assert np.isfinite(g).all()
        assert math.isfinite(result.value)

    def test_plain_loss_parameter_gradients_match_fd(self):
        setup = LossSetup(loss_kind=LossKind.PLAIN)
        for seed in range(3):
            p = loud_params(seed)
            worst = param_fd_worst(p, EXAMPLE, setup, plain_signature, 30, seed)
            assert worst < 1e-4

    def test_weight_loss_parameter_gradients_match_fd(self):
        setup = LossSetup(loss_kind=LossKind.WEIGHT)
        for seed in range(2):
            p = loud_params(seed)
            worst = param_fd_worst(p, EXAMPLE, setup, weight_signature, 25, seed)
            assert worst < 1e-4

    def test_weight_loss_falls_back_when_output_silent(self):
        # A closed mask produces near-silence, no chunk is active, and the
        # weighted objective defers to the plain one, flagged degenerate.
        p = init_params(0)
        p.mask_b2 = np.full(64, -800.0)
        p.mask_w2 = np.zeros_like(p.mask_w2)
        est = forward(p, EXAMPLE.mixture, EXAMPLE.enrollment)
        setup = LossSetup(loss_kind=LossKind.WEIGHT)
        res = evaluate_loss(est, EXAMPLE, setup)
        plain = evaluate_loss(est, EXAMPLE, LossSetup(loss_kind=LossKind.PLAIN))
        assert res.value == plain.value
        assert res.degenerate

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_gradient_check_checks_the_loss_training_runs(self, monkeypatch, kind):
        rng = np.random.default_rng(17)
        t = rng.normal(size=256)
        ex = MixtureExample(
            mixture=Waveform(t + rng.normal(size=256), 8000),
            target=Waveform(t, 8000),
            interferer=Waveform(rng.normal(size=256), 8000),
            enrollment=Waveform(rng.normal(size=256), 8000),
            target_id=0,
        )
        noise = 0.8 * rng.normal(size=256)
        noise[:64] = 0.0  # the first chunk is perfect, so its SI-SDR is clamped
        est = Waveform(t + noise, 8000)
        # 64-sample chunks: the default 250 ms would not fit the 256 samples,
        # so the check must take its grid from the setup
        setup = LossSetup(
            chunking=ChunkingConfig(8, 4),
            activity=ActivityConfig(eta_db=12.0),
            sisdr_cfg=SiSdrConfig(clamp_db=40.0),
            scale_cfg=ScaleLossConfig(gamma1=2.0, gamma2=0.5),
            weight_cfg=WeightLossConfig(weights=(4.0, 3.0, 2.0, 0.5)),
            bins=BinEdges((-4.0, 0.0, 4.0)),
        )
        checked = []
        real = losses.compute_loss
        monkeypatch.setattr(losses, "compute_loss", lambda *a: checked.append(real(*a)) or checked[-1])
        gradient_check(dataclasses.replace(setup, loss_kind=kind), est, ex.target, ex.mixture)
        trained = evaluate_loss(est, ex, dataclasses.replace(setup, loss_kind=kind))
        assert checked[0].value == trained.value
        assert np.array_equal(checked[0].grad_estimate, trained.grad_estimate)


class TestTraining:
    CORPUS = make_corpus(12, seed=100)
    VAL = make_corpus(4, seed=101)

    def test_zero_epochs_returns_start(self):
        cfg = TrainConfig(epochs=0, seed=0)
        params, history = train(cfg, self.CORPUS, self.VAL)
        assert history == []
        start = init_params(0)
        assert np.array_equal(params.encoder, start.encoder)

    def test_history_layout(self):
        cfg = TrainConfig(epochs=2, learning_rate=0.1, seed=0)
        _, history = train(cfg, self.CORPUS, self.VAL)
        assert [row.epoch for row in history] == [0, 1, 2]
        assert math.isnan(history[0].train_loss)
        assert all(math.isfinite(row.train_loss) for row in history[1:])
        assert all(math.isfinite(row.val_sisdri) for row in history)

    def test_deterministic_in_seed(self):
        cfg = TrainConfig(epochs=2, learning_rate=0.1, seed=5)
        p1, h1 = train(cfg, self.CORPUS, self.VAL)
        p2, h2 = train(cfg, self.CORPUS, self.VAL)
        # compare via the fixed-format serialization: NaN-safe and exact
        assert history_to_csv(h1) == history_to_csv(h2)
        assert np.array_equal(p1.encoder, p2.encoder)
        assert np.array_equal(p1.mask_w1, p2.mask_w1)

    def test_setup_loss_kind_is_the_loss_trained(self):
        cfg = TrainConfig(epochs=1, learning_rate=0.1, seed=0)
        _, plain = train(cfg, self.CORPUS, self.VAL, LossSetup(loss_kind=LossKind.PLAIN))
        _, weight = train(cfg, self.CORPUS, self.VAL, LossSetup(loss_kind=LossKind.WEIGHT))
        assert weight[1].train_loss != plain[1].train_loss
        assert history_to_csv(weight) != history_to_csv(plain)

    def test_training_improves_validation(self):
        cfg = TrainConfig(epochs=8, learning_rate=0.2, seed=0)
        _, history = train(cfg, self.CORPUS, self.VAL)
        assert history[-1].val_sisdri > history[0].val_sisdri

    def test_start_scores_stand_in_for_scoring_the_start(self, monkeypatch):
        start, _ = train(TrainConfig(epochs=1, learning_rate=0.2, seed=3), self.CORPUS, self.VAL)
        setup = LossSetup(loss_kind=LossKind.WEIGHT)
        cfg = TrainConfig(epochs=2, learning_rate=0.01, seed=3)
        scores = evaluate_corpus(start, self.VAL, setup)
        calls, real_evaluate = [], extractor.evaluate_corpus

        def counting(*args):
            calls.append(None)
            return real_evaluate(*args)

        monkeypatch.setattr(extractor, "evaluate_corpus", counting)
        p1, h1 = train(cfg, self.CORPUS, self.VAL, setup, start, start_scores=scores)
        assert len(calls) == cfg.epochs
        p2, h2 = train(cfg, self.CORPUS, self.VAL, setup, start)
        assert len(calls) == 2 * cfg.epochs + 1
        assert history_to_csv(h1) == history_to_csv(h2)
        assert checkpoint_text(p1) == checkpoint_text(p2)

    def test_each_batch_steps_by_the_summed_gradients_of_its_own_examples(self):
        # 5 examples in batches of 3: the last batch, of 2, must not add the
        # slot its position 2 held in the batch before
        cfg = TrainConfig(epochs=1, learning_rate=0.1, batch=3, seed=2)
        corpus, setup = self.CORPUS[:5], LossSetup()
        params, _ = train(cfg, corpus, self.VAL[:1], setup, start_scores=(0.0, 0.0))
        expected = init_params(cfg.seed)
        order = np.random.default_rng(cfg.seed).permutation(len(corpus))
        for batch in (order[:3], order[3:]):
            with one_blas_thread():  # as train runs
                grads = [backward(expected, corpus[i], setup)[0] for i in batch]
            for f in dataclasses.fields(expected):
                total = getattr(grads[0], f.name)
                for g in grads[1:]:
                    total += getattr(g, f.name)
                getattr(expected, f.name).__isub__(cfg.learning_rate / len(batch) * total)
        assert checkpoint_text(params) == checkpoint_text(expected)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_summed_slots_are_the_in_order_chain_to_the_bit(self, n):
        # train adds a batch's gradient slots with one axis-0 sum per
        # parameter; every output's bytes rest on it adding them in batch
        # order, as a `+=` chain over the batch does, signed zeros included
        rng = np.random.default_rng(n)
        slots = init_params(0).zeros(8)
        for f in dataclasses.fields(slots):
            s = getattr(slots, f.name)
            s[...] = rng.standard_normal(s.shape) * np.exp(rng.uniform(-30, 30, s.shape))
            s[rng.random(s.shape) < 0.3] = -0.0
            s[rng.random(s.shape) < 0.1] = 0.0
            s[:, 0] = -0.0
            chain = s[0].copy()
            for k in range(1, n):
                chain += s[k]
            assert s[:n].sum(axis=0, initial=-0.0).tobytes() == chain.tobytes(), f.name

    def test_divergence_reported_with_history(self):
        bad = init_params(0)
        bad.encoder = bad.encoder * np.nan
        cfg = TrainConfig(epochs=2, learning_rate=0.1, seed=0)
        with pytest.raises(DivergenceDetected) as exc:
            train(cfg, self.CORPUS, self.VAL, start_params=bad)
        assert isinstance(exc.value.history, list)

    # extractor calls, one per forward or backward: 4 validation examples
    # for epoch 0, then 12 training and 4 validation examples per epoch
    @pytest.mark.parametrize(
        "first_bad_call, epochs_done",
        [(1, []), (5, [0]), (17, [0]), (21, [0, 1])],
        ids=["epoch0-validation", "epoch1-step", "epoch1-validation", "epoch2-step"],
    )
    def test_non_finite_estimate_reports_the_completed_epochs(
        self, monkeypatch, first_bad_call, epochs_done
    ):
        calls, expit = [], extractor.expit

        def poisoned(a):
            calls.append(None)
            return expit(a) * (np.nan if len(calls) >= first_bad_call else 1.0)

        monkeypatch.setattr(extractor, "expit", poisoned)
        cfg = TrainConfig(epochs=3, learning_rate=0.1, seed=0)
        with pytest.raises(DivergenceDetected, match="non-finite extractor output") as exc:
            train(cfg, self.CORPUS, self.VAL)
        assert [row.epoch for row in exc.value.history] == epochs_done
        assert str(exc.value).endswith(f"in epoch {len(epochs_done)}")

    def test_divergence_survives_pickling(self):
        rows = [HistoryRow(0, float("nan"), 1.25, 50.0)]
        back = pickle.loads(pickle.dumps(DivergenceDetected("diverged", rows)))
        assert isinstance(back, DivergenceDetected)
        assert str(back) == "diverged"
        assert history_to_csv(back.history) == history_to_csv(rows)  # NaN-safe

    @pytest.mark.parametrize("diverges", [False, True], ids=["trains", "diverges"])
    def test_runs_on_one_blas_thread_and_restores_the_count(self, monkeypatch, diverges):
        controls = openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS is loaded")
        found = [get() for get, _ in controls]
        seen, real_backward = [], extractor.backward

        def recording(*args):
            seen.append([get() for get, _ in controls])
            return real_backward(*args)

        monkeypatch.setattr(extractor, "backward", recording)
        start = init_params(0)
        if diverges:
            start.mask_b2[:] = np.nan
        try:
            for _, set_threads in controls:
                set_threads(2)
            try:
                train(TrainConfig(epochs=1, seed=0), self.CORPUS, self.VAL, start_params=start)
            except DivergenceDetected:
                assert diverges
            after = [get() for get, _ in controls]
        finally:
            for (_, set_threads), threads in zip(controls, found):
                set_threads(threads)
        assert after == [2] * len(controls)
        assert seen == ([] if diverges else [[1] * len(controls)] * len(self.CORPUS))

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train(TrainConfig(), [], self.VAL)

    def test_invalid_config_rejected(self):
        for field, value in (("learning_rate", 0.0), ("epochs", -1), ("batch", 0), ("seed", -1)):
            with pytest.raises(ValueError) as exc:
                TrainConfig(**{field: value})
            assert (exc.value.field, exc.value.value) == (field, value)


def test_one_blas_thread_finds_the_libraries_once_and_restores_each_count():
    controls = openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS is loaded")
    found = [get() for get, _ in controls]
    _blas._find_openblas.cache_clear()
    try:
        for _, set_threads in controls:
            set_threads(2)
        with one_blas_thread():
            inside = [get() for get, _ in controls]
        with pytest.raises(RuntimeError), one_blas_thread():
            raise RuntimeError("fails while pinned")
        after = [get() for get, _ in controls]
    finally:
        for (_, set_threads), threads in zip(controls, found):
            set_threads(threads)
    assert inside == [1] * len(controls)
    assert after == [2] * len(controls)
    assert _blas._find_openblas.cache_info().misses == 1


class TestEvaluateCorpus:
    def test_open_mask_scores_mixture_level(self):
        # Passthrough output == mixture, so mean improvement is exactly 0.
        p = init_params(0)
        p.mask_b2 = np.full(64, 800.0)
        p.mask_w2 = np.zeros_like(p.mask_w2)
        corpus = make_corpus(3, seed=200)
        sisdri, rscr = evaluate_corpus(p, corpus, LossSetup())
        assert sisdri == pytest.approx(0.0, abs=1e-6)
        assert 0.0 <= rscr <= 100.0

    def test_empty_corpus_raises_empty_input(self):
        with pytest.raises(EmptyInput):
            evaluate_corpus(init_params(0), [], LossSetup())


class TestSerialization:
    def test_checkpoint_round_trip(self, tmp_path):
        p = init_params(4)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(path, p)
        q = load_checkpoint(path)
        for f in dataclasses.fields(ToyExtractorParams):
            assert np.array_equal(getattr(p, f.name), getattr(q, f.name))

    def test_checkpoint_bytes_are_those_of_json_dump(self, tmp_path):
        # pins the file format, and with it the warm-up hash `compare` reports
        p = init_params(4)
        p.mask_b1[:6] = [-0.0, 5e-324, 1.0 / 3.0, 1e16, -2.5e-300, 123456789.125]
        path = tmp_path / "ckpt.json"
        save_checkpoint(str(path), p)
        payload = {
            "format": "chunksc-params-v1",
            "arrays": {
                f.name: {
                    "shape": list(getattr(p, f.name).shape),
                    "data": getattr(p, f.name).ravel().tolist(),
                }
                for f in dataclasses.fields(ToyExtractorParams)
            },
        }
        expected = io.StringIO()
        json.dump(payload, expected)
        assert path.read_bytes() == expected.getvalue().encode()

    def test_checkpoint_text_is_what_save_checkpoint_writes(self, tmp_path):
        p = init_params(4)
        p.mask_b1[:6] = [-0.0, 5e-324, 1.0 / 3.0, 1e16, -2.5e-300, 123456789.125]
        path = tmp_path / "ckpt.json"
        save_checkpoint(str(path), p)
        text = checkpoint_text(p)
        assert path.read_bytes() == text.encode()
        save_checkpoint(str(path), text)  # the text is written as it is
        assert path.read_bytes() == text.encode()

    def test_checkpoint_reads_back_to_the_bit(self, tmp_path):
        p = init_params(4)
        p.mask_b1[:6] = [-0.0, 5e-324, 1.0 / 3.0, 1e16, -2.5e-300, 123456789.125]
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(path, p)
        q = load_checkpoint(path)
        for f in dataclasses.fields(ToyExtractorParams):
            assert getattr(q, f.name).tobytes() == getattr(p, f.name).tobytes(), f.name

    @pytest.mark.parametrize(
        "case", ["other-format", "missing-array", "bad-shape", "shapes-disagree", "other-size",
                 "strings", "booleans", "nulls", "nan"]
    )
    def test_checkpoint_format_guard(self, tmp_path, case):
        payload = json.loads(checkpoint_text(init_params(4)))
        arrays = payload["arrays"]
        if case == "other-format":
            payload = {"format": "something-else"}
        elif case == "missing-array":
            del arrays["mask_b1"]
        elif case == "bad-shape":  # 64 values cannot fill it
            arrays["mask_b1"]["shape"] = [65]
        elif case == "shapes-disagree":  # a bias of 32 for mask_w1's 64 hidden units
            arrays["mask_b1"] = {"shape": [32], "data": [0.0] * 32}
        elif case in ("strings", "booleans", "nulls", "nan"):  # data that are no finite numbers
            arrays["mask_b1"]["data"][5] = {"strings": "0", "booleans": True, "nulls": None,
                                            "nan": math.nan}[case]
        else:  # 32 features throughout: the arrays fit together, but not the extractor
            shapes = {"encoder": [64, 32], "spk_encoder": [33, 32], "mask_w1": [32, 64],
                      "mask_b1": [64], "mask_w2": [64, 32], "mask_b2": [32], "decoder": [32, 64]}
            for name, shape in shapes.items():
                arrays[name] = {"shape": shape, "data": [0.0] * math.prod(shape)}
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: ") as exc:
            load_checkpoint(str(path))
        if case in ("strings", "booleans", "nulls", "nan"):
            assert str(exc.value) == f"{path}: mask_b1 holds data that are not all finite numbers"

    def test_history_csv_format(self):
        from chunksc.extractor import HistoryRow

        rows = [
            HistoryRow(0, float("nan"), 1.25, 50.0),
            HistoryRow(1, -3.5, 2.0, 40.0),
        ]
        text = history_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "epoch,train_loss,val_sisdri,val_rscr"
        assert lines[1] == "0,nan,1.250000,50.000000"
        assert lines[2] == "1,-3.500000,2.000000,40.000000"
