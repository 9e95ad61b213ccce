"""Acceptance gate: every criterion prints a single PASS/FAIL line.

Each test computes its verdict first, emits the line outside pytest's
capture so it is always visible, and only then asserts. The criteria pin
down the library's core promises: oracle-exact SI-SDR, scale invariance,
chunk bookkeeping, the analytic gradients of all three training objectives,
and a desk-scale directional reproduction of the central claim that the
class-weighted objective reduces chunk-level speaker confusion without
collapsing reconstruction quality.
"""

import math
import statistics

import numpy as np
import pytest

from chunksc import (
    ChunkingConfig,
    LossKind,
    LossSetup,
    ScaleLossConfig,
    Waveform,
    gradient_check,
    loss_scale_sisdr,
    loss_sisdr,
    make_chunks,
    make_corpus,
    sc_statistics,
    si_sdr,
    write_wav,
)
from chunksc.cli import main
from chunksc.extractor import backward, evaluate_loss, forward, init_params

RATE = 8000

# Verified sweet-spot finite-difference steps per objective (see the loss
# test module for the sweep rationale).
FD_STEP = {LossKind.PLAIN: 3e-4, LossKind.SCALE: 3e-4, LossKind.WEIGHT: 1e-4}
SCALE_CFG = ScaleLossConfig(gamma1=1.0, gamma2=0.5)
# The chunking of every random loss instance, and of the LossSetup its
# gradient is checked with.
CHUNKING = ChunkingConfig(16, 8)


def wav(x):
    return Waveform(np.asarray(x, dtype=float), RATE)


def report(capsys, num, name, ok):
    with capsys.disabled():
        print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def random_loss_instance(seed, n=512):
    rng = np.random.default_rng(seed)
    t = rng.normal(size=n)
    m = t + rng.normal(size=n)
    e = t + rng.uniform(0.3, 1.5) * rng.normal(size=n)
    chunks = make_chunks(n, CHUNKING, RATE)
    return wav(e), wav(t), wav(m), chunks


def test_criterion_01_si_sdr_oracle_equivalence(capsys):
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(200):
        n = int(rng.integers(8, 65))
        t = rng.normal(size=n)
        e = t + rng.uniform(0.05, 2.0) * rng.normal(size=n)
        alpha = float(e @ t) / float(t @ t)
        s = alpha * t
        r = e - s
        # compare on the linear ratio so the tolerance is scale-free
        lib_ratio = 10.0 ** (si_sdr(wav(e), wav(t)) / 10.0)
        ref_ratio = (float(s @ s) + 1e-12) / (float(r @ r) + 1e-12)
        ref_ratio = min(max(ref_ratio, 1e-6), 1e6)  # clamp in ratio space
        if abs(lib_ratio - ref_ratio) > 1e-9 * ref_ratio:
            ok = False
            break
    report(capsys, 1, "si_sdr matches independent oracle", ok)


def test_criterion_02_scale_invariance(capsys):
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(100):
        n = int(rng.integers(32, 256))
        t = rng.normal(size=n)
        e = t + rng.uniform(0.1, 1.5) * rng.normal(size=n)
        base = si_sdr(wav(e), wav(t))
        for c in (1e-3, 0.5, 2.0, 1e3, -1.0):
            if abs(si_sdr(wav(c * e), wav(t)) - base) > 1e-9 + 1e-6 * abs(base):
                ok = False
            if c > 0 and abs(si_sdr(wav(e), wav(c * t)) - base) > 1e-9 + 1e-6 * abs(base):
                ok = False
    report(capsys, 2, "scale invariance of si_sdr", ok)


def test_criterion_03_chunk_count_formula(capsys):
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(1000):
        chunk_len = int(rng.integers(2, 300))
        hop = int(rng.integers(1, chunk_len + 1))
        n = int(rng.integers(chunk_len, 3000))
        chunks = make_chunks(n, ChunkingConfig(chunk_len, hop), 1000)
        formula = math.ceil((n - chunk_len) / hop) + 1
        starts = [0]
        while starts[-1] + chunk_len < n:
            starts.append(starts[-1] + hop)
        if len(chunks) != formula or [c.start for c in chunks] != starts:
            ok = False
            break
    report(capsys, 3, "chunk count formula vs enumeration", ok)


def test_criterion_04_confusion_bookkeeping(capsys):
    ok = True
    checked = 0
    for seed in range(300):
        e, t, m, chunks = random_loss_instance(seed, n=2048)
        stats = sc_statistics(e, t, m, chunks)
        if stats.degenerate:
            continue
        checked += 1
        if sum(stats.class_freq) != stats.n_valid:
            ok = False
        if stats.n_sc > stats.class_freq[0] + stats.class_freq[1]:
            ok = False
        if stats.r_scr != 100.0 * stats.n_sc / stats.n_valid:
            ok = False
        if checked >= 100:
            break
    ok = ok and checked >= 100
    report(capsys, 4, "chunk confusion bookkeeping identities", ok)


def test_criterion_05_scaled_loss_collapse(capsys):
    ok = True
    hits = 0
    for seed in range(400):
        e, t, m, chunks = random_loss_instance(seed)
        stats = sc_statistics(e, t, m, chunks)
        if stats.degenerate or stats.n_sc != 0:
            continue
        hits += 1
        plain = loss_sisdr(e, t)
        scaled = loss_scale_sisdr(e, t, m, chunks)
        if scaled.value != plain.value or not np.array_equal(
            scaled.grad_estimate, plain.grad_estimate
        ):
            ok = False
        if hits >= 50:
            break
    ok = ok and hits >= 50
    report(capsys, 5, "scaled loss collapses to plain at zero confusion", ok)


def test_criterion_06_scaled_loss_substitution(capsys):
    def scaled_value(r, v):
        alpha = 1.0 - r if v >= 0 else 1.0 + r
        return -alpha * v

    ok = abs(scaled_value(0.2, 10.0) - (-8.0)) <= 1e-12
    ok = ok and abs(scaled_value(0.2, -5.0) - 6.0) <= 1e-12
    report(capsys, 6, "scaled loss direct substitution values", ok)


def test_criterion_07_unit_weight_collapse(capsys):
    from chunksc import WeightLossConfig, loss_weight_sisdr

    wcfg = WeightLossConfig(weights=(1.0, 1.0, 1.0, 1.0))
    ok = True
    hits = 0
    for seed in range(200):
        e, t, m, chunks = random_loss_instance(seed)
        stats = sc_statistics(e, t, m, chunks)
        if stats.degenerate:
            continue
        hits += 1
        res = loss_weight_sisdr(e, t, m, chunks, wcfg=wcfg)
        if abs(res.value - (-float(np.mean(stats.chunk_sisdri)))) > 1e-12:
            ok = False
        if hits >= 50:
            break
    ok = ok and hits >= 50
    report(capsys, 7, "unit-weight loss equals negative mean improvement", ok)


def test_criterion_08_gradient_checks(capsys):
    ok = True
    for kind in LossKind:
        for seed in range(50):
            e, t, m, _ = random_loss_instance(seed)
            setup = LossSetup(kind, chunking=CHUNKING, scale_cfg=SCALE_CFG)
            err = gradient_check(setup, e, t, m, fd_step=FD_STEP[kind])
            if err >= 1e-5:
                ok = False

    # end-to-end parameter gradients of the toy extractor vs Richardson-
    # extrapolated central differences on sampled coordinates
    import dataclasses

    from chunksc.synth import gen_example, make_speakers

    speakers = make_speakers(8, seed=0)
    ex = gen_example(speakers[0], speakers[1], 2.0, 0.0, seed=42)
    setup = LossSetup(loss_kind=LossKind.PLAIN)
    p = init_params(0)
    p.decoder = p.decoder * 6.0  # keep the output above the activity gate
    grads, _ = backward(p, ex, setup)
    names = [f.name for f in dataclasses.fields(type(p))]
    rng = np.random.default_rng(8)
    h = 1e-3
    for _ in range(40):
        name = names[int(rng.integers(len(names)))]
        arr = getattr(p, name)
        idx = np.unravel_index(int(rng.integers(arr.size)), arr.shape)

        def value_at(delta):
            q = p.copy()
            getattr(q, name)[idx] += delta
            est = forward(q, ex.mixture, ex.enrollment)
            return evaluate_loss(est, ex, setup).value

        d_h = (value_at(h) - value_at(-h)) / (2.0 * h)
        d_h2 = (value_at(h / 2) - value_at(-h / 2)) / h
        numerical = (4.0 * d_h2 - d_h) / 3.0
        analytic = float(getattr(grads, name)[idx])
        if abs(analytic - numerical) / max(abs(analytic), abs(numerical), 1e-8) >= 1e-4:
            ok = False
    report(capsys, 8, "analytic gradients match finite differences", ok)


def test_criterion_09_gradient_orthogonal_to_estimate(capsys):
    ok = True
    for seed in range(100):
        e, t, _, _ = random_loss_instance(seed, n=256)
        g = loss_sisdr(e, t).grad_estimate
        bound = 1e-8 * np.linalg.norm(g) * np.linalg.norm(e.samples)
        if abs(float(g @ e.samples)) > bound:
            ok = False
    report(capsys, 9, "loss gradient orthogonal to estimate direction", ok)


def test_criterion_10_directional_confusion_reduction(capsys, tmp_path):
    # Warm-up with the plain objective, then fine-tune each objective from
    # the shared warm start; over 5 seeds the weighted objective must not
    # increase the median confusion ratio and must stay within 1 dB of the
    # plain objective's median reconstruction quality.
    finals = {"plain": [], "weight": []}
    for seed in range(5):
        out = tmp_path / f"cmp{seed}"
        code = main(
            [
                "compare",
                "--warmup-epochs", "20",
                "--finetune-epochs", "10",
                "--train-size", "200",
                "--val-size", "50",
                "--lr", "0.2",
                "--finetune-lr", "0.0002",
                "--seed", str(seed),
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = [
            l for l in (out / "comparison.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        for line in lines[1:]:
            loss, _, sisdri, rscr = line.split(",")
            if loss in finals:
                finals[loss].append((float(sisdri), float(rscr)))
    med = {
        k: (
            statistics.median(v[0] for v in vals),
            statistics.median(v[1] for v in vals),
        )
        for k, vals in finals.items()
    }
    rscr_ok = med["weight"][1] <= med["plain"][1]
    gap_ok = abs(med["plain"][0] - med["weight"][0]) <= 1.0
    with capsys.disabled():
        print(
            f"    median si_sdri plain={med['plain'][0]:.2f} dB "
            f"weight={med['weight'][0]:.2f} dB; "
            f"median r_scr plain={med['plain'][1]:.1f}% weight={med['weight'][1]:.1f}%"
        )
    report(capsys, 10, "weighted loss reduces confusion without collapse", rscr_ok and gap_ok)


def test_criterion_11_training_determinism(capsys, tmp_path):
    out = tmp_path / "det"
    args = [
        "train", "--epochs", "5", "--train-size", "30", "--val-size", "10",
        "--seed", "7", "--out", str(out),
    ]
    assert main(args) == 0
    first = (out / "history.csv").read_bytes()
    assert main(args) == 0
    ok = (out / "history.csv").read_bytes() == first
    report(capsys, 11, "identical seeds give byte-identical training history", ok)


def test_criterion_12_cli_round_trip(capsys, tmp_path):
    corpus = make_corpus(3, seed=900)
    rows_t, rows_m = [], []
    for i, ex in enumerate(corpus):
        tgt = tmp_path / f"tgt{i}.wav"
        mix = tmp_path / f"mix{i}.wav"
        write_wav(str(tgt), ex.target)
        write_wav(str(mix), ex.mixture)
        rows_t.append(f"{tgt},{tgt},{mix}")
        rows_m.append(f"{mix},{tgt},{mix}")
    man_t = tmp_path / "perfect.csv"
    man_t.write_text("\n".join(rows_t) + "\n")
    man_m = tmp_path / "identity.csv"
    man_m.write_text("\n".join(rows_m) + "\n")

    out_t = tmp_path / "perfect_report.csv"
    out_m = tmp_path / "identity_report.csv"
    ok = main(["eval", "--manifest", str(man_t), "--out", str(out_t)]) == 0
    ok = ok and main(["eval", "--manifest", str(man_m), "--out", str(out_m)]) == 0

    def body(path):
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        return [l.split(",") for l in lines[1:]]

    perfect = body(out_t)
    for row in perfect[:-1]:
        ok = ok and float(row[1]) == pytest.approx(60.0)
    ok = ok and float(perfect[-1][3]) == 0.0  # corpus confusion ratio
    for row in body(out_m)[:-1]:
        ok = ok and abs(float(row[2])) < 1e-9  # mixture as estimate: no gain
    report(capsys, 12, "CLI round-trip on perfect and identity estimates", ok)
