"""Workload definitions, input generation, the scoring oracle and output checks.

Run as a script, this module builds one workload's inputs (the benchmark's
set-up step) in a fresh process and prints one JSON line with the set-up
time, the input properties and, when traced, the tracer's summary:

    python3 perfbench/workloads.py --workload eval-short --seed 0 --out DIR

It runs in its own process so that the peak memory of set-up does not
hide the peak memory of the measured calls in the benchmark process.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass

# Fix the BLAS thread count before numpy loads, in this process and in every
# process that imports this module first; set-up processes inherit it.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, BLAS_THREADS))

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 0
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# Per segment, the eval estimate is target_gain * target + leak_gain * interferer.
# The pairs give clean (clamped), leaky, confused and silent (inactive)
# stretches. Every pair occurs about equally often in every utterance whatever
# the seed, so the mix of chunk classes, and with it the cost, stays put.
SEGMENT_GAINS = ((1.0, 0.0), (1.0, 0.1), (1.0, 0.3), (1.0, 0.6), (0.3, 1.0), (0.0, 0.0))
SEGMENT_S = 0.3

# `chunksc eval` defaults the oracle reproduces.
CHUNK_MS = 250.0
HOP_MS = 125.0
ETA_DB = 15.0
CLAMP_DB = 60.0
SISDR_EPS = 1e-12
ENERGY_FLOOR = 1e-12
BIN_EDGES = (-5.0, 0.0, 5.0)

# The host is shared, so its speed drifts by tens of percent from one minute to
# the next. Every timed call is paired with a fixed calibration kernel, and its
# time is reported as call / kernel x CAL_NOMINAL_S, the kernel's time on a
# quiet 2-core x86-64 box. Drift slows both alike and mostly cancels.
CAL_NOMINAL_S = 0.025
_CAL_SHORT = np.random.default_rng(12345).standard_normal(1 << 16)
_CAL_LONG = np.random.default_rng(54321).standard_normal(1 << 17)

# Report values are printed with 6 decimals; the oracle sums in another order.
VALUE_TOL_DB = 1e-5
COMPARE_TOL = 1e-4


class BenchError(Exception):
    """The benchmark cannot run; it prints no result."""


def import_chunksc():
    """Import chunksc from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "chunksc", "__init__.py")):
        raise BenchError(f"no chunksc sources under {SRC}")
    sys.path.insert(0, SRC)
    import chunksc
    import chunksc.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(chunksc.__file__))) != SRC:
        raise BenchError(f"chunksc was imported from {chunksc.__file__}, not {SRC}")
    return chunksc


@dataclass(frozen=True)
class EvalSpec:
    """`chunksc eval` over a manifest of (estimate, target, mixture) triples."""

    utterances: int
    duration_s: float
    sample_rate: int
    overlap: bool
    traced_ops: int
    kind: str = "eval"


@dataclass(frozen=True)
class CompareSpec:
    """One `chunksc compare` run: plain warm-up, then three fine-tunes."""

    train_size: int
    val_size: int
    warmup_epochs: int
    finetune_epochs: int
    traced_ops: int
    duration_s: float = 2.0
    sample_rate: int = 8000
    kind: str = "compare"


WORKLOADS = {
    "eval-short": EvalSpec(utterances=200, duration_s=2.0, sample_rate=8000, overlap=False, traced_ops=10),
    "eval-long": EvalSpec(utterances=4, duration_s=60.0, sample_rate=16000, overlap=True, traced_ops=6),
    "train-compare": CompareSpec(train_size=40, val_size=12, warmup_epochs=3, finetune_epochs=1, traced_ops=3),
}

TINY = {
    "eval-short": EvalSpec(utterances=3, duration_s=2.0, sample_rate=8000, overlap=False, traced_ops=1),
    "eval-long": EvalSpec(utterances=1, duration_s=2.0, sample_rate=16000, overlap=True, traced_ops=1),
    "train-compare": CompareSpec(train_size=4, val_size=2, warmup_epochs=1, finetune_epochs=1, traced_ops=1),
}


def spec_for(workload: str, tiny: bool):
    return (TINY if tiny else WORKLOADS)[workload]


def op_argv(spec, seed: int, work: str) -> list[str]:
    """Arguments of one measured `chunksc` call."""
    if spec.kind == "eval":
        argv = ["eval", "--manifest", os.path.join(work, "manifest.csv"),
                "--out", os.path.join(work, "report.csv")]
        return argv + (["--eval-hop", "overlap"] if spec.overlap else [])
    return [
        "compare", "--seed", str(seed), "--out", os.path.join(work, "compare"),
        "--train-size", str(spec.train_size), "--val-size", str(spec.val_size),
        "--warmup-epochs", str(spec.warmup_epochs),
        "--finetune-epochs", str(spec.finetune_epochs),
        "--duration", str(spec.duration_s),
    ]


def op_utterances(spec) -> int:
    """Utterances one call processes: rows scored, or training utterance steps."""
    if spec.kind == "eval":
        return spec.utterances
    return spec.train_size * (spec.warmup_epochs + 3 * spec.finetune_epochs)


def calibration_s() -> float:
    """Time one run of the calibration kernel. Like chunksc, it mixes a Python
    loop over short dot products (about two thirds of its time) with vector
    arithmetic that allocates fresh 1 MB arrays (one third); small enough to
    stay below the peak memory of every measured call."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(12):
        for k in range(0, _CAL_SHORT.size - 1024, 128):
            seg = _CAL_SHORT[k : k + 1024]
            acc += float(np.dot(seg, seg))
        acc += float(np.sort(_CAL_SHORT)[-1])
    for _ in range(16):
        scaled = _CAL_LONG * 1.0001
        acc += float(np.dot(scaled, _CAL_LONG))
        diff = scaled - _CAL_LONG
        acc += float(np.dot(diff, diff))
    return time.perf_counter() - start


def calibrated(work_s: float, calibration: float) -> float:
    return work_s / calibration * CAL_NOMINAL_S


# ---------------------------------------------------------------- oracle


def _si_sdr(estimate, reference):
    alpha = np.dot(estimate, reference) / np.dot(reference, reference)
    projection = alpha * reference
    residual = estimate - projection
    num = np.dot(projection, projection)
    den = np.dot(residual, residual)
    raw = 10.0 * math.log10((num + SISDR_EPS) / (den + SISDR_EPS))
    return min(max(raw, -CLAMP_DB), CLAMP_DB)


def _energy_db(x):
    return 10.0 * math.log10(float(np.dot(x, x)) + ENERGY_FLOOR)


def oracle_row(est, tgt, mix, sample_rate: int, overlap: bool) -> dict:
    """Expected `chunksc eval` row, computed from the definitions in the paper text.

    Utterance SI-SDRi is SI-SDR(e, t) - SI-SDR(y, t); chunk SI-SDRi is
    SI-SDR(e_k, t_k) - SI-SDR(e_k, y_k) over chunks where target and estimate
    both exceed the activity threshold. Classes split at BIN_EDGES, closed on
    the right; a chunk is confused when its improvement is negative.
    """
    n = est.size
    length = int(round(CHUNK_MS * sample_rate / 1000.0))
    hop = int(round(HOP_MS * sample_rate / 1000.0)) if overlap else length
    n_chunks = math.ceil((n - length) / hop) + 1
    values = []
    for k in range(n_chunks):
        lo, hi = k * hop, min(k * hop + length, n)
        e, t, y = est[lo:hi], tgt[lo:hi], mix[lo:hi]
        if np.dot(t, t) < SISDR_EPS or np.dot(y, y) < SISDR_EPS:
            continue
        if _energy_db(t) <= ETA_DB or _energy_db(e) <= ETA_DB:
            continue
        values.append(_si_sdr(e, t) - _si_sdr(e, y))
    values = np.asarray(values)
    counts = np.bincount(np.searchsorted(BIN_EDGES, values, side="left"), minlength=4)
    si_sdr = _si_sdr(est, tgt)
    return {
        "si_sdr": si_sdr,
        "si_sdri": si_sdr - _si_sdr(mix, tgt),
        "classes": [int(c) for c in counts],
        "n_valid": int(values.size),
        "n_sc": int(np.sum(values < 0.0)),
        "degenerate": int(values.size == 0),
        "n_chunks": n_chunks,
    }


def expected_summary(rows: dict) -> dict:
    n_valid = sum(r["n_valid"] for r in rows.values())
    n_sc = sum(r["n_sc"] for r in rows.values())
    return {
        "mean_sisdri": sum(r["si_sdri"] for r in rows.values()) / len(rows),
        "r_scr": 100.0 * n_sc / n_valid if n_valid else 0.0,
    }


# ---------------------------------------------------------------- set-up


def _leaky_estimate(example, rng):
    """Target and interferer mixed at gains that change every segment."""
    target = example.target.samples
    interferer = example.interferer.samples
    segment = int(SEGMENT_S * example.target.sample_rate)
    n_segments = math.ceil(target.size / segment)
    rounds = math.ceil(n_segments / len(SEGMENT_GAINS))
    order = np.concatenate([rng.permutation(len(SEGMENT_GAINS)) for _ in range(rounds)])
    gains = np.asarray(SEGMENT_GAINS)[order[:n_segments]]
    per_sample = np.repeat(gains, segment, axis=0)[: target.size]
    return per_sample[:, 0] * target + per_sample[:, 1] * interferer


def build_eval_inputs(chunksc, spec: EvalSpec, seed: int, out: str) -> list:
    """Synthesise the corpus, make the leaky estimates, write WAV triples and manifest.

    Returns the float64 arrays exactly as `chunksc eval` will read them back.
    """
    from chunksc.signal_core import Waveform

    corpus = chunksc.make_corpus(
        spec.utterances, seed=seed, duration_s=spec.duration_s, sample_rate=spec.sample_rate
    )
    rng = np.random.default_rng([seed, 7])
    lines = ["estimate,target,mixture"]
    triples = []
    for i, ex in enumerate(corpus):
        arrays = [_leaky_estimate(ex, rng), ex.target.samples, ex.mixture.samples]
        paths = [os.path.join(out, f"{role}_{i:04d}.wav") for role in ("est", "tgt", "mix")]
        for path, x in zip(paths, arrays):
            chunksc.write_wav(path, Waveform(x, spec.sample_rate))
        lines.append(",".join(paths))
        triples.append([x.astype(np.float32).astype(np.float64) for x in arrays])
    with open(os.path.join(out, "manifest.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return triples


def build_compare_inputs(chunksc, spec: CompareSpec, seed: int) -> dict:
    """Synthesise the corpora `chunksc compare --seed S` trains and validates on
    (seeds S and S + 1000) and score the seeded, untrained extractor on validation.

    `compare` takes only flags, so these corpora are its inputs; the untrained
    extractor's scores are their recorded properties.
    """
    from chunksc.extractor import LossSetup, evaluate_corpus, init_params

    kw = {"duration_s": spec.duration_s, "sample_rate": spec.sample_rate}
    chunksc.make_corpus(spec.train_size, seed=seed, **kw)
    validation = chunksc.make_corpus(spec.val_size, seed=seed + 1000, **kw)
    sisdri, rscr = evaluate_corpus(init_params(seed), validation, LossSetup())
    return {"init_val_sisdri_db": sisdri, "init_val_rscr_pct": rscr}


def eval_properties(spec: EvalSpec, expected: dict) -> dict:
    rows = expected.values()
    n_chunks = sum(r["n_chunks"] for r in rows)
    n_valid = sum(r["n_valid"] for r in rows)
    return {
        "utterances": spec.utterances,
        "duration_s": spec.duration_s,
        "sample_rate": spec.sample_rate,
        "chunk_hop": "overlap" if spec.overlap else "none",
        "chunks_per_utt": n_chunks / len(expected),
        "active_ratio": n_valid / n_chunks,
        "active_ratio_base_chunks": n_chunks,
        "input_rscr_pct": expected_summary(expected)["r_scr"],
        "input_classes": [sum(r["classes"][j] for r in rows) for j in range(4)],
    }


def compare_properties(spec: CompareSpec, scores: dict) -> dict:
    from chunksc.signal_core import ChunkingConfig, make_chunks

    n = int(round(spec.duration_s * spec.sample_rate))
    return {
        "train_utterances": spec.train_size,
        "val_utterances": spec.val_size,
        "duration_s": spec.duration_s,
        "sample_rate": spec.sample_rate,
        "warmup_epochs": spec.warmup_epochs,
        "finetune_epochs": spec.finetune_epochs,
        "train_chunks_per_utt": len(make_chunks(n, ChunkingConfig(), spec.sample_rate)),
        **scores,
    }


def setup_once(workload: str, seed: int, out: str, tiny: bool, traced: bool) -> dict:
    """One timed set-up. Returns set-up time, input properties, expected rows."""
    chunksc = import_chunksc()
    spec = spec_for(workload, tiny)
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer().install()
    os.makedirs(out, exist_ok=True)
    cal_before = calibration_s()
    start = time.perf_counter()
    with tracer.root() if tracer else contextlib.nullcontext():
        if spec.kind == "eval":
            triples = build_eval_inputs(chunksc, spec, seed, out)
        else:
            scores = build_compare_inputs(chunksc, spec, seed)
    setup_s = time.perf_counter() - start
    calibration = (cal_before + calibration_s()) / 2.0
    result = {"setup_s": setup_s, "calibration_s": calibration, "trace": None}
    if tracer:
        tracer.uninstall()
        tracer.write_spans(os.path.join(out, "setup_spans.csv"))
        result["trace"] = tracer.summary()
    if spec.kind == "eval":
        expected = {
            f"est_{i:04d}": oracle_row(*t, spec.sample_rate, spec.overlap)
            for i, t in enumerate(triples)
        }
        result["expected"] = expected
        result["properties"] = eval_properties(spec, expected)
    else:
        result["properties"] = compare_properties(spec, scores)
    return result


# ---------------------------------------------------------------- checks


def read_eval_report(path: str):
    """Rows of a `chunksc eval` CSV report as dicts, and its summary row."""
    with open(path, newline="") as fh:
        lines = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    header, body = lines[0], lines[1:]
    rows = {}
    summary = None
    for cells in body:
        rec = dict(zip(header, cells))
        if rec["id"] == "summary":
            summary = {"mean_sisdri": float(rec["si_sdri"]), "r_scr": float(rec["r_scr"])}
            continue
        classes = [int(rec[f"s{j}"]) for j in range(4)]
        n_valid = sum(classes)
        r_scr = float(rec["r_scr"])
        rows[rec["id"]] = {
            "si_sdr": float(rec["si_sdr"]),
            "si_sdri": float(rec["si_sdri"]),
            "classes": classes,
            "n_valid": n_valid,
            "n_sc": int(round(r_scr * n_valid / 100.0)),
            "r_scr": r_scr,
            "degenerate": int(rec["degenerate"]),
        }
    return rows, summary


def row_matches(got: dict, want: dict) -> bool:
    exact = ("classes", "n_valid", "n_sc", "degenerate")
    close = ("si_sdr", "si_sdri")
    if any(got[k] != want[k] for k in exact):
        return False
    if any(not abs(got[k] - want[k]) <= VALUE_TOL_DB for k in close):
        return False
    rscr = 100.0 * want["n_sc"] / want["n_valid"] if want["n_valid"] else 0.0
    return abs(got["r_scr"] - rscr) <= VALUE_TOL_DB


def check_eval_report(path: str, references: list[dict]) -> tuple[int, int]:
    """(rows attempted, rows failed) of one report against every reference.

    A row fails when it is missing or differs from any reference; a wrong
    summary row fails every row, since the report as a whole is wrong.
    """
    want_ids = set(references[0]["rows"])
    try:
        rows, summary = read_eval_report(path)
    except (OSError, ValueError, KeyError, IndexError):
        return len(want_ids), len(want_ids)
    failed = 0
    for rid in want_ids:
        got = rows.get(rid)
        if got is None or not all(row_matches(got, ref["rows"][rid]) for ref in references):
            failed += 1
    summary_ok = summary is not None and all(
        abs(summary[k] - ref["summary"][k]) <= VALUE_TOL_DB
        for ref in references
        for k in ("mean_sisdri", "r_scr")
    )
    if set(rows) != want_ids or not summary_ok:
        failed = len(want_ids)
    return len(want_ids), failed


def read_compare_outputs(out: str) -> dict:
    """Rows of comparison.csv plus the bytes of the per-loss history files."""
    with open(os.path.join(out, "comparison.csv"), newline="") as fh:
        lines = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    rows = {r[0]: (r[1], float(r[2]), float(r[3])) for r in lines[1:]}
    histories = {}
    for kind in rows:
        with open(os.path.join(out, f"{kind}_history.csv"), "rb") as fh:
            histories[kind] = fh.read()
    with open(os.path.join(out, "warmup_checkpoint.json"), "rb") as fh:
        warm_sha = hashlib.sha256(fh.read()).hexdigest()
    return {"rows": rows, "histories": histories, "warmup_sha256": warm_sha}


def compare_ok(got: dict, first: dict | None, reference: dict | None) -> bool:
    """One `compare` run is correct when all three rows are finite and share the
    warm-up checkpoint, the run repeats the first run of this seed byte for
    byte, and, at the default seed, it matches the stored reference."""
    rows = got["rows"]
    if sorted(rows) != ["plain", "scale", "weight"]:
        return False
    if any(not (math.isfinite(s) and math.isfinite(r)) for _, s, r in rows.values()):
        return False
    if {sha for sha, _, _ in rows.values()} != {got["warmup_sha256"]}:
        return False
    if first is not None and (got["rows"] != first["rows"] or got["histories"] != first["histories"]):
        return False
    if reference is not None:
        for kind, (sisdri, rscr) in reference["rows"].items():
            _, s, r = rows[kind]
            if abs(s - sisdri) > COMPARE_TOL or abs(r - rscr) > COMPARE_TOL:
                return False
    return True


def load_reference(workload: str, seed: int, tiny: bool):
    """Stored reference outputs at the default seed, if they apply."""
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    if tiny or seed != DEFAULT_SEED or not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="directory for the generated inputs")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    result = setup_once(args.workload, args.seed, args.out, args.tiny, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
