"""Command-line surface: corpus evaluation, SC distribution reporting,
toy training and loss-scheme comparison.

Exit codes: 0 success, 1 a fine-tune process that could not be forked, or a
fine-tune or worker process that ended without a result, 2 input error, 3
numerical divergence. Config precedence is flags > config file > defaults.
The effective config is echoed into the `eval` and `distribution` reports
(a `# config:` header in CSV, a `config` object in JSON) and as a `# config:`
header into `train`'s `history.csv` and `compare`'s `comparison.csv`;
checkpoints and `compare`'s `<loss>_history.csv` files carry none.

Processes: `eval` and `distribution` score contiguous blocks of manifest
rows, the first in the calling process and each other in a forked worker,
one per other CPU as far as the input is large enough to pay for the fork
(see `_evaluate_manifest`); a worker that ends without a result exits 1,
as in training. In `train`
and `compare`, each corpus is rendered on threads, one per CPU the process
may run on, all ended before it returns; no process is forked for it. Each
stage that runs alone (both stages of `train`, the warm-up of `compare`)
forks one worker per other CPU, once its data exists, and stops them
before it returns; `compare` then forks one process per fine-tune. No
flag, config key or environment variable sets the count, and the outputs
do not depend on it (see `_training_stages`). Before their first fork,
`train` and `compare` have glibc keep freed heap in the process
(`keep_freed_heap`), so the workers and fine-tunes inherit it, and each
example's arrays reuse pages instead of faulting them in again. A process
that calls `main` for them keeps the setting afterwards; only timing
depends on it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from contextlib import closing, contextmanager
from dataclasses import replace
from functools import partial

import numpy as np

from ._blas import one_blas_thread
from ._fork import Forked, Workers, answer, keep_freed_heap, worker_count
from .errors import ChunkscError, DivergenceDetected, FineTuneLost, InvalidSetting
from .extractor import (
    LossSetup,
    TrainConfig,
    checkpoint_text,
    history_to_csv,
    save_checkpoint,
    train,
)
from .losses import LossKind, ScaleLossConfig, WeightLossConfig
from .metrics import (
    BinEdges,
    SiSdrConfig,
    distribution_report,
    sc_statistics,
    si_sdr,
)
from .signal_core import ActivityConfig, ChunkingConfig, make_chunks
from .synth import DEFAULT_SAMPLE_RATE, check_corpus_size, make_corpus, n_samples
from .wav_io import read_wav


def _add_metric_flags(p: argparse.ArgumentParser):
    p.add_argument("--chunk-ms", type=float, default=250.0, help="chunk length in ms")
    p.add_argument("--hop-ms", type=float, default=125.0, help="hop between overlapping chunks in ms")
    p.add_argument("--eta", type=float, default=15.0, help="chunk activity threshold in dB")
    p.add_argument("--clamp-db", type=float, default=60.0, help="symmetric SI-SDR clamp in dB")
    p.add_argument("--bins", default="-5,0,5", help="class bin edges e1,e2,e3 in dB")


def _add_train_flags(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=0.2)
    p.add_argument("--finetune-lr", type=float, default=0.0002,
                   help="learning rate for the fine-tune stage")
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--train-size", type=int, default=200)
    p.add_argument("--val-size", type=int, default=50)
    p.add_argument("--duration", type=float, default=2.0, help="utterance length in seconds")
    p.add_argument("--out", required=True, help="output directory")
    _add_metric_flags(p)
    p.add_argument("--gamma1", type=float, default=1.0)
    p.add_argument("--gamma2", type=float, default=1.0)
    p.add_argument("--weights", default="5,5,1,1", help="class weights w0,w1,w2,w3")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chunksc",
        description="Chunk-level speaker-confusion metrics and SC-aware training losses",
    )
    parser.add_argument("--config", help="JSON file with flag defaults", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (
        ("eval", "evaluate a manifest of (estimate, target, mixture) WAV triples"),
        ("distribution", "aggregate 4-class chunk distribution over a manifest"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--manifest", required=True)
        p.add_argument("--out", required=True, help="report path (.csv or .json)")
        p.add_argument("--format", choices=["csv", "json"], default=None)
        p.add_argument("--eval-hop", choices=["overlap", "none"], default="none",
                       help="chunk hop for evaluation: overlapping or non-overlapping")
        _add_metric_flags(p)

    p_train = sub.add_parser("train", help="train the toy extractor on synthetic mixtures")
    p_train.add_argument("--loss", choices=["plain", "scale", "weight"], default="plain")
    p_train.add_argument("--epochs", type=int, default=20)
    p_train.add_argument("--warmup-epochs", type=int, default=0,
                         help="plain-loss warm-up epochs before the configured loss")
    _add_train_flags(p_train)

    p_cmp = sub.add_parser("compare", help="one warm-up, three fine-tunes (plain/scale/weight)")
    p_cmp.add_argument("--warmup-epochs", type=int, default=20,
                       help="plain-loss warm-up epochs shared by all fine-tunes")
    p_cmp.add_argument("--finetune-epochs", type=int, default=10)
    _add_train_flags(p_cmp)
    return parser


def parse_args(argv) -> argparse.Namespace:
    parser = build_parser()
    # Two-pass parse so a config file can supply defaults below the flags.
    pre, _ = parser.parse_known_args(argv)
    if pre.config:
        # Config-file overrides must be applied per subparser: a subcommand's
        # own defaults overwrite anything set on the top-level namespace.
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parsers = [parser, *commands.choices.values()]
        overrides = _read_config(pre.config, [a for sub in parsers for a in sub._actions])
        for sub in parsers:
            dests = {a.dest for a in sub._actions}
            sub.set_defaults(**{k: v for k, v in overrides.items() if k in dests})
    return parser.parse_args(argv)


def _read_config(path: str, actions: list[argparse.Action]) -> dict:
    """Flag defaults from a JSON object; every key must name a flag of some subcommand.

    Values are returned as strings, as if typed on the command line: argparse
    converts string defaults with the flag's type and reports a bad value.
    An integer keeps the digits written, which may be more than Python
    turns an int into a string with (4300). argparse does not check choices
    on defaults, so that is done here. A refused value is named by its flag.
    """
    with open(path) as fh:
        overrides = json.load(fh, parse_int=str)
    if not isinstance(overrides, dict):
        raise ValueError(f"{path}: expected a JSON object of flag defaults")
    dests = {a.dest for a in actions}
    unknown = [k for k in overrides if k.replace("-", "_") not in dests]
    if unknown:
        raise ValueError(f"{path}: no flag matches key(s) {', '.join(unknown)}")
    # not true/false (no flag takes them), null, a list or an object
    bad = [_flag(k) for k, v in overrides.items() if not isinstance(v, (float, str))]
    if bad:
        raise ValueError(f"{path}: the value of {', '.join(bad)} must be a number or a string")
    values = {k.replace("-", "_"): str(v) for k, v in overrides.items()}
    for a in actions:
        if a.dest in values and a.choices is not None and values[a.dest] not in a.choices:
            raise ValueError(f"{path}: {_flag(a.dest)} must be one of {', '.join(a.choices)}")
    return values


def _flag(key: str) -> str:
    """The flag of a config key or dest: --chunk-ms for chunk_ms or chunk-ms."""
    return "--" + key.replace("_", "-")


def _effective_config(args: argparse.Namespace) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k != "config"}


def _parse_floats(text: str, flag: str, n: int) -> tuple[float, ...]:
    try:
        parts = tuple(float(x) for x in text.split(","))
    except ValueError:
        parts = ()
    if len(parts) != n:
        raise ValueError(f"{flag} needs {n} comma-separated numbers, got {text!r}")
    return parts


# The flag of each setting, by the config field or library argument that
# holds it; a call of `_flags` may name a field by another flag.
_FLAGS = {
    "chunk_len_ms": "--chunk-ms", "hop_ms": "--hop-ms", "eta_db": "--eta",
    "clamp_db": "--clamp-db", "edges": "--bins", "gamma1": "--gamma1", "gamma2": "--gamma2",
    "weights": "--weights", "learning_rate": "--lr", "epochs": "--epochs", "batch": "--batch",
    "seed": "--seed", "duration_s": "--duration",
}


@contextmanager
def _flags(args, **flags: str):
    """Raise an InvalidSetting of the block as a ValueError that calls each
    setting by its flag, from `flags` (field to flag) or `_FLAGS`, and shows
    the text given to --bins or --weights. `flags` may also name an input
    the rule names, such as the `signal` of ChunkLenExceedsSignal."""
    try:
        yield
    except InvalidSetting as exc:
        names = {**_FLAGS, **flags}
        if exc.field in ("edges", "weights"):
            names["value"] = repr(args.bins if exc.field == "edges" else args.weights)
        raise ValueError(exc.worded(names)) from exc


def _loss_setup(args, overlap: bool = True) -> LossSetup:
    """The scoring settings every subcommand shares: chunks of --chunk-ms at
    --hop-ms, or without overlap when not `overlap`, the activity gate, the
    clamp and the class bins. Each config checks its own settings; a
    refusal names the flag. First it refuses a non-finite float anywhere in
    the effective config, which the echoed config could not hold: a config
    built before this call words that refusal its own way."""
    for name, value in _effective_config(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{_flag(name)} must be finite, got {value}")
    with _flags(args):
        return LossSetup(
            chunking=ChunkingConfig(args.chunk_ms, args.hop_ms if overlap else args.chunk_ms),
            activity=ActivityConfig(eta_db=args.eta),
            sisdr_cfg=SiSdrConfig(clamp_db=args.clamp_db),
            bins=BinEdges(_parse_floats(args.bins, "--bins", 3)),
        )


def _read_manifest(path: str) -> list[tuple[int, tuple[str, str, str]]]:
    """The (file line, (estimate, target, mixture)) of each data row; the
    line counts the header and comment lines, as an editor shows it."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            if not rows and row == ["estimate", "target", "mixture"]:
                continue
            if len(row) != 3:
                raise ValueError(f"manifest line {reader.line_num}: expected 3 paths, got {len(row)}")
            rows.append((reader.line_num, (row[0].strip(), row[1].strip(), row[2].strip())))
    if not rows:
        raise ValueError("manifest is empty")
    return rows


# A share of the manifest is scored in a process of its own only when
# scoring it takes longer than the fork: on a 2-vCPU x86-64 host, a
# Workers(1) + map + stop round trip took 4.2 ms (median of 50, after
# `import chunksc.cli`), and scoring ran at 160-190 KB of float32 estimate
# per ms, so a share pays for its fork at about 0.8 MB of estimate files.
_SHARE_BYTES = 800_000


def _process_count(rows) -> int:
    """The processes that score manifest `rows`: one per CPU this process
    may run on, but no more than there are rows, and only as many as have
    `_SHARE_BYTES` of estimate files each. An estimate that cannot be
    stat'ed counts 0 here; its row fails when it is read."""
    size = 0
    for _, (estimate, _, _) in rows:
        try:
            size += os.stat(estimate).st_size
        except (OSError, ValueError):  # ValueError: a path with a NUL byte
            pass
    return max(1, min(1 + worker_count(), len(rows), size // _SHARE_BYTES))


@one_blas_thread()
def _evaluate_manifest(args):
    """The scores of every manifest row, in manifest order. They run on one
    BLAS thread: the thread count changes the last bits of a dot product
    of over 10,000 samples, and so of the utterance SI-SDR.

    The settings and the manifest are checked here. Then the rows are
    scored in contiguous blocks, the first here and each other in a forked
    worker (`Workers`), in as many processes as `_process_count` gives,
    each with its own sample buffers (`_score_rows`); the workers are
    stopped before the return. Every process scores to the same bits, so
    the reports do not depend on the count, and the first failing row in
    manifest order is reported, as from one process."""
    setup = _loss_setup(args, overlap=args.eval_hop == "overlap")
    rows = _read_manifest(args.manifest)
    pool = Workers(_process_count(rows) - 1, args, setup)
    try:
        blocks = pool.map(_score_rows, pool.split(rows), args, setup)
    finally:
        pool.stop()
    return [entry for block in blocks for entry in block]


def _score_rows(args, setup, rows):
    """The report entries of the (line, paths) `rows`, in order.

    Each process has one sample buffer per role (estimate, target,
    mixture) for its rows: every row is read into it, and a longer file
    replaces it by the larger array `read_wav` allocates. So no Waveform
    outlives its row, and a row keeps only floats and its ScStatistics,
    whose arrays are copies."""
    report = []
    buffers = [np.empty(0)] * 3
    for line, row in rows:
        try:
            est, tgt, mix = waves = [read_wav(p, out) for p, out in zip(row, buffers)]
            buffers = [max(out, w.samples, key=len) for out, w in zip(buffers, waves)]
            # si_sdr checks the estimate against the target before chunking,
            # so a short estimate is reported as a mismatch; sc_statistics
            # checks the mixture by name before si_sdr scores it. sisdri is
            # si_sdr_improvement without scoring the estimate twice.
            score = si_sdr(est, tgt, setup.sisdr_cfg)
            with _flags(args):
                chunks = make_chunks(len(est), setup.chunking, est.sample_rate)
            stats = sc_statistics(
                est, tgt, mix, chunks, setup.activity, setup.sisdr_cfg, setup.bins
            )
            sisdri = score - si_sdr(mix, tgt, setup.sisdr_cfg)
        except (OSError, ValueError, MemoryError, ChunkscError) as exc:
            raise ValueError(f"manifest line {line} ({row[0]}): {exc}") from exc
        name = os.path.splitext(os.path.basename(row[0]))[0]
        report.append({"id": name, "si_sdr": score, "si_sdri": sisdri, "stats": stats})
    return report


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _write_report(path, fmt, config, columns, rows, summary=None):
    fmt = fmt or ("json" if path.endswith(".json") else "csv")
    if fmt == "csv":
        lines = ["# config: " + json.dumps(config, sort_keys=True)]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(str(v) if not isinstance(v, float) else _fmt(v) for v in row))
        if summary:
            lines.append(",".join(str(v) if not isinstance(v, float) else _fmt(v) for v in summary))
        text = "\n".join(lines) + "\n"
    else:
        def cell(v):
            # non-finite floats have no JSON literal; use null
            if isinstance(v, float):
                return round(v, 6) if math.isfinite(v) else None
            return v

        payload = {
            "config": config,
            "columns": columns,
            "rows": [[cell(v) for v in row] for row in rows],
        }
        if summary:
            payload["summary"] = [cell(v) for v in summary]
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def cmd_eval(args) -> int:
    report = _evaluate_manifest(args)
    columns = ["id", "si_sdr", "si_sdri", "r_scr", "s0", "s1", "s2", "s3", "degenerate"]
    rows = []
    for r in report:
        s = r["stats"]
        rows.append(
            [r["id"], r["si_sdr"], r["si_sdri"], s.r_scr, *s.class_freq, int(s.degenerate)]
        )
    mean_sisdri = float(np.mean([r["si_sdri"] for r in report]))
    pooled_rscr = distribution_report([r["stats"] for r in report]).r_scr
    summary = ["summary", float("nan"), mean_sisdri, pooled_rscr, "", "", "", "", ""]
    _write_report(args.out, args.format, _effective_config(args), columns, rows, summary)
    return 0


def cmd_distribution(args) -> int:
    report = _evaluate_manifest(args)
    agg = distribution_report([r["stats"] for r in report])
    columns = ["s0", "s1", "s2", "s3", "sc_s0", "sc_s1", "n_valid", "n_sc"]
    rows = [[*agg.class_freq, *agg.class_freq[:2], agg.n_valid, agg.n_sc]]
    _write_report(args.out, args.format, _effective_config(args), columns, rows)
    return 0


def _training_stages(args, kinds, lr_flag: str, epochs_flag: str):
    """The warm-up/fine-tune sequence of `train` and `compare`, whose
    fine-tunes run at the learning rate of `lr_flag` for the epochs of
    `epochs_flag`.

    Builds every config at once, each checking its own settings, and
    names the flag of a refused one; then keeps freed heap in this
    process (`keep_freed_heap`) and renders both corpora, naming
    --train-size or --val-size for one it cannot allocate; then returns
    a generator of (kind, params, history): first (None, ...) for the
    plain-loss warm-up of --warmup-epochs at --lr from the seed's
    initialization, then one
    fine-tune per loss kind in `kinds` order, each starting from the warm-up
    parameters and from its last validation scores, which are those of the
    same parameters, so no fine-tune scores them again (a warm-up of 0
    epochs has none, and each fine-tune scores its start itself).

    Each corpus is rendered on threads (`make_corpus`), which have all ended
    before it returns, so no rendering thread is alive at any later fork.
    Each stage that runs alone (the warm-up, and a single fine-tune) is one
    call, which forks one worker per other CPU this process may use once
    its data exists, and stops them before it returns; so workers are
    forked only to train, and none lives between stages. Several fine-tunes
    fill the cores themselves: each runs in its own forked process, without
    workers, all of them at once, started before the warm-up is yielded.
    Fork hands each process the corpora, the settings and the warm-up
    parameters without pickling. Each sends back its parameters already encoded, as
    their `checkpoint_text`, which the generator yields in their place and
    `save_checkpoint` takes as it takes parameters: so the processes encode
    their checkpoints at once, and this one writes them without encoding
    any after the last process ends. Training runs on one BLAS thread, so
    the processes do not crowd each other's cores and the bits depend on
    neither the thread count nor the worker count.

    Results come in `kinds` order, so every output is the same as from one
    process. A DivergenceDetected propagates from the first stage in that
    order that diverged; a fine-tune process that cannot be forked, or a
    worker or fine-tune process that ends without a whole result, raises
    FineTuneLost. Closing the generator, or an error from it, terminates and
    joins every process still running.
    """
    finetune_lr, finetune_epochs = (getattr(args, flag[2:].replace("-", "_"))
                                    for flag in (lr_flag, epochs_flag))
    for flag, size in (("--train-size", args.train_size), ("--val-size", args.val_size)):
        with _flags(args, n_examples=flag):
            check_corpus_size(size, args.duration)
    with _flags(args, epochs="--warmup-epochs"):
        warm_cfg = TrainConfig(args.lr, args.warmup_epochs, args.batch, args.seed)
    with _flags(args, learning_rate=lr_flag, epochs=epochs_flag):
        tune_cfg = replace(warm_cfg, learning_rate=finetune_lr, epochs=finetune_epochs)
    with _flags(args, signal=f"utterance of --duration {args.duration}"):
        utterance = n_samples(args.duration)
        setup = replace(
            _loss_setup(args),
            scale_cfg=ScaleLossConfig(gamma1=args.gamma1, gamma2=args.gamma2),
            weight_cfg=WeightLossConfig(weights=_parse_floats(args.weights, "--weights", 4)),
        )
        # one utterance's chunk grid refuses a chunking the corpora cannot
        # take; the tiling of validation passes wherever it passes
        make_chunks(utterance, setup.chunking, DEFAULT_SAMPLE_RATE)
    # before the first fork, so that every worker and fine-tune inherits it
    keep_freed_heap()
    # before --out is made, so that a corpus this process cannot allocate
    # is refused by its flag and leaves nothing behind
    with _flags(args, n_examples="--train-size"):
        corpus = make_corpus(args.train_size, seed=args.seed, duration_s=args.duration)
    with _flags(args, n_examples="--val-size"):
        validation = make_corpus(args.val_size, seed=args.seed + 1000, duration_s=args.duration)

    def stages():
        n_workers = worker_count()
        children = []
        try:
            def stage(kind, cfg, params, **kw):
                return train(cfg, corpus, validation, replace(setup, loss_kind=kind), params, **kw)

            warm, history = stage(LossKind.PLAIN, warm_cfg, None, workers=n_workers)
            scores = (history[-1].val_sisdri, history[-1].val_rscr) if history else None
            if len(kinds) == 1:
                yield None, warm, history
                yield (kinds[0], *stage(kinds[0], tune_cfg, warm, workers=n_workers,
                                        start_scores=scores))
                return

            def encoded(kind):
                params, rows = stage(kind, tune_cfg, warm, start_scores=scores)
                return checkpoint_text(params), rows

            for kind in kinds:
                run = partial(answer, call=partial(encoded, kind))
                children.append(Forked(f"{kind.value} fine-tune", run))
            yield None, warm, history
            for kind, child in zip(kinds, children):
                yield (kind, *child.result())
        finally:
            for child in children:
                child.stop()

    return stages()


def _renumber(history, offset):
    for row in history:
        row.epoch += offset
    return history


def cmd_train(args) -> int:
    lr_flag = "--finetune-lr" if args.warmup_epochs > 0 else "--lr"
    stages = _training_stages(args, [LossKind(args.loss)], lr_flag, "--epochs")
    with closing(stages):
        os.makedirs(args.out, exist_ok=True)
        params, history, offset = None, [], 0
        try:
            for _, params, rows in stages:
                history += _renumber(rows, offset)
                offset = args.warmup_epochs
        except DivergenceDetected as exc:
            history += _renumber(exc.history, offset)
            _write_train_outputs(args, None, history)
            print(f"error: {exc}", file=sys.stderr)
            return 3
    _write_train_outputs(args, params, history)
    return 0


def _write_train_outputs(args, params, history):
    header = "# config: " + json.dumps(_effective_config(args), sort_keys=True) + "\n"
    with open(os.path.join(args.out, "history.csv"), "w") as fh:
        fh.write(header + history_to_csv(history))
    if params is not None:
        save_checkpoint(os.path.join(args.out, "checkpoint.json"), params)


def cmd_compare(args) -> int:
    if args.finetune_epochs < 1:
        raise ValueError("--finetune-epochs must be at least 1: each loss reports its last epoch")
    kinds = (LossKind.PLAIN, LossKind.SCALE, LossKind.WEIGHT)
    stages = _training_stages(args, kinds, "--finetune-lr", "--finetune-epochs")
    with closing(stages):
        os.makedirs(args.out, exist_ok=True)
        rows = []
        try:
            for kind, params, history in stages:
                if kind is None:
                    text = checkpoint_text(params)
                    # the file holds the text's bytes: it is ASCII
                    warm_hash = hashlib.sha256(text.encode()).hexdigest()
                    save_checkpoint(os.path.join(args.out, "warmup_checkpoint.json"), text)
                    continue
                name = kind.value
                save_checkpoint(os.path.join(args.out, f"{name}_checkpoint.json"), params)
                final = history[-1]
                rows.append([name, warm_hash, final.val_sisdri, final.val_rscr])
                with open(os.path.join(args.out, f"{name}_history.csv"), "w") as fh:
                    fh.write(history_to_csv(history))
        except DivergenceDetected as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    columns = ["loss", "warmup_sha256", "final_val_sisdri", "final_val_rscr"]
    path = os.path.join(args.out, "comparison.csv")
    _write_report(path, "csv", _effective_config(args), columns, rows)
    return 0


def main(argv=None) -> int:
    try:
        args = parse_args(argv if argv is not None else sys.argv[1:])
    except (OSError, ValueError) as exc:
        print(f"error: bad config file: {exc}", file=sys.stderr)
        return 2
    commands = {"eval": cmd_eval, "distribution": cmd_distribution, "train": cmd_train,
                "compare": cmd_compare}
    try:
        return commands[args.command](args)
    except FineTuneLost as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, ChunkscError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
