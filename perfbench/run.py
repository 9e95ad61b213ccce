"""chunksc benchmark: run one workload and print one JSON result line.

    python3 perfbench/run.py --workload eval-short --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics, measured with
tracing off; with ``--trace 1`` it holds the per-layer metrics of a traced
run of the same workload. See perfbench/README.md for what each means.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import workloads as wl  # first: it fixes the BLAS thread count before numpy loads

import numpy as np
import scipy
from tracer import COUNTERS, Tracer, merge_summaries, traced_names

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 50

END_TO_END = {
    "setup_s": "s",
    "op_wall_s": "s",
    "utt_per_s": "utt/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in a fixed order."""
    units = {}
    for name in traced_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["losses.loss_weight_sisdr.failed"] = "count"
    for _, names, _ in COUNTERS.values():
        for name in names:
            units[name] = "B" if name.endswith("_bytes") else "count"
    units["metrics.active_ratio"] = "ratio"
    units["losses.weight_fallback_ratio"] = "ratio"
    units["trace.root_s"] = "s"
    units["trace.untraced_frac"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {v: os.environ[v] for v in wl.BLAS_THREAD_VARS},
    }


def run_setups(args, work: str, repeats: int, traced: bool) -> list[dict]:
    """Build the inputs `repeats` times, each in a fresh process."""
    cmd = [
        sys.executable, os.path.join(HERE, "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--out", work,
    ]
    cmd += ["--tiny"] * args.tiny + ["--trace"] * traced
    results = []
    for _ in range(repeats):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise wl.BenchError(f"set-up failed:\n{proc.stderr.strip()[-3000:]}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


class Operation:
    """One measured `chunksc` call through `chunksc.cli.main`, then its check."""

    def __init__(self, cli, spec, seed: int, work: str, expected: dict | None, reference):
        self.cli = cli
        self.spec = spec
        self.argv = wl.op_argv(spec, seed, work)
        self.out = self.argv[self.argv.index("--out") + 1]
        self.reference = reference
        self.first = None
        self.last = None
        if spec.kind == "eval":
            self.references = [{"rows": expected, "summary": wl.expected_summary(expected)}]
            self.references += [reference] if reference else []
        self.attempted = 0
        self.failed = 0

    def run(self, tracer: Tracer | None = None) -> float:
        if self.spec.kind == "eval":
            if os.path.exists(self.out):
                os.remove(self.out)
        else:
            shutil.rmtree(self.out, ignore_errors=True)
        start = time.perf_counter()
        try:
            with tracer.root() if tracer else contextlib.nullcontext():
                rc = self.cli.main(self.argv)
        except Exception:  # the program crashed: count it, keep measuring
            traceback.print_exc()
            rc = None
        wall = time.perf_counter() - start
        self._check(rc)
        return wall

    def _check(self, rc):
        if self.spec.kind == "eval":
            n = self.spec.utterances
            attempted, failed = (n, n) if rc != 0 else wl.check_eval_report(self.out, self.references)
        else:
            attempted, failed = 1, 1
            if rc == 0:
                try:
                    got = wl.read_compare_outputs(self.out)
                except (OSError, ValueError, KeyError, IndexError):
                    got = None
                if got is not None and wl.compare_ok(got, self.first, self.reference):
                    failed = 0
                    self.first = self.first or got
                    self.last = got
        self.attempted += attempted
        self.failed += failed


def quartiles(values: list[float]) -> dict:
    values = sorted(values)
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if len(values) >= 20:
        # Highest percentile with at least ten samples beyond it.
        pct = int(100 * (1 - 10 / len(values)))
        out[f"p{pct}"] = float(np.percentile(values, pct))
    return out


def measure(op: Operation, seconds: float) -> tuple[list[float], list[float]]:
    """Untraced calls for `seconds`, at least one, each followed by a calibration."""
    walls, cals = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        walls.append(op.run())
        cals.append(wl.calibration_s())
    return walls, cals


def measure_traced(op: Operation, pairs: int) -> tuple[list, list, Tracer]:
    """`pairs` untraced and traced calls, alternating, so drift hits both alike."""
    tracer = Tracer()
    plain, traced = [], []
    for _ in range(pairs):
        plain.append(op.run())
        tracer.install()
        try:
            traced.append(op.run(tracer))
        finally:
            tracer.uninstall()
    return plain, traced, tracer


def layer_metrics(summary: dict, overhead: float) -> dict:
    spans, counters = summary["spans"], summary["counters"]
    values = {}
    for name in traced_names():
        values[f"{name}.calls"] = spans[name]["calls"]
        values[f"{name}.self_s"] = spans[name]["self_s"]
    weight = spans["losses.loss_weight_sisdr"]
    values["losses.loss_weight_sisdr.failed"] = weight["failed"]
    values.update(counters)
    scored = counters["metrics.chunks_scored"]
    values["metrics.active_ratio"] = counters["metrics.chunks_valid"] / scored if scored else 0.0
    values["losses.weight_fallback_ratio"] = (
        weight["failed"] / weight["calls"] if weight["calls"] else 0.0
    )
    values["trace.root_s"] = summary["root_s"]
    values["trace.untraced_frac"] = (
        summary["untraced_s"] / summary["root_s"] if summary["root_s"] else 0.0
    )
    values["trace.overhead_frac"] = overhead
    return values


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="chunksc benchmark")
    p.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time of the untraced calls")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    p.add_argument("--work-dir", default=os.path.join(wl.ROOT, ".perfbench_work"))
    args = p.parse_args(argv)

    spec = wl.spec_for(args.workload, args.tiny)
    work = os.path.join(args.work_dir, args.workload + "-tiny" * args.tiny)
    inputs = os.path.join(work, "inputs")
    try:
        chunksc = wl.import_chunksc()
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(inputs)
        repeats = 1 if args.trace or args.tiny else SETUP_REPEATS
        setups = run_setups(args, inputs, repeats, bool(args.trace))
    except (wl.BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    last = setups[-1]
    reference = wl.load_reference(args.workload, args.seed, args.tiny)
    op = Operation(chunksc.cli, spec, args.seed, inputs, last.get("expected"), reference)
    op.run()  # warm-up: fills caches, and is checked like every other call

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_facts(),
        "inputs": last["properties"],
        "checked_against": (["oracle"] if spec.kind == "eval" else [])
        + (["stored reference"] if reference else []),
    }
    if args.trace:
        plain, traced, tracer = measure_traced(op, spec.traced_ops)
        samples = {"untraced_s": plain, "traced_s": traced}
        tracer.write_spans(os.path.join(work, "spans.csv"))
        summary = merge_summaries([last["trace"], tracer.summary()])
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        values = layer_metrics(summary, overhead)
        units = per_layer_units()
        record["trace_warnings"] = summary["warnings"]
    else:
        walls, cals = measure(op, args.seconds)
        samples = {"op_wall_raw_s": walls, "calibration_s": cals}
        op_wall = statistics.median(map(wl.calibrated, walls, cals))
        setup_times = [wl.calibrated(s["setup_s"], s["calibration_s"]) for s in setups]
        values = {
            "setup_s": statistics.median(setup_times),
            "op_wall_s": op_wall,
            "utt_per_s": wl.op_utterances(spec) / op_wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        record["op_wall_s"] = quartiles([wl.calibrated(w, c) for w, c in zip(walls, cals)])
        record["op_wall_raw_s"] = quartiles(walls)
        record["calibration_s"] = quartiles(cals)
        record["setup_s"] = quartiles(setup_times)
        record["setup_raw_s"] = quartiles([s["setup_s"] for s in setups])
        record["named"] = named_metrics(spec, values, op)

    record["fail_frac"] = op.failed / op.attempted
    result = {
        "correct": op.failed == 0,
        "attempted": op.attempted,
        "failed": op.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    with open(os.path.join(work, f"result-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"record": record, "result": result, "samples": samples}, fh, indent=1)
    for name, (value, unit) in record.get("named", {}).items():
        print(f"# {args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


def named_metrics(spec, values: dict, op: Operation) -> dict:
    """The end-to-end figures under the names the documentation uses, per workload."""
    named = {"setup_s": (values["setup_s"], "s")}
    if spec.kind == "eval":
        named["eval_utt_per_s"] = (values["utt_per_s"], f"utt/s ({spec.utterances} utt/call)")
    else:
        named["compare_wall_s"] = (values["op_wall_s"], "s")
        if op.last is not None:
            _, sisdri, rscr = op.last["rows"]["weight"]
            named["val_sisdri_db"] = (sisdri, "dB")
            named["val_rscr_pct"] = (rscr, "%")
    named["peak_rss_mb"] = (values["peak_rss_mb"], "MB")
    named["fail_frac"] = (op.failed / op.attempted, f"of {op.attempted} operations")
    return named


if __name__ == "__main__":
    sys.exit(main())
