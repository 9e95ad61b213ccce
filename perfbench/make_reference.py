"""Write the stored reference outputs the benchmark checks at its default seed.

    python3 perfbench/make_reference.py [--work-dir DIR]

For each workload it builds the default-seed inputs, runs the `chunksc`
call once and stores the parsed output under perfbench/reference/. Run it
only on code whose outputs are known to be right: every later benchmark run
at the default seed must reproduce these values.
"""

import argparse
import json
import os
import shutil
import sys

import workloads as wl


def reference_for(workload: str, work: str) -> dict:
    chunksc = wl.import_chunksc()
    spec = wl.spec_for(workload, tiny=False)
    shutil.rmtree(work, ignore_errors=True)
    wl.setup_once(workload, wl.DEFAULT_SEED, work, tiny=False, traced=False)
    argv = wl.op_argv(spec, wl.DEFAULT_SEED, work)
    if chunksc.cli.main(argv) != 0:
        raise SystemExit(f"{workload}: chunksc {argv[0]} failed")
    out = argv[argv.index("--out") + 1]
    if spec.kind == "eval":
        rows, summary = wl.read_eval_report(out)
        for row in rows.values():
            del row["r_scr"]
        return {"seed": wl.DEFAULT_SEED, "rows": rows, "summary": summary}
    got = wl.read_compare_outputs(out)
    rows = {kind: [sisdri, rscr] for kind, (_, sisdri, rscr) in got["rows"].items()}
    return {"seed": wl.DEFAULT_SEED, "rows": rows}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--work-dir", default=os.path.join(wl.ROOT, ".perfbench_work", "reference"))
    args = p.parse_args(argv)
    os.makedirs(wl.REFERENCE_DIR, exist_ok=True)
    for workload in wl.WORKLOADS:
        ref = reference_for(workload, os.path.join(args.work_dir, workload))
        with open(os.path.join(wl.REFERENCE_DIR, f"{workload}.json"), "w") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {workload} reference ({len(ref['rows'])} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
