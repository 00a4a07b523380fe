"""pimdse benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search_default --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate traced run and reports the per-layer metrics. The metric names
and units are the ones declared in ``BENCHMARK.json``. Human-readable
lines come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Full results, the environment and (for traced runs) the spans are written
under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
PATHS = [str(SRC), str(HERE)]  # pimdse and the benchmark modules
WORKLOAD_NAMES = ("search_default", "forward_default", "xbar_stationary")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Cap BLAS threads at the usable cores; must run before numpy loads."""
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, str(nproc()))


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def git_sha() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    load_start = loadavg()
    if not (SRC / "pimdse" / "__init__.py").is_file():
        print(f"perfbench: no pimdse sources under {SRC}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(SRC))

    import workloads

    sizes = workloads.DEFAULT_SIZES
    declared = declared_metrics(args.trace)
    tracer = None
    if args.trace:
        res, tracer = workloads.run_traced(args.workload, args.seed, sizes)
        metrics = {name: (value, declared[name]) for name, value in res["metrics"].items()}
        shown = metrics
    else:
        res = workloads.run_workload(args.workload, args.seed, args.seconds, sizes, PATHS)
        metrics = res["metrics"]
        shown = res["named"]
    if set(metrics) != set(declared):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(declared))} "
                         "do not match BENCHMARK.json")
    for name, (value, unit) in metrics.items():
        if unit != declared[name] or not math.isfinite(value):
            raise SystemExit(f"perfbench: bad metric {name}={value} {unit}")

    correct = not res["problems"] and res["failed"] == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {**environment(), "loadavg_start": load_start, "loadavg_end": loadavg()},
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "problems": res["problems"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        "samples": res.get("samples", {}),
        "fingerprints": res["fingerprints"],
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}-spans.json")
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{res['attempted']} attempted, {res['failed']} failed")
    for name, (value, unit) in shown.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    for key, fp in res["fingerprints"].items():
        print(f"  fingerprint[{key}] {fp}")
    for problem in res["problems"]:
        print(f"  PROBLEM {problem}")
    print(f"  environment {json.dumps(record['environment'], sort_keys=True)}")
    print(f"  results in {RESULTS / (stem + '.json')}")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
