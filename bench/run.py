"""hankel-dual benchmark: runs one workload and prints every metric.

Run from the root of a checkout:

    python3 bench/run.py --workload catalog --seed 0 --seconds 10 --trace 0

Workloads: ``catalog`` (``verify.run_all`` over the whole catalog and
failure corpus) and ``roundtrip`` (``dual_roundtrip`` on the six
acceptance seeds, at the acceptance grid and at radii drawn from the
seed).  bench/README.md says why each exists.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
a traced run prints the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A row that misses its check counts in ``failed``; the run
still finishes.  Details of each run, and the spans of a traced run, go
to ``.bench-out/`` in the checkout.

The program is imported from the checkout's ``src`` in fresh
interpreters, so modules already loaded here cannot hide set-up costs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench-out"

WORKLOADS = ("catalog", "roundtrip")
# import-only interpreters started besides the worker, whose own import
# is one more set-up sample
SETUP_SAMPLES = 4
WORKER_TIMEOUT_S = 140
SETUP_TIMEOUT_S = 8
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import hankel_dual.cli; "
    "print(time.perf_counter() - t)"
)


def layer_unit(name):
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def end_to_end(doc, setup_samples):
    """The metrics the benchmark bounds.

    Pass times are CPU seconds of the worker: on a shared virtual machine
    its wall time also counts the time the host gives to other guests.
    """
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "pass_cpu_s": (doc["pass_cpu_s"], "s"),
        "cold_pass_cpu_s": (doc["cpu_passes"][0], "s"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
    }


def unbounded(doc):
    """Wall times and row latencies, printed but not bounded: they vary
    too much between runs."""
    rows = doc["row_seconds"]
    return {
        "wall_s": (doc["wall_s"], "s"),
        "cold_pass_s": (doc["passes"][0], "s"),
        "row_p50_s": (statistics.median(rows), "s"),
        "row_p90_s": (statistics.quantiles(rows, n=10, method="inclusive")[-1], "s"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="hankel-dual benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "hankel_dual" / "__init__.py").is_file():
        print(f"bench: no hankel_dual package under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # one BLAS thread: a second one does not shorten a pass, but adds CPU time
    env["OPENBLAS_NUM_THREADS"] = "1"
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = OUT / f"{tag}.json"
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--src", str(SRC), "--out", str(out),
    ]
    if args.trace:
        cmd += ["--spans", str(OUT / f"{tag}.spans.jsonl.gz")]
    try:
        subprocess.run(cmd, env=env, check=True, timeout=WORKER_TIMEOUT_S)
        doc = json.loads(out.read_text(encoding="utf-8"))
        if args.trace:
            metrics = {name: (value, layer_unit(name)) for name, value in doc["layers"].items()}
            shown = metrics
        else:
            setup = [doc["setup_s"]]
            for _ in range(SETUP_SAMPLES):
                proc = subprocess.run(
                    [sys.executable, "-c", IMPORT_SNIPPET], env=env, check=True,
                    capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                )
                setup.append(float(proc.stdout))
            doc["setup_samples"] = setup
            metrics = end_to_end(doc, setup)
            extra = unbounded(doc)
            doc["unbounded"] = {name: value for name, (value, _) in extra.items()}
            shown = {**metrics, **extra}
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    out.write_text(json.dumps(doc, indent=1), encoding="utf-8")

    m = doc["machine"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(doc['passes'])}  rows {doc['attempted']}")
    print(f"machine: {m['cpu_count']} cpus ({m['cpus_usable']} usable), "
          f"Python {m['python']}, NumPy {m['numpy']}, SciPy {m['scipy']}, "
          f"mpmath {m['mpmath']}, BLAS threads {m['blas_threads']}")
    for name, (value, unit) in shown.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"{'fail_ratio':40s} {doc['failed'] / doc['attempted']:.6g} ratio "
          f"({doc['failed']} of {doc['attempted']} rows missed their check)")
    for miss in doc["misses"]:
        print(f"  miss: {miss}")
    print(json.dumps({
        "correct": doc["consistent"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
