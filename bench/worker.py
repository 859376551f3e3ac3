"""One benchmark run inside a fresh interpreter.

Started by ``bench/run.py`` with the checkout's ``src`` on PYTHONPATH.  It
times ``import hankel_dual.cli`` (which builds the catalog), then runs
passes of one workload until ``--seconds`` have gone by, and at least
the workload's ``min_passes``.  Each pass is timed twice: in wall
seconds and in CPU seconds of this process (user + system, all
threads).  The first pass is the cold one:
Bessel-zero tables and other lazy state are still empty.  With
``--trace 1`` the calls into each module are wrapped and the spans
written to ``--spans`` at the end.  The result is written as JSON to
``--out``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time


def _blas_threads():
    """Thread count reported by each OpenBLAS the process has loaded."""
    out = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                out[os.path.basename(path)] = int(getattr(lib, symbol)())
                break
    return out


def machine_info():
    import mpmath
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": _blas_threads(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True, help="directory that must hold hankel_dual")
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import hankel_dual.cli  # noqa: F401
    setup_s = time.perf_counter() - t0

    import hankel_dual
    if not os.path.realpath(hankel_dual.__file__).startswith(os.path.realpath(args.src) + os.sep):
        sys.exit(f"hankel_dual imported from {hankel_dual.__file__}, not from {args.src}")

    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS, Outcome

    workload = WORKLOADS[args.workload](args.seed)
    outcome = Outcome()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install("hankel_dual")
    passes, cpu_passes, busy = [], [], []
    start = time.perf_counter()
    while len(passes) < workload.min_passes or time.perf_counter() - start < args.seconds:
        cpu0 = time.process_time()
        seconds, result = workload.run_pass()
        cpu_passes.append(time.process_time() - cpu0)
        passes.append(seconds)
        busy.append(workload.row_busy_s(result))
        workload.check(len(passes) - 1, result, outcome)
    if tracer:
        tracer.uninstall()
    wall_s = statistics.median(passes)

    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "passes": passes,
        "wall_s": wall_s,
        "cpu_passes": cpu_passes,
        "pass_cpu_s": statistics.median(cpu_passes),
        "row_seconds": outcome.row_seconds,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "consistent": outcome.consistent,
        "misses": outcome.misses(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "machine": machine_info(),
        "layers": None,
    }
    if tracer:
        doc["layers"] = layer_metrics(
            tracer.spans, len(passes), workload.jobs, statistics.fmean(busy)
        )
        doc["layers"]["trace.wall_s"] = wall_s
        if args.spans:
            tracer.dump(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main()
