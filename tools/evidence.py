"""Evidence that a change keeps the program's numbers: dump them, diff two dumps.

Run from the root of a checkout:

    python tools/evidence.py dump SRC OUT
    python tools/evidence.py diff A B

``dump`` imports ``hankel_dual`` from SRC, the ``src`` directory of any
checkout, in the fresh interpreter the command starts, and writes one
JSON document to OUT.  Its sections:

* ``verify@default`` and ``verify@1e-08`` ... ``verify@1e-15``: every
  catalog row at the class tolerances and at each ladder rung, keyed
  ``T03[0]``, with ``repr`` of lhs, rhs and quad_abs_err, the status
  and the evaluations;
* ``failures``: every failure-seed row;
* ``cli``: what ``hankel-dual verify`` (text, JSON, CSV), ``check``
  (text, JSON) and ``list`` (text, JSON) print, and their exit codes,
  with the wall time taken out;
* ``roundtrip@0`` ... ``roundtrip@22``: the ``repr`` of every
  ``dual_roundtrip`` residual of one benchmark pass at that seed, at
  the points of ``bench/workloads.py``'s ``RoundtripWorkload(seed)``
  (this checkout's, so both sides of a diff run the same points).

Beside the sections it records the rows that fail the benchmark's
round-trip check at each seed, and the CPU seconds of each section;
neither is compared.  A full dump takes about 30 s of CPU on a 2-core
x86-64 machine.

``diff`` says, per section, whether the two dumps are identical and
lists the rows that moved, then the failing round-trip rows and the CPU
of each seed on both sides.  It exits 0 when every section is identical
and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import re
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNGS = (1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 1e-15)
SEEDS = tuple(range(23))


def _workloads():
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _import_from(src: Path):
    """Import hankel_dual from ``src``; refuse one already loaded from elsewhere."""
    if "hankel_dual" not in sys.modules:
        sys.path.insert(0, str(src))
    import hankel_dual

    if not Path(hankel_dual.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"evidence: hankel_dual comes from {hankel_dual.__file__}, not {src}")


def _cli_output(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    text = re.sub(r'^  "wall_seconds": .*\n', "", buf.getvalue(), flags=re.M)
    text = re.sub(r"\(\d+\.\d s\)$", "(wall time)", text, flags=re.M)
    return {"exit": code, "stdout": text}


def collect(entry_ids=None, failure_ids=None, seeds=SEEDS, points=None) -> dict:
    """The evidence document of the imported ``hankel_dual``.

    ``None`` selects every entry and every failure seed.  ``points``
    keeps only the first that many points of each round-trip seed.
    """
    import numpy
    import scipy

    from hankel_dual import catalog, cli, verify

    workloads = _workloads()
    entries = [catalog.entry_by_id(i) for i in entry_ids] if entry_ids else catalog.all_entries()
    failures = (
        [catalog.failure_by_id(i) for i in failure_ids] if failure_ids else catalog.all_failures()
    )
    sections, cpu_s, failing = {}, {}, {}

    for tol in (None,) + RUNGS:
        name = "verify@" + ("default" if tol is None else f"{tol:.0e}")
        t = time.process_time()
        sections[name] = {
            f"{r.entry_id}[{r.grid_index}]": {
                "lhs": repr(r.lhs), "rhs": repr(r.rhs), "quad_abs_err": repr(r.quad_abs_err),
                "status": r.status, "evaluations": r.evaluations,
            }
            for e in entries for r in verify.verify_entry(e, tol)
        }
        cpu_s[name] = time.process_time() - t

    sections["failures"] = {s.id: verify.verify_failure(s).as_dict() for s in failures}

    pick_entries = [a for i in entry_ids or () for a in ("--entry", i)]
    pick_seeds = [a for i in failure_ids or () for a in ("--seed", i)]
    commands = [
        ["verify", *pick_entries],
        ["verify", *pick_entries, "--format", "json"],
        ["verify", *pick_entries, "--format", "csv"],
        ["check", *pick_seeds],
        ["check", *pick_seeds, "--json"],
        ["list"],
        ["list", "--json"],
    ]
    sections["cli"] = {" ".join(argv): _cli_output(cli, argv) for argv in commands}

    for seed in seeds:
        w = workloads.RoundtripWorkload(seed)
        w.points = w.points[:points]
        t = time.process_time()
        _, results = w.run_pass()
        cpu_s[f"roundtrip@{seed}"] = time.process_time() - t
        outcome = workloads.Outcome()
        w.check(0, results, outcome)
        rows = {}
        for i, (name, r, _, out, _) in enumerate(results):
            label = f"#{i} {name}@r={r:.6g}"
            if isinstance(out, Exception):
                rows[label] = f"raised {type(out).__name__}: {out}"
            else:
                rows[label] = repr(out[0][1]) if len(out) == 1 else repr(out)
        sections[f"roundtrip@{seed}"] = rows
        failing[str(seed)] = [label for (_, label), p in outcome.problems.items() if p]

    return {
        "kind": "hankel_dual_evidence",
        "machine": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                    "scipy": scipy.__version__},
        "sections": sections,
        "roundtrip_failing": failing,
        "cpu_s": cpu_s,
    }


def dump(src, out, **select) -> dict:
    """Import ``hankel_dual`` from ``src``, collect, and write to ``out``."""
    src = Path(src).resolve()
    _import_from(src)
    doc = {"src": str(src), **collect(**select)}
    Path(out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return doc


def _move(a, b) -> str:
    """How one row moved from A to B; for a command, its first changed line."""
    if not (isinstance(a, dict) and isinstance(b, dict) and "stdout" in a and "stdout" in b):
        return f"{json.dumps(a)} -> {json.dumps(b)}"
    la, lb = a["stdout"].splitlines() + ["<end>"], b["stdout"].splitlines() + ["<end>"]
    k = next(k for k, (x, y) in enumerate(zip(la, lb)) if x != y or y == "<end>")
    return f"exit {a['exit']} -> {b['exit']}, line {k + 1}: {la[k]!r} -> {lb[k]!r}"


def diff(a: dict, b: dict) -> tuple:
    """(report lines, whether every section is identical)."""
    sa, sb = a["sections"], b["sections"]
    lines, same = [], True
    for name in list(sa) + [n for n in sb if n not in sa]:
        if name not in sa or name not in sb:
            lines.append(f"{name}: only in {'B' if name in sb else 'A'}")
            same = False
            continue
        ra, rb = sa[name], sb[name]
        keys = list(ra) + [k for k in rb if k not in ra]
        moved = [k for k in keys if ra.get(k) != rb.get(k)]
        if not moved:
            lines.append(f"{name}: identical ({len(keys)} rows)")
            continue
        same = False
        lines.append(f"{name}: {len(moved)} of {len(keys)} rows moved")
        lines += [f"    {k}: {_move(ra.get(k), rb.get(k))}" for k in moved]
    fa, fb = a["roundtrip_failing"], b["roundtrip_failing"]
    ca, cb = a["cpu_s"], b["cpu_s"]
    lines.append("roundtrip rows failing the benchmark check per pass, and pass CPU s (A / B):")
    for seed in list(fa) + [s for s in fb if s not in fa]:
        key = f"roundtrip@{seed}"
        rows_a, rows_b = fa.get(seed, []), fb.get(seed, [])
        line = (f"    seed {seed}: {len(rows_a)} / {len(rows_b)} failing, "
                f"{ca.get(key, float('nan')):.2f} / {cb.get(key, float('nan')):.2f} s")
        if rows_a or rows_b:
            line += f"  A {rows_a}  B {rows_b}"
        lines.append(line)
    return lines, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump", help="write the evidence of one checkout's src")
    p_dump.add_argument("src", help="the src directory of a checkout")
    p_dump.add_argument("out", help="the JSON file to write")
    p_diff = sub.add_parser("diff", help="compare two dumps")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.src, args.out)
        return 0
    docs = [json.loads(Path(p).read_text(encoding="utf-8")) for p in (args.a, args.b)]
    lines, same = diff(*docs)
    print(f"A = {args.a}\nB = {args.b}")
    print("\n".join(lines))
    print("identical" if same else "moved")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
