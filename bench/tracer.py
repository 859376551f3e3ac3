"""In-memory spans around calls into the hankel_dual modules.

The tracer works from outside the package: it replaces module and class
attributes with timing wrappers and puts the originals back afterwards.
A function that a module imports by name (``from .specfun import
bessel_zeros``) is looked up in the importing module's namespace, so the
same wrapper is installed there too.  Attributes that do not exist in
the traced version of the package are skipped, and their metrics read 0.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import threading
import time

# (defining module, attribute, span name, modules that import it by name)
LAYER_CALLS = (
    ("specfun", "bessel_k", "specfun.bessel_k", ("catalog",)),
    ("specfun", "bessel_zeros", "specfun.bessel_zeros", ("quad", "hankel", "catalog")),
    ("quad", "integrate_entry", "quad.integrate_entry", ()),
    ("quad", "integrate_oscillatory_tail", "quad.integrate_oscillatory_tail", ()),
    ("quad", "integrate_finite", "quad.integrate_finite", ()),
    ("quad", "epsilon_extrapolate", "quad.epsilon_extrapolate", ()),
    ("quad", "OscillationSpec.kernel", "quad.OscillationSpec.kernel", ()),
    ("hankel", "check_condition", "hankel.check_condition", ("verify",)),
    ("hankel", "hankel_forward", "hankel.forward", ()),
    ("hankel", "_forward_values", "hankel.forward", ()),
    ("hankel", "hankel_inverse", "hankel.inverse", ()),
    ("hankel", "dual_roundtrip", "hankel.dual_roundtrip", ()),
    ("catalog", "IntegralEntry.lhs", "catalog.lhs", ()),
    ("verify", "run_all", "verify.run_all", ()),
    ("verify", "verify_failure", "verify.verify_failure", ()),
    ("verify", "Report.to_json", "verify.to_json", ()),
)

QUAD_FUNCTIONS = (
    "integrate_entry",
    "integrate_oscillatory_tail",
    "integrate_finite",
    "epsilon_extrapolate",
    "OscillationSpec.kernel",
)

NAME, START, END, PARENT, ROW, NOTE = range(6)


def _evaluations(result):
    """Evaluation count of a QuadResult or of a (values, errors, count) tuple."""
    if isinstance(result, tuple):
        return int(result[2])
    return int(result.evaluations)


def _lhs_row(entry, params, *_, **__):
    try:
        index = list(entry.default_grid).index(params)
    except ValueError:
        return f"{entry.id}[{params!r}]"
    return f"{entry.id}[{index}]"


# span name -> (row id from the call's arguments, note taken from the result)
_HOOKS = {
    "quad.integrate_entry": (None, lambda out: int(not out.converged)),
    "hankel.forward": (None, _evaluations),
    "catalog.lhs": (_lhs_row, _evaluations),
    "verify.verify_failure": (lambda seed, *_, **__: seed.id, None),
    "hankel.dual_roundtrip": (lambda F, nu, r_grid, *_, **__: f"{F.name}@r={r_grid[0]:.6g}", None),
}


class Tracer:
    """Records spans ``[name, start, end, parent, row, note]`` in memory.

    ``parent`` is the enclosing span of the same thread, ``row`` the
    verification row or round-trip point the call belongs to, and
    ``note`` a number read from the result (evaluations, unconverged).
    """

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._undo = []

    def _wrap(self, fn, name):
        row_of, note_of = _HOOKS.get(name, (None, None))
        local, spans, clock = self._local, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            outer_row = getattr(local, "row", None)
            row = row_of(*args, **kwargs) if row_of is not None else outer_row
            local.row = row
            span = [name, clock(), 0.0, stack[-1] if stack else None, row, None]
            stack.append(span)
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                local.row = outer_row
            if note_of is not None:
                span[NOTE] = note_of(out)
            return out

        return traced

    def install(self, package):
        """Wrap every call in LAYER_CALLS that exists in ``package``."""
        for module_name, attr, name, importers in LAYER_CALLS:
            module = importlib.import_module(f"{package}.{module_name}")
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(leaf) if owner is not None else None
                owners = [owner]
            else:
                original = getattr(module, leaf, None)
                owners = [module] + [
                    importlib.import_module(f"{package}.{m}") for m in importers
                ]
            if original is None:
                continue
            wrapper = self._wrap(original, name)
            for target in owners:
                if getattr(target, leaf, None) is original:
                    setattr(target, leaf, wrapper)
                    self._undo.append((target, leaf, original))

    def uninstall(self):
        while self._undo:
            target, leaf, original = self._undo.pop()
            setattr(target, leaf, original)

    def dump(self, path):
        """Write the spans as gzip-compressed JSON lines."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                parent = index[id(s[PARENT])] if s[PARENT] is not None else None
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": parent, "row": s[ROW], "note": s[NOTE],
                }) + "\n")


def layer_metrics(spans, passes, jobs, row_busy_s):
    """Per-pass layer metrics from a list of spans.

    ``_calls``, ``_s`` and the counts read from results cover the
    outermost span of a name only, so ``hankel_forward`` calling
    ``_forward_values`` is one forward call.  ``_self_s`` metrics are a
    span's duration minus its direct children, which on one thread never
    overlap each other.
    """
    calls, incl, self_s, notes = {}, {}, {}, {}
    child_time = {}
    for s in spans:
        if s[PARENT] is not None:
            key = id(s[PARENT])
            child_time[key] = child_time.get(key, 0.0) + (s[END] - s[START])
    for s in spans:
        name, dur = s[NAME], s[END] - s[START]
        self_s[name] = self_s.get(name, 0.0) + dur - child_time.get(id(s), 0.0)
        outer = s[PARENT]
        while outer is not None and outer[NAME] != name:
            outer = outer[PARENT]
        if outer is None:
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + dur
            if s[NOTE] is not None:
                notes[name] = notes.get(name, 0) + s[NOTE]

    def per_pass(table, name):
        return table.get(name, 0) / passes

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "specfun.bessel_k_calls": per_pass(calls, "specfun.bessel_k"),
        "specfun.bessel_k_s": per_pass(incl, "specfun.bessel_k"),
        "specfun.bessel_zeros_calls": per_pass(calls, "specfun.bessel_zeros"),
        "specfun.bessel_zeros_s": per_pass(incl, "specfun.bessel_zeros"),
    }
    for fn in QUAD_FUNCTIONS:
        m[f"quad.{fn}_calls"] = per_pass(calls, f"quad.{fn}")
        m[f"quad.{fn}_self_s"] = per_pass(self_s, f"quad.{fn}")
    m["quad.unconverged_ratio"] = ratio(
        notes.get("quad.integrate_entry", 0), calls.get("quad.integrate_entry", 0)
    )
    run_all_s = per_pass(incl, "verify.run_all")
    lhs_s = per_pass(incl, "catalog.lhs")
    evaluations = per_pass(notes, "catalog.lhs")
    m.update({
        "hankel.check_condition_calls": per_pass(calls, "hankel.check_condition"),
        "hankel.check_condition_s": per_pass(incl, "hankel.check_condition"),
        "hankel.forward_calls": per_pass(calls, "hankel.forward"),
        "hankel.forward_s": per_pass(incl, "hankel.forward"),
        "hankel.forward_evals": per_pass(notes, "hankel.forward"),
        "hankel.inverse_calls": per_pass(calls, "hankel.inverse"),
        "hankel.inverse_self_s": per_pass(self_s, "hankel.inverse"),
        "catalog.lhs_calls": per_pass(calls, "catalog.lhs"),
        "catalog.lhs_s": lhs_s,
        "catalog.evaluations": evaluations,
        "catalog.evals_per_s": ratio(evaluations, lhs_s),
        "verify.run_all_s": run_all_s,
        "verify.row_busy_s": row_busy_s,
        "verify.pool_busy_ratio": ratio(row_busy_s, run_all_s * jobs),
        "verify.to_json_s": per_pass(incl, "verify.to_json"),
        "trace.spans": len(spans) / passes,
    })
    return m
