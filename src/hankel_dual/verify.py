"""Verification harness: run catalog entries and seeds, emit reports.

A verification row compares the quadrature value of an entry's left-hand
side against its closed-form right-hand side at one grid point:

* ``Pass``          - quadrature converged and the relative error
                      |lhs - rhs| / (1 + |rhs|) is within tolerance;
* ``Fail``          - quadrature converged but the identity is violated;
* ``Inconclusive``  - quadrature did not converge, so no verdict.

Failure-seed rows check the integrability condition instead: ``Pass``
means the verdict (inadmissible, at the documented endpoint) matches the
catalog's expectation.

A row field declared ``compare=False`` (the row's ``seconds``) is neither
compared nor reported: row equality and the report keys both come from
the compared fields, so timings never change a report or its v1 schema.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

from . import catalog
from .errors import InconclusiveConditionError
from .hankel import check_condition

__all__ = [
    "SCHEMA_VERSION",
    "VerificationRow",
    "FailureRow",
    "Report",
    "verify_entry",
    "verify_failure",
    "run_all",
]

SCHEMA_VERSION = 1

PASS = "Pass"
FAIL = "Fail"
INCONCLUSIVE = "Inconclusive"

_CSV_COLUMNS = (
    "row_kind", "id", "grid_index", "params", "status", "lhs", "rhs",
    "rel_err", "quad_abs_err", "tolerance", "evaluations",
    "tol_class", "expected_endpoint", "failing_endpoint", "provenance",
)


def _reported(row) -> dict:
    """The row's compared fields in declaration order: its report keys."""
    return {f.name: getattr(row, f.name) for f in fields(row) if f.compare}


@dataclass(frozen=True)
class VerificationRow:
    entry_id: str
    grid_index: int
    params: dict
    status: str
    lhs: float
    rhs: float
    rel_err: float
    quad_abs_err: float
    tolerance: float
    evaluations: int
    tol_class: str
    provenance: str
    seconds: float = field(compare=False, default=0.0)

    def as_dict(self) -> dict:
        return _reported(self)


@dataclass(frozen=True)
class FailureRow:
    seed_id: str
    status: str
    admissible: Optional[bool]
    failing_endpoint: Optional[str]
    expected_endpoint: str
    zero_exponent: Optional[float]
    inf_exponent: Optional[float]
    provenance: str
    seconds: float = field(compare=False, default=0.0)

    def as_dict(self) -> dict:
        return _reported(self)


@dataclass(frozen=True)
class Report:
    rows: tuple
    failure_rows: tuple
    tolerance_override: Optional[float]
    wall_seconds: float

    @property
    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, INCONCLUSIVE: 0}
        for r in self.rows:
            out[r.status] += 1
        for r in self.failure_rows:
            out[r.status] += 1
        return out

    @property
    def all_passed(self) -> bool:
        c = self.counts
        return c[FAIL] == 0 and c[INCONCLUSIVE] == 0

    def to_json(self) -> str:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": "verification_report",
            "tolerance_override": self.tolerance_override,
            "wall_seconds": round(self.wall_seconds, 3),
            "summary": self.counts,
            "rows": [r.as_dict() for r in self.rows],
            "failure_rows": [r.as_dict() for r in self.failure_rows],
        }
        return json.dumps(doc, indent=2, allow_nan=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf, _CSV_COLUMNS, extrasaction="ignore", lineterminator="\n"
        )
        writer.writeheader()
        for r in self.rows:
            params = ";".join(f"{k}={v:g}" for k, v in sorted(r.params.items()))
            writer.writerow(
                {**r.as_dict(), "row_kind": "entry", "id": r.entry_id, "params": params}
            )
        for r in self.failure_rows:
            writer.writerow({**r.as_dict(), "row_kind": "failure_seed", "id": r.seed_id})
        return buf.getvalue()


def verify_entry(
    entry: catalog.IntegralEntry,
    tol: Optional[float] = None,
) -> list:
    """Verify one entry on its default grid; one row per grid point."""
    tolerance = entry.tolerance if tol is None else tol
    rows = []
    for gi, params in enumerate(entry.default_grid):
        t0 = time.perf_counter()
        res = entry.lhs(params, tol=tolerance)
        rhs = float(entry.rhs(params))
        rel = abs(res.value - rhs) / (1.0 + abs(rhs))
        if not res.converged:
            status = INCONCLUSIVE
        elif rel <= tolerance:
            status = PASS
        else:
            status = FAIL
        rows.append(VerificationRow(
            entry_id=entry.id,
            grid_index=gi,
            params=params.as_dict(),
            status=status,
            lhs=float(res.value),
            rhs=rhs,
            rel_err=float(rel),
            quad_abs_err=float(res.abs_err),
            tolerance=tolerance,
            evaluations=res.evaluations,
            tol_class=entry.tol_class,
            provenance=entry.provenance,
            seconds=time.perf_counter() - t0,
        ))
    return rows


def verify_failure(seed: catalog.FailureSeed) -> FailureRow:
    """Check that a documented failure seed is indeed inadmissible."""
    t0 = time.perf_counter()
    try:
        verdict = check_condition(seed.seed)
    except InconclusiveConditionError:
        status, admissible, endpoint, p_zero, p_inf = INCONCLUSIVE, None, None, None, None
    else:
        admissible, endpoint = verdict.admissible, verdict.failing_endpoint
        p_zero, p_inf = verdict.zero_exponent, verdict.inf_exponent
        ok = not admissible and endpoint == seed.expected_endpoint
        status = PASS if ok else FAIL
    return FailureRow(
        seed_id=seed.id,
        status=status,
        admissible=admissible,
        failing_endpoint=endpoint,
        expected_endpoint=seed.expected_endpoint,
        zero_exponent=p_zero,
        inf_exponent=p_inf,
        provenance=seed.provenance,
        seconds=time.perf_counter() - t0,
    )


def run_all(
    entries: Optional[Sequence] = None,
    failures: Optional[Sequence] = None,
    jobs: int = 1,
    tol: Optional[float] = None,
) -> Report:
    """Run entries (and failure seeds) and return a canonical report.

    Rows run on ``jobs`` worker threads (one thread at ``jobs=1``) and
    are ordered by catalog document order then grid index regardless of
    the number of threads, so runs at any ``jobs`` produce identical
    reports.
    """
    if entries is None and failures is None:
        entries = catalog.all_entries()
        failures = catalog.all_failures()
    entries = list(entries or [])
    failures = list(failures or [])
    order = {e.id: i for i, e in enumerate(catalog.all_entries())}
    entries.sort(key=lambda e: order.get(e.id, len(order)))

    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        entry_groups = pool.map(verify_entry, entries, itertools.repeat(tol))
        failure_rows = tuple(pool.map(verify_failure, failures))
    return Report(
        rows=tuple(r for group in entry_groups for r in group),
        failure_rows=failure_rows,
        tolerance_override=tol,
        wall_seconds=time.perf_counter() - t0,
    )
