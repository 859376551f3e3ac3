"""The benchmark's workloads: what one pass runs and how its rows are checked.

Every row of every pass is checked; a row that misses a check counts as
failed and the pass goes on.  A separate flag, ``consistent``, records
whether each verdict the program printed agrees with the numbers it
printed next to it (a Pass row within its tolerance, a residual for the
radius that was asked for).
"""

from __future__ import annotations

import math
import random
import time

import numpy as np
import scipy.special as sp

from hankel_dual import catalog, hankel, verify
from hankel_dual.hankel import SeedFunction

CATALOG_ROWS = 120
FAILURE_ROWS = 16
ERROR_BOUND_FACTOR = 5.0
ROUNDTRIP_TOL = 1e-6
JUMP_TOL = 1e-5


class Outcome:
    """Rows attempted over all passes of a run, with the problems of each."""

    def __init__(self):
        self.problems = {}  # (pass index, row label) -> list of problems
        self.row_seconds = []
        self.consistent = True

    def row(self, key, seconds, problems):
        self.problems.setdefault(key, []).extend(problems)
        if seconds is not None:
            self.row_seconds.append(seconds)

    @property
    def attempted(self):
        return len(self.problems)

    @property
    def failed(self):
        return sum(1 for p in self.problems.values() if p)

    def misses(self, limit=50):
        bad = [(k, p) for k, p in self.problems.items() if p]
        return [f"pass {i} {label}: {'; '.join(p)}" for (i, label), p in bad[:limit]]


def _entry_problems(row):
    diff = abs(row.lhs - row.rhs)
    rel = diff / (1.0 + abs(row.rhs))
    problems = []
    if row.status != verify.PASS:
        problems.append(f"status {row.status}")
    if row.tolerance != catalog.TOLERANCES[row.tol_class]:
        problems.append(f"tolerance {row.tolerance:g} is not the {row.tol_class} class tolerance")
    if not rel <= row.tolerance:
        problems.append(f"rel_err {rel:.3e} > {row.tolerance:g}")
    if not diff <= ERROR_BOUND_FACTOR * row.quad_abs_err:
        problems.append(f"|lhs - rhs| {diff:.3e} > 5 x quad_abs_err {row.quad_abs_err:.3e}")
    same_rel = math.isclose(rel, row.rel_err, rel_tol=1e-12) or (
        math.isnan(rel) and math.isnan(row.rel_err)
    )
    return problems, same_rel and (row.status != verify.PASS or rel <= row.tolerance)


def _failure_problems(row):
    matches = row.admissible is False and row.failing_endpoint == row.expected_endpoint
    problems = []
    if row.status != verify.PASS:
        problems.append(f"status {row.status}")
    if not matches:
        problems.append(
            f"admissible={row.admissible} endpoint={row.failing_endpoint}, "
            f"expected {row.expected_endpoint}"
        )
    return problems, row.status != verify.PASS or matches


class CatalogWorkload:
    """``verify.run_all`` over the 40 entries and 16 failure seeds, jobs=1.

    This is what ``hankel-dual verify`` runs.  The input is the fixed
    catalog, so the workload seed is not used.  A run makes at least one
    pass; a pass takes longer than a run's ``--seconds`` today, so the
    run budget leaves room for one.
    """

    jobs = 1
    min_passes = 1

    def __init__(self, seed):
        pass

    def run_pass(self):
        t0 = time.perf_counter()
        report = verify.run_all(jobs=self.jobs)
        report.to_json()
        return time.perf_counter() - t0, report

    def check(self, index, report, outcome: Outcome):
        for row in report.rows:
            problems, consistent = _entry_problems(row)
            outcome.consistent &= consistent
            outcome.row((index, f"{row.entry_id}[{row.grid_index}]"), row.seconds, problems)
        for row in report.failure_rows:
            problems, consistent = _failure_problems(row)
            outcome.consistent &= consistent
            outcome.row((index, row.seed_id), row.seconds, problems)
        for kind, want, got in (("entry", CATALOG_ROWS, len(report.rows)),
                                ("failure", FAILURE_ROWS, len(report.failure_rows))):
            for k in range(got, want):
                outcome.row((index, f"missing {kind} row {k}"), None, ["not produced"])

    @staticmethod
    def row_busy_s(report):
        return sum(r.seconds for r in report.rows + report.failure_rows)


def _smooth_seeds():
    """The five smooth acceptance seeds as (F, nu)."""
    return (
        (SeedFunction(lambda x: np.exp(-x * x), 0.0, -math.inf, name="gaussian"), 0.0),
        (SeedFunction(lambda x: sp.kv(0.0, np.maximum(x, 1e-300)), 0.0, -math.inf,
                      name="K0"), 0.0),
        (SeedFunction(lambda x: np.exp(-x), 0.0, -math.inf, name="exp"), 0.0),
        (SeedFunction(lambda x: x * np.exp(-x), 1.0, -math.inf, name="x exp"), 1.0),
        (SeedFunction(lambda x: np.where(x <= 1.0, 1.0 - x * x, 0.0), 0.0, None,
                      support_upper=1.0, name="truncated power"), 0.0),
    )


def roundtrip_radii(seed, count):
    """Three radii for each of ``count`` smooth seeds.

    Seed 0 is the acceptance grid {0.5, 1, 2}.  Any other seed draws one
    offset u in [0, 1); smooth seed j gets u_j = u for even j and 1 - u
    for odd j, and the radii 0.5 * 4**((u_j + k) / 3), k = 0, 1, 2.  Each
    radius is log-uniform over one third of [0.5, 2], so every draw
    covers the whole range.  The offsets are antithetic: the smooth seeds
    cost more at smaller r, and when one seed's radii sit at the dear end
    of their thirds, its neighbour's sit at the cheap end.  The cost of
    the drawn radii varies less between seeds than with independent
    offsets.
    """
    if seed == 0:
        return [(0.5, 1.0, 2.0)] * count
    u = random.Random(seed).random()
    return [
        tuple(0.5 * 4.0 ** ((u_j + k) / 3.0) for k in range(3))
        for u_j in (1.0 - u if j % 2 else u for j in range(count))
    ]


class RoundtripWorkload:
    """``dual_roundtrip`` at tol=1e-6 on the six acceptance seeds.

    One row is one radius.  A pass runs the five smooth seeds at the
    acceptance grid {0.5, 1, 2} and again at the radii the workload seed
    draws (``roundtrip_radii``; seed 0 draws the grid itself), then the
    indicator at r = 1.  With the fixed half, the seed moves a smaller
    share of a pass's cost.  The smooth seeds must come back within
    1e-6; the indicator, at its jump, within 1e-5 of the midpoint, so its
    residual against F(1) = 1 is 1/2.  A run makes one pass: a pass fills
    the time a run can have, and the only cache it would warm, the
    Bessel-zero tables, costs milliseconds of it.
    """

    jobs = 1
    min_passes = 1

    def __init__(self, seed):
        smooth = _smooth_seeds()
        self.points = [
            (F, nu, r, False)
            for draw in (roundtrip_radii(0, len(smooth)), roundtrip_radii(seed, len(smooth)))
            for (F, nu), radii in zip(smooth, draw)
            for r in radii
        ]
        indicator = SeedFunction(
            lambda x: np.where(x <= 1.0, 1.0, 0.0), 0.0, None, support_upper=1.0,
            name="indicator",
        )
        self.points.append((indicator, 0.0, 1.0, True))

    def run_pass(self):
        results = []
        t0 = time.perf_counter()
        for F, nu, r, at_jump in self.points:
            t = time.perf_counter()
            try:
                out = hankel.dual_roundtrip(F, nu, [r], tol=ROUNDTRIP_TOL)
            except Exception as exc:  # a failing point is a failed row, not an aborted pass
                out = exc
            results.append((F.name, r, at_jump, out, time.perf_counter() - t))
        return time.perf_counter() - t0, results

    def check(self, index, results, outcome: Outcome):
        for i, (name, r, at_jump, out, seconds) in enumerate(results):
            key = (index, f"#{i} {name}@r={r:.6g}")
            if isinstance(out, Exception):
                outcome.row(key, seconds, [f"raised {type(out).__name__}: {out}"])
                continue
            if not (len(out) == 1 and out[0][0] == r):
                outcome.consistent = False
                outcome.row(key, seconds, [f"returned {out!r} for radius {r!r}"])
                continue
            resid = out[0][1]
            if at_jump:
                miss = abs(resid - 0.5)
                problems = [] if miss <= JUMP_TOL else [f"|resid - 0.5| = {miss:.3e} > {JUMP_TOL:g}"]
            else:
                problems = [] if resid <= ROUNDTRIP_TOL else [f"resid {resid:.3e} > {ROUNDTRIP_TOL:g}"]
            outcome.row(key, seconds, problems)

    @staticmethod
    def row_busy_s(results):
        return 0.0


WORKLOADS = {"catalog": CatalogWorkload, "roundtrip": RoundtripWorkload}
