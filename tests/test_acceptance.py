"""Acceptance gate for the package.

Seven criteria:

1. every catalog entry passes on its full default grid (>= 3 points) at
   the class tolerance, within a five-minute wall budget, serially;
2. every documented failure seed is judged inadmissible at the expected
   endpoint with zero Inconclusive verdicts, while the exp(-x) control
   seed is admissible;
3. forward-then-inverse round trips reproduce five smooth seeds to 1e-6
   and recover the jump midpoint of a discontinuous seed to 1e-5;
4. at least 200 special-function contract assertions hold, each on a
   function that the verifier or the round trip runs;
5. every quadrature error estimate is honest: |value - oracle| is
   within 5x the claimed bound on every pinned comparison;
6. a corrupted closed form produces Fail rows, and a run is bit-identical
   whether it starts with no Bessel-zero tables or with every table an
   earlier run grew;
7. pinned spot checks on individual values.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.special as sp

from contracts import contract_checks
from hankel_dual import catalog, specfun, verify
from hankel_dual.catalog import ParamPoint, heron_area
from hankel_dual.hankel import SeedFunction, check_condition, dual_roundtrip


@pytest.fixture(scope="module")
def full_report():
    return verify.run_all(catalog.all_entries(), [])


# -- criterion 1: full catalog passes within budget --------------------------


def test_all_entries_pass_on_default_grids(full_report):
    assert len({r.entry_id for r in full_report.rows}) == 40
    bad = [r for r in full_report.rows if r.status != verify.PASS]
    assert not bad, [(r.entry_id, r.grid_index, r.status, r.rel_err) for r in bad]
    per_entry = {}
    for r in full_report.rows:
        per_entry[r.entry_id] = per_entry.get(r.entry_id, 0) + 1
    assert all(n >= 3 for n in per_entry.values())


def test_wall_clock_within_budget(full_report):
    assert full_report.wall_seconds <= 300.0


def test_class_tolerances_applied(full_report):
    for r in full_report.rows:
        assert r.tolerance == catalog.TOLERANCES[r.tol_class]
        assert r.rel_err <= r.tolerance


# -- criterion 2: failure corpus ---------------------------------------------


def test_all_failure_seeds_inadmissible_no_inconclusive():
    rows = [verify.verify_failure(s) for s in catalog.all_failures()]
    assert len(rows) == 16
    for r in rows:
        assert r.status == verify.PASS, (r.seed_id, r.status, r.failing_endpoint)
        assert r.admissible is False
        assert r.failing_endpoint == r.expected_endpoint
    assert not [r for r in rows if r.status == verify.INCONCLUSIVE]


def test_control_seed_admissible():
    verdict = check_condition(catalog.control_seed())
    assert verdict.admissible
    assert verdict.failing_endpoint is None


# -- criterion 3: transform round trips --------------------------------------


_ROUNDTRIP_SEEDS = [
    ("gaussian", SeedFunction(lambda x: np.exp(-x * x), 0.0, -math.inf), 0.0),
    ("K0", SeedFunction(lambda x: sp.kv(0.0, np.maximum(x, 1e-300)), 0.0, -math.inf), 0.0),
    ("exp", SeedFunction(lambda x: np.exp(-x), 0.0, -math.inf), 0.0),
    ("x exp", SeedFunction(lambda x: x * np.exp(-x), 1.0, -math.inf), 1.0),
    (
        "truncated power",
        SeedFunction(lambda x: np.where(x <= 1.0, 1.0 - x * x, 0.0), 0.0, None,
                     support_upper=1.0),
        0.0,
    ),
]


@pytest.mark.parametrize("name,F,nu", _ROUNDTRIP_SEEDS, ids=[c[0] for c in _ROUNDTRIP_SEEDS])
def test_roundtrip_smooth(name, F, nu):
    for r, resid in dual_roundtrip(F, nu, [0.5, 1.0, 2.0], tol=1e-6):
        assert resid <= 1e-6, (name, r, resid)


def test_roundtrip_jump_midpoint():
    indicator = SeedFunction(
        lambda x: np.where(x <= 1.0, 1.0, 0.0), 0.0, None, support_upper=1.0
    )
    ((_, resid),) = dual_roundtrip(indicator, 0.0, [1.0], tol=1e-6)
    # F(1) = 1 but the inverse converges to the midpoint 1/2
    assert abs(resid - 0.5) <= 1e-5


# -- criterion 4: special-function contracts ---------------------------------


def test_contract_corpus():
    checks = contract_checks()
    assert len(checks) >= 200
    for label, got, want, tol in checks:
        assert abs(got - want) <= tol * (1.0 + abs(want)), label


# -- criterion 5: honest error estimates -------------------------------------


def test_error_estimates_honest_against_oracles(full_report):
    for r in full_report.rows:
        true_err = abs(r.lhs - r.rhs)
        assert true_err <= 5.0 * r.quad_abs_err, (
            r.entry_id, r.grid_index, true_err, r.quad_abs_err,
        )


# -- criterion 6: corrupted fixture and determinism ---------------------------


def test_corrupted_rhs_detected():
    entry = catalog.entry_by_id("T02a")
    rhs = entry.rhs
    broken = dataclasses.replace(entry, rhs=lambda P: 1.01 * float(rhs(P)))
    rows = verify.verify_entry(broken, tol=1e-3)
    assert rows and all(r.status == verify.FAIL for r in rows)


def test_cold_report_identical_to_warm():
    entries = [catalog.entry_by_id(i) for i in ("T02a", "T03", "T04", "T21", "T23")]
    failures = catalog.all_failures()[:4]
    specfun._zero_cache.clear()
    cold = verify.run_all(entries, failures)
    warm = verify.run_all(entries, failures)
    assert cold.rows == warm.rows
    assert cold.failure_rows == warm.failure_rows
    untimed = [json.loads(r.to_json()) for r in (cold, warm)]
    for doc in untimed:
        del doc["wall_seconds"]
    assert untimed[0] == untimed[1]


# -- criterion 7: pinned spot values ------------------------------------------


def test_spot_value_finite_bessel_moment():
    entry = catalog.entry_by_id("T02a")
    res = entry.lhs(ParamPoint.of(nu=1.0, alpha=1.0, z=1.0), tol=1e-10)
    assert res.converged
    assert abs(res.value - sp.jv(1.0, 1.0)) <= 1e-9


def test_spot_value_half_order_tail():
    entry = catalog.entry_by_id("T03")
    res = entry.lhs(ParamPoint.of(nu=0.5, z=1.0), tol=1e-8)
    assert res.converged
    assert abs(res.value - math.sqrt(math.pi / 2.0) * math.exp(-1.0)) <= 1e-7


def test_spot_value_heron():
    assert heron_area(3.0, 4.0, 5.0) == 6.0
