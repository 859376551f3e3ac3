"""Unit tests for the integral catalog."""

import math

import mpmath
import numpy as np
import pytest

from hankel_dual.catalog import (
    TOLERANCES,
    ParamPoint,
    all_entries,
    all_failures,
    catalog_metadata,
    control_seed,
    entry_by_id,
    failure_by_id,
    heron_area,
    l1_l2,
)
from hankel_dual.errors import ParameterError, UnknownIdError


def test_catalog_counts():
    assert len(all_entries()) == 40
    assert len(all_failures()) == 16


def test_entry_ids_unique_and_ordered():
    ids = [e.id for e in all_entries()]
    assert len(set(ids)) == 40
    assert ids == sorted(ids, key=lambda i: (int(i[1:3]), i[3:]))


def test_every_entry_has_three_point_grid():
    for e in all_entries():
        assert len(e.default_grid) >= 3, e.id
        for p in e.default_grid:
            assert not e.violations(p), (e.id, p.label())


def test_tolerance_classes():
    assert TOLERANCES == {"Decaying": 1e-9, "Oscillatory": 1e-7, "Singular": 1e-6}
    for e in all_entries():
        assert e.tol_class in TOLERANCES
        assert e.tolerance == TOLERANCES[e.tol_class]


def test_provenance_is_table_citation():
    cited = [e for e in all_entries() if e.provenance.startswith("GR 6.5")]
    assert len(cited) >= 39  # one classical formula predates the table numbering
    for e in all_entries():
        assert e.provenance
    for s in all_failures():
        assert s.provenance.startswith("GR 6.5"), s.id


def test_groups_partition():
    by_group = {}
    for e in all_entries():
        by_group.setdefault(e.group, []).append(e.id)
    assert sorted(by_group) == [2, 3, 4, 5, 6]
    assert sum(len(v) for v in by_group.values()) == 40


def test_lookup_by_id():
    e = entry_by_id("T03")
    assert e.id == "T03"
    s = failure_by_id("S6512_1a")
    assert s.id == "S6512_1a"
    with pytest.raises(UnknownIdError):
        entry_by_id("T99")
    with pytest.raises(UnknownIdError):
        failure_by_id("nope")


def test_param_point():
    p = ParamPoint.of(nu=0.5, z=2)
    assert p["nu"] == 0.5
    assert p.as_dict() == {"nu": 0.5, "z": 2.0}
    assert "nu=0.5" in p.label()
    with pytest.raises(ParameterError):
        ParamPoint.of(bogus=1.0)
    with pytest.raises(KeyError):
        p["a"]


def test_every_integrand_returns_floats_of_its_nodes_shape():
    # quad hands each piece's integrand(P, u) a float array of nodes and
    # takes back one value per node, at every default grid point
    for e in all_entries():
        for P in e.default_grid:
            for k, piece in enumerate(e.pieces):
                iv = piece.interval(P)
                span = iv.upper - iv.lower if iv.is_finite else 10.0
                u = iv.lower + span * np.linspace(0.05, 0.95, 7)
                got = piece.integrand(P, u)
                assert isinstance(got, np.ndarray), (e.id, k, P.label())
                assert got.dtype == np.float64 and got.shape == u.shape, (e.id, k, P.label())


def test_constraint_violation_raises_before_quadrature():
    e = entry_by_id("T03")
    bad = ParamPoint.of(nu=5.0, z=1.0)  # above the convergence bound
    assert e.violations(bad)
    with pytest.raises(ParameterError):
        e.lhs(bad)


def test_heron_area_pythagorean_exact():
    assert heron_area(3.0, 4.0, 5.0) == 6.0


def test_heron_area_symmetric():
    import itertools

    vals = {heron_area(*perm) for perm in itertools.permutations((2.0, 3.0, 4.0))}
    assert len(vals) == 1


def test_heron_area_degenerate_and_violated():
    assert heron_area(1.0, 2.0, 3.0) == 0.0  # collinear
    assert heron_area(1.0, 1.0, 5.0) == 0.0  # triangle inequality violated


def test_l1_l2_identities():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a, b, c = rng.uniform(0.1, 5.0, size=3)
        l1, l2 = l1_l2(a, b, c)
        assert 0.0 < l1 <= l2
        assert abs(l1 * l2 - b * c) < 1e-12 * (1.0 + b * c)
        s = a * a + b * b + c * c
        assert abs(l1 * l1 + l2 * l2 - s) < 1e-12 * (1.0 + s)
        s1 = math.hypot(a, b + c)
        s2 = math.hypot(a, b - c)
        assert abs((l2 * l2 - l1 * l1) - s1 * s2) < 1e-11 * (1.0 + s1 * s2)


def test_control_seed_admissible():
    from hankel_dual.hankel import check_condition

    seed = control_seed()
    v = check_condition(seed)
    assert v.admissible
    assert v.failing_endpoint is None


def test_failure_seeds_declare_expected_endpoint():
    endpoints = {s.expected_endpoint for s in all_failures()}
    assert endpoints <= {"Zero", "Infinity", "Both"}
    # the corpus exercises failures at both endpoints
    assert "Zero" in endpoints and "Infinity" in endpoints


def test_metadata_schema():
    meta = catalog_metadata()
    assert meta["schema_version"] == 1
    assert len(meta["entries"]) == 40
    assert len(meta["failures"]) == 16
    for e in meta["entries"]:
        assert set(e) == {
            "id", "group", "description", "provenance", "tol_class",
            "tolerance", "pieces", "default_grid",
        }
        assert len(e["default_grid"]) >= 3
    for s in meta["failures"]:
        assert set(s) == {
            "id", "provenance", "description", "expected_endpoint",
            "declared_zero_exponent", "declared_inf_exponent",
        }


@pytest.mark.parametrize("entry_id", ["T02a", "T03", "T04", "T21", "T23", "T28a"])
def test_lhs_matches_rhs_smoke(entry_id):
    # cheap smoke at loose tolerance; the full grid runs in the
    # acceptance suite at class tolerances
    e = entry_by_id(entry_id)
    p = e.default_grid[0]
    res = e.lhs(p, tol=1e-5)
    rhs = float(e.rhs(p))
    assert res.converged
    assert abs(res.value - rhs) / (1.0 + abs(rhs)) <= 1e-5


@pytest.mark.parametrize(
    "entry_id,params",
    [
        ("T17a", {"nu": 0.5, "z": 2.7}),
        ("T18", {"mu": 0.6, "z": 2.7}),
        ("T20", {"nu": 0.471613, "z": 1.0}),
        ("T18", {"mu": 0.655414, "z": 1.4043}),
        ("T18", {"mu": 0.6, "z": 2.0}),
        ("T16", {"nu": 0.0, "z": 0.3}),
        ("T14", {"nu": 1.0, "z": 0.5}),
        ("T17a", {"nu": -0.23, "z": 1.2}),
    ],
)
def test_chirped_entry_off_grid_within_its_bound(entry_id, params):
    # a Bessel factor of sqrt(t) chirps against the kernel; lobes cut at its
    # zeros too would be irregular, and Wynn's epsilon on their sums claims
    # bounds up to 22x under the error at these off-grid points.  Lobes end
    # at kernel zeros only, and each row must stay within its bound
    e = entry_by_id(entry_id)
    P = ParamPoint.of(**params)
    res = e.lhs(P)
    err = abs(res.value - float(e.rhs(P)))
    assert err <= e.tolerance
    assert err <= 5.0 * res.abs_err


@pytest.mark.parametrize("entry_id", ["T11", "T22"])
@pytest.mark.parametrize("grid_index", [0, 1, 2])
def test_endpoint_singular_entry_converges_at_tight_tol(entry_id, grid_index):
    # an inverse square root at the tail's lower end (T11) and a log at
    # each finite piece's lower end (T22) are smoothed by x = end + w s^2, so
    # even a tolerance far under the class one is met, and honestly
    e = entry_by_id(entry_id)
    P = e.default_grid[grid_index]
    res = e.lhs(P, tol=1e-12)
    err = abs(res.value - float(e.rhs(P)))
    assert res.converged, (res, err)
    assert err <= 5.0 * res.abs_err, (res, err)


def test_t22_log_ends_stay_finite_at_1e_14():
    # both finite pieces run in the distance d to the log end, so d = a s^2
    # never rounds to 0 before the end; (2a - v)/a squared minus 1 did, and
    # the log of that 0 (a RuntimeWarning, so an error in this suite) made
    # the lhs -inf
    e = entry_by_id("T22")
    for P in e.default_grid:
        res = e.lhs(P, tol=1e-14)
        assert math.isfinite(res.value), (P, res)


@pytest.mark.parametrize("grid_index", [0, 1, 2])
def test_t11_below_rounding_stays_finite(grid_index):
    # at 1e-13 bisection toward the singular end drives w s^2 below
    # ulp(end); a panel whose node would land on the end, where
    # 1/sqrt(u^2 - 4a^2) is infinite, is not split, so no node is NaN
    # (a RuntimeWarning fails the suite) and the row stays honest
    e = entry_by_id("T11")
    P = e.default_grid[grid_index]
    res = e.lhs(P, tol=1e-13)
    err = abs(res.value - float(e.rhs(P)))
    assert math.isfinite(res.value) and math.isfinite(res.abs_err), res
    assert not res.converged or err <= 5.0 * res.abs_err, (res, err)


@pytest.mark.parametrize("nu", [-0.3, -0.45])
def test_t16_below_minus_quarter_has_its_zeros(nu):
    # |nu| < 1/2 lets the Y_(2 nu) factor have order 2 nu < -1/2; the
    # entry must stay honest there
    e = entry_by_id("T16")
    P = ParamPoint.of(nu=nu, z=1.0)
    res = e.lhs(P)
    err = abs(res.value - float(e.rhs(P)))
    assert err <= 5.0 * res.abs_err, (res, err)
    assert err <= e.tolerance or not res.converged, (res, err)
    # at nu = -0.45 the integrand grows like c^(2 nu) = c^-0.9 at 0, past
    # what the head's bisection meets at this tolerance
    assert res.converged or nu == -0.45


def test_s6522_16_finite_with_scaled_bessel():
    # I_(1/2) K_(1/2) overflows times underflows past x ~ 700 unless scaled
    F = failure_by_id("S6522_16").seed
    x = np.logspace(-6, 6)
    want = np.sqrt(math.pi * x / 8.0) * -np.expm1(-2.0 * x) / (2.0 * x)
    got = F(x)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got / want - 1.0)) <= 1e-13


def _t15_modulator_mpmath(nu, u):
    """2 e^{i(nu+1)pi/2} K_(2nu)(2 e^{i pi/4} sqrt(u)) u at 30 digits."""
    with mpmath.workdps(30):
        z = 2 * mpmath.expjpi(mpmath.mpf(1) / 4) * mpmath.sqrt(u)
        w = 2 * mpmath.expjpi((nu + 1) / 2) * mpmath.besselk(2 * nu, z) * u
        return complex(w)


# T15's three grid points and four more orders: the K order 2nu takes
# -1, 0, 0.5, 1, 2, 3 and 4.9, across the constraint -1/2 <= nu < 5/2
_T15_POINTS = [
    pytest.param(P, id=str(i)) for i, P in enumerate(entry_by_id("T15").default_grid)
] + [
    pytest.param(ParamPoint.of(nu=nu, z=1.0), id=f"nu={nu}") for nu in (-0.5, 0.25, 1.5, 2.45)
]


@pytest.mark.parametrize("P", _T15_POINTS)
def test_t15_modulator_matches_scalar_mpmath(P):
    # The integrand is the real part of a complex product that can cancel
    # (e.g. nu=1 at small u), so the error is measured against the modulus
    # of that product, which is what limits any double-precision result.
    us = np.geomspace(1e-8, 1e6, 15)
    got = entry_by_id("T15").pieces[0].integrand(P, us)
    assert got.shape == us.shape
    for u, g in zip(us, got):
        want = _t15_modulator_mpmath(P["nu"], u)
        assert abs(g - want.real) <= 1e-13 * abs(want), (P.label(), u)
