"""Unit tests for the special-function layer."""

import cmath
import math

import mpmath
import numpy as np
import pytest
import scipy.special as sp

from contracts import contract_checks
from hankel_dual.errors import DomainError
from hankel_dual.specfun import bessel_zeros, cylinder, struve_minus_y


@pytest.mark.parametrize(
    "label,got,want,tol",
    contract_checks(),
    ids=[c[0] for c in contract_checks()],
)
def test_contract(label, got, want, tol):
    assert abs(got - want) <= tol * (1.0 + abs(want)), label


# The K orders 2nu of T15's default grid. T15's integrand keeps only the
# real part of e^{i(nu+1)pi/2} K, which at nu = 0 and nu = 1 sees one
# component of K alone; this checks the whole complex value SciPy returns.
@pytest.mark.parametrize("order", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("ray", [cmath.exp(1j * math.pi / 4.0)], ids=["arg+pi/4"])
def test_complex_bessel_k_matches_mpmath_on_rays(order, ray):
    # z = 2 e^{i pi/4} sqrt(u), the argument T15 evaluates, over u in [1e-8, 1e6]
    for u in np.geomspace(1e-8, 1e6, 15):
        z = 2.0 * ray * math.sqrt(u)
        got = complex(sp.kv(order, z))
        with mpmath.workdps(30):
            want = complex(mpmath.besselk(order, mpmath.mpc(z.real, z.imag)))
        assert abs(got - want) <= 1e-13 * (1.0 + abs(want)), (order, u)


def test_struve_parameter_checks():
    with pytest.raises(DomainError):
        struve_minus_y(0.0, np.asarray([1.0, -2.0]))


def test_struve_minus_y_continuous_at_switch():
    # the direct and asymptotic branches must agree near the crossover
    lo = float(struve_minus_y(1.0, 29.999))
    hi = float(struve_minus_y(1.0, 30.001))
    assert abs(lo - hi) < 5e-7


def test_bessel_zeros_increasing_and_interlaced():
    zj = bessel_zeros(0.0, 30)
    assert np.all(np.diff(zj) > 0)
    # J and Y zeros of the same order interlace
    zy = bessel_zeros(0.0, 30, kind="y")
    assert np.all(zy[:29] < zj[:29])
    assert np.all(zj[:29] < zy[1:30])


@pytest.mark.parametrize("nu", [0.0, 1.0])
@pytest.mark.parametrize("kind", ["j", "y"])
def test_cylinder_cephes_orders_match_mpmath(nu, kind):
    # orders 0 and 1 take Cephes' j0/j1/y0/y1, not AMOS; pin them at
    # log-spaced and evenly spaced points of [1e-8, 1e4]
    xs = np.concatenate([np.geomspace(1e-8, 1e4, 100), np.linspace(1e-8, 1e4, 100)])
    ref = mpmath.besselj if kind == "j" else mpmath.bessely
    with mpmath.workdps(30):
        want = np.array([float(ref(int(nu), mpmath.mpf(float(x)))) for x in xs])
    got = cylinder(nu, xs, kind)
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("nu", [-0.5, 0.25, 0.5, 2.0, 2.5, 7.0])
def test_cylinder_other_orders_are_amos(nu):
    import scipy.special as sp

    xs = np.geomspace(1e-3, 1e4, 300)
    assert np.array_equal(cylinder(nu, xs, "j"), sp.jv(nu, xs))
    assert np.array_equal(cylinder(nu, xs, "y"), sp.yv(nu, xs))
    with pytest.raises(ValueError):
        cylinder(nu, xs, "k")


def test_bessel_zeros_match_scipy_integer_orders():
    import scipy.special as sp

    for nu in (0, 1, 3):
        ours = bessel_zeros(float(nu), 12)
        ref = sp.jn_zeros(nu, 12)
        assert np.max(np.abs(ours - ref)) < 1e-10


@pytest.mark.parametrize("kind", ["j", "y"])
def test_bessel_zero_contract(kind):
    """60 zeros per order nu in [-0.95, 12], spaced and interlaced as DLMF 10.21."""
    import scipy.special as sp

    f = sp.jv if kind == "j" else sp.yv
    for nu in np.round(np.arange(-0.95, 12.0 + 1e-9, 0.05), 2):
        z = bessel_zeros(nu, 60, kind)
        assert np.max(np.abs(f(nu, z))) <= 1e-13, nu
        # one sign on (0, z_1), then a sign change across every zero
        head = f(nu, np.geomspace(1e-8 * z[0], z[0], 200, endpoint=False))
        assert np.all(head > 0) or np.all(head < 0), nu
        signs = np.sign(np.concatenate([head[:1], f(nu, 0.5 * (z[:-1] + z[1:]))]))
        assert np.all(signs[:-1] * signs[1:] < 0), nu
        assert np.min(np.diff(z)) > 2.5, nu


def test_bessel_zero_validation():
    with pytest.raises(DomainError):
        bessel_zeros(-1.0, 1)
    with pytest.raises(DomainError):
        bessel_zeros(-1.3, 4)
    with pytest.raises(ValueError):
        bessel_zeros(0.0, 0)
