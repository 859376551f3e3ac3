"""Unit tests for the special-function layer."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from contracts import contract_checks
from hankel_dual.errors import DomainError, ParameterError, PoleError, RangeError
from hankel_dual.specfun import (
    ComplexValue,
    Order,
    SpecialValue,
    bessel_i,
    bessel_j,
    bessel_k,
    bessel_y,
    bessel_zero,
    bessel_zeros,
    chebyshev_t,
    cylinder,
    gamma_fn,
    hyp2f1_terminating,
    jacobi_p,
    struve_h,
    struve_minus_y,
)


@pytest.mark.parametrize(
    "label,got,want,tol",
    contract_checks(),
    ids=[c[0] for c in contract_checks()],
)
def test_contract(label, got, want, tol):
    assert abs(got - want) <= tol * (1.0 + abs(want)), label


def test_contract_corpus_size():
    assert len(contract_checks()) >= 200


def test_special_value_carries_error_bound():
    v = bessel_j(0.0, 1.0)
    assert isinstance(v, SpecialValue)
    assert v.abs_err > 0.0
    assert float(v) == v.value


def test_special_value_rejects_bad_error():
    with pytest.raises(ValueError):
        SpecialValue(1.0, -1.0)
    with pytest.raises(ValueError):
        SpecialValue(1.0, math.nan)


def test_order_wrapper():
    assert bessel_j(Order(0.5), 2.0).value == bessel_j(0.5, 2.0).value
    with pytest.raises(ValueError):
        Order(math.inf)


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        bessel_j(0.0, -1.0)
    with pytest.raises(DomainError):
        bessel_j(-2.0, 1.0)
    with pytest.raises(DomainError):
        bessel_y(0.0, 0.0)
    with pytest.raises(DomainError):
        bessel_i(0.0, -0.5)
    with pytest.raises(DomainError):
        bessel_k(0.0, -1.0)
    with pytest.raises(RangeError):
        bessel_i(0.0, 5000.0)


def test_gamma_poles_and_overflow():
    with pytest.raises(PoleError):
        gamma_fn(0.0)
    with pytest.raises(PoleError):
        gamma_fn(-3.0)
    with pytest.raises(RangeError):
        gamma_fn(500.0)
    # negative non-integer arguments are fine
    assert abs(gamma_fn(-0.5).value + 2.0 * math.sqrt(math.pi)) < 1e-13


def test_complex_bessel_k_on_ray():
    # K_0(x e^{i pi/4}): kelvin-function identity
    # ker(x) + i kei(x) = K_0(x e^{i pi/4})
    import scipy.special as sp

    for x in (0.5, 1.0, 3.0):
        z = x * complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
        v = bessel_k(0.0, z)
        assert isinstance(v, ComplexValue)
        assert abs(v.re - sp.ker(x)) < 1e-11
        assert abs(v.im - sp.kei(x)) < 1e-11


# Orders 2nu of T15's K_(2nu) over its constraint -1/2 <= nu < 5/2.
@pytest.mark.parametrize("order", [-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.9])
@pytest.mark.parametrize("sign", [1, -1], ids=["arg+pi/4", "arg-pi/4"])
def test_complex_bessel_k_matches_mpmath_on_rays(order, sign):
    # z = 2 e^{±i pi/4} sqrt(u), the argument T15 evaluates, over u in [1e-8, 1e6]
    ray = cmath.exp(sign * 1j * math.pi / 4.0)
    for u in np.geomspace(1e-8, 1e6, 15):
        z = 2.0 * ray * math.sqrt(u)
        got = bessel_k(order, z)
        assert isinstance(got, ComplexValue)
        with mpmath.workdps(30):
            want = complex(mpmath.besselk(order, mpmath.mpc(z.real, z.imag)))
        assert abs(got.value - want) <= 1e-13 * (1.0 + abs(want)), (order, u)
        assert abs(got.value - want) <= got.abs_err, (order, u)


def test_complex_bessel_k_overflow_raises():
    # AMOS returns nan+nanj here; the true |K| is about 3e492, beyond double range
    with pytest.raises(RangeError):
        bessel_k(4.9, 1e-100 * cmath.exp(1j * math.pi / 4.0))


def test_struve_parameter_checks():
    with pytest.raises(ParameterError):
        struve_h(-1.0, 1.0)
    with pytest.raises(DomainError):
        struve_minus_y(0.0, np.asarray([1.0, -2.0]))


def test_struve_minus_y_continuous_at_switch():
    # the direct and asymptotic branches must agree near the crossover
    lo = float(struve_minus_y(1.0, 29.999))
    hi = float(struve_minus_y(1.0, 30.001))
    assert abs(lo - hi) < 5e-7


def test_hyp2f1_terminating_validation():
    with pytest.raises(ParameterError):
        hyp2f1_terminating(1.0, -1, 1.0, 0.5)
    with pytest.raises(ParameterError):
        hyp2f1_terminating(1.0, 3, -1.0, 0.5)
    # n = 0 is the constant polynomial
    assert hyp2f1_terminating(7.0, 0, 2.0, 0.9).value == 1.0


def test_jacobi_validation():
    with pytest.raises(ParameterError):
        jacobi_p(-1, 0.0, 0.0, 0.5)
    with pytest.raises(ParameterError):
        jacobi_p(2, -1.5, 0.0, 0.5)


def test_chebyshev_validation():
    with pytest.raises(ParameterError):
        chebyshev_t(-2, 0.5)
    with pytest.raises(DomainError):
        chebyshev_t(3, 1.5)


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
        bessel_zero(-1.0, 1)
    with pytest.raises(DomainError):
        bessel_zeros(-1.3, 4)
    with pytest.raises(ValueError):
        bessel_zero(0.0, 0)
