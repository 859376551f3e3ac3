"""Special-function layer with explicit accuracy contracts.

Every public evaluation returns a :class:`SpecialValue` (or
:class:`ComplexValue` for complex arguments) carrying an estimated
absolute error bound alongside the value.  Bessel-type functions,
including modified Bessel K at complex arguments, are backed by
``scipy.special`` (AMOS for complex K); only the associated Legendre
functions of non-zero negative order fall back to ``mpmath``, which is
imported on that path alone.  The one array function, ``cylinder``, is
the Bessel kernel that quadrature multiplies into its integrands; it
returns bare values, and its accuracy is pinned by tests instead.

Zeros of J_nu and Y_nu (nu > -1) come from one vectorised scan.  Its
grid starts below the first zero: at nu for nu >= 0 (DLMF 10.21.3), at
1e-17 for nu < 0, where Y_nu's first zero, about pi(nu + 1/2), nears 0
as nu falls to -1/2, and J_nu's as nu falls to -1.  Its step of 0.8 is
well under the smallest zero gap (3.05 on (-1, 12]).
Newton steps refine all sign-change brackets at once and bisect when a
step would leave its bracket, so each zero stays in its own bracket and
the table increases by construction.  Each zero stops on its own step,
|dx| < 1e-14 x, so it does not depend on how many zeros are asked for.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.special as _sp

from .errors import DomainError, ParameterError, PoleError, RangeError

__all__ = [
    "SpecialValue",
    "ComplexValue",
    "Order",
    "gamma_fn",
    "bessel_j",
    "bessel_y",
    "cylinder",
    "bessel_i",
    "bessel_k",
    "struve_h",
    "struve_minus_y",
    "hyp2f1_terminating",
    "jacobi_p",
    "chebyshev_t",
    "legendre_p_negorder",
    "legendre_q_negorder",
    "bessel_zero",
    "bessel_zeros",
]


@dataclass(frozen=True)
class SpecialValue:
    """A real function value together with an absolute error estimate."""

    value: float
    abs_err: float

    def __post_init__(self):
        if math.isfinite(self.value) and not (
            math.isfinite(self.abs_err) and self.abs_err >= 0.0
        ):
            raise ValueError("abs_err must be finite and non-negative")

    def __float__(self):
        return self.value


@dataclass(frozen=True)
class ComplexValue:
    """A complex function value with an absolute error estimate.

    Only needed for modified Bessel K on the rays arg z = ±π/4, computed
    by scipy's AMOS ``kv``; the bound ``abs_err = 1e-11·(1+|w|)`` is loose
    against its measured agreement with mpmath there (about 1e-15·(1+|w|)).
    Final catalog comparisons are always on manifestly real combinations.
    """

    re: float
    im: float
    abs_err: float

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)


@dataclass(frozen=True)
class Order:
    """Bessel/Legendre order or degree parameter."""

    nu: float

    def __post_init__(self):
        if not math.isfinite(self.nu):
            raise ValueError("order must be finite")

    def __float__(self):
        return self.nu


def _as_order(nu) -> float:
    return float(nu.nu) if isinstance(nu, Order) else float(nu)


def gamma_fn(x) -> SpecialValue:
    """Euler gamma function on the real line away from its poles."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"gamma_fn requires finite x, got {x}")
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma_fn pole at non-positive integer x={x}")
    v = float(_sp.gamma(x))
    if math.isinf(v):
        raise RangeError(f"gamma_fn overflow at x={x}")
    return SpecialValue(v, 1e-14 * (1.0 + abs(v)))


def bessel_j(nu, x) -> SpecialValue:
    """Bessel function of the first kind J_nu(x) for x >= 0, nu >= -1."""
    nu, x = _as_order(nu), float(x)
    if x < 0.0:
        raise DomainError(f"bessel_j requires x >= 0, got {x}")
    if nu < -1.0:
        raise DomainError(f"bessel_j requires nu >= -1, got {nu}")
    if x == 0.0 and nu < 0.0:
        raise DomainError("bessel_j diverges at x=0 for nu < 0")
    v = float(_sp.jv(nu, x))
    return SpecialValue(v, 1e-13 * (1.0 + abs(v)))


def bessel_y(nu, x) -> SpecialValue:
    """Bessel function of the second kind Y_nu(x) for x > 0."""
    nu, x = _as_order(nu), float(x)
    if x <= 0.0:
        raise DomainError(f"bessel_y requires x > 0, got {x}")
    v = float(_sp.yv(nu, x))
    return SpecialValue(v, 1e-13 * (1.0 + abs(v)))


# Cephes' rational approximations for the orders the transforms use most:
# 10 to 15 times cheaper a point than AMOS's jv/yv, and within 1e-14 of
# mpmath on [1e-8, 1e4] (test_cylinder_cephes_orders_match_mpmath)
_CEPHES = {(0.0, "j"): _sp.j0, (1.0, "j"): _sp.j1, (0.0, "y"): _sp.y0, (1.0, "y"): _sp.y1}
_AMOS = {"j": _sp.jv, "y": _sp.yv}


def cylinder(nu: float, x, kind: str = "j") -> np.ndarray:
    """The array kernel J_nu(x) (kind 'j') or Y_nu(x) (kind 'y'): Cephes
    j0/j1/y0/y1 at orders 0 and 1, scipy's jv/yv at every other order."""
    fn = _CEPHES.get((nu, kind))
    if fn is not None:
        return fn(x)
    if kind not in _AMOS:
        raise ValueError(f"unknown Bessel kind {kind!r}")
    return _AMOS[kind](nu, x)


def bessel_i(nu, x) -> SpecialValue:
    """Modified Bessel function I_nu(x) for x >= 0."""
    nu, x = _as_order(nu), float(x)
    if x < 0.0:
        raise DomainError(f"bessel_i requires x >= 0, got {x}")
    if x == 0.0 and nu < 0.0:
        raise DomainError("bessel_i diverges at x=0 for nu < 0")
    v = float(_sp.iv(nu, x))
    if math.isinf(v):
        raise RangeError(f"bessel_i overflow at nu={nu}, x={x}")
    return SpecialValue(v, 1e-13 * (1.0 + abs(v)))


def bessel_k(nu, z) -> SpecialValue | ComplexValue:
    """Modified Bessel function K_nu(z) for Re z > 0.

    Both paths use scipy's ``kv``.  Real arguments return a SpecialValue;
    complex arguments (needed only on the rays arg z = ±π/4) go through
    AMOS (Amos 1986, ACM TOMS 644) and return a ComplexValue.  Overflow
    raises RangeError: AMOS reports complex overflow as ``nan+nanj``, so
    any non-finite complex result is treated as overflow.
    """
    nu = _as_order(nu)
    zc = complex(z)
    if zc.real <= 0.0:
        raise DomainError(f"bessel_k requires Re z > 0, got {z}")
    if zc.imag == 0.0:
        v = float(_sp.kv(nu, zc.real))
        if math.isinf(v):
            raise RangeError(f"bessel_k overflow at nu={nu}, z={z}")
        return SpecialValue(v, 1e-12 * (1.0 + abs(v)))
    w = complex(_sp.kv(nu, zc))
    if not cmath.isfinite(w):
        raise RangeError(f"bessel_k overflow at nu={nu}, z={z}")
    return ComplexValue(w.real, w.imag, 1e-11 * (1.0 + abs(w)))


def struve_h(nu, x) -> SpecialValue:
    """Struve function H_nu(x) for x >= 0, nu >= -1/2."""
    nu, x = _as_order(nu), float(x)
    if x < 0.0:
        raise DomainError(f"struve_h requires x >= 0, got {x}")
    if nu < -0.5:
        raise ParameterError(f"struve_h requires nu >= -1/2, got {nu}")
    v = float(_sp.struve(nu, x))
    return SpecialValue(v, 1e-11 * (1.0 + abs(v)))


_STRUVE_SWITCH = 30.0


def _struve_minus_y_asym(nu: float, x: np.ndarray) -> np.ndarray:
    """Large-argument series for H_nu(x) - Y_nu(x).

    H_nu(x) - Y_nu(x) ~ (1/pi) * sum_k Gamma(k+1/2) (x/2)^{nu-2k-1}
    / Gamma(nu+1/2-k), truncated at the smallest term.  Evaluating the
    difference directly at large x loses all accuracy to cancellation.
    """
    x = np.asarray(x, dtype=float)
    half = x / 2.0
    total = np.zeros_like(x)
    prev = np.full_like(x, np.inf)
    for k in range(14):
        term = (
            float(_sp.gamma(k + 0.5))
            * float(_sp.rgamma(nu + 0.5 - k))
            / math.pi
        ) * half ** (nu - 2 * k - 1)
        mag = np.abs(term)
        if np.all(mag >= prev):
            break
        grow = mag >= prev
        term = np.where(grow, 0.0, term)
        total = total + term
        prev = np.where(grow, prev, mag)
        if np.all(prev <= 1e-17 * (1.0 + np.abs(total))):
            break
    return total


def struve_minus_y(nu, x):
    """H_nu(x) - Y_nu(x), stable for large x.  Vectorized over x."""
    nu = _as_order(nu)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("struve_minus_y requires x > 0")
    small = x < _STRUVE_SWITCH
    out = np.empty_like(x)
    if np.any(small):
        xs = x[small]
        out[small] = _sp.struve(nu, xs) - _sp.yv(nu, xs)
    if np.any(~small):
        out[~small] = _struve_minus_y_asym(nu, x[~small])
    return out if out.ndim else float(out)


def _hyp2f1_terminating_array(a: float, n: int, c: float, x) -> np.ndarray:
    """Terminating 2F1(a, -n; c; x) for array x (degree-n polynomial).

    The unchecked core of :func:`hyp2f1_terminating`, for callers that
    evaluate one parameter set on many x.
    """
    x = np.asarray(x, dtype=float)
    total = np.ones_like(x)
    term = np.ones_like(x)
    for k in range(n):
        term = term * ((a + k) * (k - n) / ((c + k) * (k + 1.0))) * x
        total = total + term
    return total


def hyp2f1_terminating(a, n, c, x) -> SpecialValue:
    """Terminating Gauss hypergeometric sum 2F1(a, -n; c; x).

    Exact finite sum of n+1 terms; n must be a non-negative integer and
    c + k must not vanish for any k < n.
    """
    a, c, x = float(a), float(c), float(x)
    n = int(n)
    if n < 0:
        raise ParameterError("hyp2f1_terminating requires n >= 0")
    if any(c + k == 0.0 for k in range(n)):
        raise ParameterError(
            f"hyp2f1_terminating: c={c} hits a non-positive integer"
        )
    total = float(_hyp2f1_terminating_array(a, n, c, x))
    return SpecialValue(total, 1e-14 * (1.0 + abs(total)))


def jacobi_p(n, alpha, beta, x) -> SpecialValue:
    """Jacobi polynomial P_n^{(alpha,beta)}(x) by three-term recurrence."""
    n = int(n)
    alpha, beta, x = float(alpha), float(beta), float(x)
    if n < 0:
        raise ParameterError("jacobi_p requires n >= 0")
    if alpha <= -1.0 or beta <= -1.0:
        raise ParameterError("jacobi_p requires alpha, beta > -1")
    if n == 0:
        return SpecialValue(1.0, 0.0)
    pm1 = 1.0
    p = (alpha + 1.0) + (alpha + beta + 2.0) * (x - 1.0) / 2.0
    for k in range(2, n + 1):
        ab = alpha + beta
        c1 = 2.0 * k * (k + ab) * (2.0 * k + ab - 2.0)
        c2 = (2.0 * k + ab - 1.0) * (
            (2.0 * k + ab) * (2.0 * k + ab - 2.0) * x + alpha**2 - beta**2
        )
        c3 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * (2.0 * k + ab)
        p, pm1 = (c2 * p - c3 * pm1) / c1, p
    return SpecialValue(p, 1e-13 * (1.0 + abs(p)))


def chebyshev_t(n, x) -> SpecialValue:
    """Chebyshev polynomial of the first kind T_n(x) on [-1, 1]."""
    n = int(n)
    x = float(x)
    if n < 0:
        raise ParameterError("chebyshev_t requires n >= 0")
    if abs(x) > 1.0 + 1e-12:
        raise DomainError(f"chebyshev_t requires |x| <= 1, got {x}")
    v = math.cos(n * math.acos(max(-1.0, min(1.0, x))))
    return SpecialValue(v, 1e-15 * (1.0 + abs(v)))


# ---------------------------------------------------------------------------
# Legendre functions on the cut (1, inf)
# ---------------------------------------------------------------------------


def _legendre_p0_array(deg: float, x: np.ndarray) -> np.ndarray:
    """P_deg(x) for x > 1 at order 0, via 2F1(-deg, deg+1; 1; (1-x)/2)."""
    x = np.asarray(x, dtype=float)
    return _sp.hyp2f1(-deg, deg + 1.0, 1.0, 0.5 * (1.0 - x))


def _legendre_q0_array(deg: float, x: np.ndarray) -> np.ndarray:
    """Q_deg(x) for x > 1 at order 0.

    Away from x=1 this is the standard large-argument hypergeometric
    representation; close to x=1 the 2F1 argument approaches 1 in the
    logarithmic (c = a+b) case, so we sum that log expansion directly
    to avoid accuracy loss.
    """
    x = np.asarray(x, dtype=float)
    a = 0.5 * deg + 1.0
    b = 0.5 * (deg + 1.0)
    w = x ** (-2.0)
    out = np.empty_like(x)
    near = w > 0.985
    if np.any(~near):
        xf = x[~near]
        pref = (
            math.sqrt(math.pi)
            * float(_sp.gamma(deg + 1.0))
            * float(_sp.rgamma(deg + 1.5))
            / (2.0 * xf) ** (deg + 1.0)
        )
        out[~near] = pref * _sp.hyp2f1(a, b, deg + 1.5, w[~near])
    if np.any(near):
        xn = x[near]
        u = 1.0 - w[near]  # in (0, 0.015]
        lg = -np.log(u)
        acc = np.zeros_like(u)
        coeff = np.ones_like(u)
        for s in range(12):
            psi_part = (
                2.0 * float(_sp.digamma(s + 1.0))
                - float(_sp.digamma(a + s))
                - float(_sp.digamma(b + s))
            )
            acc = acc + coeff * (psi_part + lg)
            coeff = coeff * u * (a + s) * (b + s) / (s + 1.0) ** 2
        out[near] = acc / (2.0 * xn ** (deg + 1.0))
    return out


def _legendre_negorder(kind: str, deg, order_mu, x) -> SpecialValue:
    """P (kind 'p') or Q (kind 'q') of degree deg and order -mu on x > 1."""
    name = f"legendre_{kind}_negorder"
    deg, mu, x = float(deg), float(order_mu), float(x)
    if x <= 1.0:
        raise DomainError(f"{name} requires x > 1, got {x}")
    if (deg - mu) < 0 and (deg - mu) == math.floor(deg - mu):
        raise ParameterError(f"{name}: gamma factor poles")
    if mu == 0.0:
        at0 = _legendre_p0_array if kind == "p" else _legendre_q0_array
        v = float(at0(deg, np.asarray([x]))[0])
    else:
        import mpmath

        with mpmath.workdps(25):
            v = float(mpmath.re(getattr(mpmath, "legen" + kind)(deg, -mu, x, type=3)))
    return SpecialValue(v, 1e-10 * (1.0 + abs(v)))


def legendre_p_negorder(deg, order_mu, x) -> SpecialValue:
    """Associated Legendre P_deg^{-mu}(x) on the cut x > 1."""
    return _legendre_negorder("p", deg, order_mu, x)


def legendre_q_negorder(deg, order_mu, x) -> SpecialValue:
    """Associated Legendre Q_deg^{-mu}(x) on the cut x > 1."""
    return _legendre_negorder("q", deg, order_mu, x)


# ---------------------------------------------------------------------------
# Bessel function zeros
# ---------------------------------------------------------------------------

# one table per (nu, kind); a longer request replaces it, never mutates it
_zero_cache: dict[tuple[float, str], np.ndarray] = {}


def _zeros_by_scan(nu: float, kind: str, count: int) -> np.ndarray:
    """First ``count`` positive zeros of C_nu; see the module docstring."""
    f = _sp.jv if kind == "j" else _sp.yv
    head = np.geomspace(1e-17, 1.0, 57, endpoint=False) if nu < 0 else []
    start = 1.0 if nu < 0 else nu
    # McMahon (DLMF 10.21.19) puts the count-th zero near (count + nu/2)·pi
    stop = start + (count + 1 + abs(nu)) * math.pi
    x = np.concatenate([head, np.arange(start, stop, 0.8)])
    fx = f(nu, x)
    i = np.flatnonzero((fx[:-1] > 0) != (fx[1:] > 0))[:count]
    lo, hi, lo_pos = x[i], x[i + 1], fx[i] > 0
    z = lo - fx[i] * (hi - lo) / (fx[i + 1] - fx[i])
    todo = np.arange(count)
    for _ in range(100):
        t = z[todo]
        v = f(nu, t)
        same = (v > 0) == lo_pos[todo]
        lo[todo] = np.where(same, t, lo[todo])
        hi[todo] = np.where(same, hi[todo], t)
        step = t - v / (f(nu - 1.0, t) - nu / t * v)  # DLMF 10.6.2
        inside = (lo[todo] <= step) & (step <= hi[todo])
        z[todo] = np.where(inside, step, 0.5 * (lo[todo] + hi[todo]))
        todo = todo[np.abs(z[todo] - t) >= 1e-14 * z[todo]]
        if todo.size == 0:
            return z
    raise RuntimeError(f"Bessel zeros did not converge for nu={nu}")


def bessel_zeros(nu, kmax: int, kind: str = "j") -> np.ndarray:
    """First kmax positive zeros of J_nu (kind='j') or Y_nu (kind='y'), nu > -1."""
    nu = _as_order(nu)
    if nu <= -1.0:
        raise DomainError(f"bessel_zeros requires nu > -1, got {nu}")
    if kind not in ("j", "y"):
        raise ValueError(f"unknown Bessel kind {kind!r}")
    kmax = int(kmax)
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    zeros = _zero_cache.get((nu, kind))
    if zeros is None or len(zeros) < kmax:
        zeros = _zeros_by_scan(nu, kind, max(kmax, 16))
        _zero_cache[(nu, kind)] = zeros
    return zeros[:kmax].copy()


def bessel_zero(nu, k: int, kind: str = "j") -> float:
    """k-th positive zero of the Bessel function of order nu > -1."""
    return float(bessel_zeros(nu, k, kind)[int(k) - 1])
