"""The special functions that the quadrature and the catalog run.

``cylinder`` is the Bessel kernel that quadrature multiplies into its
integrands: Cephes at orders 0 and 1, AMOS at every other order.
``bessel_zeros`` cuts the oscillatory tails into lobes.  The catalog's
integrands evaluate ``struve_minus_y``, a terminating 2F1 sum and the
order-0 Legendre functions on the cut x > 1, all over arrays.  Every
function returns bare values; its accuracy is pinned by the contract
checks in the test suite, which use mpmath as an oracle.

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

import math

import numpy as np
import scipy.special as _sp

from .errors import DomainError

__all__ = [
    "cylinder",
    "struve_minus_y",
    "hyp2f1_terminating",
    "legendre_p0",
    "legendre_q0",
    "bessel_zeros",
]


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
    nu = float(nu)
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


def hyp2f1_terminating(a: float, n: int, c: float, x) -> np.ndarray:
    """Terminating 2F1(a, -n; c; x) for array x: the degree-n polynomial
    summed term by term, for a non-negative integer n and c + k != 0 for
    every k < n."""
    x = np.asarray(x, dtype=float)
    total = np.ones_like(x)
    term = np.ones_like(x)
    for k in range(n):
        term = term * ((a + k) * (k - n) / ((c + k) * (k + 1.0))) * x
        total = total + term
    return total


# ---------------------------------------------------------------------------
# Legendre functions on the cut (1, inf)
# ---------------------------------------------------------------------------


def legendre_p0(deg: float, x: np.ndarray) -> np.ndarray:
    """P_deg(x) for x > 1 at order 0, via 2F1(-deg, deg+1; 1; (1-x)/2)."""
    x = np.asarray(x, dtype=float)
    return _sp.hyp2f1(-deg, deg + 1.0, 1.0, 0.5 * (1.0 - x))


def legendre_q0(deg: float, x: np.ndarray) -> np.ndarray:
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
    nu = float(nu)
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
