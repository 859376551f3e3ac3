"""Special-function contract checks shared by the unit and acceptance suites.

`contract_checks()` yields (label, got, want, tol) tuples; every tuple is
one assertion that |got - want| <= tol * (1 + |want|).  The acceptance
suite requires at least 200 of them.

Each assertion checks a function that the verifier or the round trip
runs: J and Y through `cylinder` (Cephes at orders 0 and 1, AMOS at the
others) and `bessel_zeros`, which quadrature runs on every lobe; the
catalog's arrays `struve_minus_y`, `hyp2f1_terminating`, `legendre_p0`
and `legendre_q0`; and the SciPy functions that the catalog calls
directly (`iv`, `kv`, `gamma`, `eval_chebyt`, `eval_jacobi`).
"""

import math

import numpy as np
import scipy.special as sp

from hankel_dual.specfun import (
    bessel_zeros,
    cylinder,
    hyp2f1_terminating,
    legendre_p0,
    legendre_q0,
    struve_minus_y,
)

_ORDERS = (0.0, 0.5, 1.0, 2.5, 4.0)
_ARGS = (0.5, 1.0, 2.0, 5.0, 10.0)
_XS = np.array(_ARGS)


def _neighbours(nu):
    """J, Y, I and K at orders nu - 1, nu and nu + 1 over _ARGS."""
    kernels = (
        lambda v: cylinder(v, _XS, "j"),
        lambda v: cylinder(v, _XS, "y"),
        lambda v: sp.iv(v, _XS),
        lambda v: sp.kv(v, _XS),
    )
    return [[f(nu + d) for d in (-1.0, 0.0, 1.0)] for f in kernels]


def _recurrences(out):
    # three-term recurrences: C_{v-1}(x) + C_{v+1}(x) = (2v/x) C_v(x) for J, Y;
    # I_{v-1}(x) - I_{v+1}(x) = (2v/x) I_v(x);  K_{v-1}(x) - K_{v+1}(x) = -(2v/x) K_v(x)
    for nu in _ORDERS:
        j, y, i, k = _neighbours(nu)
        for m, x in enumerate(_ARGS):
            out.append((
                f"J recurrence nu={nu} x={x}",
                j[0][m] + j[2][m],
                2.0 * nu / x * j[1][m],
                1e-12,
            ))
            out.append((
                f"Y recurrence nu={nu} x={x}",
                y[0][m] + y[2][m],
                2.0 * nu / x * y[1][m],
                1e-12,
            ))
            out.append((
                f"I recurrence nu={nu} x={x}",
                i[0][m] - i[2][m],
                2.0 * nu / x * i[1][m],
                1e-12,
            ))
            out.append((
                f"K recurrence nu={nu} x={x}",
                k[0][m] - k[2][m],
                -2.0 * nu / x * k[1][m],
                1e-12,
            ))


def _wronskians(out):
    # J_v(x) Y_v'(x) - J_v'(x) Y_v(x) = 2 / (pi x)
    # I_v(x) K_v'(x) - I_v'(x) K_v(x) = -1 / x
    for nu in _ORDERS:
        j, y, i, k = _neighbours(nu)
        jp, yp = 0.5 * (j[0] - j[2]), 0.5 * (y[0] - y[2])
        ip, kp = 0.5 * (i[0] + i[2]), -0.5 * (k[0] + k[2])
        for m, x in enumerate(_ARGS):
            out.append((
                f"J/Y Wronskian nu={nu} x={x}",
                j[1][m] * yp[m] - jp[m] * y[1][m],
                2.0 / (math.pi * x),
                1e-12,
            ))
            out.append((
                f"I/K Wronskian nu={nu} x={x}",
                i[1][m] * kp[m] - ip[m] * k[1][m],
                -1.0 / x,
                1e-12,
            ))


def _half_integers(out):
    j_half, j_minus_half = cylinder(0.5, _XS, "j"), cylinder(-0.5, _XS, "j")
    y_half = cylinder(0.5, _XS, "y")
    i_half, k_half, k_three_halves = sp.iv(0.5, _XS), sp.kv(0.5, _XS), sp.kv(1.5, _XS)
    for m, x in enumerate(_ARGS):
        root = math.sqrt(2.0 / (math.pi * x))
        out.append((f"J_1/2 x={x}", j_half[m], root * math.sin(x), 1e-13))
        out.append((f"J_-1/2 x={x}", j_minus_half[m], root * math.cos(x), 1e-13))
        out.append((f"Y_1/2 x={x}", y_half[m], -root * math.cos(x), 1e-13))
        out.append((f"I_1/2 x={x}", i_half[m], root * math.sinh(x), 1e-13))
        out.append((
            f"K_1/2 x={x}",
            k_half[m],
            math.sqrt(math.pi / (2.0 * x)) * math.exp(-x),
            1e-13,
        ))
        out.append((
            f"K_3/2 x={x}",
            k_three_halves[m],
            math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) * (1.0 + 1.0 / x),
            1e-13,
        ))


def _chebyshev(out):
    for n in range(8):
        for theta in (0.3, 1.0, 2.2):
            out.append((
                f"T_{n}(cos {theta})",
                sp.eval_chebyt(n, math.cos(theta)),
                math.cos(n * theta),
                1e-13,
            ))
    # composition T_m(T_n(x)) = T_{mn}(x)
    for x in (-0.7, 0.1, 0.9):
        out.append((
            f"T_3(T_2({x}))",
            sp.eval_chebyt(3, sp.eval_chebyt(2, x)),
            sp.eval_chebyt(6, x),
            1e-13,
        ))


def _zeros(out):
    ks = (1, 3, 8, 20)
    for nu in (0.0, 0.5, 1.0, 2.5):
        zj = bessel_zeros(nu, 20)[[k - 1 for k in ks]]
        zy = bessel_zeros(nu, 20, kind="y")[[k - 1 for k in ks]]
        for k, rj, ry in zip(ks, cylinder(nu, zj, "j"), cylinder(nu, zy, "y")):
            out.append((f"J zero residual nu={nu} k={k}", rj, 0.0, 1e-11))
            out.append((f"Y zero residual nu={nu} k={k}", ry, 0.0, 1e-11))
    for nu in (0.0, 1.0):
        z = bessel_zeros(nu, 61)
        out.append((f"zero spacing -> pi nu={nu}", z[60] - z[59], math.pi, 1e-4))


def _gamma(out):
    out.append(("gamma(5)", sp.gamma(5.0), 24.0, 1e-14))
    out.append(("gamma(1/2)", sp.gamma(0.5), math.sqrt(math.pi), 1e-14))
    for x in (0.3, 1.7, 3.2):
        out.append((
            f"gamma functional eq x={x}",
            sp.gamma(x + 1.0),
            x * sp.gamma(x),
            1e-13,
        ))
    for x in (0.25, 0.6):
        out.append((
            f"gamma reflection x={x}",
            sp.gamma(x) * sp.gamma(1.0 - x),
            math.pi / math.sin(math.pi * x),
            1e-13,
        ))


def _hypergeometric(out):
    cases = [
        (0.5, 3, 1.5, 0.3),
        (-0.25, 4, 2.0, -0.8),
        (1.5, 2, 0.75, 0.6),
        (2.0, 5, 3.5, 0.25),
        (0.1, 6, 1.25, -0.4),
        (3.0, 1, 2.0, 0.9),
    ]
    for a, n, c, x in cases:
        out.append((
            f"2F1({a},-{n};{c};{x})",
            hyp2f1_terminating(a, n, c, x),
            sp.hyp2f1(a, -n, c, x),
            1e-11,
        ))


def _jacobi(out):
    # P_n^(a,b)(x) = (a+1)_n / n! 2F1(n+a+b+1, -n; a+1; (1-x)/2)  (DLMF 18.5.7)
    cases = [
        (0, 0.5, 0.5, 0.3),
        (1, 0.0, 0.0, -0.6),
        (3, 1.5, 0.5, 0.2),
        (5, 0.25, 1.0, 0.8),
        (4, 2.0, 0.0, -0.9),
        (6, 0.5, 2.5, 0.1),
    ]
    for n, alpha, beta, x in cases:
        series = hyp2f1_terminating(n + alpha + beta + 1.0, n, alpha + 1.0, 0.5 * (1.0 - x))
        out.append((
            f"P_{n}^({alpha},{beta})({x})",
            sp.eval_jacobi(n, alpha, beta, x),
            sp.poch(alpha + 1.0, n) / math.factorial(n) * series,
            1e-12,
        ))


def _legendre(out):
    xs = np.array((1.01, 2.0, 10.0))
    comps = 1.0 - xs**-2.0
    q0, q1 = legendre_q0(0.0, xs, comps), legendre_q0(1.0, xs, comps)
    p0, p1 = legendre_p0(0.0, xs), legendre_p0(1.0, xs)
    for m, x in enumerate(xs.tolist()):
        half_log = 0.5 * math.log((x + 1.0) / (x - 1.0))
        out.append((f"Q_0({x})", q0[m], half_log, 1e-9))
        out.append((f"Q_1({x})", q1[m], x * half_log - 1.0, 1e-9))
        out.append((f"P_0({x})", p0[m], 1.0, 1e-9))
        out.append((f"P_1({x})", p1[m], x, 1e-9))
    # Casoratian P_v Q_{v-1} - P_{v-1} Q_v = 1/v at order 0, evaluated at
    # T26/T27's arguments sqrt(1 + 4/c^2): every point is on Q's log branch
    cs = np.geomspace(20.0, 1e5, 8)
    xs, comps = np.sqrt(1.0 + 4.0 / cs**2), 4.0 / (cs**2 + 4.0)
    for nu in (0.5, 1.0, 1.5, 2.0):
        casoratian = (
            legendre_p0(nu, xs) * legendre_q0(nu - 1.0, xs, comps)
            - legendre_p0(nu - 1.0, xs) * legendre_q0(nu, xs, comps)
        )
        for c, got in zip(cs.tolist(), casoratian):
            out.append((f"Legendre Casoratian nu={nu} c={c:.4g}", got, 1.0 / nu, 1e-14))


def _struve(out):
    # below the asymptotic switch the difference is formed directly;
    # above it, compare against the directly-computable overlap region
    for x in (5.0, 10.0, 25.0):
        out.append((
            f"struve_minus_y direct x={x}",
            float(struve_minus_y(0.5, x)),
            float(sp.struve(0.5, x) - sp.yv(0.5, x)),
            1e-9,
        ))
    # H_{1/2}(x) - Y_{1/2}(x) has the closed form sqrt(2/(pi x)) (1 - cos x + cos x) ... :
    # H_{1/2}(x) = sqrt(2/(pi x)) (1 - cos x), Y_{1/2}(x) = -sqrt(2/(pi x)) cos x
    for x in (40.0, 120.0):
        out.append((
            f"struve_minus_y closed form x={x}",
            float(struve_minus_y(0.5, x)),
            math.sqrt(2.0 / (math.pi * x)),
            1e-10,
        ))


def contract_checks():
    out = []
    _recurrences(out)
    _wronskians(out)
    _half_integers(out)
    _chebyshev(out)
    _zeros(out)
    _gamma(out)
    _hypergeometric(out)
    _jacobi(out)
    _legendre(out)
    _struve(out)
    return [(label, float(got), float(want), tol) for label, got, want, tol in out]
