"""Hankel transform pair, admissibility condition, and round-trip check.

The transform G(b) = int_0^inf x F(x) J_nu(b x) dx is its own inverse
for admissible F; admissibility is the integrability condition
int_0^inf sqrt(x) |F(x)| dx < inf, which translates into envelope
power-law exponents: the amplitude of F must grow slower than x^{-3/2}
at zero and decay faster than x^{-3/2} at infinity.

Both transforms run ``quad``'s two rules.  A compact seed's forward
transform is integrated over [0, support_upper] by the finite rule, every
other one and every inverse over [0, inf) by the oscillatory rule, which
picks its own extrapolation: no caller tells it where F jumps.  The
forward transforms at all u of one inverse node request are one batch of
rows, one row per u, sharing one F call and one kernel evaluation per
step.

A non-compact seed's forward runs in t = b x:
G(b) = b^-2 int_0^inf t F(t/b) J_nu(t) dt.  There the kernel, its zeros
and the lobe nodes do not depend on b, and the head [0, max(b, 10)]
(which is [0, max(1, 10/b)] in x) snaps to the same kernel zeros, so
every b shares one break stream and every b whose head snaps to the
same zero starts from the same panels.  The head is integrated in
x = U s^2 (``quad.ALGEBRAIC_AT_LOWER``).  Admissibility lets F grow like
x^p, p > -3/2, at zero, and the substituted integrand is then
O(s^(2p+3)), bounded, so x K_0(x) ~ -x log x needs no bisection toward
0; and at small b the head's first panel no longer lies wholly beyond
where F lives.

A compact seed keeps the x frame, [0, support_upper] with plain panels
and kernel J_nu(b x).  In t its segment [0, b c] would move with b and
share nothing between rows.  The substitution is left off it too: it bought
nothing there and cost the truncated power more forward evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import quad
from .errors import AdmissibilityError, InconclusiveConditionError
from .quad import Interval, OscillationSpec, QuadResult
from .specfun import cylinder

__all__ = [
    "SeedFunction",
    "ConditionVerdict",
    "check_condition",
    "hankel_forward",
    "hankel_inverse",
    "dual_roundtrip",
]

THRESHOLD = -1.5
BAND = 0.05


@dataclass(frozen=True)
class SeedFunction:
    """A candidate F for the transform pair.

    decay_at_zero / decay_at_inf are envelope exponents p with
    |F(x)| = Theta(x^p) at the endpoint (after factoring oscillation);
    when declared they override numeric estimation.  decay_at_inf of
    -inf marks faster-than-algebraic decay; support_upper marks compact
    support (F identically zero beyond it).
    """

    eval: Callable[[np.ndarray], np.ndarray]
    decay_at_zero: Optional[float] = None
    decay_at_inf: Optional[float] = None
    oscillatory_envelope: bool = False
    support_upper: Optional[float] = None
    name: str = ""

    def __call__(self, x):
        return np.asarray(self.eval(np.asarray(x, dtype=float)), dtype=float)


@dataclass(frozen=True)
class ConditionVerdict:
    admissible: bool
    zero_exponent: float
    inf_exponent: float
    failing_endpoint: Optional[str]  # "Zero" | "Infinity" | "Both" | None


def _estimate_exponent(F: SeedFunction, window: tuple[float, float], at_inf: bool) -> float:
    xs = np.logspace(math.log10(window[0]), math.log10(window[1]), 801)
    with np.errstate(all="ignore"):
        ys = np.abs(F(xs))
    endpoint = "Infinity" if at_inf else "Zero"
    if not np.all(np.isfinite(ys)):  # overflow or NaN is never decay
        msg = f"F is not finite on [{window[0]:g}, {window[1]:g}] at {endpoint}"
        raise InconclusiveConditionError(msg, endpoint=endpoint)
    ok = ys > 1e-280
    if np.count_nonzero(ok) < 20:
        # effectively zero on the window: harmless at either endpoint
        return -math.inf if at_inf else 2.0
    lx, ly = np.log(xs[ok]), np.log(ys[ok])
    if F.oscillatory_envelope:
        bins = np.linspace(lx[0], lx[-1], 41)
        idx = np.clip(np.digitize(lx, bins) - 1, 0, 39)
        bx, by = [], []
        for b in range(40):
            sel = idx == b
            if np.any(sel):
                j = np.argmax(ly[sel])
                bx.append(lx[sel][j])
                by.append(ly[sel][j])
        lx, ly = np.asarray(bx), np.asarray(by)
    slope = float(np.polyfit(lx, ly, 1)[0])
    if abs(slope - THRESHOLD) <= BAND:
        raise InconclusiveConditionError(
            f"estimated envelope exponent {slope:.4f} within +-{BAND} of "
            f"{THRESHOLD} at {endpoint}",
            exponent=slope,
            endpoint=endpoint,
        )
    return slope


def check_condition(F: SeedFunction) -> ConditionVerdict:
    """Decide the integrability condition from envelope exponents.

    Declared exponents are used directly; missing ones are estimated by
    a log-log least-squares slope of the amplitude envelope over the
    windows [1e-6, 1e-4] and [1e4, 1e6].
    """
    if F.support_upper is not None:
        p_inf = -math.inf
    elif F.decay_at_inf is not None:
        p_inf = F.decay_at_inf
    else:
        p_inf = _estimate_exponent(F, (1e4, 1e6), at_inf=True)
    if F.decay_at_zero is not None:
        p_zero = F.decay_at_zero
    else:
        p_zero = _estimate_exponent(F, (1e-6, 1e-4), at_inf=False)
    zero_ok = p_zero > THRESHOLD
    inf_ok = p_inf < THRESHOLD
    if zero_ok and inf_ok:
        failing = None
    elif not zero_ok and not inf_ok:
        failing = "Both"
    elif not zero_ok:
        failing = "Zero"
    else:
        failing = "Infinity"
    return ConditionVerdict(failing is None, p_zero, p_inf, failing)


def _require_admissible(F: SeedFunction):
    verdict = check_condition(F)
    if not verdict.admissible:
        raise AdmissibilityError(
            f"seed fails the integrability condition at {verdict.failing_endpoint} "
            f"(zero exponent {verdict.zero_exponent}, "
            f"infinity exponent {verdict.inf_exponent})",
            verdict=verdict,
        )
    return verdict


def _forwards(F: SeedFunction, nu: float, bs, tol: float) -> list[QuadResult]:
    """G(b) at every b in bs, as one batch of ``quad`` rows, one row per b,
    each step evaluating every live row from one F call and one J_nu call.
    A compact seed keeps x = t over [0, support_upper], with kernel
    J_nu(b x), through the finite rule.  Any other seed runs in t = b x,
    G(b) = b^-2 int_0^inf t F(t/b) J_nu(t) dt, through the oscillatory rule,
    with x = U s^2 on its head [0, max(b, 10)], which is [0, max(1, 10/b)]
    in x.  Each b gets exactly the result it would get on its own."""
    b = np.asarray(bs, dtype=float)
    if F.support_upper is not None:

        def values(rows, X):
            return X * F(X.ravel()).reshape(X.shape) * cylinder(nu, b[rows, None] * X)

        segment = Interval.finite_from_zero(F.support_upper)
        return quad.integrate_finite(values, [segment] * b.size, tol)
    weight = 1.0 / (b * b)

    def values(rows, T):
        X = T / b[rows, None]
        return T * F(X.ravel()).reshape(T.shape) * weight[rows, None] * cylinder(nu, T)

    iv = Interval.tail(0.0, quad.ALGEBRAIC_AT_LOWER)
    heads = np.maximum(b, 10.0).tolist()
    return quad.integrate_oscillatory_tail(values, iv, OscillationSpec(nu, 1.0), tol, heads)


def hankel_forward(F: SeedFunction, nu: float, b: float, tol: float = 1e-9) -> QuadResult:
    """G(b) = int_0^inf x F(x) J_nu(b x) dx.

    A compact seed is integrated over [0, support_upper]; every other
    seed goes through the oscillatory rule.
    """
    if not (0.0 < b < math.inf):
        raise ValueError("transform argument b must be finite and > 0")
    _require_admissible(F)
    return _forwards(F, nu, [b], tol)[0]


def hankel_inverse(
    G: Callable[[np.ndarray], np.ndarray],
    nu: float,
    r: float,
    tol: float = 1e-9,
) -> QuadResult:
    """int_0^inf u G(u) J_nu(u r) du."""
    if not (0.0 < r < math.inf):
        raise ValueError("transform argument r must be finite and > 0")
    return quad.integrate_entry(
        lambda u: u * np.asarray(G(u), dtype=float),
        Interval.full_half_line(),
        OscillationSpec(nu, r),
        tol,
        lobes_per_step=1,
    )


def dual_roundtrip(
    F: SeedFunction,
    nu: float,
    r_grid: Sequence[float],
    tol: float = 1e-6,
) -> list[tuple[float, float]]:
    """Forward-then-inverse transform; residuals against F on r_grid.

    The inverse converges to F(r) at continuity points and to the jump
    midpoint where F jumps, so there the residual against F(r) is half
    the jump.  Nothing about the seed's support or jumps is passed to
    the inverse.  G runs the forwards at one node request's u as one batch.
    """
    _require_admissible(F)
    inner_tol = max(tol * 1e-4, 1e-11)

    def G(us):
        bs = np.atleast_1d(np.asarray(us, dtype=float)).tolist()
        return np.asarray([res.value for res in _forwards(F, nu, bs, inner_tol)])

    out = []
    for r in r_grid:
        r = float(r)
        res = hankel_inverse(G, nu, r, 0.3 * tol)
        target = float(F(np.asarray([r]))[0])
        out.append((r, abs(res.value - target)))
    return out
