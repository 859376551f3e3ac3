"""Quadrature engine.

Two rules: an adaptive Gauss-Legendre bisection rule for finite
segments, with one endpoint substitution x = end -+ (upper - lower) s^2
for a declared algebraic or logarithmic singularity at either end, and
a semi-infinite oscillatory rule that partitions the axis at
Bessel-kernel zeros and extrapolates the lobe sums.  It runs
Wynn's epsilon algorithm, for sums that alternate, and a constant-phase
fit in inverse powers of the truncation point, for sums that do not,
side by side; the first to converge gives the result.

Both rules are generators that yield the nodes where they need the full
integrand and are sent its values there.  ``steps`` is the one place
that picks a rule for an interval, and ``drive`` runs any number of
such generators in lockstep: ``integrate_entry`` drives one, and
``hankel`` drives one per transform argument and answers all of them
with one evaluation per step.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.special as _sp

from .specfun import bessel_zeros

__all__ = [
    "Interval",
    "QuadResult",
    "OscillationSpec",
    "epsilon_extrapolate",
    "steps",
    "drive",
    "integrate_entry",
]

DEFAULT_BUDGET = 2_000_000
# lobes of partial sums that one Wynn epsilon table spans
_EPSILON_WINDOW = 40

ALGEBRAIC_AT_LOWER = "algebraic_at_lower"
ALGEBRAIC_AT_UPPER = "algebraic_at_upper"

_HINTS = {None, ALGEBRAIC_AT_LOWER, ALGEBRAIC_AT_UPPER}


@dataclass(frozen=True)
class Interval:
    """Integration range [lower, upper] with an optional declared endpoint
    singularity; it is a finite segment exactly when ``upper`` is finite."""

    lower: float = 0.0
    upper: float = math.inf
    singularity_hint: Optional[str] = None

    def __post_init__(self):
        if self.singularity_hint not in _HINTS:
            raise ValueError(f"unknown singularity hint {self.singularity_hint!r}")
        if self.lower < 0.0:
            raise ValueError("lower bound must be >= 0")
        if not (self.upper > self.lower):
            raise ValueError("interval requires lower < upper")
        if self.singularity_hint == ALGEBRAIC_AT_UPPER and not self.is_finite:
            raise ValueError("an algebraic-at-upper substitution needs a finite upper bound")

    @classmethod
    def finite_from_zero(cls, upper, hint=None):
        return cls.segment(0.0, upper, hint)

    @classmethod
    def tail(cls, lower, hint=None):
        return cls(float(lower), math.inf, hint)

    @classmethod
    def full_half_line(cls):
        return cls.tail(0.0)

    @classmethod
    def segment(cls, lower, upper, hint=None):
        if not math.isfinite(upper):
            raise ValueError("a finite segment requires a finite upper bound")
        return cls(float(lower), float(upper), hint)

    @property
    def is_finite(self) -> bool:
        return self.upper < math.inf


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_err: float
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class OscillationSpec:
    """Kernel structure of the integrand: a cylinder function of a
    linear argument, plus optional additional break points contributed
    by a second oscillatory factor (e.g. a Bessel factor with a
    square-root argument, whose zeros must also partition the axis).
    ``extra_breaks(m)`` returns the first m of those points, increasing.
    """

    bessel_order: float
    frequency: float
    kind: str = "j"
    extra_breaks: Optional[Callable[[int], np.ndarray]] = field(
        default=None, compare=False
    )

    def __post_init__(self):
        if not (0.0 < self.frequency < math.inf):
            raise ValueError("frequency must be finite and > 0")
        if self.kind not in ("j", "y"):
            raise ValueError("kernel kind must be 'j' or 'y'")

    def kernel(self, t):
        fn = _sp.jv if self.kind == "j" else _sp.yv
        return fn(self.bessel_order, self.frequency * np.asarray(t, dtype=float))


# ---------------------------------------------------------------------------
# Gauss-Legendre panels
# ---------------------------------------------------------------------------

_X25, _W25 = np.polynomial.legendre.leggauss(25)
_X12, _W12 = np.polynomial.legendre.leggauss(12)
# panel [a, b] has nodes a + h*t, h = (b - a)/2; its 37 are 25-point then 12-point
_T25 = _X25 + 1.0
_T37 = np.concatenate([_X25, _X12]) + 1.0


def drive(gens, f) -> list:
    """Run integration generators in lockstep; return their results in order.

    Each step sends every live generator the values at its last request
    and collects its next request.  ``f(live, requests)`` answers the
    requests of the generators at indices ``live``, one value array per
    request, so a caller can evaluate them all at once.
    """
    results = [None] * len(gens)
    live, values = range(len(gens)), [None] * len(gens)
    while live:
        still, requests = [], []
        for k, y in zip(live, values):
            try:
                requests.append(gens[k].send(y))
                still.append(k)
            except StopIteration as stop:
                results[k] = stop.value
        live = still
        if live:
            values = f(live, requests)
    return results


# ---------------------------------------------------------------------------
# Wynn epsilon extrapolation
# ---------------------------------------------------------------------------


class _EpsilonTable:
    """Wynn's epsilon table over the newest ``depth`` partial sums, kept as
    its newest antidiagonal (QUADPACK's qelg).  Entry eps[c][i] depends on
    s[i..i+c] only: a table rebuilt from the newest ``depth`` sums ends alike."""

    def __init__(self, depth: int = _EPSILON_WINDOW):
        self.depth = depth
        self.diag, self.prev = [], []  # eps[c] on the newest antidiagonal, the one before

    def push(self, s):
        """Append a partial sum."""
        cur = float(s)
        new = [cur]
        below = 0.0  # eps[c - 2], with eps[-1] = 0
        for above in self.diag[: self.depth - 1]:  # eps[c - 1] one sum back
            d = cur - above
            cur = below + 1e300 if d == 0.0 else below + 1.0 / d
            new.append(cur)
            below = above
        self.prev, self.diag = self.diag, new

    def estimate(self) -> tuple[float, float]:
        """(best extrapolant, error estimate) from the newest antidiagonal."""
        new, old = self.diag, self.prev
        n = len(new)
        if n == 1:
            return new[0], math.inf
        best, best_err = new[0], abs(new[0] - old[0])
        last_even_tail = new[0]
        for c in range(2, n, 2):
            tail = new[c]
            err = abs(tail - last_even_tail)
            if c <= n - 2:  # column c holds at least two entries
                back = abs(tail - old[c]) * 0.5
                if back > err:
                    err = back
            if err < best_err and math.isfinite(tail):
                best, best_err = tail, err
            last_even_tail = tail
        return best, best_err


def epsilon_extrapolate(partial_sums) -> tuple[float, float]:
    """Accelerate a sequence of partial sums with Wynn's epsilon
    algorithm; returns (best extrapolant, error estimate)."""
    s = [float(v) for v in partial_sums]
    if not s:
        raise ValueError("need at least one partial sum")
    table = _EpsilonTable(len(s))
    for v in s:
        table.push(v)
    return table.estimate()


# ---------------------------------------------------------------------------
# Finite-segment adaptive quadrature
# ---------------------------------------------------------------------------


def _panel_sums(panels, sub):
    """Request the 37 nodes of every panel at once; returns each panel's
    (25-point, 12-point) sums.  ``sub`` = (end, w) substitutes
    x = end + w*s^2, whose integrand is f(x)*|w|*2s."""
    hs = [0.5 * (b - a) for a, b in panels]
    t = np.concatenate([a + h * _T37 for (a, _), h in zip(panels, hs)])
    if sub is None:
        y = yield t
    else:
        end, w = sub
        y = (yield end + w * np.square(t)) * abs(w) * (2.0 * t)
    y = y.reshape(len(panels), 37)
    return [
        (h * float(np.dot(_W25, row[:25])), h * float(np.dot(_W12, row[25:])))
        for h, row in zip(hs, y)
    ]


def _adaptive(panels, tol, budget, sub=None):
    """Heap-driven bisection refinement over initial panel list.

    Returns (value, raw error estimate, converged flag, evaluations).
    """
    heap = []
    total = 0.0
    total_err = 0.0
    serial = 0
    for (a, b), (i25, i12) in zip(panels, (yield from _panel_sums(panels, sub))):
        e = abs(i25 - i12)
        total += i25
        total_err += e
        heapq.heappush(heap, (-e, serial, a, b, i25))
        serial += 1
    target = 0.35 * tol
    while total_err > target and 37 * serial < budget and heap:
        nege, _, a, b, i25 = heapq.heappop(heap)
        e = -nege
        if e <= 0.0 or (b - a) < 1e-15 * (abs(a) + abs(b) + 1.0):
            total_err = max(total_err, e)
            break
        total -= i25
        total_err -= e
        m = 0.5 * (a + b)
        halves = ((a, m), (m, b))
        for (aa, bb), (i25n, i12n) in zip(halves, (yield from _panel_sums(halves, sub))):
            en = abs(i25n - i12n)
            total += i25n
            total_err += en
            heapq.heappush(heap, (-en, serial, aa, bb, i25n))
            serial += 1
    return total, total_err, total_err <= tol, 37 * serial


def _finite_steps(seg: Interval, tol: float, budget: int):
    """Adaptive rule over a finite segment.

    A declared algebraic or logarithmic singularity at one end is
    smoothed by x = end -+ (upper - lower) s^2 over s in [0, 1], with
    end the singular endpoint: an integrand O(d^q) in the distance d to
    that end, q > -1, becomes O(s^(2q+1)), so an inverse square root
    becomes bounded, and log d becomes s log s (Davis & Rabinowitz,
    Methods of Numerical Integration, 2nd ed., 1984, sec. 2.9).
    """
    lo, up = seg.lower, seg.upper
    if seg.singularity_hint == ALGEBRAIC_AT_LOWER:
        panels, sub = _UNIT_QUARTERS, (lo, up - lo)
    elif seg.singularity_hint == ALGEBRAIC_AT_UPPER:
        panels, sub = _UNIT_QUARTERS, (up, -(up - lo))
    else:
        panels, sub = _quarters(lo, up), None
    value, raw, ok, evals = yield from _adaptive(panels, tol, budget, sub)
    abs_err = max(2.0 * raw, 1e-16 * (1.0 + abs(value)))
    converged = ok and abs_err <= tol
    return QuadResult(value, abs_err, evals, converged)


def _quarters(a, b):
    edges = np.linspace(a, b, 5)
    return list(zip(edges[:-1], edges[1:]))


_UNIT_QUARTERS = tuple(_quarters(0.0, 1.0))


# ---------------------------------------------------------------------------
# Oscillatory semi-infinite tails
# ---------------------------------------------------------------------------


class _BreakStream:
    """Merged, increasing stream of kernel zeros and extra break points."""

    def __init__(self, osc: OscillationSpec, start: float):
        self.osc = osc
        self._n = 0
        self._kernel = np.empty(0)
        self._merged = [start]

    def get(self, i: int) -> float:
        """i-th break point at or beyond start (0-th is start itself).

        Each growth step computes 96 more kernel zeros and 96 more extra
        breaks and lists the merged points only up to the smaller of the
        two sequences' last computed points, where neither has a gap, and
        drops any point within 0.05 pi / frequency of the one before.
        """
        osc = self.osc
        while len(self._merged) <= i:
            self._n += 96
            self._kernel = bessel_zeros(osc.bessel_order, self._n, osc.kind) / osc.frequency
            pts, end = self._kernel, self._kernel[-1]
            if osc.extra_breaks is not None:
                extra = np.asarray(osc.extra_breaks(self._n), dtype=float)
                pts, end = np.concatenate([pts, extra]), min(end, extra[-1])
            keep = self._merged[:1]
            min_gap = 0.05 * math.pi / osc.frequency
            for p in np.sort(pts[pts <= end]).tolist():
                if p - keep[-1] > min_gap:
                    keep.append(p)
            self._merged = keep
        return self._merged[i]

    def kernel_zeros_through(self, x: float) -> int:
        """Number of kernel zeros at or below a break point x."""
        return int(self._kernel.searchsorted(x * (1.0 + 1e-12), side="right"))


def _period_fit(ts: np.ndarray, ss: np.ndarray) -> tuple[float, float]:
    """Extrapolate full-period partial sums by least-squares polynomial
    fit in 1/T; returns (limit estimate, error estimate).

    Sound when the partial sums are sampled at (near-)constant kernel
    phase, where the remainder has an asymptotic expansion in inverse
    powers of the truncation point — the regime where lobe sums stop
    alternating (same-frequency Bessel products) and epsilon
    acceleration silently fails.
    """
    m = min(30, len(ts))
    t, s = ts[-m:], ss[-m:]
    A = np.vstack([np.ones_like(t), 1.0 / t, t**-2.0, t**-3.0]).T
    coef, res, *_ = np.linalg.lstsq(A, s, rcond=None)
    a0 = float(coef[0])
    rms = math.sqrt(float(res[0]) / m) if len(res) else 0.0
    m2 = max(8, m // 2)
    t2, s2 = ts[-m2:], ss[-m2:]
    A2 = np.vstack([np.ones_like(t2), 1.0 / t2, t2**-2.0]).T
    coef2, *_ = np.linalg.lstsq(A2, s2, rcond=None)
    err = abs(a0 - float(coef2[0])) + 2.0 * rms
    return a0, err


def _tail_steps(osc: OscillationSpec, iv: Interval, tol, head, max_lobes, budget):
    """Oscillatory rule for f(t) * C_nu(frequency*t) over [iv.lower, inf).

    The axis is partitioned at the scaled kernel zeros (united with any
    extra break sequence declared on the oscillation spec) and each lobe
    is integrated with a fixed Gauss-Legendre rule; the head up to the
    first break at or past ``head`` goes through the finite rule.  Two
    extrapolators run side by side on the partial sums: Wynn's epsilon
    algorithm over a sliding window of lobes, for sums that alternate,
    and a constant-phase fit (``_period_fit``) of the sums at every
    second kernel zero, for sums that do not (a product of two Bessel
    functions of the same frequency).  The first whose error estimate
    meets the tolerance gives the result.  Integrands whose lobes decay
    below the tolerance terminate by direct summation with a tail bound
    instead.
    """
    lower = iv.lower
    head_end = max(head, lower) if head is not None else lower + max(1.0, 10.0 / osc.frequency)
    stream = _BreakStream(osc, lower)
    # snap the head to the first break at/after head_end
    i = 0
    while stream.get(i) < head_end:
        i += 1
    head_end = stream.get(i)

    if head_end > lower:
        seg = Interval.segment(lower, head_end, iv.singularity_hint)
        head_res = yield from _finite_steps(seg, 0.25 * tol, budget)
        head_val, head_err = head_res.value, head_res.abs_err
        evals = head_res.evaluations
    else:
        head_val, head_err, evals = 0.0, 0.0, 0

    table = _EpsilonTable()
    # partial sums at every second lobe end that passes a kernel zero
    period_t: list[float] = []
    period_s: list[float] = []
    zeros_passed = 0
    crossings = 0
    total = head_val
    prev_est = None
    best_val, best_raw = total, math.inf
    lobe_mags = []
    n_lobes = 0
    while n_lobes < max_lobes and evals < budget:
        a = stream.get(i)
        b = stream.get(i + 1)
        h = 0.5 * (b - a)
        lobe = h * float(np.dot(_W25, (yield a + h * _T25)))
        evals += 25
        i += 1
        n_lobes += 1
        total += lobe
        lobe_mags.append(abs(lobe))
        # direct-summation exit for rapidly decaying integrands
        if n_lobes >= 2 and lobe_mags[-1] < 0.02 * tol and lobe_mags[-2] < 0.02 * tol:
            tail_bound = 3.0 * (lobe_mags[-1] + lobe_mags[-2])
            abs_err = tail_bound + head_err
            return QuadResult(total, max(abs_err, 1e-16), evals, abs_err <= tol)
        table.push(total)
        if n_lobes >= 6:
            est, raw = table.estimate()
            if math.isfinite(est) and raw < best_raw:
                best_val, best_raw = est, raw
            if prev_est is not None and math.isfinite(est):
                drift = abs(est - prev_est)
                if raw < 0.3 * tol and drift < 0.3 * tol:
                    abs_err = max(2.0 * max(raw, drift) + head_err, 1e-16)
                    return QuadResult(est, abs_err, evals, abs_err <= tol)
            prev_est = est if math.isfinite(est) else prev_est
        passed = stream.kernel_zeros_through(b)
        if passed > zeros_passed:
            zeros_passed = passed
            crossings += 1
            if crossings % 2 == 0:
                period_t.append(b)
                period_s.append(total)
                if len(period_t) >= 18:
                    est, raw = _period_fit(np.asarray(period_t), np.asarray(period_s))
                    if raw < best_raw:
                        best_val, best_raw = est, raw
                    if raw < 0.3 * tol:
                        abs_err = max(2.0 * raw + head_err, 1e-16)
                        return QuadResult(est, abs_err, evals, abs_err <= tol)
    abs_err = 2.0 * best_raw + head_err if math.isfinite(best_raw) else math.inf
    return QuadResult(best_val, abs_err, evals, False)


def steps(
    iv: Interval,
    osc: Optional[OscillationSpec],
    tol: float,
    head: Optional[float] = None,
    budget: int = DEFAULT_BUDGET,
    max_lobes: int = 220,
):
    """The integration generator for ``iv``: the finite rule on a finite
    segment, the oscillatory rule on an infinite one, whose lobes need
    the kernel ``osc``.  It yields node arrays, is sent the integrand's
    values there and returns the QuadResult."""
    if iv.is_finite:
        return _finite_steps(iv, tol, budget)
    if osc is None:
        raise ValueError("an infinite interval needs an oscillation spec")
    return _tail_steps(osc, iv, tol, head, max_lobes, budget)


def integrate_entry(
    f,
    iv: Interval,
    osc: Optional[OscillationSpec] = None,
    tol: float = 1e-9,
    head: Optional[float] = None,
    budget: int = DEFAULT_BUDGET,
    max_lobes: int = 220,
) -> QuadResult:
    """Integrate f over ``iv`` with the rule ``steps`` picks.

    When ``osc`` is given, ``f`` is the smooth (non-kernel) factor and
    the full integrand is f(t) * C_nu(frequency * t).
    """
    gen = steps(iv, osc, tol, head, budget, max_lobes)
    if osc is None:
        full = lambda t: np.asarray(f(t), dtype=float)
    else:
        full = lambda t: np.asarray(f(t), dtype=float) * osc.kernel(t)
    return drive([gen], lambda live, requests: [full(requests[0])])[0]
