"""Quadrature engine.

Two rules: an adaptive Gauss-Kronrod bisection rule for finite
segments, whose panels take the 21-point Kronrod sum as their value and
its distance from the embedded 10-point Gauss sum as their error, with
one endpoint substitution x = end -+ (upper - lower) s^2 for a declared
algebraic or logarithmic singularity at either end, and a semi-infinite
oscillatory rule that partitions the axis at Bessel-kernel zeros,
integrates each lobe with a 12-point Gauss-Legendre rule and
extrapolates the lobe sums.  It runs
Wynn's epsilon algorithm, for sums that alternate, and a constant-phase
fit in inverse powers of the truncation point, for sums that do not,
side by side; the first to converge gives the result.  The epsilon
table spans the newest 12 partial sums, and its exit needs both its own
error estimate and the drift |e - e_1| + |e - e_2| of its last three
finite estimates under 0.3 tol.  A deeper table, or a drift over one
lobe, let the inverse of a compact seed near its support edge stop on
estimates that moved with the last digits of the integrand.

Both rules integrate a batch of rows, each row its own integral, and
return one result per row.  The integrand is called as f(rows, nodes),
once per step for every row still running, with one row of nodes per
row; all other state (bisection heaps, partial sums, extrapolation
tables) is kept row by row, so each row gets exactly the result it would
get alone.  A step of the oscillatory rule integrates the next three
lobes of each row, which takes their sums one at a time and drops those
past its exit; ``hankel``'s inverse steps one lobe at a time, since each
of its lobes costs a batch of forward transforms.  ``integrate_entry``
is a batch of one row; ``hankel`` integrates all forward transforms of
one inverse node request as one batch.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .specfun import bessel_zeros, cylinder

__all__ = [
    "Interval",
    "QuadResult",
    "OscillationSpec",
    "epsilon_extrapolate",
    "integrate_finite",
    "integrate_oscillatory_tail",
    "integrate_entry",
]

DEFAULT_BUDGET = 2_000_000
# lobes of partial sums that one Wynn epsilon table spans
_EPSILON_WINDOW = 12
# lobes of each row that one step of the tail rule integrates
_LOBES_PER_STEP = 3

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
    """Kernel structure of the integrand: a cylinder function
    C_nu(frequency * t) of a linear argument, whose zeros partition the
    axis into lobes.  Any other oscillatory factor, e.g. a Bessel factor
    of sqrt(t), is part of the smooth factor and is left to the
    extrapolators."""

    bessel_order: float
    frequency: float
    kind: str = "j"

    def __post_init__(self):
        if not (0.0 < self.frequency < math.inf):
            raise ValueError("frequency must be finite and > 0")
        if self.kind not in ("j", "y"):
            raise ValueError("kernel kind must be 'j' or 'y'")

    def kernel(self, t):
        return cylinder(self.bessel_order, self.frequency * np.asarray(t, dtype=float), self.kind)


# ---------------------------------------------------------------------------
# Quadrature tables
# ---------------------------------------------------------------------------

# Gauss-Kronrod 10/21 on [-1, 1], increasing (QUADPACK's qk21; Piessens et
# al., QUADPACK, 1983): the 21 Kronrod nodes and weights, and the 10-point
# Gauss weights of the odd-indexed nodes, which are the Gauss nodes
_XK21_HALF = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_WK21_HALF = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208745736347, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
)
_WK21_MID = 0.149445554002916905664936468389821
_WG10_HALF = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_XK21 = np.concatenate([-np.asarray(_XK21_HALF), [0.0], _XK21_HALF[::-1]])
_WK21 = np.concatenate([_WK21_HALF, [_WK21_MID], _WK21_HALF[::-1]])
_WG10 = np.concatenate([_WG10_HALF, _WG10_HALF[::-1]])
# Gauss-Legendre rule of each lobe of the oscillatory tail
_XLOBE, _WLOBE = np.polynomial.legendre.leggauss(12)
# panel [a, b] has nodes a + h*t, h = (b - a)/2, with t from these tables
_TK21 = _XK21 + 1.0
_TLOBE = _XLOBE + 1.0
# evaluations a panel and a lobe
_PANEL_NODES = _TK21.size
_LOBE_NODES = _TLOBE.size


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


def _panel_sums(f, rows, panels, sub):
    """Each row's (Kronrod 21-point, Gauss 10-point) sums over its panels,
    from one call ``f(rows, x)`` at the 21 Kronrod nodes of every panel.
    ``sub`` = (ends, ws), arrays over all rows, substitutes x = end + w*s^2,
    whose integrand is f(x)*|w|*2s."""
    ab = np.asarray(panels)
    a = ab[..., 0]
    h = 0.5 * (ab[..., 1] - a)
    t = (a[..., None] + h[..., None] * _TK21).reshape(len(rows), -1)
    if sub is None:
        y = f(rows, t)
    else:
        end, w = sub[0][rows, None], sub[1][rows, None]
        y = f(rows, end + w * np.square(t)) * np.abs(w) * (2.0 * t)
    y = y.reshape(h.shape + (_PANEL_NODES,))
    return (h * np.vecdot(y, _WK21)).tolist(), (h * np.vecdot(y[..., 1::2], _WG10)).tolist()


class _Bisection:
    """One row of the adaptive rule: its panels in a heap by error, and
    the running sums of their values and errors."""

    __slots__ = ("heap", "total", "err", "serial", "sub")

    def __init__(self, sub):
        self.heap, self.total, self.err, self.serial = [], 0.0, 0.0, 0
        self.sub = sub  # (end, w) of x = end + w*s^2, or None

    def add(self, panels, sums21, sums10):
        for (a, b), i21, i10 in zip(panels, sums21, sums10):
            e = abs(i21 - i10)
            self.total += i21
            self.err += e
            heapq.heappush(self.heap, (-e, self.serial, a, b, i21))
            self.serial += 1

    def split(self, target, budget):
        """Take out the panel of largest error and return its two halves;
        None once the row is done: within ``target``, out of budget, or at
        a panel that cannot be split."""
        if not (self.err > target and _PANEL_NODES * self.serial < budget and self.heap):
            return None
        nege, _, a, b, i21 = heapq.heappop(self.heap)
        e = -nege
        m = 0.5 * (a + b)
        if e <= 0.0 or (b - a) < 1e-15 * (abs(a) + abs(b) + 1.0) or self._reaches_end(a, m):
            self.err = max(self.err, e)
            return None
        self.total -= i21
        self.err -= e
        return [(a, m), (m, b)]

    def _reaches_end(self, a, m):
        """Whether the node of [a, m] nearest s = 0 rounds onto the
        substituted end, where the integrand may be infinite."""
        if self.sub is None:
            return False
        end, w = self.sub
        s = a + 0.5 * (m - a) * _TK21_MIN
        return end + w * (s * s) == end

    def result(self, tol) -> QuadResult:
        value, raw = self.total, self.err
        abs_err = max(2.0 * raw, 1e-16 * (1.0 + abs(value)))
        return QuadResult(value, abs_err, _PANEL_NODES * self.serial, raw <= tol and abs_err <= tol)


def integrate_finite(f, segments, tol: float, budget: int = DEFAULT_BUDGET) -> list:
    """Adaptive Gauss-Kronrod rule over finite segments, one row each;
    returns one QuadResult per segment.

    ``f(rows, x)`` returns the integrand at a node array x with one row of
    nodes for each index in ``rows``.  A panel costs 21 evaluations: its
    value is the 21-point Kronrod sum, and its error the distance to the
    10-point Gauss sum on the odd-indexed nodes (QUADPACK's qk21; Piessens
    et al., QUADPACK, 1983).  Each row starts from four equal panels and
    then bisects its panel of largest error, one per step, so a step is
    one call of ``f`` for all rows still refining, and every row gets the
    result it would get alone.

    The segments share one singularity hint.  A declared algebraic or
    logarithmic singularity at one end is smoothed by
    x = end -+ (upper - lower) s^2 over s in [0, 1], with end the singular
    endpoint: an integrand O(d^q) in the distance d to that end, q > -1,
    becomes O(s^(2q+1)), so an inverse square root becomes bounded, and
    log d becomes s log s (Davis & Rabinowitz, Methods of Numerical
    Integration, 2nd ed., 1984, sec. 2.9).  A substituted panel whose
    nodes would round onto the end is not split.
    """
    hint = segments[0].singularity_hint if segments else None
    if any(seg.singularity_hint != hint for seg in segments):
        raise ValueError("the segments of one call must share one singularity hint")
    if hint is None:
        sub = None
        panels = [_quarters(seg.lower, seg.upper) for seg in segments]
        rows = [_Bisection(None) for _ in segments]
    else:
        lo = np.asarray([seg.lower for seg in segments])
        up = np.asarray([seg.upper for seg in segments])
        sub = (lo, up - lo) if hint == ALGEBRAIC_AT_LOWER else (up, -(up - lo))
        panels = [_UNIT_QUARTERS] * len(segments)
        rows = [_Bisection(end_w) for end_w in zip(*(v.tolist() for v in sub))]
    target = 0.35 * tol
    live = list(range(len(segments)))
    while live:
        sums21, sums10 = _panel_sums(f, live, panels, sub)
        still, halves = [], []
        for k, p, s21, s10 in zip(live, panels, sums21, sums10):
            rows[k].add(p, s21, s10)
            split = rows[k].split(target, budget)
            if split is not None:
                still.append(k)
                halves.append(split)
        live, panels = still, halves
    return [row.result(tol) for row in rows]


def _quarters(lo, up):
    """[lo, up] as four equal panels, with the edges of np.linspace(lo, up, 5)."""
    step = 0.25 * (up - lo)
    edges = [lo + k * step for k in (0.0, 1.0, 2.0, 3.0)] + [up]
    return list(zip(edges[:-1], edges[1:]))


_UNIT_QUARTERS = tuple(_quarters(0.0, 1.0))
# the node of a panel [a, a + 2h] nearest a is a + h * _TK21_MIN
_TK21_MIN = float(_TK21[0])


# ---------------------------------------------------------------------------
# Oscillatory semi-infinite tails
# ---------------------------------------------------------------------------


class _BreakStream:
    """Increasing stream of the scaled kernel zeros clear of the start,
    with the Gauss-Legendre nodes of the lobes between them.

    ``points`` lists the break points (the 0-th is the start), and lobe j
    is [points[j], points[j + 1]] with half width ``half_widths[j]`` and
    nodes ``nodes[j]``; every lobe ends at a kernel zero.
    """

    def __init__(self, osc: OscillationSpec, start: float):
        self.osc = osc
        self._n = 0
        self.points = [start]

    def _grow(self):
        """Compute 96 more kernel zeros and list every one more than
        0.05 pi / frequency past the start.  Kernel zeros lie more than
        2.5 / frequency apart, so every zero past the first one clear of
        the start clears the one before."""
        osc = self.osc
        self._n += 96
        kernel = bessel_zeros(osc.bessel_order, self._n, osc.kind) / osc.frequency
        start = self.points[0]
        keep = [start] + kernel[kernel - start > 0.05 * math.pi / osc.frequency].tolist()
        self.points = keep
        x = np.asarray(keep)
        self.half_widths = 0.5 * (x[1:] - x[:-1])
        self.nodes = x[:-1, None] + self.half_widths[:, None] * _TLOBE

    def through(self, j: int):
        """Make lobe j available."""
        while len(self.points) <= j + 1:
            self._grow()

    def snap(self, x: float) -> int:
        """Index of the first break point at or beyond x."""
        while self.points[-1] < x:
            self._grow()
        return bisect.bisect_left(self.points, x)


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


class _Lobes:
    """One row of the oscillatory rule past its head: the partial sums and
    their two extrapolators, Wynn's epsilon table over a window of lobes
    and the constant-phase fit of the sums at every second lobe's end, a
    kernel zero."""

    __slots__ = ("evals", "n", "total", "head_err", "mag", "table", "period_t",
                 "period_s", "recent", "best_val", "best_raw")

    def __init__(self, head: QuadResult):
        self.evals, self.n = head.evaluations, 0
        self.total, self.head_err, self.mag = head.value, head.abs_err, math.inf
        self.table = _EpsilonTable()
        self.period_t, self.period_s = [], []
        self.recent = (None, None)  # the last two finite epsilon estimates, newest first
        self.best_val, self.best_raw = head.value, math.inf

    def add(self, lobe, b, tol):
        """Take the sum of the lobe that ends at kernel zero b; returns the
        QuadResult once an exit fires, else None.
        The caller adds each block's nodes to ``evals`` before its lobes."""
        evals = self.evals
        self.n = n = self.n + 1
        self.total = total = self.total + lobe
        mag, prev_mag = abs(lobe), self.mag
        self.mag = mag
        # direct-summation exit for rapidly decaying integrands
        if n >= 2 and mag < 0.02 * tol and prev_mag < 0.02 * tol:
            abs_err = 3.0 * (mag + prev_mag) + self.head_err
            return QuadResult(total, max(abs_err, 1e-16), evals, abs_err <= tol)
        self.table.push(total)
        if n >= 6:
            est, raw = self.table.estimate()
            if math.isfinite(est):
                if raw < self.best_raw:
                    self.best_val, self.best_raw = est, raw
                prev1, prev2 = self.recent
                self.recent = (est, prev1)
                if prev2 is not None:
                    drift = abs(est - prev1) + abs(est - prev2)
                    if raw < 0.3 * tol and drift < 0.3 * tol:
                        abs_err = max(2.0 * max(raw, drift) + self.head_err, 1e-16)
                        return QuadResult(est, abs_err, evals, abs_err <= tol)
        if n % 2 == 0:
            self.period_t.append(b)
            self.period_s.append(total)
            if len(self.period_t) >= 18:
                est, raw = _period_fit(np.asarray(self.period_t), np.asarray(self.period_s))
                if raw < self.best_raw:
                    self.best_val, self.best_raw = est, raw
                if raw < 0.3 * tol:
                    abs_err = max(2.0 * raw + self.head_err, 1e-16)
                    return QuadResult(est, abs_err, evals, abs_err <= tol)
        return None

    def unconverged(self) -> QuadResult:
        best_raw = self.best_raw
        abs_err = 2.0 * best_raw + self.head_err if math.isfinite(best_raw) else math.inf
        return QuadResult(self.best_val, abs_err, self.evals, False)


def integrate_oscillatory_tail(
    f,
    iv: Interval,
    osc: OscillationSpec,
    tol: float,
    heads,
    budget: int = DEFAULT_BUDGET,
    max_lobes: int = 220,
    lobes_per_step: int = _LOBES_PER_STEP,
) -> list:
    """Oscillatory rule over [iv.lower, inf), one row for each entry of
    ``heads``; returns one QuadResult per row.

    ``f(rows, t)`` returns the full integrand, f(t) * C_nu(frequency*t),
    at a node array t with one row of nodes for each index in ``rows``.
    The axis is partitioned at the scaled kernel zeros, one stream of
    breaks for all rows, and each lobe is integrated with a 12-point
    Gauss-Legendre rule, which adds no error estimate of its own.  A row's
    head, up to the first break at or past its ``heads`` entry (None for
    iv.lower + max(1, 10 / frequency)), goes through the finite rule, all
    rows' heads in one call.  Then each step integrates the next
    ``lobes_per_step`` lobes of every live row with one call of ``f``, a
    row of 12 nodes a lobe; rows whose limit cuts their block shorter take
    a call of their own.  Each row takes the lobe sums one at a time and
    drops those that follow its exit, so its value, bound and exit do not
    depend on ``lobes_per_step``; its ``evaluations`` count every node
    evaluated, the dropped lobes of its last block included, but never
    past its limit of ``max_lobes`` lobes or ``budget`` evaluations.
    ``hankel_inverse`` takes one lobe a step: each of its lobes costs a
    batch of forward transforms, and three a step would save most on the
    truncated-power inverses near r = 1 that fail anyway.
    Two extrapolators run side by side on each row's partial sums: Wynn's
    epsilon algorithm over the newest ``_EPSILON_WINDOW`` (12) sums, for
    sums that alternate, and a constant-phase fit (``_period_fit``) of the
    sums at every second kernel zero, for sums that do not (a product of
    two Bessel functions of the same frequency).  The first whose error
    estimate meets the tolerance gives the result; the epsilon exit also
    needs its last three finite estimates e, e_1, e_2 to drift by
    |e - e_1| + |e - e_2| < 0.3 tol (QUADPACK's qelg sums the drift over
    three estimates back; two suffice here), and reports
    2 max(error, drift) plus the head's bound.  Integrands whose lobes
    decay below the tolerance terminate by direct summation with a tail
    bound instead.  Every row gets the result it would get alone.
    """
    lower = iv.lower
    stream = _BreakStream(osc, lower)
    default = lower + max(1.0, 10.0 / osc.frequency)
    starts = [stream.snap(default if head is None else max(head, lower)) for head in heads]
    ends = [stream.points[i] for i in starts]
    headed = [k for k, end in enumerate(ends) if end > lower]
    head_results = integrate_finite(
        lambda rows, x: f([headed[j] for j in rows], x),
        [Interval.segment(lower, ends[k], iv.singularity_hint) for k in headed],
        0.25 * tol,
        budget,
    ) if headed else []
    heads_done = dict(zip(headed, head_results))
    no_head = QuadResult(0.0, 0.0, 0, True)
    rows = [_Lobes(heads_done.get(k, no_head)) for k in range(len(starts))]
    # a row's lobe loop ends unconverged at its limit, when max_lobes are
    # done or its evaluations reach the budget
    limits = [min(max_lobes, -(-(budget - row.evals) // _LOBE_NODES)) for row in rows]
    results = [None] * len(rows)
    live = [k for k, limit in enumerate(limits) if limit > 0]
    starts = np.asarray(starts)
    n = 0  # every live row has taken n lobes
    while live:
        # a row's block stops at its limit; rows of one block size share a call
        blocks = {}
        for k in live:
            blocks.setdefault(min(lobes_per_step, limits[k] - n), []).append(k)
        for size, ks in blocks.items():
            lobe = starts[ks, None] + np.arange(n, n + size)
            stream.through(int(lobe[:, -1].max()))
            y = f(ks, stream.nodes.take(lobe, axis=0).reshape(len(ks), -1))
            y = y.reshape(len(ks), size, _LOBE_NODES)
            sums = (stream.half_widths.take(lobe) * np.vecdot(y, _WLOBE)).tolist()
            points = stream.points
            for k, js, block in zip(ks, lobe.tolist(), sums):
                row = rows[k]
                row.evals += _LOBE_NODES * size
                for j, s in zip(js, block):
                    results[k] = row.add(s, points[j + 1], tol)
                    if results[k] is not None:
                        break
        n += lobes_per_step
        live = [k for k in live if results[k] is None and n < limits[k]]
    return [res or row.unconverged() for res, row in zip(results, rows)]


def integrate_entry(
    f,
    iv: Interval,
    osc: Optional[OscillationSpec] = None,
    tol: float = 1e-9,
    head: Optional[float] = None,
    budget: int = DEFAULT_BUDGET,
    max_lobes: int = 220,
    lobes_per_step: int = _LOBES_PER_STEP,
) -> QuadResult:
    """Integrate f over ``iv``: the finite rule on a finite segment, the
    oscillatory rule on an infinite one, as a batch of one row.

    When ``osc`` is given, ``f`` is the smooth (non-kernel) factor and
    the full integrand is f(t) * C_nu(frequency * t).
    """
    if osc is None:
        full = lambda rows, t: np.asarray(f(t[0]), dtype=float)[None]
    else:
        full = lambda rows, t: (np.asarray(f(t[0]), dtype=float) * osc.kernel(t[0]))[None]
    if iv.is_finite:
        return integrate_finite(full, [iv], tol, budget)[0]
    if osc is None:
        raise ValueError("an infinite interval needs an oscillation spec")
    return integrate_oscillatory_tail(
        full, iv, osc, tol, [head], budget, max_lobes, lobes_per_step
    )[0]
