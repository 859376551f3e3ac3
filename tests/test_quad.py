"""Unit tests for the quadrature engine."""

import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given
from hypothesis import strategies as st

from hankel_dual.quad import (
    _EPSILON_WINDOW,
    _HINTS,
    _LOBE_NODES,
    _LOBES_PER_STEP,
    _WLOBE,
    ALGEBRAIC_AT_LOWER,
    ALGEBRAIC_AT_UPPER,
    Interval,
    OscillationSpec,
    QuadResult,
    epsilon_extrapolate,
    integrate_entry,
    integrate_finite,
    integrate_oscillatory_tail,
    _BreakStream,
    _EpsilonTable,
    _Lobes,
    _WG10,
    _WK21,
    _XK21,
)
from hankel_dual.specfun import bessel_zeros


def _moment_error(nodes, weights, k):
    """Error of a rule on [-1, 1] against the exact integral of x^k."""
    exact = 0.0 if k % 2 else 2.0 / (k + 1)
    return abs(float(np.dot(weights, nodes**k)) - exact)


def test_kronrod_tables_are_exact_to_their_degrees():
    # K21 is exact for degree 31, its embedded G10 for degree 19
    xg = _XK21[1::2]
    assert max(_moment_error(_XK21, _WK21, k) for k in range(32)) < 1e-14
    assert max(_moment_error(xg, _WG10, k) for k in range(20)) < 1e-14
    # one degree higher both rules are wrong, so the bounds above are sharp
    assert _moment_error(_XK21, _WK21, 32) > 1e-12
    assert _moment_error(xg, _WG10, 20) > 1e-10


def test_kronrod_tables_embed_gauss_10():
    x10, w10 = np.polynomial.legendre.leggauss(10)
    np.testing.assert_allclose(_XK21[1::2], x10, rtol=0, atol=1e-15)
    np.testing.assert_allclose(_WG10, w10, rtol=0, atol=1e-15)
    assert _XK21.size == 21 and np.all(np.diff(_XK21) > 0) and _XK21[10] == 0.0
    assert abs(_WK21.sum() - 2.0) < 1e-14 and abs(_WG10.sum() - 2.0) < 1e-14


def test_epsilon_alternating_harmonic():
    sums, s = [], 0.0
    for k in range(1, 21):
        s += (-1.0) ** (k + 1) / k
        sums.append(s)
    est, err = epsilon_extrapolate(sums)
    assert abs(est - math.log(2.0)) < 1e-12
    assert err < 1e-10


def test_epsilon_degenerate_inputs():
    with pytest.raises(ValueError):
        epsilon_extrapolate([])
    est, err = epsilon_extrapolate([3.0])
    assert est == 3.0 and err == math.inf
    # a constant sequence is its own limit
    est, err = epsilon_extrapolate([2.0] * 8)
    assert est == 2.0


def _windowed_epsilon_oracle(partial_sums):
    """The epsilon table rebuilt from scratch on every call: the reference
    the incremental table must reproduce bit for bit."""
    s = [float(v) for v in partial_sums]
    n = len(s)
    if n == 0:
        raise ValueError("need at least one partial sum")
    if n == 1:
        return s[0], math.inf
    best = s[-1]
    best_err = abs(s[-1] - s[-2])
    prev2 = [0.0] * (n + 1)
    prev1 = list(s)
    col = 0
    last_even_tail = s[-1]
    while len(prev1) > 1:
        col += 1
        cur = []
        for i in range(len(prev1) - 1):
            d = prev1[i + 1] - prev1[i]
            if d == 0.0:
                cur.append(prev2[i + 1] + 1e300)
            else:
                cur.append(prev2[i + 1] + 1.0 / d)
        if col % 2 == 0:
            tail = cur[-1]
            err = abs(tail - last_even_tail)
            if len(cur) >= 2:
                err = max(err, abs(tail - cur[-2]) * 0.5)
            if math.isfinite(tail) and err < best_err:
                best, best_err = tail, err
            last_even_tail = tail
        prev2, prev1 = prev1, cur
    return best, best_err


def _partial_sums(terms):
    return list(np.cumsum(terms))


_EPSILON_SEQUENCES = {
    "alternating": _partial_sums([(-1.0) ** k / (k + 1) for k in range(120)]),
    "monotone": _partial_sums([1.0 / (k + 1) ** 2 for k in range(120)]),
    # zero terms make exact repeats, the table's d == 0 branch
    "repeats": _partial_sums([0.0 if k % 3 == 1 else (-0.7) ** k for k in range(120)]),
    "constant_tail": _partial_sums([2.0 ** -k if k < 30 else 0.0 for k in range(120)]),
    "lobes": _partial_sums(
        [math.cos(3.1 * k) * (k + 1.0) ** -1.5 for k in range(120)]
    ),
}


def _bits(pair):
    return tuple(float(v).hex() for v in pair)


@pytest.mark.parametrize("name", sorted(_EPSILON_SEQUENCES))
def test_epsilon_table_matches_windowed_rebuild(name):
    sums = _EPSILON_SEQUENCES[name]
    table = _EpsilonTable()
    for n in range(1, len(sums) + 1):
        table.push(sums[n - 1])
        got = table.estimate()
        want = _windowed_epsilon_oracle(sums[max(0, n - _EPSILON_WINDOW):n])
        assert _bits(got) == _bits(want), (name, n)


@pytest.mark.parametrize("name", sorted(_EPSILON_SEQUENCES))
def test_epsilon_extrapolate_matches_full_rebuild(name):
    sums = _EPSILON_SEQUENCES[name]
    for n in list(range(1, 12)) + list(range(12, len(sums) + 1, 9)):
        assert _bits(epsilon_extrapolate(sums[:n])) == _bits(
            _windowed_epsilon_oracle(sums[:n])
        ), (name, n)


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval.finite_from_zero(0.0)
    with pytest.raises(ValueError):
        Interval.segment(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(-1.0, 1.0)
    with pytest.raises(ValueError):
        Interval.finite_from_zero(1.0, hint="bogus")
    assert Interval.full_half_line() == Interval.tail(0.0)
    assert not Interval.tail(3.0).is_finite
    # an upper hint on a tail would land on the head's upper end, a kernel
    # break and not a singularity; a lower hint on a tail is the head's
    assert Interval.tail(2.0, ALGEBRAIC_AT_LOWER).singularity_hint == ALGEBRAIC_AT_LOWER
    with pytest.raises(ValueError):
        Interval.tail(2.0, ALGEBRAIC_AT_UPPER)
    with pytest.raises(ValueError):
        Interval(0.0, math.inf, ALGEBRAIC_AT_UPPER)


_BOUNDS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1.0, math.inf]))


@given(
    lower=_BOUNDS,
    upper=_BOUNDS,
    hint=st.one_of(st.sampled_from(sorted(_HINTS, key=str)), st.text(max_size=4)),
)
def test_interval_accepts_exactly_the_valid_ranges(lower, upper, hint):
    valid = (
        hint in _HINTS
        and 0.0 <= lower < upper
        and (hint != ALGEBRAIC_AT_UPPER or upper < math.inf)
    )
    if not valid:
        with pytest.raises(ValueError):
            Interval(lower, upper, hint)
        return
    iv = Interval(lower, upper, hint)
    assert 0.0 <= iv.lower < iv.upper
    assert iv.singularity_hint in _HINTS
    assert iv.is_finite == math.isfinite(upper)


@given(
    frequency=st.one_of(st.floats(), st.sampled_from([0.0, 1e-300, 1.0, math.inf])),
    kind=st.one_of(st.sampled_from(["j", "y", "J", "h"]), st.text(max_size=2)),
)
def test_oscillation_spec_accepts_exactly_finite_positive_j_or_y(frequency, kind):
    if not (0.0 < frequency < math.inf and kind in ("j", "y")):
        with pytest.raises(ValueError):
            OscillationSpec(0.0, frequency, kind)
        return
    spec = OscillationSpec(0.0, frequency, kind)
    assert math.isfinite(spec.frequency) and spec.frequency > 0.0
    assert spec.kind in ("j", "y")


def test_oscillation_spec_validation():
    with pytest.raises(ValueError):
        OscillationSpec(0.0, 0.0)
    with pytest.raises(ValueError):
        OscillationSpec(0.0, 1.0, kind="h")
    spec = OscillationSpec(0.0, 2.0, kind="y")
    assert abs(float(spec.kernel(1.5)) - sp.yv(0.0, 3.0)) < 1e-14


@pytest.mark.parametrize("frequency", [math.inf, math.nan, -1.0])
def test_oscillation_spec_needs_finite_positive_frequency(frequency):
    with pytest.raises(ValueError):
        OscillationSpec(0.0, frequency)


def test_finite_smooth_polynomial_exact():
    res = integrate_entry(lambda x: 3.0 * x**2, Interval.finite_from_zero(2.0), tol=1e-12)
    assert res.converged
    assert abs(res.value - 8.0) < 1e-12


def test_finite_additivity_fuzz():
    rng = np.random.default_rng(42)
    f = lambda x: np.cos(3.0 * x) * np.exp(-0.5 * x)
    whole = integrate_entry(f, Interval.finite_from_zero(2.0), tol=1e-12).value
    for _ in range(8):
        m = float(rng.uniform(0.2, 1.8))
        left = integrate_entry(f, Interval.finite_from_zero(m), tol=1e-12).value
        right = integrate_entry(f, Interval.segment(m, 2.0), tol=1e-12).value
        assert abs(left + right - whole) < 1e-11


def test_inverse_sqrt_upper_hint():
    res = integrate_entry(
        lambda x: 1.0 / np.sqrt(1.0 - x**2),
        Interval.finite_from_zero(1.0, ALGEBRAIC_AT_UPPER),
        tol=1e-10,
    )
    assert res.converged
    assert abs(res.value - math.pi / 2.0) < 1e-10


def test_inverse_sqrt_lower_hint():
    res = integrate_entry(
        lambda x: 1.0 / np.sqrt(x**2 - 1.0),
        Interval.segment(1.0, 2.0, ALGEBRAIC_AT_LOWER),
        tol=1e-10,
    )
    assert res.converged
    assert abs(res.value - math.acosh(2.0)) < 1e-10


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_algebraic_upper_hint_log(tol):
    res = integrate_entry(
        lambda x: np.log1p(-x),
        Interval.finite_from_zero(1.0, ALGEBRAIC_AT_UPPER),
        tol=tol,
    )
    assert res.converged
    assert abs(res.value + 1.0) < 5e-9
    assert abs(res.value + 1.0) <= 5.0 * res.abs_err


def test_algebraic_at_zero_hint_log():
    # x = t^2 turns -x log x into -4 t^3 log t: smooth enough for the
    # Gauss-Kronrod panels, so no bisection toward the log at zero
    f = lambda x: -x * np.log(x)
    hinted = integrate_entry(f, Interval.segment(0.0, 1.0, ALGEBRAIC_AT_LOWER), tol=1e-13)
    plain = integrate_entry(f, Interval.segment(0.0, 1.0), tol=1e-13)
    assert hinted.converged
    assert abs(hinted.value - 0.25) < 1e-13
    assert hinted.evaluations < plain.evaluations


def test_algebraic_at_zero_hint_power():
    res = integrate_entry(
        lambda x: x**-0.4, Interval.segment(0.0, 1.0, ALGEBRAIC_AT_LOWER), tol=1e-12
    )
    assert res.converged
    assert abs(res.value - 1.0 / 0.6) < 1e-12


@pytest.mark.parametrize(
    "f,osc,truth",
    [
        (lambda t: np.ones_like(t), OscillationSpec(0.0, 1.0), 1.0),
        (lambda t: 1.0 / t, OscillationSpec(1.0, 1.0), 1.0),
        (lambda t: np.ones_like(t), OscillationSpec(0.0, 3.0), 1.0 / 3.0),
        (lambda t: 1.0 / np.sqrt(t), OscillationSpec(0.5, 1.0), math.sqrt(math.pi / 2.0)),
    ],
)
def test_oscillatory_known_values(f, osc, truth):
    res = integrate_entry(f, Interval.full_half_line(), osc, tol=1e-9)
    assert res.converged
    assert abs(res.value - truth) <= 5.0 * res.abs_err
    assert abs(res.value - truth) < 1e-9


def test_oscillatory_error_estimate_honest():
    # claimed bound must cover the true error with margin on a range of shapes
    cases = [
        (lambda t: np.exp(-0.1 * t), OscillationSpec(0.0, 1.0), 1.0 / math.sqrt(1.01)),
        (lambda t: 1.0 / (1.0 + t), OscillationSpec(0.0, 1.0), None),
    ]
    for f, osc, truth in cases:
        res = integrate_entry(f, Interval.full_half_line(), osc, tol=1e-8)
        assert res.converged
        if truth is not None:
            assert abs(res.value - truth) <= 5.0 * res.abs_err


def test_decaying_tail_direct_sum():
    res = integrate_entry(
        lambda t: np.exp(-t), Interval.full_half_line(), OscillationSpec(0.0, 1.0),
        tol=1e-11,
    )
    assert res.converged
    assert abs(res.value - 1.0 / math.sqrt(2.0)) < 1e-11


def test_nonoscillatory_tail():
    # an infinite interval is only integrated lobe by lobe of a kernel
    with pytest.raises(ValueError):
        integrate_entry(lambda t: np.exp(-t), Interval.tail(1.0), None, tol=1e-10)


def test_budget_starvation_reports_nonconverged():
    res = integrate_entry(
        lambda t: np.ones_like(t), Interval.full_half_line(),
        OscillationSpec(0.0, 1.0), tol=1e-9, budget=150,
    )
    assert not res.converged


def test_period_acceleration_same_frequency_product():
    # int_0^inf J_1(t)^2 / t dt = 1/2; the lobe sums do not alternate,
    # so epsilon acceleration is unreliable here and the integrator must
    # return the constant-phase extrapolation without being told to
    res = integrate_entry(
        lambda t: sp.jv(1.0, t) / t,
        Interval.tail(0.0),
        OscillationSpec(1.0, 1.0),
        tol=1e-7,
    )
    assert res.converged
    assert abs(res.value - 0.5) <= 5.0 * res.abs_err
    assert abs(res.value - 0.5) < 1e-7


@pytest.mark.parametrize(
    "osc,start",
    [
        (OscillationSpec(0.0, 1.0), 0.0),
        (OscillationSpec(0.0, 1.0), 2.40),  # a start just below the first zero
        (OscillationSpec(1.0, 0.37), 3.0),
        (OscillationSpec(-0.45, 2.5, "y"), 0.0),
        (OscillationSpec(-0.9, 1.0), 0.0),
        (OscillationSpec(2.5, 40.0, "y"), 1.0),
    ],
)
def test_break_stream_keeps_the_merge_loops_points(osc, start):
    # the stream keeps, as one array, every kernel zero more than
    # 0.05 pi / frequency past the start; the point-by-point merge loop it
    # replaced, which dropped each zero too close to the last point kept,
    # is the reference here and must list the same points
    stream = _BreakStream(osc, start)
    for n in (96, 192, 288):
        stream.through(len(stream.points) - 1)
        kernel = bessel_zeros(osc.bessel_order, n, osc.kind) / osc.frequency
        keep = [start]
        for p in kernel.tolist():
            if p - keep[-1] > 0.05 * math.pi / osc.frequency:
                keep.append(p)
        assert stream.points == keep
        assert len(stream.nodes) == len(keep) - 1


def test_result_fields():
    res = integrate_entry(lambda x: np.exp(x), Interval.finite_from_zero(1.0), tol=1e-12)
    assert res.evaluations > 0
    assert res.abs_err >= 0.0
    assert res.converged
    assert abs(res.value - (math.e - 1.0)) <= 5.0 * res.abs_err


def _rows(fs, kernel=None):
    """The batch integrand f(rows, t) of the one-row integrands fs."""
    def f(rows, t):
        y = np.stack([fs[k](t[j]) for j, k in enumerate(rows)])
        return y if kernel is None else y * kernel(t)
    return f


def test_tail_rows_stop_alone():
    # rows that leave the lobe loop at different steps and by different
    # exits, over one break stream, each as if integrated alone
    osc = OscillationSpec(1.0, 1.0)
    tol, budget, max_lobes = 1e-7, 3000, 80
    cases = [
        (lambda t: np.exp(-t), None),  # direct summation
        (lambda t: 1.0 / (1.0 + t), None),  # Wynn epsilon
        (lambda t: sp.jv(1.0, t) / t, None),  # period fit: J_1^2 / t
        (lambda t: np.cos(t * t), None),  # no exit within max_lobes
        (lambda t: 1.0 / (1.0 + t), 2000.0),  # the head spends the budget
        (lambda t: np.exp(-0.2 * t), 30.0),  # a later first lobe
    ]
    fs, heads = [f for f, _ in cases], [h for _, h in cases]
    iv = Interval.full_half_line()
    batch = integrate_oscillatory_tail(_rows(fs, osc.kernel), iv, osc, tol, heads, budget, max_lobes)
    alone = [integrate_entry(f, iv, osc, tol, h, budget, max_lobes) for f, h in cases]
    assert batch == alone
    assert all(r.converged for r in batch[:3] + batch[5:])
    assert abs(batch[0].value - (1.0 - 1.0 / math.sqrt(2.0))) <= 5.0 * batch[0].abs_err
    assert abs(batch[2].value - 0.5) <= 5.0 * batch[2].abs_err
    assert not batch[3].converged and batch[3].evaluations < budget
    assert not batch[4].converged and batch[4].evaluations >= budget


def _one_lobe_a_step(f, iv, osc, tol, head, budget, max_lobes):
    """The tail rule for one row, one lobe a step, as a loop over a break
    stream and a row of partial sums: (result, head evaluations, lobes
    taken, lobe limit)."""
    stream = _BreakStream(osc, iv.lower)
    first = iv.lower + max(1.0, 10.0 / osc.frequency) if head is None else max(head, iv.lower)
    start = stream.snap(first)
    end = stream.points[start]
    if end > iv.lower:
        segment = Interval.segment(iv.lower, end, iv.singularity_hint)
        head_res = integrate_entry(f, segment, osc, 0.25 * tol, budget=budget)
    else:
        head_res = QuadResult(0.0, 0.0, 0, True)
    row = _Lobes(head_res)
    limit = max(0, min(max_lobes, -(-(budget - row.evals) // _LOBE_NODES)))
    for n in range(limit):
        j = start + n
        stream.through(j)
        y = np.asarray(f(stream.nodes[j]), dtype=float) * osc.kernel(stream.nodes[j])
        row.evals += _LOBE_NODES
        res = row.add(stream.half_widths[j] * np.vecdot(y, _WLOBE), stream.points[j + 1], tol)
        if res is not None:
            return res, head_res.evaluations, n + 1, limit
    return row.unconverged(), head_res.evaluations, limit, limit


def test_lobe_blocks_match_one_lobe_a_step():
    # three lobes a step leave every value, bound and exit as one lobe a
    # step leaves them; evaluations count the lobes of a row's last block,
    # clipped at its limit, and one lobe a step counts the lobes taken
    osc = OscillationSpec(1.0, 1.0)
    tol, budget = 1e-7, 3000
    iv = Interval.full_half_line()
    cases = [
        (lambda t: np.exp(-t), None, 80),  # direct summation
        (lambda t: 1.0 / (1.0 + t), None, 80),  # Wynn epsilon
        (lambda t: sp.jv(1.0, t) / t, None, 80),  # period fit: J_1^2 / t
        (lambda t: np.cos(t * t), None, 80),  # no exit within max_lobes
        (lambda t: 1.0 / (1.0 + t), 2000.0, 80),  # the head spends the budget
        (lambda t: np.exp(-0.2 * t), 30.0, 80),  # a later first lobe
        (lambda t: 1.0 / (1.0 + t), None, 7),  # max_lobes not a multiple of 3
    ]
    for f, head, max_lobes in cases:
        oracle, head_evals, taken, limit = _one_lobe_a_step(
            f, iv, osc, tol, head, budget, max_lobes
        )
        blocks = -(-taken // _LOBES_PER_STEP) * _LOBES_PER_STEP
        expected = head_evals + _LOBE_NODES * min(blocks, limit)
        for per_step, evals in ((_LOBES_PER_STEP, expected), (1, oracle.evaluations)):
            res = integrate_entry(f, iv, osc, tol, head, budget, max_lobes, per_step)
            assert (res.value, res.abs_err, res.converged) == (
                oracle.value, oracle.abs_err, oracle.converged
            ), (head, max_lobes, per_step)
            assert res.evaluations == evals, (head, max_lobes, per_step)
    assert oracle.evaluations == head_evals + _LOBE_NODES * 7 and not oracle.converged


def test_finite_rows_stop_alone():
    # a row done after its first four panels, rows that bisect for a few
    # or many steps, and one that stops at a panel too narrow to split
    c = 1.0 / math.pi
    cases = [
        (lambda x: 3.0 * x**2, Interval.segment(0.0, 2.0)),
        (lambda x: np.cos(40.0 * x), Interval.segment(0.0, 2.0)),
        (lambda x: np.where(x < c, 1.0, 0.0), Interval.segment(0.0, 1.5)),
        (lambda x: 1.0 / np.sqrt(np.abs(x - c) + 1e-24), Interval.segment(0.0, 1.0)),
    ]
    fs, segs = [f for f, _ in cases], [iv for _, iv in cases]
    batch = integrate_finite(_rows(fs), segs, 1e-12, 40_000)
    alone = [integrate_entry(f, iv, tol=1e-12, budget=40_000) for f, iv in cases]
    assert batch == alone
    # 4 and 26 panels of 21 nodes: cos 40x needs more, smaller panels
    assert [r.evaluations for r in batch[:2]] == [84, 546]
    assert all(r.converged for r in batch[:3])
    assert not batch[3].converged and batch[3].evaluations < 40_000


def test_finite_rows_share_one_hint():
    with pytest.raises(ValueError):
        integrate_finite(
            _rows([np.sqrt, np.sqrt]),
            [Interval.segment(0.0, 1.0), Interval.segment(0.0, 1.0, ALGEBRAIC_AT_LOWER)],
            1e-10,
        )
