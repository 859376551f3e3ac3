"""Unit tests for the transform pair and the integrability condition."""

import math
import sys
import threading

import numpy as np
import pytest
import scipy.special as sp

from hankel_dual import quad
from hankel_dual.errors import AdmissibilityError, InconclusiveConditionError
from hankel_dual.hankel import (
    SeedFunction,
    _forwards,
    check_condition,
    dual_roundtrip,
    hankel_forward,
    hankel_inverse,
)


def gaussian_seed():
    return SeedFunction(lambda x: np.exp(-x * x), 0.0, -math.inf, name="gaussian")


def k0_seed():
    return SeedFunction(
        lambda x: sp.kv(0.0, np.maximum(x, 1e-300)), 0.0, -math.inf, name="K0"
    )


def power_exp_seed(nu):
    return SeedFunction(
        lambda x: x**nu * np.exp(-x), float(nu), -math.inf, name=f"x^{nu} exp(-x)"
    )


def truncated_power_seed():
    return SeedFunction(
        lambda x: np.where(x <= 1.0, 1.0 - x * x, 0.0),
        0.0,
        None,
        support_upper=1.0,
        name="(1-x^2)+",
    )


def indicator_seed():
    return SeedFunction(
        lambda x: np.where(x <= 1.0, 1.0, 0.0),
        0.0,
        None,
        support_upper=1.0,
        name="1_[0,1]",
    )


FORWARD_BS = (0.1, 1.0, 7.3, 40.0)

SMOOTH_SEEDS = [
    (gaussian_seed(), 0.0),
    (k0_seed(), 0.0),
    (power_exp_seed(0.0), 0.0),
    (power_exp_seed(1.0), 1.0),
    (truncated_power_seed(), 0.0),
]


# seed, nu, closed-form G(b), tol, bound on |error|, b values; FORWARD_BS
# spans the b the inverse asks for in the acceptance round trips
FORWARD_CLOSED_FORMS = [
    (gaussian_seed(), 0.0, lambda b: 0.5 * math.exp(-b * b / 4.0), 1e-10, 1e-10,
     (0.5, 2.0) + FORWARD_BS),
    (power_exp_seed(0.0), 0.0, lambda b: (1.0 + b * b) ** -1.5, 1e-10, 1e-9,
     (0.5, 2.0) + FORWARD_BS),
    (indicator_seed(), 0.0, lambda b: sp.jv(1.0, b) / b, 1e-9, 1e-9, (0.7, 2.3)),
    (k0_seed(), 0.0, lambda b: 1.0 / (1.0 + b * b), 1e-10, 1e-9, FORWARD_BS),
    (power_exp_seed(1.0), 1.0, lambda b: 3.0 * b / (1.0 + b * b) ** 2.5, 1e-10, 1e-9,
     FORWARD_BS),
    (truncated_power_seed(), 0.0, lambda b: 2.0 * sp.jv(2.0, b) / b**2, 1e-10, 1e-9,
     FORWARD_BS),
]


@pytest.mark.parametrize(
    "F,nu,truth,tol,bound,b",
    [row[:5] + (b,) for row in FORWARD_CLOSED_FORMS for b in row[5]],
    ids=[f"{row[0].name}-b={b}" for row in FORWARD_CLOSED_FORMS for b in row[5]],
)
def test_forward_closed_forms(F, nu, truth, tol, bound, b):
    res = hankel_forward(F, nu, b, tol=tol)
    err = abs(res.value - truth(b))
    assert res.converged
    assert err <= 5.0 * res.abs_err
    assert err < bound
    if F.name == "K0":
        # x = U t^2 on the head turns x K0(x) ~ -x log x into t^3 log t;
        # bisecting toward the log at x = 0 took 1,039-1,308
        assert res.evaluations <= 600, res.evaluations


# the non-compact seeds, whose heads [0, 10/b] run far past where F lives
SMALL_B_CLOSED_FORMS = [row[:4] for row in FORWARD_CLOSED_FORMS if row[0].support_upper is None]


@pytest.mark.parametrize(
    "F,nu,truth,tol,b",
    [row + (b,) for row in SMALL_B_CLOSED_FORMS for b in (1e-4, 1e-3)],
    ids=[f"{row[0].name}-b={b}" for row in SMALL_B_CLOSED_FORMS for b in (1e-4, 1e-3)],
)
def test_forward_small_b_is_honest(F, nu, truth, tol, b):
    # with equal quarters of [0, 10/b] every node of the first panel lay
    # beyond the seed, so the transform returned about 0 as converged
    res = hankel_forward(F, nu, b, tol=tol)
    err = abs(res.value - truth(b))
    assert res.converged
    assert err <= 5.0 * res.abs_err, (res.value, truth(b), res.abs_err)


@pytest.mark.parametrize("F,nu", SMOOTH_SEEDS, ids=[s.name for s, _ in SMOOTH_SEEDS])
def test_dual_roundtrip_smooth_seeds(F, nu):
    for r, resid in dual_roundtrip(F, nu, [0.5, 1.0, 2.0], tol=1e-6):
        assert resid <= 1e-6, (F.name, r, resid)


def test_roundtrip_jump_recovers_midpoint():
    # at the support edge the inverse converges to the jump midpoint
    ((r, resid),) = dual_roundtrip(indicator_seed(), 0.0, [1.0], tol=1e-6)
    assert r == 1.0
    assert abs(resid - 0.5) <= 1e-5


def compact_seed(fn, name):
    return SeedFunction(
        lambda x: np.where(x <= 1.0, fn(x), 0.0), 0.0, None, support_upper=1.0, name=name
    )


JUMP_SEEDS = [
    (compact_seed(lambda x: 1.0 - 0.5 * x * x, "(1-x^2/2) 1_[0,1]"), 0.0),
    (compact_seed(lambda x: x, "x 1_[0,1]"), 1.0),
]


@pytest.mark.parametrize("F,nu", JUMP_SEEDS, ids=[s.name for s, _ in JUMP_SEEDS])
def test_roundtrip_jump_midpoint_without_alternation(F, nu):
    # F jumps from F(1) to 0 at r = 1, so the inverse must return F(1)/2.
    # Unlike the indicator's, these lobe sums at the J_nu zeros do not
    # equal the limit, and they do not alternate: epsilon alone misses
    # by about 2e-4, the constant-phase fit meets the bound
    ((r, resid),) = dual_roundtrip(F, nu, [1.0], tol=1e-6)
    half_jump = 0.5 * float(F(np.asarray([1.0]))[0])
    assert abs(resid - half_jump) <= 1e-5


@pytest.mark.parametrize("r", [0.5581, 0.7777, 0.8445])
def test_roundtrip_truncated_power_off_grid(r):
    # radii off the acceptance grid; an inverse that also breaks its lobes
    # at the J_1 zeros of the support edge misses here by 7e-6 to 3e-5
    ((_, resid),) = dual_roundtrip(truncated_power_seed(), 0.0, [r], tol=1e-6)
    assert resid <= 1e-6, (r, resid)


def truncated_power_transform(u):
    return 2.0 * sp.jv(2.0, u) / (u * u)


@pytest.mark.parametrize(
    "r", [0.86012, 0.9389, 0.9782, 0.98305, 0.9831, 0.98832, 1.0306, 1.0335]
)
def test_inverse_near_support_edge_ignores_last_digits_of_g(r):
    # near r = 1 the lobes of the truncated power's inverse beat slowly;
    # changing G in its 12th digit must not move where the extrapolation
    # stops by more than a fraction of the tolerance
    tol = 3e-7
    G = truncated_power_transform
    a = hankel_inverse(G, 0.0, r, tol)
    b = hankel_inverse(lambda u: G(u) * (1.0 + 1e-12 * np.cos(7.3 * u)), 0.0, r, tol)
    assert abs(a.value - b.value) <= 0.3 * tol, (r, a, b)


def test_inverse_error_bounds_near_support_edge_ratchet():
    # the truncated power's inverse at 24 log-spaced radii and 6 radii near
    # its edge: no more than 8 of 30 may be wrong by over 5x their bound
    radii = np.geomspace(0.5, 2.0, 24).tolist() + [0.9389, 0.9782, 0.98305, 0.9831, 0.98832, 1.0335]
    dishonest = []
    for r in radii:
        res = hankel_inverse(truncated_power_transform, 0.0, r, 3e-7)
        err = abs(res.value - max(1.0 - r * r, 0.0))
        if err > 5.0 * res.abs_err:
            dishonest.append((r, err, res.abs_err))
    assert len(dishonest) <= 8, dishonest


ACCEPTANCE_SEEDS = SMOOTH_SEEDS + [(indicator_seed(), 0.0)]


@pytest.mark.parametrize("F,nu", ACCEPTANCE_SEEDS, ids=[s.name for s, _ in ACCEPTANCE_SEEDS])
def test_lockstep_forward_equals_one_transform_at_a_time(F, nu):
    # the round trip's batch of forward transforms must not move one bit
    # of any of them: each row equals hankel_forward at its b alone and
    # the single-integrand integrate_entry path
    bs = np.geomspace(1e-3, 300.0, 97).tolist()
    tol = 1e-10
    batch = _forwards(F, nu, bs, tol)
    for b, res in zip(bs, batch):
        alone = hankel_forward(F, nu, b, tol)
        if F.support_upper is None:  # t = b x over [0, inf), head [0, max(b, 10)]
            iv = quad.Interval.tail(0.0, quad.ALGEBRAIC_AT_LOWER)
            osc, head, t_per_x = quad.OscillationSpec(nu, 1.0), max(b, 10.0), b
        else:  # x over [0, support_upper], kernel J_nu(b x)
            iv = quad.Interval.finite_from_zero(F.support_upper)
            osc, head, t_per_x = quad.OscillationSpec(nu, b), None, 1.0
        weight = 1.0 / (t_per_x * t_per_x)
        plain = quad.integrate_entry(
            lambda t: t * F(t / t_per_x) * weight, iv, osc, tol, head=head
        )
        fields = [(r.value, r.abs_err, r.evaluations, r.converged) for r in (res, alone, plain)]
        assert fields[0] == fields[1] == fields[2], (F.name, b, fields)


def x_frame_forward(F, nu, b, tol):
    """The non-compact forward as integrated before t = b x: x F(x) J_nu(b x)
    over [0, inf) in x, with x = U s^2 on the head [0, max(1, 10/b)]."""
    iv = quad.Interval.tail(0.0, quad.ALGEBRAIC_AT_LOWER)
    return quad.integrate_entry(lambda x: x * F(x), iv, quad.OscillationSpec(nu, b), tol)


NON_COMPACT_SEEDS = [(F, nu) for F, nu in SMOOTH_SEEDS if F.support_upper is None]


@pytest.mark.parametrize("F,nu", NON_COMPACT_SEEDS, ids=[s.name for s, _ in NON_COMPACT_SEEDS])
def test_t_frame_forward_agrees_with_x_frame(F, nu):
    # t = b x moves the nodes by rounding only, so the two frames agree
    # within the error each claims
    tol = 1e-10
    for b in np.geomspace(1e-3, 300.0, 25):
        t_res = hankel_forward(F, nu, b, tol)
        x_res = x_frame_forward(F, nu, b, tol)
        assert t_res.converged == x_res.converged, (F.name, b)
        assert abs(t_res.value - x_res.value) <= 5.0 * t_res.abs_err, (F.name, b, t_res, x_res)


def test_forwards_from_threads_equal_serial():
    # forward batches run at once from several threads must each get the
    # serial result
    F, nu = power_exp_seed(1.0), 1.0
    bs = np.geomspace(0.05, 50.0, 12).tolist()
    serial = _forwards(F, nu, bs, 1e-10)
    got, errors = {}, []

    def work(k):
        try:
            got[k] = _forwards(F, nu, bs[k % 3::3], 1e-10)
        except Exception as exc:  # surfaced below through the assertion
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)
    for k in range(6):
        assert got[k] == serial[k % 3::3]


def test_scale_covariance():
    # F_s(x) = F(s x)  =>  G_s(b) = s^{-2} G(b/s)
    F = gaussian_seed()
    for s in (0.5, 2.0):
        Fs = SeedFunction(lambda x, s=s: np.exp(-((s * x) ** 2)), 0.0, -math.inf)
        for b in (0.7, 1.3):
            lhs = hankel_forward(Fs, 0.0, b, tol=1e-10).value
            rhs = hankel_forward(F, 0.0, b / s, tol=1e-10).value / s**2
            assert abs(lhs - rhs) < 1e-8


def test_forward_rejects_inadmissible_before_quadrature():
    calls = []

    def f(x):
        calls.append(x)
        return np.ones_like(x)

    bad = SeedFunction(f, 0.0, 0.0)  # constant: fails at infinity
    with pytest.raises(AdmissibilityError) as exc:
        hankel_forward(bad, 0.0, 1.0)
    assert exc.value.verdict.failing_endpoint == "Infinity"
    assert not calls  # declared exponents decide without evaluating F


def test_forward_argument_validation():
    with pytest.raises(ValueError):
        hankel_forward(gaussian_seed(), 0.0, 0.0)
    with pytest.raises(ValueError):
        hankel_inverse(lambda u: np.exp(-u), 0.0, -1.0)


@pytest.mark.parametrize("arg", [math.inf, -math.inf, math.nan])
def test_non_finite_transform_argument_raises(arg):
    # an infinite b once put every kernel zero at 0 and never returned
    with pytest.raises(ValueError):
        hankel_forward(gaussian_seed(), 0.0, arg)
    with pytest.raises(ValueError):
        hankel_inverse(lambda u: np.exp(-u), 0.0, arg)


def test_condition_declared_endpoints():
    combos = [
        (0.0, -2.0, True, None),
        (-2.0, -3.0, False, "Zero"),
        (0.0, -1.0, False, "Infinity"),
        (-2.0, -1.0, False, "Both"),
    ]
    for p0, pinf, admissible, endpoint in combos:
        v = check_condition(SeedFunction(lambda x: x, p0, pinf))
        assert v.admissible == admissible
        assert v.failing_endpoint == endpoint


def test_condition_estimates_undeclared_exponents():
    # 1/(1+x^2): exponent 0 at zero, -2 at infinity
    v = check_condition(SeedFunction(lambda x: 1.0 / (1.0 + x * x)))
    assert v.admissible
    assert abs(v.zero_exponent - 0.0) < 0.02
    assert abs(v.inf_exponent + 2.0) < 0.02


def test_condition_estimator_detects_slow_decay():
    v = check_condition(SeedFunction(lambda x: (1.0 + x) ** -1.2))
    assert not v.admissible
    assert v.failing_endpoint == "Infinity"
    assert abs(v.inf_exponent + 1.2) < 0.02


def test_condition_estimator_oscillatory_envelope():
    # |J_0(x)| ~ x^{-1/2} envelope at infinity: x^{-1} J_0(x) decays
    # like x^{-3/2} times oscillation -- but a shifted power is clear
    F = SeedFunction(
        lambda x: np.cos(5.0 * x) / (1.0 + x) ** 2, oscillatory_envelope=True
    )
    v = check_condition(F)
    assert v.admissible
    assert abs(v.inf_exponent + 2.0) < 0.05


def test_condition_borderline_raises_inconclusive():
    with pytest.raises(InconclusiveConditionError) as exc:
        check_condition(SeedFunction(lambda x: x**-1.5))
    assert abs(exc.value.exponent + 1.5) <= 0.05


@pytest.mark.parametrize(
    "F",
    [
        SeedFunction(lambda x: np.where(x < 1e3, 1.0, np.inf), name="inf beyond 1e3"),
        SeedFunction(lambda x: sp.iv(0.5, x) * x**-3.0, name="I_1/2 overflow"),
    ],
    ids=lambda F: F.name,
)
def test_condition_overflow_is_inconclusive_not_decay(F):
    with pytest.raises(InconclusiveConditionError) as exc:
        check_condition(F)
    assert exc.value.endpoint == "Infinity"


def test_condition_underflow_still_reads_as_decay():
    # exp(-x) underflows to 0 on [1e4, 1e6]: finite, so still decay
    v = check_condition(SeedFunction(lambda x: np.exp(-x)))
    assert v.admissible
    assert v.inf_exponent == -math.inf


def test_compact_support_skips_infinity_estimate():
    v = check_condition(indicator_seed())
    assert v.admissible
    assert v.inf_exponent == -math.inf


def test_roundtrip_rejects_inadmissible():
    with pytest.raises(AdmissibilityError):
        dual_roundtrip(SeedFunction(lambda x: np.ones_like(x), 0.0, 0.0), 0.0, [1.0])
