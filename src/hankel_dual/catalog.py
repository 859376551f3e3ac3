"""Catalog of dual definite integrals for Bessel functions.

Forty integral identities, organised in five groups by the character of
the non-Bessel factor, each paired with a closed-form right-hand side
and a default parameter grid; plus sixteen documented seed functions for
which the transform-pair method fails because the integrability
condition cannot be satisfied.

Provenance strings cite the classical tables (Gradshteyn & Ryzhik,
"GR x.y.z") or named formulas from which each left-hand side derives.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.special as _sp

from . import quad
from .errors import ParameterError, UnknownIdError
from .hankel import SeedFunction
from .quad import (
    ALGEBRAIC_AT_LOWER,
    ALGEBRAIC_AT_UPPER,
    Interval,
    OscillationSpec,
    QuadResult,
)
from .specfun import bessel_zeros, struve_minus_y
from .specfun import _hyp2f1_terminating_array, _legendre_p0_array, _legendre_q0_array

__all__ = [
    "ParamPoint",
    "Constraint",
    "Piece",
    "IntegralEntry",
    "FailureSeed",
    "TOLERANCES",
    "heron_area",
    "l1_l2",
    "all_entries",
    "entry_by_id",
    "all_failures",
    "failure_by_id",
    "control_seed",
    "catalog_metadata",
]

TOLERANCES = {"Decaying": 1e-9, "Oscillatory": 1e-7, "Singular": 1e-6}

_SYMBOLS = frozenset(
    ["nu", "mu", "n", "a", "b", "c", "alpha", "beta", "gamma", "p", "q", "z", "t", "x"]
)


@dataclass(frozen=True)
class ParamPoint:
    """An immutable symbol -> value assignment for one grid point."""

    values: tuple

    @classmethod
    def of(cls, **kwargs) -> "ParamPoint":
        for key in kwargs:
            if key not in _SYMBOLS:
                raise ParameterError(f"unknown parameter symbol {key!r}")
        return cls(tuple(sorted((k, float(v)) for k, v in kwargs.items())))

    def __getitem__(self, key: str) -> float:
        for k, v in self.values:
            if k == key:
                return v
        raise KeyError(key)

    def get(self, key: str, default=None):
        for k, v in self.values:
            if k == key:
                return v
        return default

    def as_dict(self) -> dict:
        return dict(self.values)

    def label(self) -> str:
        return ", ".join(f"{k}={v:g}" for k, v in self.values)


@dataclass(frozen=True)
class Constraint:
    description: str
    check: Callable[[ParamPoint], bool]


@dataclass(frozen=True)
class Piece:
    """One quadrature job; an entry's LHS is the sum of its pieces.

    ``integrand`` builds the smooth factor when ``osc`` is given (the
    Bessel kernel is supplied by the oscillation spec), or the full
    integrand for finite / non-oscillatory intervals.
    """

    integrand: Callable[[ParamPoint], Callable[[np.ndarray], np.ndarray]]
    interval: Callable[[ParamPoint], Interval]
    osc: Optional[Callable[[ParamPoint], OscillationSpec]] = None
    head: Optional[Callable[[ParamPoint], float]] = None
    max_lobes: int = 220


@dataclass(frozen=True)
class IntegralEntry:
    id: str
    group: int
    description: str
    rhs: Callable[[ParamPoint], float]
    constraints: tuple
    default_grid: tuple
    provenance: str
    tol_class: str
    pieces: tuple

    @property
    def tolerance(self) -> float:
        return TOLERANCES[self.tol_class]

    def violations(self, params: ParamPoint) -> list:
        return [c.description for c in self.constraints if not c.check(params)]

    def lhs(self, params: ParamPoint, tol: Optional[float] = None) -> QuadResult:
        """Evaluate the left-hand side by quadrature at the given tolerance."""
        bad = self.violations(params)
        if bad:
            raise ParameterError(f"{self.id}: constraint violated: {'; '.join(bad)}")
        if tol is None:
            tol = self.tolerance
        per_piece = tol / len(self.pieces)
        value, abs_err, evals = 0.0, 0.0, 0
        converged = True
        for piece in self.pieces:
            res = quad.integrate_entry(
                piece.integrand(params),
                piece.interval(params),
                piece.osc(params) if piece.osc is not None else None,
                per_piece,
                head=piece.head(params) if piece.head is not None else None,
                max_lobes=piece.max_lobes,
            )
            value += res.value
            abs_err += res.abs_err
            evals += res.evaluations
            converged = converged and res.converged
        return QuadResult(value, abs_err, evals, converged)

    def to_metadata(self) -> dict:
        return {
            "id": self.id,
            "group": self.group,
            "description": self.description,
            "provenance": self.provenance,
            "tol_class": self.tol_class,
            "tolerance": self.tolerance,
            "pieces": len(self.pieces),
            "default_grid": [p.as_dict() for p in self.default_grid],
        }


@dataclass(frozen=True)
class FailureSeed:
    """A seed for which the integrability condition fails."""

    id: str
    provenance: str
    description: str
    expected_endpoint: str  # "Zero" | "Infinity" | "Both"
    seed: SeedFunction

    def to_metadata(self) -> dict:
        return {
            "id": self.id,
            "provenance": self.provenance,
            "description": self.description,
            "expected_endpoint": self.expected_endpoint,
            "declared_zero_exponent": self.seed.decay_at_zero,
            "declared_inf_exponent": self.seed.decay_at_inf,
        }


# ----------------------------------------------------------------------
# helpers


def heron_area(a, b, c):
    """Area of the triangle with side lengths a, b, c (0 when degenerate).

    Uses the factored form 16*A^2 = ((b+c)^2 - a^2) * (a^2 - (b-c)^2),
    clipped at zero outside the triangle inequality.
    """
    a = np.asarray(a, dtype=float)
    q = ((b + c) ** 2 - a * a) * (a * a - (b - c) ** 2)
    return 0.25 * np.sqrt(np.maximum(q, 0.0))


def l1_l2(a, b, c):
    """The pair l1 <= l2 with l1*l2 = b*c and l1^2 + l2^2 = a^2+b^2+c^2."""
    s1 = np.sqrt(a * a + (b + c) ** 2)
    s2 = np.sqrt(a * a + (b - c) ** 2)
    return 0.5 * (s1 - s2), 0.5 * (s1 + s2)


def _quartic(a: float, b: float, u: np.ndarray) -> np.ndarray:
    """(a^2 + b^2 + u^2)^2 - 4 a^2 b^2  (= (l2^2-l1^2)^2 for l's of (u,a,b))."""
    return (a * a + b * b + u * u) ** 2 - 4.0 * a * a * b * b


def control_seed() -> SeedFunction:
    """The admissible control seed F(x) = exp(-x)."""
    return SeedFunction(
        lambda x: np.exp(-x),
        decay_at_zero=0.0,
        decay_at_inf=-math.inf,
        name="exp-control",
    )


# ----------------------------------------------------------------------
# constraint shorthands


def _pos(*names):
    return tuple(
        Constraint(f"{n} > 0", (lambda P, n=n: P[n] > 0.0)) for n in names
    )


def _ge(name, bound):
    return Constraint(f"{name} >= {bound}", lambda P: P[name] >= bound)


def _gt(name, bound):
    return Constraint(f"{name} > {bound}", lambda P: P[name] > bound)


def _lt(name, bound):
    return Constraint(f"{name} < {bound}", lambda P: P[name] < bound)


def _nat(name):
    return Constraint(
        f"{name} is a non-negative integer",
        lambda P: P[name] >= 0 and float(P[name]).is_integer(),
    )


# ----------------------------------------------------------------------
# the forty entries


def _build_entries() -> list:
    E = []

    # ---- group 2: polynomial, rational, algebraic, power ----

    E.append(IntegralEntry(
        id="T01",
        group=2,
        description=(
            "int_0^inf Area(a,b,c)^(2 nu - 1) a^(1-nu) J_nu(a t) da = "
            "2^(1-nu) sqrt(pi) Gamma(nu+1/2) (b c / t)^nu J_nu(b t) J_nu(c t)"
        ),
        rhs=lambda P: (
            2.0 ** (1.0 - P["nu"]) * math.sqrt(math.pi)
            * _sp.gamma(P["nu"] + 0.5)
            * (P["b"] * P["c"] / P["t"]) ** P["nu"]
            * _sp.jv(P["nu"], P["b"] * P["t"]) * _sp.jv(P["nu"], P["c"] * P["t"])
        ),
        constraints=_pos("b", "c", "t") + (_gt("nu", -0.5),),
        default_grid=(
            ParamPoint.of(nu=1.0, b=1.0, c=1.0, t=1.5),
            ParamPoint.of(nu=1.5, b=2.0, c=1.0, t=1.0),
            ParamPoint.of(nu=2.5, b=1.0, c=2.0, t=0.9),
        ),
        provenance="Sonine's triple-product formula",
        tol_class="Decaying",
        pieces=(Piece(
            integrand=lambda P: (lambda u: (
                heron_area(u, P["b"], P["c"]) ** (2.0 * P["nu"] - 1.0)
                * u ** (1.0 - P["nu"]) * _sp.jv(P["nu"], u * P["t"])
            )),
            interval=lambda P: Interval.segment(
                abs(P["b"] - P["c"]), P["b"] + P["c"], ALGEBRAIC_AT_UPPER
            ),
        ),),
    ))

    E.append(IntegralEntry(
        id="T02a",
        group=2,
        description="int_0^alpha b^nu J_(nu-1)(b z) db = alpha^nu J_nu(alpha z) / z",
        rhs=lambda P: P["alpha"] ** P["nu"] * _sp.jv(P["nu"], P["alpha"] * P["z"]) / P["z"],
        constraints=_pos("alpha", "z") + (_gt("nu", 0.5),),
        default_grid=(
            ParamPoint.of(nu=1.0, alpha=1.0, z=1.0),
            ParamPoint.of(nu=1.5, alpha=2.0, z=1.5),
            ParamPoint.of(nu=2.5, alpha=1.0, z=3.0),
        ),
        provenance="GR 6.512.3",
        tol_class="Decaying",
        pieces=(Piece(
            integrand=lambda P: (lambda u: u ** P["nu"] * _sp.jv(P["nu"] - 1.0, u * P["z"])),
            interval=lambda P: Interval.finite_from_zero(P["alpha"]),
        ),),
    ))

    E.append(IntegralEntry(
        id="T02b",
        group=2,
        description=(
            "int_beta^inf a^(1-mu) J_mu(a z) da = beta^(1-mu) J_(mu-1)(beta z) / z"
        ),
        rhs=lambda P: (
            P["beta"] ** (1.0 - P["mu"]) * _sp.jv(P["mu"] - 1.0, P["beta"] * P["z"]) / P["z"]
        ),
        constraints=_pos("beta", "z") + (_gt("mu", 1.0),),
        default_grid=(
            ParamPoint.of(mu=2.0, beta=1.0, z=1.0),
            ParamPoint.of(mu=3.0, beta=2.0, z=1.5),
            ParamPoint.of(mu=2.5, beta=1.0, z=2.0),
        ),
        provenance="GR 6.512.3",
        tol_class="Oscillatory",
        pieces=(Piece(
            integrand=lambda P: (lambda u: u ** (1.0 - P["mu"])),
            interval=lambda P: Interval.tail(P["beta"]),
            osc=lambda P: OscillationSpec(P["mu"], P["z"]),
        ),),
    ))

    E.append(IntegralEntry(
        id="T03",
        group=2,
        description="int_0^inf c^(nu+1) / (1 + c^2) J_nu(c z) dc = K_nu(z)",
        rhs=lambda P: float(_sp.kv(P["nu"], P["z"])),
        constraints=_pos("z") + (_ge("nu", -0.5), _lt("nu", 1.5)),
        default_grid=(
            ParamPoint.of(nu=0.5, z=1.0),
            ParamPoint.of(nu=0.0, z=2.0),
            ParamPoint.of(nu=1.0, z=0.5),
        ),
        provenance="GR 6.521.2",
        tol_class="Oscillatory",
        pieces=(Piece(
            integrand=lambda P: (lambda u: u ** (P["nu"] + 1.0) / (1.0 + u * u)),
            interval=lambda P: Interval.full_half_line(),
            osc=lambda P: OscillationSpec(P["nu"], P["z"]),
        ),),
    ))

    E.append(IntegralEntry(
        id="T04",
        group=2,
        description="int_0^inf c / (1 + c^2)^2 J_0(c z) dc = z K_1(z) / 2",
        rhs=lambda P: 0.5 * P["z"] * float(_sp.kv(1.0, P["z"])),
        constraints=_pos("z"),
        default_grid=(
            ParamPoint.of(z=0.5),
            ParamPoint.of(z=1.0),
            ParamPoint.of(z=2.0),
        ),
        provenance="GR 6.521.12",
        tol_class="Oscillatory",
        pieces=(Piece(
            integrand=lambda P: (lambda u: u / (1.0 + u * u) ** 2),
            interval=lambda P: Interval.full_half_line(),
            osc=lambda P: OscillationSpec(0.0, P["z"]),
        ),),
    ))

    E.append(IntegralEntry(
        id="T05",
        group=2,
        description="int_0^inf c^2 / (1 + c^2)^2 J_1(c z) dc = z K_0(z) / 2",
        rhs=lambda P: 0.5 * P["z"] * float(_sp.kv(0.0, P["z"])),
        constraints=_pos("z"),
        default_grid=(
            ParamPoint.of(z=0.5),
            ParamPoint.of(z=1.0),
            ParamPoint.of(z=2.0),
        ),
        provenance="GR 6.521.12",
        tol_class="Oscillatory",
        pieces=(Piece(
            integrand=lambda P: (lambda u: u * u / (1.0 + u * u) ** 2),
            interval=lambda P: Interval.full_half_line(),
            osc=lambda P: OscillationSpec(1.0, P["z"]),
        ),),
    ))

    def _l_ratio(nu, l1, l2):
        return (l1 / l2) ** nu / (l2 * l2 - l1 * l1)

    E.append(IntegralEntry(
        id="T06a",
        group=2,
        description=(
            "int_0^inf b J_nu(b z) l1^nu / (l2^nu (l2^2 - l1^2)) db = "
            "K_0(alpha z) J_nu(gamma z), l's from (alpha, b, gamma)"
        ),
        rhs=lambda P: (
            float(_sp.kv(0.0, P["alpha"] * P["z"])) * _sp.jv(P["nu"], P["gamma"] * P["z"])
        ),
        constraints=_pos("alpha", "gamma", "z") + (_ge("nu", -0.5),),
        default_grid=(
            ParamPoint.of(nu=0.5, alpha=1.0, gamma=1.0, z=1.0),
            ParamPoint.of(nu=0.0, alpha=2.0, gamma=1.0, z=1.5),
            ParamPoint.of(nu=1.0, alpha=1.0, gamma=2.0, z=0.8),
        ),
        provenance="GR 6.522.12",
        tol_class="Oscillatory",
        pieces=(Piece(
            integrand=lambda P: (lambda u: u * _l_ratio(P["nu"], *l1_l2(P["alpha"], u, P["gamma"]))),
            interval=lambda P: Interval.full_half_line(),
            osc=lambda P: OscillationSpec(P["nu"], P["z"]),
        ),),
    ))

    E.append(IntegralEntry(
        id="T06b",
        group=2,
        description=(
            "int_0^inf c J_nu(c z) l1^nu / (l2^nu (l2^2 - l1^2)) dc = "
            "K_0(alpha z) J_nu(beta z), l's from (alpha, beta, c)"
        ),
        rhs=lambda P: float(_sp.kv(0.0, P["alpha"] * P["z"])) * _sp.jv(P["nu"], P["beta"] * P["z"]),
        constraints=_pos("alpha", "beta", "z") + (_ge("nu", -0.5),),
        default_grid=(
            ParamPoint.of(nu=0.5, alpha=1.0, beta=1.0, z=1.0),
            ParamPoint.of(nu=0.0, alpha=1.5, beta=2.0, z=1.0),
            ParamPoint.of(nu=1.0, alpha=1.0, beta=0.5, z=1.5),
        ),
        provenance="GR 6.522.12",
        tol_class="Oscillatory",
        pieces=(Piece(
            integrand=lambda P: (lambda u: u * _l_ratio(P["nu"], *l1_l2(P["alpha"], P["beta"], u))),
            interval=lambda P: Interval.full_half_line(),
            osc=lambda P: OscillationSpec(P["nu"], P["z"]),
        ),),
    ))

    E.append(IntegralEntry(
        id="T07a",
        group=2,
        description=(
            "int_0^inf c J_0(c z) (a^4+b^4+c^4-2a^2b^2+2a^2c^2+2b^2c^2)^(-1/2) dc = "
            "I_0(a z) K_0(b z)"
        ),
        rhs=lambda P: _sp.iv(0.0, P["a"] * P["z"]) * float(_sp.kv(0.0, P["b"] * P["z"])),
        constraints=_pos("a", "z") + (
            Constraint("b > a", lambda P: P["b"] > P["a"]),
        ),
        default_grid=(
            ParamPoint.of(a=1.0, b=2.0, z=1.0),
            ParamPoint.of(a=0.5, b=1.5, z=2.0),
            ParamPoint.of(a=1.0, b=3.0, z=0.7),
        ),
        provenance="GR 6.522.4",
        tol_class="Oscillatory",
        pieces=(Piece(
            integrand=lambda P: (lambda u: u / np.sqrt(_quartic(P["a"], P["b"], u))),
            interval=lambda P: Interval.full_half_line(),
            osc=lambda P: OscillationSpec(0.0, P["z"]),
        ),),
    ))

    E.append(IntegralEntry(
        id="T07b",
        group=2,
        description=(
            "int_0^inf a J_0(a z) / (l2^2 - l1^2) da = I_0(c z) K_0(b z), "
            "l's from (a, b, c)"
        ),
        rhs=lambda P: _sp.iv(0.0, P["c"] * P["z"]) * float(_sp.kv(0.0, P["b"] * P["z"])),
        constraints=_pos("c", "z") + (
            Constraint("b > c", lambda P: P["b"] > P["c"]),
        ),
        default_grid=(
            ParamPoint.of(b=2.0, c=1.0, z=1.0),
            ParamPoint.of(b=1.5, c=0.5, z=2.0),
            ParamPoint.of(b=3.0, c=1.0, z=0.7),
        ),
        provenance="GR 6.522.4",
        tol_class="Oscillatory",
        pieces=(Piece(
            integrand=lambda P: (lambda u: (
                lambda l: u / (l[1] * l[1] - l[0] * l[0])
            )(l1_l2(u, P["b"], P["c"]))),
            interval=lambda P: Interval.full_half_line(),
            osc=lambda P: OscillationSpec(0.0, P["z"]),
        ),),
    ))

    def _t08_rhs(P, second):
        nu = P["nu"]
        other = P["beta"] if second else P["gamma"]
        pref = (
            P["z"] ** nu * (P["alpha"] * other) ** (-nu) * math.sqrt(math.pi)
            / (2.0 ** (3.0 * nu) * _sp.gamma(nu + 0.5))
        )
        return pref * float(_sp.kv(nu, P["alpha"] * P["z"])) * _sp.jv(nu, other * P["z"])

    E.append(IntegralEntry(
        id="T08a",
        group=2,
        description=(
            "int_0^inf b^(nu+1) / (l2^2 - l1^2)^(2nu+1) J_nu(b z) db = "
            "z^nu (alpha gamma)^(-nu) sqrt(pi) / (2^(3nu) Gamma(nu+1/2)) "
            "K_nu(alpha z) J_nu(gamma z), l's from (alpha, b, gamma)"
        ),
        rhs=lambda P: _t08_rhs(P, second=False),
        constraints=_pos("alpha", "gamma", "z") + (_ge("nu", -0.5),),
        default_grid=(
            ParamPoint.of(nu=0.5, alpha=1.0, gamma=1.0, z=1.0),
            ParamPoint.of(nu=0.0, alpha=1.0, gamma=2.0, z=1.5),
            ParamPoint.of(nu=1.0, alpha=2.0, gamma=1.0, z=1.0),
        ),
        provenance="GR 6.522.15",
        tol_class="Oscillatory",
        pieces=(Piece(
            integrand=lambda P: (lambda u: (
                lambda l: u ** (P["nu"] + 1.0)
                / (l[1] * l[1] - l[0] * l[0]) ** (2.0 * P["nu"] + 1.0)
            )(l1_l2(P["alpha"], u, P["gamma"]))),
            interval=lambda P: Interval.full_half_line(),
            osc=lambda P: OscillationSpec(P["nu"], P["z"]),
        ),),
    ))

    E.append(IntegralEntry(
        id="T08b",
        group=2,
        description=(
            "int_0^inf c^(nu+1) / (l2^2 - l1^2)^(2nu+1) J_nu(c z) dc = "
            "z^nu (alpha beta)^(-nu) sqrt(pi) / (2^(3nu) Gamma(nu+1/2)) "
            "K_nu(alpha z) J_nu(beta z), l's from (alpha, beta, c)"
        ),
        rhs=lambda P: _t08_rhs(P, second=True),
        constraints=_pos("alpha", "beta", "z") + (_ge("nu", -0.5),),
        default_grid=(
            ParamPoint.of(nu=0.5, alpha=1.0, beta=1.0, z=1.0),
            ParamPoint.of(nu=0.0, alpha=1.0, beta=1.5, z=1.2),
            ParamPoint.of(nu=1.0, alpha=2.0, beta=1.0, z=1.0),
        ),
        provenance="GR 6.522.15",
        tol_class="Oscillatory",
        pieces=(Piece(
            integrand=lambda P: (lambda u: (
                lambda l: u ** (P["nu"] + 1.0)
                / (l[1] * l[1] - l[0] * l[0]) ** (2.0 * P["nu"] + 1.0)
            )(l1_l2(P["alpha"], P["beta"], u))),
            interval=lambda P: Interval.full_half_line(),
            osc=lambda P: OscillationSpec(P["nu"], P["z"]),
        ),),
    ))

    E.append(IntegralEntry(
        id="T09a",
        group=2,
        description=(
            "int_0^inf 2 a^2 J_1(a z) (a^2+beta^2-gamma^2) "
            "[(a^2+beta^2+gamma^2)^2 - 4 a^2 gamma^2]^(-3/2) da = "
            "z K_0(beta z) J_0(gamma z)"
        ),
        rhs=lambda P: (
            P["z"] * float(_sp.kv(0.0, P["beta"] * P["z"])) * _sp.jv(0.0, P["gamma"] * P["z"])
        ),
        constraints=_pos("beta", "gamma", "z") + (
            Constraint("beta >= gamma", lambda P: P["beta"] >= P["gamma"]),
        ),
        default_grid=(
            ParamPoint.of(beta=2.0, gamma=1.0, z=1.0),
            ParamPoint.of(beta=1.0, gamma=1.0, z=2.0),
            ParamPoint.of(beta=1.5, gamma=0.5, z=0.8),
        ),
        provenance="GR 6.525.1",
        tol_class="Oscillatory",
        pieces=(Piece(
            integrand=lambda P: (lambda u: (
                2.0 * u * u * (u * u + P["beta"] ** 2 - P["gamma"] ** 2)
                * ((u * u + P["beta"] ** 2 + P["gamma"] ** 2) ** 2
                   - 4.0 * u * u * P["gamma"] ** 2) ** -1.5
            )),
            interval=lambda P: Interval.full_half_line(),
            osc=lambda P: OscillationSpec(1.0, P["z"]),
        ),),
    ))

    E.append(IntegralEntry(
        id="T09b",
        group=2,
        description=(
            "int_0^inf c J_0(c z) (alpha^2+beta^2-c^2) "
            "[(alpha^2+beta^2+c^2)^2 - 4 alpha^2 c^2]^(-3/2) dc = "
            "z J_1(alpha z) K_0(beta z) / (2 alpha)"
        ),
        rhs=lambda P: (
            P["z"] / (2.0 * P["alpha"]) * _sp.jv(1.0, P["alpha"] * P["z"])
            * float(_sp.kv(0.0, P["beta"] * P["z"]))
        ),
        constraints=_pos("alpha", "z") + (
            Constraint("beta >= alpha", lambda P: P["beta"] >= P["alpha"]),
        ),
        default_grid=(
            ParamPoint.of(alpha=1.0, beta=2.0, z=1.0),
            ParamPoint.of(alpha=0.5, beta=1.0, z=2.0),
            ParamPoint.of(alpha=1.0, beta=1.5, z=1.5),
        ),
        provenance="GR 6.525.1",
        tol_class="Oscillatory",
        pieces=(Piece(
            integrand=lambda P: (lambda u: (
                u * (P["alpha"] ** 2 + P["beta"] ** 2 - u * u)
                * ((P["alpha"] ** 2 + P["beta"] ** 2 + u * u) ** 2
                   - 4.0 * P["alpha"] ** 2 * u * u) ** -1.5
            )),
            interval=lambda P: Interval.full_half_line(),
            osc=lambda P: OscillationSpec(0.0, P["z"]),
        ),),
    ))

    E.append(IntegralEntry(
        id="T09c",
        group=2,
        description=(
            "int_0^inf J_1(b z) 2 b^2 (p^2+b^2-gamma^2) / (l2^2 - l1^2)^3 db = "
            "z K_0(p z) J_0(gamma z), l's from (p, b, gamma)"
        ),
        rhs=lambda P: (
            P["z"] * float(_sp.kv(0.0, P["p"] * P["z"])) * _sp.jv(0.0, P["gamma"] * P["z"])
        ),
        constraints=_pos("p", "gamma", "z") + (
            Constraint("p >= gamma", lambda P: P["p"] >= P["gamma"]),
        ),
        default_grid=(
            ParamPoint.of(p=2.0, gamma=1.0, z=1.0),
            ParamPoint.of(p=1.0, gamma=1.0, z=2.0),
            ParamPoint.of(p=1.5, gamma=0.5, z=0.8),
        ),
        provenance="GR 6.525.1",
        tol_class="Oscillatory",
        pieces=(Piece(
            integrand=lambda P: (lambda u: (
                lambda l: 2.0 * u * u * (P["p"] ** 2 + u * u - P["gamma"] ** 2)
                / (l[1] * l[1] - l[0] * l[0]) ** 3
            )(l1_l2(P["p"], u, P["gamma"]))),
            interval=lambda P: Interval.full_half_line(),
            osc=lambda P: OscillationSpec(1.0, P["z"]),
        ),),
    ))

    E.append(IntegralEntry(
        id="T09d",
        group=2,
        description=(
            "int_0^inf J_0(c z) c (p^2+q^2-c^2) / (l2^2 - l1^2)^3 dc = "
            "z J_1(q z) K_0(p z) / (2 q), l's from (p, q, c)"
        ),
        rhs=lambda P: (
            P["z"] / (2.0 * P["q"]) * _sp.jv(1.0, P["q"] * P["z"])
            * float(_sp.kv(0.0, P["p"] * P["z"]))
        ),
        constraints=_pos("q", "z") + (
            Constraint("p > q", lambda P: P["p"] > P["q"]),
        ),
        default_grid=(
            ParamPoint.of(p=2.0, q=1.0, z=1.0),
            ParamPoint.of(p=1.5, q=0.5, z=2.0),
            ParamPoint.of(p=1.0, q=0.8, z=1.2),
        ),
        provenance="GR 6.525.1",
        tol_class="Oscillatory",
        pieces=(Piece(
            integrand=lambda P: (lambda u: (
                lambda l: u * (P["p"] ** 2 + P["q"] ** 2 - u * u)
                / (l[1] * l[1] - l[0] * l[0]) ** 3
            )(l1_l2(P["p"], P["q"], u))),
            interval=lambda P: Interval.full_half_line(),
            osc=lambda P: OscillationSpec(0.0, P["z"]),
        ),),
    ))

    E.append(IntegralEntry(
        id="T10",
        group=2,
        description=(
            "int_0^inf J_nu(b z) / sqrt(b^2 + 4 a^2) db = I_(nu/2)(a z) K_(nu/2)(a z)"
        ),
        rhs=lambda P: (
            _sp.iv(P["nu"] / 2.0, P["a"] * P["z"])
            * float(_sp.kv(P["nu"] / 2.0, P["a"] * P["z"]))
        ),
        constraints=_pos("a", "z") + (_ge("nu", -0.5),),
        default_grid=(
            ParamPoint.of(nu=0.5, a=1.0, z=1.0),
            ParamPoint.of(nu=0.0, a=0.5, z=2.0),
            ParamPoint.of(nu=2.0, a=1.0, z=1.5),
        ),
        provenance="GR 6.522.9",
        tol_class="Oscillatory",
        pieces=(Piece(
            integrand=lambda P: (lambda u: 1.0 / np.sqrt(u * u + 4.0 * P["a"] ** 2)),
            interval=lambda P: Interval.full_half_line(),
            osc=lambda P: OscillationSpec(P["nu"], P["z"]),
        ),),
    ))

    E.append(IntegralEntry(
        id="T11",
        group=2,
        description=(
            "int_(2a)^inf J_nu(b z) / sqrt(b^2 - 4 a^2) db = "
            "-(pi/2) J_(nu/2)(a z) Y_(nu/2)(a z)"
        ),
        rhs=lambda P: (
            -0.5 * math.pi * _sp.jv(P["nu"] / 2.0, P["a"] * P["z"])
            * _sp.yv(P["nu"] / 2.0, P["a"] * P["z"])
        ),
        constraints=_pos("a", "z") + (_ge("nu", -0.5),),
        default_grid=(
            ParamPoint.of(nu=1.0, a=1.0, z=1.0),
            ParamPoint.of(nu=0.5, a=0.5, z=2.0),
            ParamPoint.of(nu=2.0, a=1.0, z=1.5),
        ),
        provenance="GR 6.522.10",
        tol_class="Singular",
        pieces=(Piece(
            integrand=lambda P: (lambda u: 1.0 / np.sqrt(u * u - 4.0 * P["a"] ** 2)),
            interval=lambda P: Interval.tail(2.0 * P["a"], ALGEBRAIC_AT_LOWER),
            osc=lambda P: OscillationSpec(P["nu"], P["z"]),
        ),),
    ))

    E.append(IntegralEntry(
        id="T12",
        group=2,
        description=(
            "int_0^inf J_nu(b z) (b^2+4a^2)^(-1/2) [b + sqrt(b^2+4a^2)]^mu db = "
            "2^mu a^mu I_((nu-mu)/2)(a z) K_((nu+mu)/2)(a z)"
        ),
        rhs=lambda P: (
            2.0 ** P["mu"] * P["a"] ** P["mu"]
            * _sp.iv((P["nu"] - P["mu"]) / 2.0, P["a"] * P["z"])
            * float(_sp.kv((P["nu"] + P["mu"]) / 2.0, P["a"] * P["z"]))
        ),
        constraints=_pos("a", "z") + (
            _ge("nu", -0.5),
            Constraint("nu - mu > -2", lambda P: P["nu"] - P["mu"] > -2.0),
            _lt("mu", 1.5),
        ),
        default_grid=(
            ParamPoint.of(nu=1.0, mu=0.5, a=1.0, z=1.0),
            ParamPoint.of(nu=2.0, mu=1.0, a=1.0, z=1.5),
            ParamPoint.of(nu=1.5, mu=-0.5, a=0.5, z=2.0),
        ),
        provenance="GR 6.522.12",
        tol_class="Oscillatory",
        pieces=(Piece(
            integrand=lambda P: (lambda u: (
                lambda r: (u + r) ** P["mu"] / r
            )(np.sqrt(u * u + 4.0 * P["a"] ** 2))),
            interval=lambda P: Interval.full_half_line(),
            osc=lambda P: OscillationSpec(P["nu"], P["z"]),
        ),),
    ))

    E.append(IntegralEntry(
        id="T13",
        group=2,
        description=(
            "int_0^inf c J_0(c z) (b^2+c^2-a^2) "
            "[(a^2+b^2+c^2)^2 - 4 a^2 b^2]^(-3/2) dc = z I_0(a z) K_1(b z) / (2 b)"
        ),
        rhs=lambda P: (
            P["z"] / (2.0 * P["b"]) * _sp.iv(0.0, P["a"] * P["z"])
            * float(_sp.kv(1.0, P["b"] * P["z"]))
        ),
        constraints=_pos("z") + (
            Constraint("b > |a|", lambda P: P["b"] > abs(P["a"])),
        ),
        default_grid=(
            ParamPoint.of(a=1.0, b=2.0, z=1.0),
            ParamPoint.of(a=0.5, b=1.5, z=2.0),
            ParamPoint.of(a=1.0, b=3.0, z=0.8),
        ),
        provenance="GR 6.525.2",
        tol_class="Oscillatory",
        pieces=(Piece(
            integrand=lambda P: (lambda u: (
                u * (P["b"] ** 2 + u * u - P["a"] ** 2)
                * _quartic(P["a"], P["b"], u) ** -1.5
            )),
            interval=lambda P: Interval.full_half_line(),
            osc=lambda P: OscillationSpec(0.0, P["z"]),
        ),),
    ))

    # ---- group 3: Bessel and Struve factors ----

    def _sqrt_breaks(order, scale, kind="j"):
        """Breaks of J/Y_order(scale*sqrt(u)) as a function of u."""
        def mk(m):
            return (bessel_zeros(order, m, kind) / scale) ** 2
        return mk

    E.append(IntegralEntry(
        id="T14",
        group=3,
        description="int_0^inf J_nu(c z) J_(2nu)(2 sqrt(c)) dc = J_nu(1/z) / z",
        rhs=lambda P: _sp.jv(P["nu"], 1.0 / P["z"]) / P["z"],
        constraints=_pos("z") + (_gt("nu", 0.0),),
        default_grid=(
            ParamPoint.of(nu=1.0, z=1.0),
            ParamPoint.of(nu=0.5, z=1.2),
            ParamPoint.of(nu=2.0, z=0.8),
        ),
        provenance="GR 6.514.1",
        tol_class="Oscillatory",
        pieces=(Piece(
            integrand=lambda P: (lambda u: _sp.jv(2.0 * P["nu"], 2.0 * np.sqrt(u))),
            interval=lambda P: Interval.full_half_line(),
            osc=lambda P: OscillationSpec(
                P["nu"], P["z"], "j", _sqrt_breaks(2.0 * P["nu"], 2.0)
            ),
            head=lambda P: 45.0 / min(1.0, P["z"]) ** 2,
        ),),
    ))

    def _t15_modulator(P):
        nu = P["nu"]
        phase = cmath.exp(1j * (nu + 1.0) * math.pi / 2.0)
        root = cmath.exp(1j * math.pi / 4.0)

        def f(u):
            u = np.atleast_1d(np.asarray(u, dtype=float))
            return 2.0 * (phase * _sp.kv(2.0 * nu, 2.0 * root * np.sqrt(u))).real * u

        return f

    E.append(IntegralEntry(
        id="T15",
        group=3,
        description=(
            "int_0^inf c J_nu(c z) 2 Re[e^(i(nu+1)pi/2) K_(2nu)(2 e^(i pi/4) sqrt(c))] dc"
            " = K_nu(1/z) / z^3"
        ),
        rhs=lambda P: float(_sp.kv(P["nu"], 1.0 / P["z"])) / P["z"] ** 3,
        constraints=_pos("z") + (_ge("nu", -0.5), _lt("nu", 2.5)),
        default_grid=(
            ParamPoint.of(nu=0.5, z=1.0),
            ParamPoint.of(nu=0.0, z=1.5),
            ParamPoint.of(nu=1.0, z=0.8),
        ),
        provenance="GR 6.514.3",
        tol_class="Decaying",
        pieces=(Piece(
            integrand=_t15_modulator,
            interval=lambda P: Interval.full_half_line(),
            osc=lambda P: OscillationSpec(P["nu"], P["z"]),
        ),),
    ))

    E.append(IntegralEntry(
        id="T16",
        group=3,
        description=(
            "int_0^inf J_nu(c z) [K_(2nu)(2 sqrt(c)) - (pi/2) Y_(2nu)(2 sqrt(c))] dc"
            " = -(pi/(2z)) Y_nu(1/z)"
        ),
        rhs=lambda P: -0.5 * math.pi / P["z"] * _sp.yv(P["nu"], 1.0 / P["z"]),
        constraints=_pos("z") + (
            Constraint("|nu| < 1/2", lambda P: abs(P["nu"]) < 0.5),
        ),
        default_grid=(
            ParamPoint.of(nu=0.25, z=1.0),
            ParamPoint.of(nu=0.0, z=1.5),
            ParamPoint.of(nu=-0.25, z=0.9),
        ),
        provenance="GR 6.514.4",
        tol_class="Oscillatory",
        pieces=(Piece(
            integrand=lambda P: (lambda u: (
                _sp.kv(2.0 * P["nu"], 2.0 * np.sqrt(u))
                - 0.5 * math.pi * _sp.yv(2.0 * P["nu"], 2.0 * np.sqrt(u))
            )),
            interval=lambda P: Interval.full_half_line(),
            osc=lambda P: OscillationSpec(
                P["nu"], P["z"], "j", _sqrt_breaks(2.0 * P["nu"], 2.0, "y")
            ),
            head=lambda P: 45.0 / min(1.0, P["z"]) ** 2,
        ),),
    ))

    # T17a/T18/T19 are stated for integrals of f(c) J(c^2/4) type kernels;
    # they are evaluated after the substitution t = c^2/4 (resp. t = a^2),
    # which turns the fast quadratic phase into the unit-frequency kernel.

    E.append(IntegralEntry(
        id="T17a",
        group=3,
        description=(
            "int_0^inf c J_(2nu)(c z) J_nu(c^2/4) dc = 2 J_nu(z^2)   "
            "[evaluated as 2 int_0^inf J_(2nu)(2 z sqrt(t)) J_nu(t) dt]"
        ),
        rhs=lambda P: 2.0 * _sp.jv(P["nu"], P["z"] ** 2),
        constraints=_pos("z") + (_ge("nu", -0.25),),
        default_grid=(
            ParamPoint.of(nu=0.5, z=1.0),
            ParamPoint.of(nu=1.0, z=1.2),
            ParamPoint.of(nu=0.0, z=0.8),
        ),
        provenance="GR 6.516.1",
        tol_class="Oscillatory",
        pieces=(Piece(
            integrand=lambda P: (lambda t: 2.0 * _sp.jv(2.0 * P["nu"], 2.0 * P["z"] * np.sqrt(t))),
            interval=lambda P: Interval.full_half_line(),
            osc=lambda P: OscillationSpec(
                P["nu"], 1.0, "j", _sqrt_breaks(2.0 * P["nu"], 2.0 * P["z"])
            ),
            head=lambda P: 40.0 * max(1.0, P["z"] ** 2),
        ),),
    ))

    E.append(IntegralEntry(
        id="T17b",
        group=3,
        description=(
            "int_0^inf J_mu(c z) J_mu(1/(4c)) dc = J_(2mu)(sqrt(z)) / z   "
            "[the piece on (0, 1/2) is mapped to a tail by u -> 1/(4u)]"
        ),
        rhs=lambda P: _sp.jv(2.0 * P["mu"], math.sqrt(P["z"])) / P["z"],
        constraints=_pos("z") + (_gt("mu", 0.0), Constraint("z <= 4", lambda P: P["z"] <= 4.0)),
        default_grid=(
            ParamPoint.of(mu=1.0, z=1.0),
            ParamPoint.of(mu=0.5, z=1.5),
            ParamPoint.of(mu=2.0, z=0.9),
        ),
        provenance="GR 6.516.1",
        tol_class="Oscillatory",
        pieces=(
            Piece(
                integrand=lambda P: (lambda u: _sp.jv(P["mu"], 0.25 / u)),
                interval=lambda P: Interval.tail(0.5),
                osc=lambda P: OscillationSpec(P["mu"], P["z"]),
            ),
            Piece(
                integrand=lambda P: (lambda u: _sp.jv(P["mu"], 0.25 * P["z"] / u) / (4.0 * u * u)),
                interval=lambda P: Interval.tail(0.5),
                osc=lambda P: OscillationSpec(P["mu"], 1.0),
            ),
        ),
    ))

    E.append(IntegralEntry(
        id="T18",
        group=3,
        description=(
            "int_0^inf c J_mu(c z) J_(mu/2)(c^2/4) dc = 2 J_(mu/2)(z^2)   "
            "[evaluated as 2 int_0^inf J_mu(2 z sqrt(t)) J_(mu/2)(t) dt]"
        ),
        rhs=lambda P: 2.0 * _sp.jv(P["mu"] / 2.0, P["z"] ** 2),
        constraints=_pos("z") + (_ge("mu", -0.5),),
        default_grid=(
            ParamPoint.of(mu=-0.4, z=1.0),
            ParamPoint.of(mu=0.6, z=1.2),
            ParamPoint.of(mu=1.0, z=0.9),
        ),
        provenance="GR 6.526.1",
        tol_class="Oscillatory",
        pieces=(Piece(
            integrand=lambda P: (lambda t: 2.0 * _sp.jv(P["mu"], 2.0 * P["z"] * np.sqrt(t))),
            interval=lambda P: Interval.full_half_line(),
            osc=lambda P: OscillationSpec(
                P["mu"] / 2.0, 1.0, "j", _sqrt_breaks(P["mu"], 2.0 * P["z"])
            ),
            head=lambda P: 40.0 * max(1.0, P["z"] ** 2),
        ),),
    ))

    E.append(IntegralEntry(
        id="T19a",
        group=3,
        description=(
            "int_0^inf a^2 J_(2nu)(a z) J_(nu+1/2)(a^2) da = (z/4) J_(nu-1/2)(z^2/4)"
            "   [evaluated as (1/2) int sqrt(t) J_(2nu)(z sqrt(t)) J_(nu+1/2)(t) dt]"
        ),
        rhs=lambda P: 0.25 * P["z"] * _sp.jv(P["nu"] - 0.5, P["z"] ** 2 / 4.0),
        constraints=_pos("z") + (_ge("nu", -0.25),),
        default_grid=(
            ParamPoint.of(nu=0.5, z=1.0),
            ParamPoint.of(nu=0.25, z=1.2),
            ParamPoint.of(nu=1.0, z=0.8),
        ),
        provenance="GR 6.527.1",
        tol_class="Oscillatory",
        pieces=(Piece(
            integrand=lambda P: (
                lambda t: 0.5 * np.sqrt(t) * _sp.jv(2.0 * P["nu"], P["z"] * np.sqrt(t))
            ),
            interval=lambda P: Interval.full_half_line(),
            osc=lambda P: OscillationSpec(
                P["nu"] + 0.5, 1.0, "j", _sqrt_breaks(2.0 * P["nu"], P["z"])
            ),
            head=lambda P: 4.0 * P["z"] ** 2 + 40.0,
            max_lobes=400,
        ),),
    ))

    E.append(IntegralEntry(
        id="T19b",
        group=3,
        description=(
            "int_0^inf a^2 J_(2nu)(a z) J_(nu-1/2)(a^2) da = (z/4) J_(nu+1/2)(z^2/4)"
            "   [evaluated as (1/2) int sqrt(t) J_(2nu)(z sqrt(t)) J_(nu-1/2)(t) dt]"
        ),
        rhs=lambda P: 0.25 * P["z"] * _sp.jv(P["nu"] + 0.5, P["z"] ** 2 / 4.0),
        constraints=_pos("z") + (_ge("nu", 0.0),),
        default_grid=(
            ParamPoint.of(nu=0.5, z=1.0),
            ParamPoint.of(nu=1.0, z=1.2),
            ParamPoint.of(nu=0.25, z=0.8),
        ),
        provenance="GR 6.527.1",
        tol_class="Oscillatory",
        pieces=(Piece(
            integrand=lambda P: (
                lambda t: 0.5 * np.sqrt(t) * _sp.jv(2.0 * P["nu"], P["z"] * np.sqrt(t))
            ),
            interval=lambda P: Interval.full_half_line(),
            osc=lambda P: OscillationSpec(
                P["nu"] - 0.5, 1.0, "j", _sqrt_breaks(2.0 * P["nu"], P["z"])
            ),
            head=lambda P: 4.0 * P["z"] ** 2 + 40.0,
            max_lobes=400,
        ),),
    ))

    # T20 splits H_(nu/2)(c^2/4) = Y_(nu/2)(c^2/4) + [H - Y](c^2/4) past
    # c = 12 so that the Struve tail can use its asymptotic difference form;
    # the Y part is substituted (t = c^2/4) onto a unit-frequency Y kernel.
    E.append(IntegralEntry(
        id="T20",
        group=3,
        description=(
            "int_0^inf c J_nu(c z) H_(nu/2)(c^2/4) dc = -2 Y_(nu/2)(z^2), "
            "H the Struve function"
        ),
        rhs=lambda P: -2.0 * _sp.yv(P["nu"] / 2.0, P["z"] ** 2),
        constraints=_pos("z") + (_ge("nu", -0.5), _lt("nu", 1.5)),
        default_grid=(
            ParamPoint.of(nu=0.5, z=1.0),
            ParamPoint.of(nu=0.0, z=1.1),
            ParamPoint.of(nu=1.0, z=0.9),
        ),
        provenance="GR 6.526.4",
        tol_class="Oscillatory",
        pieces=(
            Piece(
                integrand=lambda P: (lambda u: (
                    u * _sp.jv(P["nu"], u * P["z"]) * _sp.struve(P["nu"] / 2.0, u * u / 4.0)
                )),
                interval=lambda P: Interval.finite_from_zero(12.0),
            ),
            Piece(
                integrand=lambda P: (lambda t: 2.0 * _sp.jv(P["nu"], 2.0 * P["z"] * np.sqrt(t))),
                interval=lambda P: Interval.tail(36.0),
                osc=lambda P: OscillationSpec(
                    P["nu"] / 2.0, 1.0, "y", _sqrt_breaks(P["nu"], 2.0 * P["z"])
                ),
                head=lambda P: 36.0 + 16.0 * P["z"] ** 2,
            ),
            Piece(
                integrand=lambda P: (lambda u: (
                    u * struve_minus_y(P["nu"] / 2.0, u * u / 4.0)
                )),
                interval=lambda P: Interval.tail(12.0),
                osc=lambda P: OscillationSpec(P["nu"], P["z"]),
                max_lobes=400,
            ),
        ),
    ))

    # ---- group 4: exponential, logarithmic, inverse trigonometric ----

    E.append(IntegralEntry(
        id="T21",
        group=4,
        description=(
            "int_0^inf J_nu(c z) e^(-2/c) / c dc = 2 J_nu(2 sqrt(z)) K_nu(2 sqrt(z))"
        ),
        rhs=lambda P: (
            2.0 * _sp.jv(P["nu"], 2.0 * math.sqrt(P["z"]))
            * float(_sp.kv(P["nu"], 2.0 * math.sqrt(P["z"])))
        ),
        constraints=_pos("z") + (_ge("nu", -0.5),),
        default_grid=(
            ParamPoint.of(nu=0.5, z=1.0),
            ParamPoint.of(nu=0.0, z=2.0),
            ParamPoint.of(nu=1.0, z=1.5),
        ),
        provenance="GR 6.526.4",
        tol_class="Oscillatory",
        pieces=(Piece(
            integrand=lambda P: (lambda u: np.exp(-2.0 / u) / u),
            interval=lambda P: Interval.full_half_line(),
            osc=lambda P: OscillationSpec(P["nu"], P["z"]),
        ),),
    ))

    E.append(IntegralEntry(
        id="T22",
        group=4,
        description=(
            "int_0^inf J_1(b z) ln|1 - b^2/a^2| db = -pi Y_0(a z) / z   "
            "[the inner piece (0, a) carries ln(1 - b^2/a^2); the "
            "logarithmic singularity on (a, 2a) is mirrored to an upper "
            "endpoint by b -> 2a - b]"
        ),
        rhs=lambda P: -math.pi * _sp.yv(0.0, P["a"] * P["z"]) / P["z"],
        constraints=_pos("a", "z"),
        default_grid=(
            ParamPoint.of(a=1.0, z=1.0),
            ParamPoint.of(a=2.0, z=1.5),
            ParamPoint.of(a=1.0, z=0.7),
        ),
        provenance="GR 6.512.6",
        tol_class="Singular",
        pieces=(
            Piece(
                integrand=lambda P: (lambda u: (
                    _sp.jv(1.0, u * P["z"]) * np.log1p(-((u / P["a"]) ** 2))
                )),
                interval=lambda P: Interval.finite_from_zero(P["a"], ALGEBRAIC_AT_UPPER),
            ),
            Piece(
                integrand=lambda P: (lambda v: (
                    _sp.jv(1.0, (2.0 * P["a"] - v) * P["z"])
                    * np.log(((2.0 * P["a"] - v) / P["a"]) ** 2 - 1.0)
                )),
                interval=lambda P: Interval.finite_from_zero(P["a"], ALGEBRAIC_AT_UPPER),
            ),
            Piece(
                integrand=lambda P: (lambda u: np.log((u / P["a"]) ** 2 - 1.0)),
                interval=lambda P: Interval.tail(2.0 * P["a"]),
                osc=lambda P: OscillationSpec(1.0, P["z"]),
            ),
        ),
    ))

    E.append(IntegralEntry(
        id="T23",
        group=4,
        description="int_0^inf J_1(c z) ln(1 + c^2) dc = 2 K_0(z) / z",
        rhs=lambda P: 2.0 * float(_sp.kv(0.0, P["z"])) / P["z"],
        constraints=_pos("z"),
        default_grid=(
            ParamPoint.of(z=1.0),
            ParamPoint.of(z=1.5),
            ParamPoint.of(z=2.0),
        ),
        provenance="GR 6.512.9",
        tol_class="Oscillatory",
        pieces=(Piece(
            integrand=lambda P: (lambda u: np.log1p(u * u)),
            interval=lambda P: Interval.full_half_line(),
            osc=lambda P: OscillationSpec(1.0, P["z"]),
        ),),
    ))

    E.append(IntegralEntry(
        id="T24",
        group=4,
        description=(
            "int_0^(2a) arcsin(b/(2a)) J_1(b z) db = "
            "(pi/(2z)) [J_0(a z)^2 - J_0(2 a z)]"
        ),
        rhs=lambda P: (
            0.5 * math.pi / P["z"]
            * (_sp.jv(0.0, P["a"] * P["z"]) ** 2 - _sp.jv(0.0, 2.0 * P["a"] * P["z"]))
        ),
        constraints=_pos("a", "z"),
        default_grid=(
            ParamPoint.of(a=1.0, z=1.0),
            ParamPoint.of(a=0.5, z=2.0),
            ParamPoint.of(a=1.0, z=1.3),
        ),
        provenance="GR 6.513.9",
        tol_class="Singular",
        pieces=(Piece(
            integrand=lambda P: (lambda u: (
                np.arcsin(np.clip(u / (2.0 * P["a"]), -1.0, 1.0)) * _sp.jv(1.0, u * P["z"])
            )),
            interval=lambda P: Interval.finite_from_zero(2.0 * P["a"], ALGEBRAIC_AT_UPPER),
        ),),
    ))

    # ---- group 5: hypergeometric and Legendre factors ----

    E.append(IntegralEntry(
        id="T25a",
        group=5,
        description=(
            "int_0^alpha J_(nu-n-1)(b t) 2F1(nu, -n; nu-n; b^2/alpha^2) b^(nu-n) db"
            " = n! alpha^(nu-n) Gamma(nu-n) J_(nu+n)(alpha t) / (t Gamma(nu))"
        ),
        rhs=lambda P: (
            math.factorial(int(P["n"])) * P["alpha"] ** (P["nu"] - P["n"])
            * _sp.gamma(P["nu"] - P["n"]) * _sp.jv(P["nu"] + P["n"], P["alpha"] * P["t"])
            / (P["t"] * _sp.gamma(P["nu"]))
        ),
        constraints=_pos("alpha", "t") + (
            _nat("n"),
            _gt("nu", 0.5),
            Constraint("nu - n > 0", lambda P: P["nu"] - P["n"] > 0.0),
        ),
        default_grid=(
            ParamPoint.of(nu=3.5, n=0, alpha=1.0, t=1.0),
            ParamPoint.of(nu=3.5, n=1, alpha=1.0, t=1.5),
            ParamPoint.of(nu=3.5, n=2, alpha=1.0, t=2.0),
        ),
        provenance="GR 6.512.2",
        tol_class="Decaying",
        pieces=(Piece(
            integrand=lambda P: (lambda u: (
                _sp.jv(P["nu"] - P["n"] - 1.0, u * P["t"])
                * _hyp2f1_terminating_array(
                    P["nu"], int(P["n"]), P["nu"] - P["n"], (u / P["alpha"]) ** 2
                )
                * u ** (P["nu"] - P["n"])
            )),
            interval=lambda P: Interval.finite_from_zero(P["alpha"]),
        ),),
    ))

    E.append(IntegralEntry(
        id="T25b",
        group=5,
        description=(
            "int_beta^inf J_(mu+n)(a t) 2F1(mu, -n; mu-n; beta^2/a^2) a^(n-mu+1) da"
            " = n! beta^(n-mu+1) Gamma(mu-n) J_(mu-n-1)(beta t) / (t Gamma(mu))"
        ),
        rhs=lambda P: (
            math.factorial(int(P["n"])) * P["beta"] ** (P["n"] - P["mu"] + 1.0)
            * _sp.gamma(P["mu"] - P["n"]) * _sp.jv(P["mu"] - P["n"] - 1.0, P["beta"] * P["t"])
            / (P["t"] * _sp.gamma(P["mu"]))
        ),
        constraints=_pos("beta", "t") + (
            _nat("n"),
            Constraint("mu - n > 1/2", lambda P: P["mu"] - P["n"] > 0.5),
        ),
        default_grid=(
            ParamPoint.of(mu=3.5, n=0, beta=1.0, t=1.0),
            ParamPoint.of(mu=3.5, n=1, beta=1.0, t=1.5),
            ParamPoint.of(mu=4.5, n=2, beta=1.0, t=1.2),
        ),
        provenance="GR 6.512.2",
        tol_class="Oscillatory",
        pieces=(Piece(
            integrand=lambda P: (lambda u: (
                _hyp2f1_terminating_array(
                    P["mu"], int(P["n"]), P["mu"] - P["n"], (P["beta"] / u) ** 2
                )
                * u ** (P["n"] - P["mu"] + 1.0)
            )),
            interval=lambda P: Interval.tail(P["beta"]),
            osc=lambda P: OscillationSpec(P["mu"] + P["n"], P["t"]),
        ),),
    ))

    def _legendre_w(u):
        return np.sqrt(1.0 + 4.0 / (u * u))

    E.append(IntegralEntry(
        id="T26",
        group=5,
        description=(
            "int_0^inf P_s(w) Q_s(w) J_nu(c z) dc = I_0(z) K_0(z) / z, "
            "w = sqrt(1 + 4/c^2), s = nu/2 - 1/2 (order-0 Legendre functions)"
        ),
        rhs=lambda P: _sp.iv(0.0, P["z"]) * float(_sp.kv(0.0, P["z"])) / P["z"],
        constraints=_pos("z") + (_ge("nu", -0.5),),
        default_grid=(
            ParamPoint.of(nu=1.0, z=1.0),
            ParamPoint.of(nu=2.0, z=1.5),
            ParamPoint.of(nu=3.0, z=0.8),
        ),
        provenance="GR 6.513.3",
        tol_class="Oscillatory",
        pieces=(Piece(
            integrand=lambda P: (lambda u: (
                lambda w: _legendre_p0_array(P["nu"] / 2.0 - 0.5, w)
                * _legendre_q0_array(P["nu"] / 2.0 - 0.5, w)
            )(_legendre_w(u))),
            interval=lambda P: Interval.full_half_line(),
            osc=lambda P: OscillationSpec(P["nu"], P["z"]),
        ),),
    ))

    E.append(IntegralEntry(
        id="T27",
        group=5,
        description=(
            "int_0^inf [Q_s(w)]^2 J_nu(c z) dc = [K_0(z)]^2 / z, "
            "w = sqrt(1 + 4/c^2), s = nu/2 - 1/2 (order-0 Legendre function)"
        ),
        rhs=lambda P: float(_sp.kv(0.0, P["z"])) ** 2 / P["z"],
        constraints=_pos("z") + (_ge("nu", -0.5),),
        default_grid=(
            ParamPoint.of(nu=1.0, z=1.0),
            ParamPoint.of(nu=2.0, z=1.2),
            ParamPoint.of(nu=3.0, z=0.9),
        ),
        provenance="GR 6.513.5",
        tol_class="Oscillatory",
        pieces=(Piece(
            integrand=lambda P: (lambda u: (
                _legendre_q0_array(P["nu"] / 2.0 - 0.5, _legendre_w(u)) ** 2
            )),
            interval=lambda P: Interval.full_half_line(),
            osc=lambda P: OscillationSpec(P["nu"], P["z"]),
        ),),
    ))

    # ---- group 6: Jacobi and Chebyshev polynomial factors ----

    E.append(IntegralEntry(
        id="T28a",
        group=6,
        description=(
            "int_beta^inf P_n^(nu,0)(1 - 2 beta^2/a^2) J_(nu+2n+1)(a z) a^(-nu) da"
            " = beta^(-nu) J_nu(beta z) / z"
        ),
        rhs=lambda P: P["beta"] ** (-P["nu"]) * _sp.jv(P["nu"], P["beta"] * P["z"]) / P["z"],
        constraints=_pos("beta", "z") + (
            _nat("n"),
            _gt("nu", 0.5),
        ),
        default_grid=(
            ParamPoint.of(nu=1.0, n=1, beta=1.0, z=1.0),
            ParamPoint.of(nu=1.5, n=2, beta=1.0, z=1.5),
            ParamPoint.of(nu=2.0, n=0, beta=1.0, z=1.2),
        ),
        provenance="GR 6.512.4",
        tol_class="Oscillatory",
        pieces=(Piece(
            integrand=lambda P: (lambda u: (
                _sp.eval_jacobi(int(P["n"]), P["nu"], 0.0, 1.0 - 2.0 * (P["beta"] / u) ** 2)
                * u ** (-P["nu"])
            )),
            interval=lambda P: Interval.tail(P["beta"]),
            osc=lambda P: OscillationSpec(P["nu"] + 2.0 * P["n"] + 1.0, P["z"]),
        ),),
    ))

    E.append(IntegralEntry(
        id="T28b",
        group=6,
        description=(
            "int_0^alpha P_n^(nu,0)(1 - 2 b^2/alpha^2) J_nu(b z) b^(nu+1) db"
            " = alpha^(nu+1) J_(nu+2n+1)(alpha z) / z"
        ),
        rhs=lambda P: (
            P["alpha"] ** (P["nu"] + 1.0)
            * _sp.jv(P["nu"] + 2.0 * P["n"] + 1.0, P["alpha"] * P["z"]) / P["z"]
        ),
        constraints=_pos("alpha", "z") + (
            _nat("n"),
            Constraint("nu > -n - 1", lambda P: P["nu"] > -P["n"] - 1.0),
        ),
        default_grid=(
            ParamPoint.of(nu=1.0, n=1, alpha=1.0, z=1.0),
            ParamPoint.of(nu=0.5, n=2, alpha=2.0, z=1.5),
            ParamPoint.of(nu=2.0, n=0, alpha=1.0, z=2.0),
        ),
        provenance="GR 6.512.4",
        tol_class="Decaying",
        pieces=(Piece(
            integrand=lambda P: (lambda u: (
                _sp.eval_jacobi(int(P["n"]), P["nu"], 0.0, 1.0 - 2.0 * (u / P["alpha"]) ** 2)
                * _sp.jv(P["nu"], u * P["z"]) * u ** (P["nu"] + 1.0)
            )),
            interval=lambda P: Interval.finite_from_zero(P["alpha"]),
        ),),
    ))

    E.append(IntegralEntry(
        id="T29",
        group=6,
        description=(
            "int_0^(2a) J_nu(b z) (4a^2 - b^2)^(-1/2) T_n(b/(2a)) db"
            " = (pi/2) J_((nu+n)/2)(a z) J_((nu-n)/2)(a z)"
        ),
        rhs=lambda P: (
            0.5 * math.pi
            * _sp.jv((P["nu"] + P["n"]) / 2.0, P["a"] * P["z"])
            * _sp.jv((P["nu"] - P["n"]) / 2.0, P["a"] * P["z"])
        ),
        constraints=_pos("a", "z") + (
            _nat("n"),
            _ge("nu", -0.5),
        ),
        default_grid=(
            ParamPoint.of(nu=1.0, n=2, a=1.0, z=1.0),
            ParamPoint.of(nu=0.5, n=1, a=1.0, z=1.5),
            ParamPoint.of(nu=2.0, n=3, a=0.5, z=2.0),
        ),
        provenance="GR 6.522.11",
        tol_class="Singular",
        pieces=(Piece(
            integrand=lambda P: (lambda u: (
                _sp.jv(P["nu"], u * P["z"])
                / np.sqrt(np.maximum(4.0 * P["a"] ** 2 - u * u, 1e-300))
                * _sp.eval_chebyt(int(P["n"]), np.clip(u / (2.0 * P["a"]), -1.0, 1.0))
            )),
            interval=lambda P: Interval.finite_from_zero(2.0 * P["a"], ALGEBRAIC_AT_UPPER),
        ),),
    ))

    return E


# ----------------------------------------------------------------------
# the sixteen inadmissible seeds


def _build_failures() -> list:
    S = []

    def add(id, prov, desc, endpoint, fn, p_zero, p_inf, osc=False):
        S.append(FailureSeed(
            id=id,
            provenance=prov,
            description=desc,
            expected_endpoint=endpoint,
            seed=SeedFunction(
                fn,
                decay_at_zero=p_zero,
                decay_at_inf=p_inf,
                oscillatory_envelope=osc,
                name=id,
            ),
        ))

    add(
        "S6512_1a", "GR 6.512.1",
        "F(x) = J_1(x) / x  (Weber-Schafheitlin seed, nu = 1, mu = 2, b = 1)",
        "Infinity",
        lambda x: _sp.jv(1.0, x) / x,
        0.0, -1.5, osc=True,
    )
    add(
        "S6512_1b", "GR 6.512.1",
        "F(x) = J_2(x) / x  (Weber-Schafheitlin seed, nu = 1, mu = 2, a = 1)",
        "Infinity",
        lambda x: _sp.jv(2.0, x) / x,
        1.0, -1.5, osc=True,
    )
    add(
        "S6514_1", "GR 6.514.1",
        "F(x) = J_1(1/x) / x^3  (b = 1, nu = 1)",
        "Zero",
        lambda x: _sp.jv(1.0, 1.0 / x) / x ** 3,
        -2.5, -4.0, osc=True,
    )
    add(
        "S6514_2", "GR 6.514.2",
        "F(x) = Y_1(1/x) / x^3  (b = 1, nu = 1)",
        "Zero",
        lambda x: _sp.yv(1.0, 1.0 / x) / x ** 3,
        -2.5, -2.0, osc=True,
    )
    add(
        "S6516_2", "GR 6.516.2",
        "F(x) = -2 Y_1(x^2)  (b = 1, nu = 1)",
        "Both",
        lambda x: -2.0 * _sp.yv(1.0, x * x),
        -2.0, -1.0, osc=True,
    )
    add(
        "S6516_3", "GR 6.516.3",
        "F(x) = (4/pi) K_1(x^2)  (b = 1, nu = 1)",
        "Zero",
        lambda x: (4.0 / math.pi) * _sp.kv(1.0, x * x),
        -2.0, -math.inf,
    )
    add(
        "S6516_4", "GR 6.516.4",
        "F(x) = Y_(1/2)(sqrt(x)) / x  (a = 1, nu = 1/4)",
        "Infinity",
        lambda x: _sp.yv(0.5, np.sqrt(x)) / x,
        -1.25, -1.25, osc=True,
    )
    add(
        "S6516_7", "GR 6.516.7",
        "F(x) = (4/pi) cos(nu pi) K_(2nu)(sqrt(x)) / x  (a = 1, nu = 1)",
        "Zero",
        lambda x: (4.0 / math.pi) * math.cos(math.pi) * _sp.kv(2.0, np.sqrt(x)) / x,
        -2.0, -math.inf,
    )
    add(
        "S6522_2", "GR 6.522.2",
        "F(x) = (1/2) Gamma(-1/2)/Gamma(5/2) [K_1(x)]^2  (a = 1, mu = 1, nu = 1)",
        "Zero",
        lambda x: 0.5 * (_sp.gamma(-0.5) / _sp.gamma(2.5)) * _sp.kv(1.0, x) ** 2,
        -2.0, -math.inf,
    )
    add(
        "S6522_6", "GR 6.522.6",
        "F(x) = -(pi/2) J_0(x) Y_0(x)  (a = 1)",
        "Infinity",
        lambda x: -0.5 * math.pi * _sp.jv(0.0, x) * _sp.yv(0.0, x),
        0.0, -1.0, osc=True,
    )
    add(
        "S6522_8", "GR 6.522.8",
        "F(x) = (1/2) Gamma(-1/2)/Gamma(5/2) K_(1/2)(x) K_(3/2)(x)  "
        "(a = 1, mu = 1, nu = 1)",
        "Zero",
        lambda x: (
            0.5 * (_sp.gamma(-0.5) / _sp.gamma(2.5))
            * _sp.kv(0.5, x) * _sp.kv(1.5, x)
        ),
        -2.0, -math.inf,
    )
    add(
        "S6522_16", "GR 6.522.16",
        "F(x) = sqrt(pi) x^(1/2) (8)^(-1/2) / Gamma(1) I_(1/2)(x) K_(1/2)(x)  "
        "(b = c = 1, nu = 1/2)",
        "Infinity",
        lambda x: (
            math.sqrt(math.pi) * np.sqrt(x) / math.sqrt(8.0)
            * _sp.ive(0.5, x) * _sp.kve(0.5, x)
        ),
        0.5, -0.5,
    )
    add(
        "S6526_2", "GR 6.526.2",
        "F(x) = 2 Y_(1/2)(sqrt(x)) / x  (b = 1, nu = 1/2)",
        "Infinity",
        lambda x: 2.0 * _sp.yv(0.5, np.sqrt(x)) / x,
        -1.25, -1.25, osc=True,
    )
    add(
        "S6526_3", "GR 6.526.3",
        "F(x) = cos(nu pi/2) K_2(sqrt(x)) / (2 pi x)  (b = 1, nu = 2)",
        "Zero",
        lambda x: math.cos(math.pi) * _sp.kv(2.0, np.sqrt(x)) / (2.0 * math.pi * x),
        -2.0, -math.inf,
    )
    add(
        "S6526_6", "GR 6.526.6",
        "F(x) = (4/pi) K_1(x^2)  (a = 1, nu = 2)",
        "Zero",
        lambda x: (4.0 / math.pi) * _sp.kv(1.0, x * x),
        -2.0, -math.inf,
    )
    add(
        "S6527_3", "GR 6.527.3",
        "F(x) = -(x/4) Y_1(x^2/4)  (nu = 1/2)",
        "Infinity",
        lambda x: -0.25 * x * _sp.yv(1.0, x * x / 4.0),
        -1.0, 0.0, osc=True,
    )
    return S


_ENTRIES = {e.id: e for e in _build_entries()}
_FAILURES = {s.id: s for s in _build_failures()}

assert len(_ENTRIES) == 40, "catalog must contain exactly 40 entries"
assert len(_FAILURES) == 16, "catalog must contain exactly 16 failure seeds"


def all_entries() -> list:
    """All forty entries in document order."""
    return list(_ENTRIES.values())


def entry_by_id(entry_id: str) -> IntegralEntry:
    try:
        return _ENTRIES[entry_id]
    except KeyError:
        raise UnknownIdError(f"unknown entry id {entry_id!r}") from None


def all_failures() -> list:
    """All sixteen documented inadmissible seeds."""
    return list(_FAILURES.values())


def failure_by_id(seed_id: str) -> FailureSeed:
    try:
        return _FAILURES[seed_id]
    except KeyError:
        raise UnknownIdError(f"unknown failure seed id {seed_id!r}") from None


def catalog_metadata() -> dict:
    """JSON-ready description of the catalog contents."""
    return {
        "schema_version": 1,
        "entries": [e.to_metadata() for e in all_entries()],
        "failures": [s.to_metadata() for s in all_failures()],
    }
