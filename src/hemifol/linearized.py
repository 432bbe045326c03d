"""Linearized CMC and Willmore boundary-value problems on the hemisphere:
closed-form first-order graph functions, residual verification, an
independent mode-by-mode collocation solver, and the Lagrange multipliers.

With principal curvatures kappa_1, kappa_2 of the boundary at the
attachment point (H = kappa_1 + kappa_2), the first-order deviation u' of
the critical half-sphere solves

  CMC:      (Lap + 2) u' = 5 (k1 w1^2 + k2 w2^2) w3 - H w3 + (3/8) H
  Willmore: Lap (Lap + 2) u' = Lap(5 (k1 w1^2 + k2 w2^2) w3 - H w3) - H

with Neumann data du'/deta = -(k1 w1^2 + k2 w2^2) on the equator, the
third-order condition d(Lap + 2)u'/deta = 7 (k1 w1^2 + k2 w2^2) - H in the
Willmore case, and the mass/center constraints.

The curvatures are bindings, not constants: every field keeps the symbols
k1, k2 and each evaluation binds the problem's numbers, so all calls of a
case evaluate one DAG, differentiated once, and add no node.  That DAG is
held by one field table (:func:`_fields`), the intern table alone keeping no
node alive, and one walk of each domain's quadrature rule over the fields read
there gives its integrals and its residuals, which are sups over its nodes.

The independent check solves each azimuthal mode numerically.  In
t = cos(theta) every mode operator g'' + c cot(theta) g' + k g becomes
(1 - t^2) g_tt - (1 + c) t g_t + k g, whose coefficients are polynomials,
so a Chebyshev series of degree 32 in t on [0, 1] solves a mode with one
small linear solve (collocation at the Chebyshev points, the equator
conditions in place of the last rows).  A series is regular at the pole,
which needs no special treatment, and each Willmore mode is one
fourth-order solve.  The modes do not depend on the curvatures, which
only scale them; a solve costs well under a millisecond, so nothing is
kept between calls.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

import numpy as np
from numpy.polynomial import chebyshev as C

from . import expr as ex
from . import quadrature as hq
from . import sphere

__all__ = [
    "LinearizedProblem", "LinearizedSolution", "ResidualReport",
    "ConstraintSingular",
    "closed_form_uprime", "uprime_expr", "pde_rhs_expr",
    "residual_check", "solve_ode_modes", "multipliers", "SURFACE_GRID", "EQUATOR_NODES",
]

class ConstraintSingular(Exception):
    pass


@dataclass(frozen=True)
class LinearizedProblem:
    case: str          # 'cmc' or 'willmore'
    kappa1: float
    kappa2: float

    def __post_init__(self):
        if self.case.lower() not in ("cmc", "willmore"):
            raise ValueError(f"unknown case {self.case!r}")
        object.__setattr__(self, "case", self.case.lower())
        if not (math.isfinite(self.kappa1) and math.isfinite(self.kappa2)):
            raise ValueError("curvatures must be finite")
        # each value of a field's walk on the rules is linear in the curvatures and
        # below 1e6 times the larger (7.8e5, Willmore), so past 1e300 a walk overflows
        if max(abs(self.kappa1), abs(self.kappa2)) > 1e300:
            raise ValueError("curvatures too large: the linearized fields overflow")

    @property
    def H(self):
        return self.kappa1 + self.kappa2

    @property
    def K(self):
        return self.kappa1 * self.kappa2


@dataclass
class LinearizedSolution:
    u_prime: ex.Expr                       # closed form over omega, k1 and k2 free
    samples: np.ndarray                    # rows (t, phi, u' numeric from ODE modes)
    alpha_prime: float
    beta_prime: np.ndarray
    mode_sup_errors: dict = field(default_factory=dict)


def _k(x):
    return ex.const(Fraction(repr(float(x))))


_W1, _W2, _W3 = ex.var("w1"), ex.var("w2"), ex.var("w3")
_K1, _K2 = ex.var("k1"), ex.var("k2")
_KAPPA_FORM = _K1 * _W1 ** 2 + _K2 * _W2 ** 2
_H = _K1 + _K2


def uprime_expr(case: str) -> ex.Expr:
    """Closed-form u'(0) over omega with symbolic curvatures k1, k2.

    The CMC azimuthal-mode-2 rational factor is kept in the pole-regular
    factored form (2 + w3)/(3 (1 + w3)^2), algebraically equal to
    (2 - 3 w3 + w3^3)/(3 (1 - w3^2)^2) because 2 - 3t + t^3 = (1-t)^2 (t+2).
    """
    f_part = _KAPPA_FORM * _W3 / 2
    if case.lower() == "cmc":
        v1 = _H / 4 * (ex.const(3) / 4 - _W3)
        v2 = (_K1 - _K2) / 4 * (_W1 ** 2 - _W2 ** 2) * (2 + _W3) / (3 * (1 + _W3) ** 2)
        return v1 + v2 - f_part
    if case.lower() == "willmore":
        v1 = _H * (1 - ex.ln(ex.const(2)) + ex.ln(1 + _W3) / 2
                   - ex.const(3) / 4 * _W3)
        v2 = (_K1 - _K2) / 4 * (_W1 ** 2 - _W2 ** 2) / (1 + _W3)
        return v1 + v2 - f_part
    raise ValueError(f"unknown case {case!r}")


def closed_form_uprime(p: LinearizedProblem) -> ex.Expr:
    """The verified explicit solution with numeric curvatures."""
    return ex.substitute(uprime_expr(p.case),
                         {"k1": _k(p.kappa1), "k2": _k(p.kappa2)})


def pde_rhs_expr(case: str) -> ex.Expr:
    """Right-hand side of the linearized PDE over omega (symbolic k1, k2):
    the common field 5 (k1 w1^2 + k2 w2^2) w3 - H w3; the multiplier terms
    are added separately per case."""
    return (5 * _KAPPA_FORM - _H) * _W3


@dataclass
class ResidualReport:
    case: str
    interior: float
    neumann: float
    third_order: float            # NaN for CMC
    mass_constraint: float
    center_constraint: float

    def max_residual(self) -> float:
        vals = [self.interior, self.neumann, self.mass_constraint,
                self.center_constraint]
        if not math.isnan(self.third_order):
            vals.append(self.third_order)
        return max(vals)


# the smallest rules whose doubling moves no integral past about 1e-15 max(1, |k1| + |k2|)
# (8 nodes in t miss Willmore's ln(1 + t) by 2e-13); the equator keeps 16 azimuths, the
# fewest a surface rule takes, as the points of its sups
SURFACE_GRID = hq.QuadratureGrid(16, 16)
EQUATOR_NODES = 16


def residual_check(p: LinearizedProblem, u: ex.Expr) -> ResidualReport:
    """Sup-norm residuals of the interior PDE, the Neumann data, the
    Willmore third-order condition, and the integral constraints, for any
    candidate u over omega or in (t, phi), with k1 and k2 bound.  At the last
    surface node, t = 0.9947 near the pole, the closed forms' interior residual
    is rounding: at most 1.1e-12 (Willmore), 2e-15 (CMC) for |k1|, |k2| <= 2."""
    fields, kb = _fields(p.case, u), {"k1": float(p.kappa1), "k2": float(p.kappa2)}
    surface = hq.surface_rule(SURFACE_GRID)
    interior, *moments = ex.evaluate(
        [fields[k] for k in ("interior", "u", "w1_u", "w2_u")], {**surface.bindings, **kb})
    mass, w1_u, w2_u = map(surface.sum, moments)
    interior, *third, neumann = (float(np.max(np.abs(v))) for v in (interior, *ex.evaluate(
        [fields[k] for k in ("third_order", "neumann") if k in fields],
        {**hq.equator_rule(EQUATOR_NODES).bindings, **kb})))
    mass_target = math.pi / 8.0 * p.H if p.case == "willmore" else 0.0
    return ResidualReport(p.case, interior, neumann, third[0] if third else float("nan"),
                          abs(mass - mass_target), max(abs(w1_u), abs(w2_u)))


@functools.lru_cache(maxsize=4)
def _fields(case: str, u: ex.Expr) -> Mapping[str, ex.Expr]:
    """Every field evaluated for ``case`` and the candidate ``u``, in
    (t, phi) with k1 and k2 free: the residuals of :func:`residual_check`
    and, at ``u = uprime_expr(case)``, the integrands of
    :func:`multipliers`, their shared parts one set of nodes.  Building
    them takes the Laplacian of u twice (Willmore), so they are kept for
    the last few candidates, the closed form of each case among them."""
    ut = sphere.to_tphi(u) if ex.free_variables(u) & {"w1", "w2", "w3"} else u
    rhs = sphere.to_tphi(pde_rhs_expr(case))
    lap2_u = sphere.laplacian(ut) + 2 * ut
    kappa_form = sphere.to_tphi(_KAPPA_FORM)
    if case == "cmc":
        du_eta = sphere.eta_derivative(ut)
        fields = {"interior": lap2_u - rhs - ex.const(3) / 8 * _H, "rhs": rhs}
    else:
        # lap2_u_eta is the third-order residual less its data; lap2_u holds
        # ut.  The Laplacians take the same t-derivatives, from one diff
        du_eta, lap2_u_eta, rhs_eta = sphere.eta_derivative((ut, lap2_u, rhs))
        lap_lap2_u, lap_rhs = sphere._laplacian((lap2_u, rhs), (lap2_u_eta, rhs_eta))
        fields = {"interior": lap_lap2_u - lap_rhs + _H, "lap2_u_eta": lap2_u_eta,
                  "rhs_eta": rhs_eta, "third_order": lap2_u_eta - 7 * kappa_form + _H}
    fields.update(neumann=du_eta + kappa_form, u=ut, du_eta=du_eta)
    for i in (1, 2):
        fields.update({f"w{i}_{k}": sphere.OMEGA[i - 1] * fields[k]
                       for k in ("u", "du_eta", "rhs" if case == "cmc" else "lap2_u_eta")})
    return MappingProxyType(fields)


# ---------------------------------------------------------------------------
# independent mode solver: Chebyshev collocation in t = cos(theta)
# ---------------------------------------------------------------------------

# A mode is a Chebyshev series of degree _DEGREE in x = 2 t - 1.  On its
# coefficients, _D is d/dt and _T multiplication by t = (1 + x)/2, from
# x T_0 = T_1 and x T_j = (T_(j-1) + T_(j+1))/2, truncated at that degree,
# which loses nothing where _T multiplies a derivative.
_DEGREE = 32
_D = np.vstack([C.chebder(np.eye(_DEGREE + 1), scl=2.0), np.zeros(_DEGREE + 1)])
_T = 0.5 * np.eye(_DEGREE + 1) + 0.25 * (np.eye(_DEGREE + 1, k=1) + np.eye(_DEGREE + 1, k=-1))
_T[1, 0] = 0.5
# values at the Chebyshev points, from the pole (t = 1) to the equator (t = 0)
_COLLOCATION = C.chebvander(np.cos(np.pi * np.arange(_DEGREE + 1) / _DEGREE), _DEGREE)
# rows of the equator conditions: g_theta(pi/2) = -g_t(0), and the mass
# integral of g over the hemisphere's t in [0, 1]
_NEUMANN = -C.chebval(-1.0, _D)
_MASS = C.chebval(1.0, C.chebint(np.eye(_DEGREE + 1), lbnd=-1.0, scl=0.5))


def _mode_op(c, k):
    """g'' + c cot(theta) g' + k g in t = cos(theta), where it is
    (1 - t^2) g_tt - (1 + c) t g_t + k g, on coefficients: c is 1 for
    azimuthal mode 0 and 5 for mode 2."""
    eye = np.eye(_DEGREE + 1)
    return (eye - _T @ _T) @ _D @ _D - (1.0 + c) * _T @ _D + k * eye


def _collocate(op, rhs, conditions):
    """The mode g with op g = rhs (a constant) at the Chebyshev points, the
    equator conditions (row, value) in place of the last rows; a series is
    regular at the pole, so no condition is needed there.  The result takes
    a scalar or an array of t."""
    a = _COLLOCATION @ op
    b = np.full(_DEGREE + 1, float(rhs))
    for i, (row, value) in enumerate(conditions, _DEGREE + 1 - len(conditions)):
        a[i], b[i] = row, value
    return C.Chebyshev(np.linalg.solve(a, b), domain=[0.0, 1.0])


def solve_cmc_modes():
    """CMC mode functions g1(t), g2(t) of u' = (k1+k2)/4 v1 +
    (k1-k2)/4 v2 - f/2 with v1 = g1, v2 = (w1^2 - w2^2) g2:
    (Lap + 2) g1 = 3/2 and the mode-2 (Lap + 2) g2 = 0, each with
    g_theta(pi/2) = 1."""
    g1 = _collocate(_mode_op(1.0, 2.0), 1.5, [(_NEUMANN, 1.0)])
    g2 = _collocate(_mode_op(5.0, -4.0), 0.0, [(_NEUMANN, 1.0)])
    return g1, g2


def solve_willmore_modes():
    """Willmore mode functions v1(t) and h(t) of
    u' = (k1+k2) v1 + (k1-k2)/4 (w1^2 - w2^2) h - f/2, each one
    fourth-order solve: Lap (Lap + 2) v1 = -1 with v1_theta(pi/2) = 1/4
    and mass integral pi/4 (1/8 in t), and the mode-2 Lap (Lap + 2) h = 0
    with h_theta(pi/2) = 1 and w_theta(pi/2) = -4 on w = (Lap + 2) h."""
    helmholtz0 = _mode_op(1.0, 2.0)
    v1 = _collocate(_mode_op(1.0, 0.0) @ helmholtz0, -1.0,
                    [(_NEUMANN, 0.25), (_MASS, 0.125)])
    helmholtz2 = _mode_op(5.0, -4.0)
    h = _collocate(_mode_op(5.0, -6.0) @ helmholtz2, 0.0,
                   [(_NEUMANN, 1.0), (_NEUMANN @ helmholtz2, -4.0)])
    return v1, h


def _mode_sup_error(numeric, closed):
    t = np.linspace(0.0, 1.0, 400)
    return float(np.max(np.abs(numeric(t) - closed(t))))


def solve_ode_modes(p: LinearizedProblem) -> LinearizedSolution:
    """Solve the azimuthal mode-0 and mode-2 problems by Chebyshev
    collocation in t (:func:`solve_cmc_modes`, :func:`solve_willmore_modes`),
    measure each mode's sup error against its closed form on t in [0, 1],
    assemble u'(0) = modes - f/2 on a 40 x 32 sample grid of (t, phi) from
    the equator to theta = 1e-3, and attach the closed form
    (:func:`uprime_expr`, with the curvatures left to bind) and the
    multipliers.  Every call solves its modes afresh."""
    if p.case == "cmc":
        m0, m2 = solve_cmc_modes()
        coef0 = (p.kappa1 + p.kappa2) / 4.0
        errs = {
            "mode0": _mode_sup_error(m0, lambda t: 0.75 - t),
            "mode2": _mode_sup_error(m2, lambda t: (2.0 + t) / (3.0 * (1.0 + t) ** 2)),
        }
    else:
        m0, m2 = solve_willmore_modes()
        coef0 = p.kappa1 + p.kappa2
        errs = {
            "mode0": _mode_sup_error(
                m0, lambda t: 1.0 - math.log(2.0) + 0.5 * np.log(1.0 + t) - 0.75 * t),
            "mode2": _mode_sup_error(m2, lambda t: 1.0 / (1.0 + t)),
        }
    coef2 = (p.kappa1 - p.kappa2) / 4.0

    # the grid's factors: the modes are read once per t
    t = np.linspace(0.0, math.cos(1e-3), 40)[:, None]
    phi = np.linspace(0.0, 2 * np.pi, 32, endpoint=False)[None, :]
    w1, w2_, w3 = sphere.omega_values(t, phi)
    f_half = 0.5 * (p.kappa1 * w1 ** 2 + p.kappa2 * w2_ ** 2) * w3
    u_vals = coef0 * m0(t) + coef2 * (w1 ** 2 - w2_ ** 2) * m2(t) - f_half
    alpha, beta = multipliers(p)
    return LinearizedSolution(
        u_prime=uprime_expr(p.case),
        samples=np.column_stack([np.broadcast_to(a, u_vals.shape).ravel()
                                 for a in (t, phi, u_vals)]),
        alpha_prime=alpha,
        beta_prime=beta,
        mode_sup_errors=errs,
    )


# ---------------------------------------------------------------------------
# Lagrange multipliers
# ---------------------------------------------------------------------------

def multipliers(p: LinearizedProblem) -> tuple[float, np.ndarray]:
    """alpha'(0) and beta'(0) re-derived from the closed form by integrating
    the PDE and applying Gauss's theorem as boundary integrals, then
    cross-checked against the closed-form values -(3/8) H (CMC) and H/4
    (Willmore), to 1e-8 relative to max(1, |k1| + |k2|): the quadrature's
    rounding scales with the curvatures, not with H, which vanishes at
    k2 = -k1 while the fields do not; beta' = (0, 0) in both
    cases.  The curvatures are bound, not substituted, so every call of a
    case evaluates the same fields (:func:`_fields` of the closed form)."""
    kb = {"k1": float(p.kappa1), "k2": float(p.kappa2)}
    fields = _fields(p.case, uprime_expr(p.case))

    def integrals(integrate, size, *names):
        return dict(zip(names, integrate([fields[n] for n in names], size, kb)))

    if p.case == "cmc":
        s = integrals(hq.integrate_surface, SURFACE_GRID, "rhs", "u", "w1_rhs", "w2_rhs")
        b = integrals(hq.integrate_boundary, EQUATOR_NODES, "du_eta", "w1_du_eta", "w2_du_eta")
        alpha = (s["rhs"] + b["du_eta"] - 2.0 * s["u"]) / (2.0 * math.pi)
        beta = np.array([-b[f"w{i}_du_eta"] - s[f"w{i}_rhs"] for i in (1, 2)])
        closed = -3.0 / 8.0 * p.H
    else:
        b = integrals(hq.integrate_boundary, EQUATOR_NODES, "lap2_u_eta", "rhs_eta",
                      "w1_du_eta", "w2_du_eta", "w1_lap2_u_eta", "w2_lap2_u_eta")
        alpha = (-b["lap2_u_eta"] + b["rhs_eta"]) / (-8.0 * math.pi)
        beta = np.array([0.5 * (2.0 * b[f"w{i}_du_eta"] - b[f"w{i}_lap2_u_eta"])
                         for i in (1, 2)])
        closed = p.H / 4.0
    if abs(alpha - closed) > 1e-8 * max(1.0, abs(p.kappa1) + abs(p.kappa2)):
        raise ConstraintSingular(
            f"numeric alpha'(0) = {alpha} disagrees with closed form {closed}")
    return alpha, beta
