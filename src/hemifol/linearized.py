"""Linearized CMC and Willmore boundary-value problems on the hemisphere:
closed-form first-order graph functions, residual verification, an
independent mode-by-mode ODE solver, and the Lagrange multipliers.

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
held by one field table (:func:`_fields`), and each set of points gets one
walk over the fields read there; the intern table alone keeps no node alive.

The ODE mode functions do not depend on the curvatures, which enter only
the mode coefficients and the -f/2 term.  So :func:`solve_ode_modes`
solves the modes of a case once per process, reads their dense output as
arrays at the sup-error and sample points, and keeps those tables; each
call then only scales the mode columns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np
from scipy.integrate import quad, solve_ivp

from . import expr as ex
from . import quadrature as hq
from . import sphere

__all__ = [
    "LinearizedProblem", "LinearizedSolution", "ResidualReport",
    "ShootingDiverged", "ConstraintSingular",
    "closed_form_uprime", "uprime_expr", "pde_rhs_expr",
    "residual_check", "solve_ode_modes", "multipliers",
]

ODE_RTOL = 1e-11
ODE_ATOL = 1e-13
THETA_START = 1e-3


class ShootingDiverged(Exception):
    pass


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
        # every field is linear in the curvatures, and at the sample points
        # and quadrature nodes stays below 1e6 times the larger of them (7.5e5
        # measured, Willmore), so past 1e300 an evaluation would overflow
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
    from fractions import Fraction
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


# residual sample points (t, phi): a grid of the hemisphere short of the
# pole, where the (t, phi) chart is singular; the equator's are the nodes
# of the boundary rule
_GRID = dict(zip(("t", "phi"), (a.ravel() for a in np.meshgrid(
    np.linspace(0.0, 0.95, 97), np.linspace(0.0, 2 * np.pi, 64, endpoint=False),
    indexing="ij"))))


def residual_check(p: LinearizedProblem, u: ex.Expr) -> ResidualReport:
    """Sup-norm residuals of the interior PDE, the Neumann data, the
    Willmore third-order condition, and the integral constraints, for any
    candidate u over omega (or already in (t, phi)); k1 and k2 are bound
    to the problem's curvatures, so ``u`` may keep them as symbols."""
    kb = {"k1": float(p.kappa1), "k2": float(p.kappa2)}
    fields = _fields(p.case, u)
    values = [ex.evaluate(fields["interior"], dict(_GRID, **kb)), *ex.evaluate(
        [fields[k] for k in ("third_order", "neumann") if k in fields],
        {**hq.equator_rule(256).bindings, **kb})]
    interior, *third, neumann = (float(np.max(np.abs(v))) for v in values)
    mass, w1_u, w2_u = hq.integrate_surface(
        [fields["u"], fields["w1_u"], fields["w2_u"]], extra=kb)
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
    du_eta = sphere.eta_derivative(ut)
    kappa_form = sphere.to_tphi(_KAPPA_FORM)
    if case == "cmc":
        fields = {"interior": lap2_u - rhs - ex.const(3) / 8 * _H, "rhs": rhs}
    else:
        # lap2_u_eta is the third-order residual less its data
        fields = {"interior": sphere.laplacian(lap2_u) - sphere.laplacian(rhs) + _H,
                  "lap2_u_eta": sphere.eta_derivative(lap2_u),
                  "rhs_eta": sphere.eta_derivative(rhs)}
        fields["third_order"] = fields["lap2_u_eta"] - 7 * kappa_form + _H
    fields.update(neumann=du_eta + kappa_form, u=ut, du_eta=du_eta)
    for i in (1, 2):
        fields.update({f"w{i}_{k}": sphere.OMEGA[i - 1] * fields[k]
                       for k in ("u", "du_eta", "rhs" if case == "cmc" else "lap2_u_eta")})
    return MappingProxyType(fields)


# ---------------------------------------------------------------------------
# independent ODE-mode solver
# ---------------------------------------------------------------------------

def _integrate_mode(rhs, y0, theta0=THETA_START):
    sol = solve_ivp(rhs, (theta0, np.pi / 2), y0, method="DOP853",
                    rtol=ODE_RTOL, atol=ODE_ATOL, dense_output=True)
    if not sol.success:
        raise ShootingDiverged(sol.message)
    return sol


def _mode_op(cot_coef, c, forcing=None):
    """g'' + cot_coef cot(theta) g' + c g = forcing as a first-order system:
    cot_coef is 1 for azimuthal mode 0 and 5 for mode 2."""
    def rhs(theta, y):
        g, dg = y
        f = forcing(theta) if forcing is not None else 0.0
        return [dg, -cot_coef * dg / math.tan(theta) - c * g + f]
    return rhs


def solve_cmc_modes():
    """CMC mode functions g1(theta), g2(theta) of u' = (k1+k2)/4 v1 +
    (k1-k2)/4 v2 - f/2 with v1 = g1, v2 = (w1^2 - w2^2) g2.  Both take a
    scalar or a 1-D array of theta."""
    th0 = THETA_START
    # mode 0: g'' + cot g' + 2 g = 3/2, regular start g = g0 + (3/2 - 2 g0)/4 theta^2
    a2 = 1.5 / 4.0
    part = _integrate_mode(_mode_op(1.0, 2.0, forcing=lambda theta: 1.5),
                           [a2 * th0 ** 2, 2 * a2 * th0])
    hom = _integrate_mode(_mode_op(1.0, 2.0), [1.0 - th0 ** 2 / 2.0, -th0])
    # Neumann: g'(pi/2) = 1
    end = math.pi / 2
    g0 = (1.0 - part.sol(end)[1]) / hom.sol(end)[1]

    def g1(theta):
        return part.sol(theta)[0] + g0 * hom.sol(theta)[0]

    # mode 2: g'' + 5 cot g' - 4 g = 0, regular series 1 + theta^2/3; g'(pi/2) = 1
    reg = _integrate_mode(_mode_op(5.0, -4.0), [1.0 + th0 ** 2 / 3.0, 2 * th0 / 3.0])
    scale = 1.0 / reg.sol(end)[1]

    def g2(theta):
        return scale * reg.sol(theta)[0]

    return g1, g2


def solve_willmore_modes():
    """Willmore mode functions v1(theta) and h(theta) of
    u' = (k1+k2) v1 + (k1-k2)/4 (w1^2 - w2^2) h - f/2, via the chained pair
    w = (Lap + 2)v (Poisson step) then the Helmholtz step, with the kernel
    constants fixed by the Neumann and mass constraints.  Both functions
    take a scalar or a 1-D array of theta."""
    th0 = THETA_START
    end = math.pi / 2

    # mode 0, step 1: Lap w = -1 regular particular, w_p ~ -theta^2/4
    wp = _integrate_mode(_mode_op(1.0, 0.0, forcing=lambda theta: -1.0),
                         [-th0 ** 2 / 4.0, -th0 / 2.0])
    # step 2: (Lap + 2) P = w_p with regular series P ~ -theta^4/48
    P = _integrate_mode(_mode_op(1.0, 2.0, forcing=lambda theta: wp.sol(theta)[0]),
                        [-th0 ** 4 / 48.0, -th0 ** 3 / 12.0])
    # v1 = P + C0/2 + c cos(theta); Neumann v1'(pi/2) = 1/4, mass integral pi/4
    c_cos = P.sol(end)[1] - 0.25
    integral_P, _ = quad(lambda th: P.sol(th)[0] * math.sin(th), th0, end,
                         epsabs=1e-13, epsrel=1e-13)
    C0 = 2.0 * (0.125 - 0.5 * c_cos - integral_P)

    def v1(theta):
        return P.sol(theta)[0] + 0.5 * C0 + c_cos * _cos(theta)

    # mode 2, step 1: homogeneous w'' + 5 cot w' - 6 w = 0 with w'(pi/2) = -4
    regw = _integrate_mode(_mode_op(5.0, -6.0), [1.0 + th0 ** 2 / 2.0, th0])
    A = -4.0 / regw.sol(end)[1]

    def w2(theta):
        return A * regw.sol(theta)[0]

    # step 2: h'' + 5 cot h' - 4 h = w2 with regular particular h ~ w2(0)/12 theta^2
    part2 = _integrate_mode(_mode_op(5.0, -4.0, forcing=w2),
                            [A * th0 ** 2 / 12.0, A * th0 / 6.0])
    regh = _integrate_mode(_mode_op(5.0, -4.0), [1.0 + th0 ** 2 / 3.0, 2 * th0 / 3.0])
    B = (1.0 - part2.sol(end)[1]) / regh.sol(end)[1]

    def h(theta):
        return part2.sol(theta)[0] + B * regh.sol(theta)[0]

    return v1, h


def _cos(theta):
    """``math.cos`` of a scalar or of each entry of a 1-D array, so that the
    bits do not depend on the SIMD cosine numpy was built with."""
    if np.ndim(theta) == 0:
        return math.cos(theta)
    return np.fromiter(map(math.cos, theta), float, len(theta))


def _mode_sup_error(numeric, closed):
    t = np.linspace(0.0, 0.999, 400)
    theta = np.arccos(t)
    theta = np.clip(theta, THETA_START, None)
    got = numeric(theta)
    want = closed(np.cos(theta))
    return float(np.max(np.abs(got - want)))


class _ModeTable(NamedTuple):
    """The curvature-free part of :func:`solve_ode_modes` for one case: the
    modes' sup errors against their closed forms, and the sample points
    (t, phi), omega there, and both mode columns, each raveled; all of it
    read-only, since every call shares it."""
    sup_errors: Mapping[str, float]
    t: np.ndarray
    phi: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    w3: np.ndarray
    mode0: np.ndarray
    mode2: np.ndarray


@functools.cache
def _mode_tables(case: str) -> _ModeTable:
    """Solve the modes of ``case`` ('cmc' or 'willmore') and read their
    dense output at the sup-error points and on the 40 x 32 sample grid;
    one entry per case for the life of the process."""
    if case == "cmc":
        m0, m2 = solve_cmc_modes()
        errs = {
            "mode0": _mode_sup_error(m0, lambda t: 0.75 - t),
            "mode2": _mode_sup_error(m2, lambda t: (2.0 + t) / (3.0 * (1.0 + t) ** 2)),
        }
    else:
        m0, m2 = solve_willmore_modes()
        errs = {
            "mode0": _mode_sup_error(
                m0, lambda t: 1.0 - math.log(2.0) + 0.5 * np.log(1.0 + t) - 0.75 * t),
            "mode2": _mode_sup_error(m2, lambda t: 1.0 / (1.0 + t)),
        }
    t = np.linspace(0.0, math.cos(THETA_START), 40)
    phi = np.linspace(0.0, 2 * np.pi, 32, endpoint=False)
    tt, pp = (a.ravel() for a in np.meshgrid(t, phi, indexing="ij"))
    theta = np.arccos(np.clip(tt, -1.0, 1.0))
    table = _ModeTable(MappingProxyType(errs), tt, pp, *sphere.omega_values(tt, pp),
                       m0(theta), m2(theta))
    for column in table[1:]:
        column.flags.writeable = False
    return table


def solve_ode_modes(p: LinearizedProblem) -> LinearizedSolution:
    """Numerically solve the azimuthal mode-0 and mode-2 problems by
    shooting from a two-term regular series start at theta = 1e-3, discard
    the singular homogeneous solutions, assemble u'(0) = modes - f/2 on a
    sample grid, and attach the closed form (:func:`uprime_expr`, with the
    curvatures left to bind) and the multipliers.

    The modes do not depend on the curvatures, so they are solved, and
    their dense output read as arrays, once per case per process (see
    :func:`_mode_tables`); each call scales the cached mode columns and
    returns its own ``samples`` array and ``mode_sup_errors`` dict."""
    table = _mode_tables(p.case)
    if p.case == "cmc":
        coef0 = (p.kappa1 + p.kappa2) / 4.0
    else:
        coef0 = p.kappa1 + p.kappa2
    coef2 = (p.kappa1 - p.kappa2) / 4.0

    w1, w2_, w3 = table.w1, table.w2, table.w3
    f_half = 0.5 * (p.kappa1 * w1 ** 2 + p.kappa2 * w2_ ** 2) * w3
    u_vals = (coef0 * table.mode0
              + coef2 * (w1 ** 2 - w2_ ** 2) * table.mode2
              - f_half)
    samples = np.column_stack([table.t, table.phi, u_vals])
    alpha, beta = multipliers(p)
    return LinearizedSolution(
        u_prime=uprime_expr(p.case),
        samples=samples,
        alpha_prime=alpha,
        beta_prime=beta,
        mode_sup_errors=dict(table.sup_errors),
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

    def integrals(integrate, *names):
        return dict(zip(names, integrate([fields[n] for n in names], extra=kb)))

    if p.case == "cmc":
        s = integrals(hq.integrate_surface, "rhs", "u", "w1_rhs", "w2_rhs")
        b = integrals(hq.integrate_boundary, "du_eta", "w1_du_eta", "w2_du_eta")
        alpha = (s["rhs"] + b["du_eta"] - 2.0 * s["u"]) / (2.0 * math.pi)
        beta = np.array([-b[f"w{i}_du_eta"] - s[f"w{i}_rhs"] for i in (1, 2)])
        closed = -3.0 / 8.0 * p.H
    else:
        b = integrals(hq.integrate_boundary, "lap2_u_eta", "rhs_eta", "w1_du_eta",
                      "w2_du_eta", "w1_lap2_u_eta", "w2_lap2_u_eta")
        alpha = (-b["lap2_u_eta"] + b["rhs_eta"]) / (-8.0 * math.pi)
        beta = np.array([0.5 * (2.0 * b[f"w{i}_du_eta"] - b[f"w{i}_lap2_u_eta"])
                         for i in (1, 2)])
        closed = p.H / 4.0
    if abs(alpha - closed) > 1e-8 * max(1.0, abs(p.kappa1) + abs(p.kappa2)):
        raise ConstraintSingular(
            f"numeric alpha'(0) = {alpha} disagrees with closed form {closed}")
    return alpha, beta
