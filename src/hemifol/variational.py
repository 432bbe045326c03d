"""Variational engine: area, volume, Willmore energy, barycenter and
boundary functionals of deformed hemisphere immersions
f(omega) = (1 + eps*u(omega)) omega inside a perturbed ambient metric
delta + eps*q(x), all evaluated as order-2 jets in the shared parameter eps.

Every second derivative of a functional is obtained from a single jet
evaluation along a diagonal direction; the mixed term is separated by
polarization.  The mean curvature uses the normal-coordinate device
h_ij = -1/2 d/dz s_ij with s_ij the pullback metric along the normal graph,
which reduces to metric position-derivatives plus tangential derivatives of
the unit normal.

The symbolic fields of a direction pair are built once (``_build_fields``).
``field_jets`` is the one public evaluator of them at given points, as
jets or at a finite eps, and every integral is one jet evaluation over a
rule of :mod:`hemifol.quadrature` (hemisphere grid, radial shells,
equator), summed by that rule.

The normal radicand |omega|^2_g - g^ij b_i b_j is tested for a positive
sign only at a finite eps.  Jets are taken at eps = 0, where g = delta and
f = omega, so b_i = <omega, d_i omega> = 1/2 d_i |omega|^2 = 0 and the
radicand is 1 at every node, whatever u, q, k1, k2 or dh.

``second_derivative_terms`` computes the expansion coefficients on one
fixed grid, EXPANSION_GRID (32 x 64), where no raw value lies more than
about 3e-14 from its 64 x 128 value: the trapezoid rule in phi and the
Gauss rule in t converge spectrally on these integrands.  Every field
binds float curvatures, one probe pair a walk.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import expr as ex
from . import linearized as lin
from . import quadrature as hq
from . import sphere

__all__ = [
    "MetricPerturbation", "FunctionalValue", "TermDecomposition",
    "DegenerateMetric", "InconsistentProbes",
    "functionals", "field_jets",
    "second_derivative_terms", "assemble_expansion",
    "PROBE_PAIRS", "EXPANSION_GRID", "WILLMORE_TERMS",
    "metric_first_order", "metric_second_order", "metric_zero",
]

EPS = ex.var("eps")
S = ex.var("s")
_X = ("x1", "x2", "x3")
_K1, _K2 = ex.var("k1"), ex.var("k2")

DH_NAMES = ("dh111", "dh112", "dh122", "dh211", "dh212", "dh222")

PROBE_PAIRS = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, -1.0))

# residual gates of the K, H^2 fit and of the recovery of its coefficients
PROBE_TOL = 1e-7
RECOVER_TOL = 1e-9


class DegenerateMetric(Exception):
    pass


class InconsistentProbes(Exception):
    pass


@dataclass(frozen=True)
class MetricPerturbation:
    """Symmetric 3x3 of expressions in x1, x2, x3 (a metric direction q;
    the ambient metric is delta + eps*q)."""
    entries: tuple

    def __post_init__(self):
        for m in range(3):
            for n in range(3):
                if self.entries[m][n] is not self.entries[n][m]:
                    raise ValueError("metric perturbation must be symmetric")

    def at(self, position) -> list:
        """Entries with x substituted by the given position expressions."""
        subst = {name: pos for name, pos in zip(_X, position)}
        return [[ex.substitute(self.entries[m][n], subst) for n in range(3)]
                for m in range(3)]

    def position_derivatives(self):
        """d q_{mn} / d x_mu as symbolic entries (before substitution)."""
        return [[[ex.diff(self.entries[m][n], xmu) for n in range(3)]
                 for m in range(3)] for xmu in _X]


def metric_zero() -> MetricPerturbation:
    z = ex.ZERO
    return MetricPerturbation(((z, z, z), (z, z, z), (z, z, z)))


def metric_first_order() -> MetricPerturbation:
    """First metric derivative of the boundary blow-up: off-diagonal block
    kappa_i x_i in the third row/column (symbolic k1, k2); traceless."""
    x1, x2 = ex.var("x1"), ex.var("x2")
    z = ex.ZERO
    a = _K1 * x1
    b = _K2 * x2
    return MetricPerturbation(((z, z, a), (z, z, b), (a, b, z)))


def metric_second_order() -> MetricPerturbation:
    """Second metric derivative: quadratic block 2 kappa_i kappa_j x_i x_j
    plus third-column entries d_i h_ab x_a x_b carried as free symbols
    (dh111 ... dh222); all implemented integrals must be independent of
    them, which the tests assert by comparing two settings."""
    x1, x2 = ex.var("x1"), ex.var("x2")
    d = {name: ex.var(name) for name in DH_NAMES}
    e11 = 2 * _K1 ** 2 * x1 ** 2
    e22 = 2 * _K2 ** 2 * x2 ** 2
    e12 = 2 * _K1 * _K2 * x1 * x2
    e13 = d["dh111"] * x1 ** 2 + 2 * d["dh112"] * x1 * x2 + d["dh122"] * x2 ** 2
    e23 = d["dh211"] * x1 ** 2 + 2 * d["dh212"] * x1 * x2 + d["dh222"] * x2 ** 2
    z = ex.ZERO
    return MetricPerturbation(((e11, e12, e13), (e12, e22, e23), (e13, e23, z)))


# ---------------------------------------------------------------------------
# symbolic field construction (cached per direction pair)
# ---------------------------------------------------------------------------

_DELTA = tuple(tuple(ex.ONE if m == n else ex.ZERO for n in range(3))
               for m in range(3))


@functools.lru_cache(maxsize=32)
def _build_fields(u_dir: ex.Expr, metric: MetricPerturbation) -> dict:
    """The symbolic fields of one direction pair.  Expressions are interned
    and compare by identity, so equal pairs share one entry."""
    om = sphere.OMEGA
    u = sphere.to_tphi(u_dir)
    radial = 1 + EPS * u
    f = tuple(radial * om[m] for m in range(3))

    q_at_f = metric.at(f)
    gt = [[_DELTA[m][n] + EPS * q_at_f[m][n] for n in range(3)] for m in range(3)]

    params = ("t", "phi")
    df = [[ex.diff(f[m], v) for m in range(3)] for v in params]

    def pair(vec_a, vec_b):
        total = ex.ZERO
        for m in range(3):
            for n in range(3):
                total = total + gt[m][n] * vec_a[m] * vec_b[n]
        return total

    g = [[pair(df[i], df[j]) for j in range(2)] for i in range(2)]
    det_g = g[0][0] * g[1][1] - g[0][1] * g[0][1]
    density = ex.sqrt(det_g)
    ginv = [[g[1][1] / det_g, -(g[0][1] / det_g)],
            [-(g[0][1] / det_g), g[0][0] / det_g]]

    b = [pair(om, df[i]) for i in range(2)]
    radicand = pair(om, om)
    for i in range(2):
        for j in range(2):
            radicand = radicand - ginv[i][j] * b[i] * b[j]
    norm = ex.sqrt(radicand)
    nu = []
    for m in range(3):
        tangential = ex.ZERO
        for i in range(2):
            for j in range(2):
                tangential = tangential + ginv[i][j] * b[i] * df[j][m]
        nu.append(-((om[m] - tangential) / norm))
    dnu = [[ex.diff(nu[m], v) for m in range(3)] for v in params]

    dq_sym = metric.position_derivatives()
    subst_f = {name: pos for name, pos in zip(_X, f)}
    dq = [[[EPS * ex.substitute(dq_sym[mu][a][bb], subst_f) for bb in range(3)]
           for a in range(3)] for mu in range(3)]

    h = [[ex.ZERO] * 2 for _ in range(2)]
    for i in range(2):
        for j in range(2):
            term = ex.ZERO
            for mu in range(3):
                inner = ex.ZERO
                for a in range(3):
                    for bb in range(3):
                        inner = inner + dq[mu][a][bb] * df[i][a] * df[j][bb]
                term = term + nu[mu] * inner
            for a in range(3):
                for bb in range(3):
                    term = term + gt[a][bb] * (df[i][a] * dnu[j][bb]
                                               + df[j][a] * dnu[i][bb])
            h[i][j] = -(term / 2)

    H = ex.ZERO
    for i in range(2):
        for j in range(2):
            H = H + ginv[i][j] * h[i][j]

    b1 = om[2]
    for i in range(2):
        for j in range(2):
            b1 = b1 - ginv[i][j] * b[i] * df[j][2]

    # volume integrand over the radial shell r = s * (1 + eps*u), s in [0, 1]
    xpos = tuple(S * f[m] for m in range(3))
    qv = metric.at(xpos)
    gv = [[_DELTA[m][n] + EPS * qv[m][n] for n in range(3)] for m in range(3)]
    det3 = (gv[0][0] * (gv[1][1] * gv[2][2] - gv[1][2] * gv[2][1])
            - gv[0][1] * (gv[1][0] * gv[2][2] - gv[1][2] * gv[2][0])
            + gv[0][2] * (gv[1][0] * gv[2][1] - gv[1][1] * gv[2][0]))
    vol_integrand = ex.sqrt(det3) * S ** 2 * radial ** 3

    return {
        "u": u,
        "density": density,
        "radicand": radicand,
        "normal": tuple(nu),
        "H": H,
        "W_density": H * H * density / 4,
        "B1": b1,
        "vol_integrand": vol_integrand,
    }


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _bindings(k1, k2, dh, eps):
    return {"eps": eps, "k1": float(k1), "k2": float(k2),
            **{name: float(dh) for name in DH_NAMES}}


_EPS_JET = ex.Jet2(0.0, 1.0, 0.0)


def _integral(fields: dict, name: str, rule: hq.Rule, k1, k2, dh) -> ex.Jet2:
    """Integral of a named field as a jet over a quadrature rule: one walk
    at the rule's nodes, with no radicand test (it is 1 at eps = 0)."""
    b = {**rule.bindings, **_bindings(k1, k2, dh, _EPS_JET)}
    return rule.sum(ex.evaluate_jet(fields[name], b))


def functionals(u_dir: ex.Expr, metric: MetricPerturbation,
                grid: hq.QuadratureGrid = hq.QuadratureGrid(),
                k1: float = 1.0, k2: float = 1.0, dh: float = 0.0) -> dict:
    """All functionals of f = (1 + eps*u_dir) omega in delta + eps*metric as
    order-2 jets in eps: area A, volume V, Willmore energy W, linearized
    barycenter components C1, C2, and the equator integral of the first
    boundary operator B1 (trapezoid rule with 4 n_azimuthal nodes)."""
    fields = _build_fields(u_dir, metric)
    surface = hq.surface_rule(grid)
    out = {"A": _integral(fields, "density", surface, k1, k2, dh),
           "W": _integral(fields, "W_density", surface, k1, k2, dh),
           "V": _integral(fields, "vol_integrand", hq.shell_rule(grid), k1, k2, dh)}

    # linearized barycenter: D1C only, exactly linear in the graph direction
    u_vals = ex.evaluate(fields["u"], {**surface.bindings,
                                       "k1": float(k1), "k2": float(k2)})
    for i in (1, 2):
        d1 = 1.5 / math.pi * surface.sum(u_vals * surface.bindings[f"w{i}"])
        out[f"C{i}"] = ex.Jet2(0.0, d1, 0.0)

    out["B1int"] = _integral(fields, "B1", hq.equator_rule(4 * grid.n_azimuthal),
                             k1, k2, dh)
    return out


def field_jets(u_dir: ex.Expr, metric: MetricPerturbation, names,
               t, phi, k1: float = 1.0, k2: float = 1.0, dh: float = 0.0,
               eps=None):
    """Jet values of named symbolic fields at given (t, phi) arrays:
    'density', 'H' (the mean curvature, 2 at (0, delta)), 'B1', 'normal'
    (the interior unit normal as a 3-tuple, -omega at (0, delta)), ...
    Pass a float ``eps`` to probe a finite deformation instead of the jet;
    it raises DegenerateMetric if ``eps`` is not finite or where the normal
    radicand is not positive."""
    if eps is not None and not math.isfinite(eps):
        raise DegenerateMetric("eps must be finite")
    fields = _build_fields(u_dir, metric)
    b = {"t": t, "phi": phi,
         **_bindings(k1, k2, dh, _EPS_JET if eps is None else float(eps))}
    if eps is not None and not np.min(ex.evaluate(fields["radicand"], b)) > 0:
        raise DegenerateMetric("normal radicand not positive")
    out = {}
    for name in names:
        fld = fields[name]
        if isinstance(fld, tuple):
            out[name] = tuple(ex.evaluate_jet(c, b) for c in fld)
        else:
            out[name] = ex.evaluate_jet(fld, b)
    return out


# ---------------------------------------------------------------------------
# closed-form metric-direction integrands (quadrature side of dual routes)
# ---------------------------------------------------------------------------

def _trace_and_qoo(metric: MetricPerturbation):
    """tr q and q(omega, omega) at omega, shared by the g'' integrands."""
    q = metric.at(sphere.OMEGA)
    om = sphere.OMEGA
    qoo = ex.ZERO
    for m in range(3):
        for n in range(3):
            qoo = qoo + q[m][n] * om[m] * om[n]
    return q[0][0] + q[1][1] + q[2][2], qoo


def d2_willmore_g2_integrand(metric: MetricPerturbation) -> ex.Expr:
    """Integrand of D2 W [0, delta] q for homogeneous quadratic q:
    tr q / 2 + (5/2) q(omega, omega) - sum_mu d_mu q_{mu nu} omega_nu."""
    tr, qoo = _trace_and_qoo(metric)
    dq = metric.position_derivatives()
    om = sphere.OMEGA
    subst = {name: pos for name, pos in zip(_X, om)}
    divq = ex.ZERO
    for mu in range(3):
        for nu in range(3):
            divq = divq + ex.substitute(dq[mu][mu][nu], subst) * om[nu]
    return tr / 2 + ex.const(Fraction(5, 2)) * qoo - divq


def d2_area_g2_integrand(metric: MetricPerturbation) -> ex.Expr:
    """Integrand of D2 A [0, delta] q: (tr_R3 q - q(omega, omega)) / 2."""
    tr, qoo = _trace_and_qoo(metric)
    return (tr - qoo) / 2


def d2_b1_boundary_integrand(metric: MetricPerturbation) -> ex.Expr:
    """D2 B1 [0, delta] q = -q_{a3} omega_a on the equator."""
    q = metric.at(sphere.OMEGA)
    om = sphere.OMEGA
    return -(q[0][2] * om[0] + q[1][2] * om[1])


# ---------------------------------------------------------------------------
# the expansion terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionalValue:
    """A machine-computed functional value decomposed over the Gauss and
    squared-mean-curvature invariants of the boundary point: value =
    K_coeff * K + H2_coeff * H^2 with both coefficients in the
    pi*(p + q*ln2) algebra."""
    K_coeff: hq.CoefficientVector
    H2_coeff: hq.CoefficientVector
    raw: dict                      # probe pair -> raw numeric value

    def of(self, k1: float, k2: float) -> float:
        return (self.K_coeff.value() * k1 * k2
                + self.H2_coeff.value() * (k1 + k2) ** 2)


@dataclass(frozen=True)
class TermDecomposition:
    case: str
    terms: dict                    # name -> FunctionalValue
    first_derivative: float        # coefficient of H in the lambda-linear term

    def total(self) -> tuple[hq.CoefficientVector, hq.CoefficientVector]:
        ktot = Fraction(0)
        kln = Fraction(0)
        htot = Fraction(0)
        hln = Fraction(0)
        for name, tv in self.terms.items():
            mult = 2 if name == "D12" else 1
            ktot += mult * tv.K_coeff.p
            kln += mult * tv.K_coeff.q
            htot += mult * tv.H2_coeff.p
            hln += mult * tv.H2_coeff.q
        return (hq.CoefficientVector(ktot, kln), hq.CoefficientVector(htot, hln))


def _fit_K_H2(values: dict) -> tuple[float, float]:
    """Decompose probe values as alpha*K + beta*H^2, checking consistency
    across all probe pairs."""
    rows = []
    rhs = []
    for (k1, k2), v in values.items():
        rows.append([k1 * k2, (k1 + k2) ** 2])
        rhs.append(v)
    A = np.array(rows)
    y = np.array(rhs)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = A @ coef - y
    if np.max(np.abs(resid)) > PROBE_TOL:
        raise InconsistentProbes(
            f"probe pairs disagree beyond {PROBE_TOL}: residuals {resid}")
    return float(coef[0]), float(coef[1])


def _decompose(values: dict) -> FunctionalValue:
    alpha, beta = _fit_K_H2(values)
    return FunctionalValue(
        K_coeff=hq.recover_coefficients(alpha, tol=RECOVER_TOL),
        H2_coeff=hq.recover_coefficients(beta, tol=RECOVER_TOL),
        raw=dict(values),
    )


WILLMORE_TERMS = ("D1sq", "D12", "D2sq", "D1_u2", "D2_g2")

# the grid of the expansion coefficients: on it no raw value, and not the
# lambda-linear coefficient, lies more than about 3e-14 from its 64 x 128 value
EXPANSION_GRID = hq.QuadratureGrid(32, 64)


@functools.lru_cache(maxsize=2)
def _closed_integrands(case: str) -> tuple[ex.Expr, ex.Expr]:
    """The closed-form integrands of the u'' and g'' terms of a case; they
    do not depend on the probe pair or the grid, so they are built once."""
    gsecond = metric_second_order()
    if case == "willmore":
        return (d2_b1_boundary_integrand(gsecond),
                d2_willmore_g2_integrand(gsecond))
    return (sphere.to_tphi(lin.uprime_expr(case)) ** 2,
            d2_area_g2_integrand(gsecond))


def _probe_values(case: str, grid: hq.QuadratureGrid, dh: float):
    """Raw values on one grid: {term name: {probe pair: value}} for the five
    terms, and the coefficient of H in the lambda-linear term.

    The quadratic-in-(u', g') block comes from one diagonal jet per probe
    pair with polarization; the u'' term from the volume/boundary constraint
    chains; the g'' term from the closed metric-variation integrands.
    """
    u_dir = lin.uprime_expr(case)
    gprime = metric_first_order()
    u2_integrand, g2_integrand = _closed_integrands(case)
    # only the functionals read below are integrated: the energy or area
    # density, plus the B1 equator integral for Willmore
    density = "W_density" if case == "willmore" else "density"

    diag, usq, gsq, u2term, g2term, d1 = {}, {}, {}, {}, {}, {}
    f_diag = _build_fields(u_dir, gprime)
    f_u = _build_fields(u_dir, metric_zero())
    f_g = _build_fields(ex.ZERO, gprime)
    surface = hq.surface_rule(grid)
    equator = hq.equator_rule(4 * grid.n_azimuthal)
    for pair in PROBE_PAIRS:
        k1, k2 = pair
        jd, ju, jg = (_integral(f, density, surface, k1, k2, dh)
                      for f in (f_diag, f_u, f_g))
        diag[pair], usq[pair], gsq[pair], d1[pair] = jd.d2, ju.d2, jg.d2, jd.d1

        curvatures = {"k1": k1, "k2": k2, **{n: float(dh) for n in DH_NAMES}}
        if case == "willmore":
            # D1 W u'' = equator integral of d^2/deps^2 B1[eps u', delta+eps g']
            # plus the boundary term of g'', which vanishes (odd integrand)
            odd = hq.integrate_boundary(u2_integrand, extra=curvatures)
            u2term[pair] = _integral(f_diag, "B1", equator, k1, k2, dh).d2 + odd
        else:
            # D1 A u'' = 2 int u'' = -4 int u'^2 from the volume constraint
            u2term[pair] = -4.0 * hq.integrate_surface(
                u2_integrand, grid, extra={"k1": k1, "k2": k2})
        g2term[pair] = hq.integrate_surface(g2_integrand, grid, extra=curvatures)

    mixed = {k: 0.5 * (diag[k] - usq[k] - gsq[k]) for k in diag}
    raw = {"D1sq": usq, "D12": mixed, "D2sq": gsq,
           "D1_u2": u2term, "D2_g2": g2term}
    # lambda-linear coefficient: -pi H (Willmore) or -(pi/4) H (CMC)
    first = float(np.mean([v / (k1 + k2) for (k1, k2), v in d1.items()]))
    return raw, first


def second_derivative_terms(case: str) -> TermDecomposition:
    """The five second-derivative contributions to d^2/dlambda^2 of the
    Willmore energy (case 'willmore') or area (case 'cmc') along the
    critical family, each decomposed as K and H^2 coefficients in the
    pi*(p + q*ln2) algebra, recovered from the raw values (five terms at
    each probe pair, and the lambda-linear coefficient) on EXPANSION_GRID.
    """
    case = case.lower()
    raw, first = _probe_values(case, EXPANSION_GRID, 0.0)
    terms = {name: _decompose(v) for name, v in raw.items()}
    return TermDecomposition(case, terms, first)


def assemble_expansion(case: str, decomposition: TermDecomposition | None = None):
    """Expansion coefficients (c0, c1, c2) of the reduced functional:
    c0 = 2 pi, c1 = first-derivative coefficient times H, and
    c2 = (K-part, H^2-part) CoefficientVectors of half the second
    derivative."""
    dec = decomposition or second_derivative_terms(case)
    ktot, htot = dec.total()
    c2 = (hq.CoefficientVector(ktot.p / 2, ktot.q / 2),
          hq.CoefficientVector(htot.p / 2, htot.q / 2))
    return {
        "c0": 2.0 * math.pi,
        "c1_per_H": dec.first_derivative,
        "c2_K": c2[0],
        "c2_H2": c2[1],
    }
