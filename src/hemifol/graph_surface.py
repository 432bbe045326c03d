"""Curvature analysis of graph surfaces z = u(x, y): mean and Gauss
curvature with their derivatives, critical points of H, the foliation
criterion, and the explicit cubic example family.

H and K are symbolic expressions in x and y; their first and second
derivatives come from one order-2 jet walk of both along four directions,
(1, 0), (0, 1), (1, 1) and (1, -1).  The first two give the gradient and the
diagonal of the Hessian, and the mixed entry comes from polarization,
H_xy = (D_(1,1)^2 H - D_(1,-1)^2 H) / 4, so the Hessian is symmetric by
construction (Griewank, Utke & Walther, Math. Comp. 69 (2000)).  The four
directions are the four float lanes of the jet bindings of x and y, which
equal a one-lane walk of numpy length-4 arrays bit for bit.  A power or a
quotient that leaves the double range raises :class:`expr.DomainError`, an
input error; a product past the range is inf, with no numpy warning.

Sign convention: H is anchored to the example family's closed-form
dH/dx = -2(a - a^3 + 3 c1 + 9 a^2 c1 + 6 a^4 c1) / (1 + 2 a^2)^(5/2)
at the origin, which corresponds to H = (1 + u_y^2) u_xx - 2 u_x u_y u_xy
+ (1 + u_x^2) u_yy over W^3 and gives H = kappa_1 + kappa_2 (not the mean).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import expr as ex

__all__ = [
    "GraphSurface", "CurvatureData", "FoliationVerdict", "GalleryParams",
    "NoConvergence", "DegenerateHessian",
    "curvature_at", "find_critical_point", "foliation_criterion",
    "gallery_surface", "gallery_params", "hessH_and_gradK_gallery",
    "gallery_v0_norm", "gallery_root", "load_surface_file",
]

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
DEGENERACY_TOL = 1e-10
# the (x, y) square on which every graph surface is analyzed
DOMAIN = ((-1.0, 1.0), (-1.0, 1.0))


class NoConvergence(Exception):
    pass


class DegenerateHessian(Exception):
    pass


@dataclass(frozen=True)
class GalleryParams:
    """Parameters of the cubic family u = a x + a y + x y - c1 x^3 - c2 y^3."""
    a: float
    c1: float
    c2: float


def gallery_params(a: float) -> GalleryParams:
    """c1 = c2 = (-a + a^3) / (3 + 9 a^2 + 6 a^4) makes the origin critical."""
    if not math.isfinite(a):
        raise ValueError("a must be finite")
    # w2 = 1 + |grad u|^2 = 1 + 2 a^2 at the origin; the jet of H cubes
    # its denominator w2^(3/2), so w2^(9/2) must stay in the double range
    # (and so must w2^2 in K).  The bound 709 on its log leaves a factor
    # e^0.78 ~ 2.2 below the largest double, exp(709.78).
    w2 = 1.0 + 2.0 * a * a
    if not 4.5 * math.log(w2) < 709.0:
        raise ValueError("a is too large: the curvatures at the origin overflow")
    c = (-a + a ** 3) / (3.0 + 9.0 * a ** 2 + 6.0 * a ** 4)
    return GalleryParams(a, c, c)


class GraphSurface:
    """Immutable graph z = u(x, y) with its gradient and its curvatures H
    and K as symbolic fields; derivatives of H and K are taken by jets at a
    point (:func:`curvature_at`), not stored."""

    def __init__(self, u: ex.Expr, name: str = ""):
        extra = ex.free_variables(u) - {"x", "y"}
        if extra:
            raise ValueError(f"unbound surface parameters: {sorted(extra)}")
        self.u = u
        self.name = name
        ux = ex.diff(u, "x")
        uy = ex.diff(u, "y")
        uxx = ex.diff(ux, "x")
        uxy, uyy = ex.diff((ux, uy), "y")
        w2 = 1 + ux ** 2 + uy ** 2
        self.grad_u = (ux, uy)
        self.H = ((1 + uy ** 2) * uxx - 2 * ux * uy * uxy
                  + (1 + ux ** 2) * uyy) / (w2 * ex.sqrt(w2))
        self.K = (uxx * uyy - uxy ** 2) / w2 ** 2

    def contains(self, x, y):
        (x0, x1), (y0, y1) = DOMAIN
        return x0 <= x <= x1 and y0 <= y <= y1


@dataclass(frozen=True)
class CurvatureData:
    point: tuple[float, float]
    H: float
    K: float
    gradH: np.ndarray
    hessH: np.ndarray              # coordinate Hessian; covariant only at critical points
    gradK: np.ndarray
    grad_u: np.ndarray
    hess_is_covariant: bool        # true iff |gradH| < Newton tolerance
    nondegenerate: bool


@dataclass(frozen=True)
class FoliationVerdict:
    case: str                      # 'willmore' or 'cmc'
    v0_component: np.ndarray       # scaled coordinate components of dot-gamma(0)
    v0_norm_lower: float           # |v0_component|
    v0_norm_upper: float           # |v0_component| * sqrt(1 + |grad u|^2)
    v0_norm_induced: float         # exact norm in the induced metric
    verdict: str                   # 'Foliates' | 'DoesNotFoliate' | 'Inconclusive'


# directions (1, 0), (0, 1), (1, 1), (1, -1) as the x and y lanes of one jet
_X_LANES = (1.0, 0.0, 1.0, 1.0)
_Y_LANES = (0.0, 1.0, 1.0, -1.0)
_ZERO_LANES = (0.0, 0.0, 0.0, 0.0)


def _derivatives(roots, x, y):
    """Value, gradient and coordinate Hessian of each of ``roots`` at
    (x, y), from one jet walk of them all along the four directions; the
    mixed entry is polarized.  A constant root has zero derivatives."""
    out = []
    for j in ex.evaluate(roots, {"x": ex.Jet2(x, _X_LANES, _ZERO_LANES),
                                 "y": ex.Jet2(y, _Y_LANES, _ZERO_LANES)}):
        d2 = j.d2
        mixed = 0.25 * (d2[2] - d2[3])
        out.append((j.f, np.array(j.d1[:2]), np.array([[d2[0], mixed], [mixed, d2[1]]])))
    return out


def _jets_H_K(s: GraphSurface, x, y):
    """The :func:`_derivatives` of H and of K at (x, y), from one walk of
    both.  Where only K's part fails, K's is None: K is read only at the
    critical point, where :func:`_curvature_data` walks it alone."""
    try:
        return _derivatives((s.H, s.K), x, y)
    except ex.EvalError:
        return _derivatives((s.H,), x, y) + [None]


def curvature_at(s: GraphSurface, x: float, y: float) -> CurvatureData:
    """H, K, their gradients and the Hessian of H at a point, from one jet
    walk of H and K (see the module docstring).  The Hessian of H is
    reported in coordinates; it is the covariant Hessian only where gradH
    vanishes."""
    _check_inside(s, x, y)
    x, y = float(x), float(y)
    return _curvature_data(s, x, y, *_jets_H_K(s, x, y))


def _check_inside(s: GraphSurface, x, y):
    if not s.contains(x, y):
        raise ValueError(f"({x}, {y}) outside surface domain {DOMAIN}")


def _curvature_data(s: GraphSurface, x: float, y: float, jet_H, jet_K) -> CurvatureData:
    """:class:`CurvatureData` at (x, y) from the walks of H and K there,
    each given as (value, gradient, Hessian); K is walked alone if its jet
    is None."""
    H, gradH, hessH = jet_H
    K, gradK, _ = jet_K or _derivatives((s.K,), x, y)[0]
    return CurvatureData(
        point=(x, y),
        H=H,
        K=K,
        gradH=gradH,
        hessH=hessH,
        gradK=gradK,
        grad_u=np.array(ex.evaluate(s.grad_u, {"x": x, "y": y})),
        hess_is_covariant=bool(np.linalg.norm(gradH) < NEWTON_TOL),
        nondegenerate=bool(abs(np.linalg.det(hessH)) > DEGENERACY_TOL),
    )


def find_critical_point(s: GraphSurface, guess=(0.0, 0.0)) -> CurvatureData:
    """Newton iteration on gradH to |gradH| < 1e-12; raises
    :class:`ValueError` for a guess that is not finite,
    :class:`DegenerateHessian` when the Hessian determinant drops below
    1e-10 and :class:`NoConvergence` at an iterate where H, gradH or hessH
    is not finite and after 50 steps.  Each iterate walks H and K together,
    so the converged walk supplies both."""
    p = np.asarray(guess, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ValueError("guess must be finite")
    for _ in range(NEWTON_MAX_ITER):
        x, y = float(p[0]), float(p[1])
        jet_H, jet_K = _jets_H_K(s, x, y)
        H, g, h = jet_H
        if not (math.isfinite(H) and np.isfinite(g).all() and np.isfinite(h).all()):
            raise NoConvergence(
                f"H or its derivatives not finite at Newton iterate {(x, y)}")
        if np.linalg.norm(g) < NEWTON_TOL:
            _check_inside(s, x, y)
            data = _curvature_data(s, x, y, jet_H, jet_K)
            if not data.nondegenerate:
                raise DegenerateHessian(f"critical point at {tuple(p.tolist())} "
                                        f"has |det hessH| <= {DEGENERACY_TOL}")
            return data
        if abs(np.linalg.det(h)) < DEGENERACY_TOL:
            raise DegenerateHessian(f"Hessian of H nearly singular at {tuple(p.tolist())}")
        p = p - np.linalg.solve(h, g)
        if not s.contains(p[0], p[1]):
            raise NoConvergence(f"Newton iterate left the domain: {tuple(p.tolist())}")
    raise NoConvergence(f"no critical point within {NEWTON_MAX_ITER} Newton steps")


# c2_K / |c1| of the verified expansion (variational.assemble_expansion):
# Willmore (pi/2) / pi = 1/2 and CMC (pi/12) / (pi/4) = 1/3.  The centre of
# the reduced functional's critical point moves by lambda times this factor
# times hessH^-1 gradK
_CASE_FACTOR = {"willmore": Fraction(1, 2), "cmc": Fraction(1, 3)}


def foliation_criterion(s: GraphSurface, data: CurvatureData,
                        case: str) -> FoliationVerdict:
    """Scaled criterion vector (1/2 Willmore, 1/3 CMC applied to
    hessH^{-1} gradK), the rigorous coordinate-norm bracket, and the
    verdict.  Inconclusive when the bracket straddles 1."""
    factor = float(_CASE_FACTOR[case.lower()])
    if not data.nondegenerate:
        raise DegenerateHessian("foliation criterion needs a nondegenerate critical point")
    v = factor * np.linalg.solve(data.hessH, data.gradK)
    lower = float(np.linalg.norm(v))
    du = data.grad_u
    upper = lower * math.sqrt(1.0 + float(du @ du))
    induced = math.sqrt(float(v @ v) + float(v @ du) ** 2)
    if upper < 1.0:
        verdict = "Foliates"
    elif lower > 1.0:
        verdict = "DoesNotFoliate"
    else:
        verdict = "Inconclusive"
    return FoliationVerdict(case.lower(), v, lower, upper, induced, verdict)


# ---------------------------------------------------------------------------
# the explicit cubic family
# ---------------------------------------------------------------------------

_GALLERY_U = "a*x + a*y + x*y - c1*x^3 - c2*y^3"


def gallery_surface(a: float, c1: float | None = None,
                    c2: float | None = None) -> GraphSurface:
    if c1 is None or c2 is None:
        params = gallery_params(a)
        c1 = params.c1 if c1 is None else c1
        c2 = params.c2 if c2 is None else c2
    u = ex.parse(_GALLERY_U, {
        "a": ex.const(Fraction(repr(float(a)))),
        "c1": ex.const(Fraction(repr(float(c1)))),
        "c2": ex.const(Fraction(repr(float(c2)))),
    })
    return GraphSurface(u, name=f"gallery a={a}")


def gallery_dHdx(a: float, c1: float) -> float:
    """Closed form of dH/dx at the origin for the cubic family."""
    return (-2.0 * (a - a ** 3 + 3 * c1 + 9 * a ** 2 * c1 + 6 * a ** 4 * c1)
            / (1.0 + 2.0 * a ** 2) ** 2.5)


def hessH_and_gradK_gallery(a: float):
    """Closed forms of the Hessian of H and gradient of K at the origin
    with c1 = c2 chosen so the origin is critical."""
    pref = -2.0 / (1.0 + 2.0 * a ** 2) ** 3.5
    diag = a ** 2 * (-5.0 - 20.0 * a ** 2 + a ** 4) / (1.0 + a ** 2)
    off = 1.0 + 4.0 * a ** 2 + a ** 4
    hess = pref * np.array([[diag, off], [off, diag]])
    gradK = 4.0 * a / (1.0 + 2.0 * a ** 2) ** 3 * np.array([1.0, 1.0])
    return hess, gradK


def gallery_v0_norm(a: float) -> float:
    """Closed-form |hessH^{-1} gradK| = 2a(1+a^2) sqrt(2(1+2a^2)) / |1 - 15a^4 + 2a^6|
    (no Willmore/CMC scaling)."""
    return (2.0 * a * (1.0 + a ** 2) * math.sqrt(2.0 * (1.0 + 2.0 * a ** 2))
            / abs(1.0 - 15.0 * a ** 4 + 2.0 * a ** 6))


def gallery_root() -> float:
    """Bisection root of 1 - 15 a^4 + 2 a^6 on [0.5, 0.52]."""
    def p(x):
        return 1.0 - 15.0 * x ** 4 + 2.0 * x ** 6

    lo, hi = 0.5, 0.52
    flo = p(lo)
    if flo <= 0 or p(hi) >= 0:
        raise ValueError("bracket does not straddle the root")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if p(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# surface files
# ---------------------------------------------------------------------------

def load_surface_file(path) -> GraphSurface:
    """Text format: lines ``name = <string>``, ``u = <expr>`` and optional
    ``params: a=..., c1=...``; params are bound as constants while u is
    parsed.  Each key and each parameter name may appear once."""
    fields: dict[str, str] = {}
    params: dict[str, ex.Expr] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("params:"):
                for item in line[len("params:"):].split(","):
                    key, _, val = (x.strip() for x in item.partition("="))
                    try:
                        if not key:
                            raise ValueError("empty name")
                        if key in params:
                            raise ValueError(f"repeated name '{key}'")
                        params[key] = ex.const(val)
                    except (ValueError, ZeroDivisionError, ex.ExprError) as err:
                        why = "zero denominator" if isinstance(err, ZeroDivisionError) else err
                        raise ValueError(f"params item '{item.strip()}': {why}") from None
                continue
            key, _, val = (x.strip() for x in line.partition("="))
            if key not in ("name", "u"):
                raise ValueError(f"unrecognized surface-file line: {line!r}")
            if key in fields:
                raise ValueError(f"repeated surface-file key '{key}'")
            fields[key] = val
    if "u" not in fields:
        raise ValueError("surface file has no 'u = <expr>' line")
    u = ex.parse(fields["u"], params)
    return GraphSurface(u, name=fields.get("name", ""))
