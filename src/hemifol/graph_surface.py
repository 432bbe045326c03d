"""Curvature analysis of graph surfaces z = u(x, y): mean and Gauss
curvature with their derivatives, critical points of H, the foliation
criterion, and the explicit cubic family.

A surface keeps u and nothing derived from it.  At a point, the 14
partial derivatives of u of orders 1 to 4 come from one walk of u's own
tape with x and y bound to order-4 bivariate Taylor numbers
(:class:`expr.Taylor`; Griewank & Walther, *Evaluating Derivatives*, 2nd
ed., SIAM 2008, ch. 13), and H, gradH, hessH, K and gradK are a fixed
function of those 14 numbers (:func:`_curvatures`): order-2 bivariate
Taylor arithmetic on H = N w^(-3/2) and K = (u_xx u_yy - u_xy^2) w^(-2),
with w = 1 + |grad u|^2, in Python floats.  So hessH is symmetric by
construction, and Newton's method runs in plain floats.  A walk of u
whose power leaves the double range, or that divides by an exact zero,
raises :class:`expr.DomainError`, an input error; a product past the
range, in the walk or in the formula, is inf, which Newton's finiteness
check refuses.

Sign convention: H is anchored to the example family's closed-form
dH/dx = -2(a - a^3 + 3 c1 + 9 a^2 c1 + 6 a^4 c1) / (1 + 2 a^2)^(5/2)
at the origin, which corresponds to N = (1 + u_y^2) u_xx - 2 u_x u_y u_xy
+ (1 + u_x^2) u_yy over w^(3/2) and gives H = kappa_1 + kappa_2 (not the mean).
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
    try:
        c = (-a + a ** 3) / (3.0 + 9.0 * a ** 2 + 6.0 * a ** 4)
    except OverflowError:
        raise ValueError("a is too large: the powers of a in c1 and c2 overflow") from None
    return GalleryParams(a, c, c)


class GraphSurface:
    """Immutable graph z = u(x, y); curvatures are taken from u's Taylor
    expansion at a point (:func:`curvature_at`), not stored."""

    def __init__(self, u: ex.Expr, name: str = ""):
        extra = ex.free_variables(u) - {"x", "y"}
        if extra:
            raise ValueError(f"unbound surface parameters: {sorted(extra)}")
        self.u = u
        self.name = name

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


def _mul(f, g):
    """Product of two order-2 Taylor expansions in (x, y), each given as
    (value, d/dx, d/dy, d2/dx2, d2/dxdy, d2/dy2)."""
    f0, fx, fy, fxx, fxy, fyy = f
    g0, gx, gy, gxx, gxy, gyy = g
    return (f0 * g0, fx * g0 + f0 * gx, fy * g0 + f0 * gy,
            fxx * g0 + 2.0 * fx * gx + f0 * gxx,
            fxy * g0 + fx * gy + fy * gx + f0 * gxy,
            fyy * g0 + 2.0 * fy * gy + f0 * gyy)


def _chain(w, phi, d1, d2):
    """phi(w) from phi's value, first and second derivative at w's value."""
    _, wx, wy, wxx, wxy, wyy = w
    return (phi, d1 * wx, d1 * wy, d2 * wx * wx + d1 * wxx,
            d2 * wx * wy + d1 * wxy, d2 * wy * wy + d1 * wyy)


def _curvatures(c):
    """(H, H_x, H_y, H_xx, H_xy, H_yy) and (K, K_x, K_y) at a point from
    the 14 derivatives ``c`` of u there, in graded order: u_x, u_y; u_xx,
    u_xy, u_yy; u_xxx, ..., u_yyy; u_xxxx, ..., u_yyyy.  Plain float
    arithmetic: a product past the double range is inf and does not
    raise."""
    p0, q0, r0, s0, t0, a30, a21, a12, a03, b40, b31, b22, b13, b04 = c
    # the expansions of u_x, u_y, u_xx, u_xy and u_yy about the point
    p = (p0, r0, s0, a30, a21, a12)
    q = (q0, s0, t0, a21, a12, a03)
    r = (r0, a30, a21, b40, b31, b22)
    s = (s0, a21, a12, b31, b22, b13)
    t = (t0, a12, a03, b22, b13, b04)
    pp, qq = _mul(p, p), _mul(q, q)
    w = (1.0 + pp[0] + qq[0],) + tuple(x + y for x, y in zip(pp[1:], qq[1:]))
    N = tuple(ri + ti + a + b - 2.0 * e for ri, ti, a, b, e in
              zip(r, t, _mul(qq, r), _mul(pp, t), _mul(_mul(p, q), s)))
    # w^(-3/2) and w^(-2) with their first two derivatives; w >= 1
    w0 = w[0]
    v = 1.0 / (w0 * math.sqrt(w0))
    H = _mul(N, _chain(w, v, -1.5 * v / w0, 3.75 * v / (w0 * w0)))
    v = 1.0 / (w0 * w0)
    d1 = -2.0 * v / w0
    kn = r0 * t0 - s0 * s0
    kx = a30 * t0 + r0 * a12 - 2.0 * s0 * a21
    ky = a21 * t0 + r0 * a03 - 2.0 * s0 * a12
    K = (kn * v, kx * v + kn * d1 * w[1], ky * v + kn * d1 * w[2])
    return H, K


def _derivatives(s: GraphSurface, x: float, y: float):
    """The 14 partial derivatives of u of orders 1 to 4 at (x, y), in the
    order of :func:`_curvatures`, from one walk of u with x and y bound to
    Taylor numbers."""
    u = ex.evaluate(s.u, {"x": ex.Taylor((x, 1.0, 0.0)), "y": ex.Taylor((y, 0.0, 1.0))})
    # a u without x and y is a float
    return u.partials()[1:] if isinstance(u, ex.Taylor) else (0.0,) * 14


def curvature_at(s: GraphSurface, x: float, y: float) -> CurvatureData:
    """H, K, their gradients and the Hessian of H at a point, from one walk
    of u (see the module docstring).  The Hessian of H is reported in
    coordinates; it is the covariant Hessian only where gradH vanishes."""
    _check_inside(s, x, y)
    x, y = float(x), float(y)
    c = _derivatives(s, x, y)
    return _curvature_data(x, y, c, *_curvatures(c))


def _check_inside(s: GraphSurface, x, y):
    if not s.contains(x, y):
        raise ValueError(f"({x}, {y}) outside surface domain {DOMAIN}")


def _curvature_data(x: float, y: float, c, H, K) -> CurvatureData:
    """:class:`CurvatureData` at (x, y) from u's derivatives ``c`` there and
    their :func:`_curvatures`."""
    h, gx, gy, hxx, hxy, hyy = H
    return CurvatureData(
        point=(x, y),
        H=h,
        K=K[0],
        gradH=np.array([gx, gy]),
        hessH=np.array([[hxx, hxy], [hxy, hyy]]),
        gradK=np.array(K[1:]),
        grad_u=np.array(c[:2]),
        hess_is_covariant=math.hypot(gx, gy) < NEWTON_TOL,
        nondegenerate=abs(hxx * hyy - hxy * hxy) > DEGENERACY_TOL,
    )


def _solve(hxx, hxy, hyy, bx, by):
    """[[hxx, hxy], [hxy, hyy]]^-1 (bx, by) by Cramer's rule, which is forward
    stable for n = 2 (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., SIAM 2002, sec. 1.10.1)."""
    det = hxx * hyy - hxy * hxy
    return (hyy * bx - hxy * by) / det, (hxx * by - hxy * bx) / det


def find_critical_point(s: GraphSurface, guess=(0.0, 0.0)) -> CurvatureData:
    """Newton iteration on gradH to |gradH| < 1e-12, in plain floats with a
    2x2 Cramer step; raises :class:`ValueError` for a guess that is not
    finite, :class:`DegenerateHessian` when the Hessian determinant drops
    below 1e-10 and :class:`NoConvergence` at an iterate where H, gradH or
    hessH is not finite and after 50 steps.  Each iterate walks u once, so
    the converged walk supplies K too."""
    x, y = map(float, guess)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("guess must be finite")
    for _ in range(NEWTON_MAX_ITER):
        c = _derivatives(s, x, y)
        H, K = _curvatures(c)
        if not all(map(math.isfinite, H)):
            raise NoConvergence(
                f"H or its derivatives not finite at Newton iterate {(x, y)}")
        _, gx, gy, hxx, hxy, hyy = H
        if math.hypot(gx, gy) < NEWTON_TOL:
            _check_inside(s, x, y)
            data = _curvature_data(x, y, c, H, K)
            if not data.nondegenerate:
                raise DegenerateHessian(f"critical point at {(x, y)} "
                                        f"has |det hessH| <= {DEGENERACY_TOL}")
            return data
        if abs(hxx * hyy - hxy * hxy) < DEGENERACY_TOL:
            raise DegenerateHessian(f"Hessian of H nearly singular at {(x, y)}")
        dx, dy = _solve(hxx, hxy, hyy, gx, gy)
        x, y = x - dx, y - dy
        if not s.contains(x, y):
            raise NoConvergence(f"Newton iterate left the domain: {(x, y)}")
    raise NoConvergence(f"no critical point within {NEWTON_MAX_ITER} Newton steps")


# c2_K / |c1| of the verified expansion (variational.assemble_expansion):
# Willmore (pi/2) / pi = 1/2 and CMC (pi/12) / (pi/4) = 1/3.  The centre of
# the reduced functional's critical point moves by lambda times this factor
# times hessH^-1 gradK
_CASE_FACTOR = {"willmore": Fraction(1, 2), "cmc": Fraction(1, 3)}


def foliation_criterion(data: CurvatureData, case: str) -> FoliationVerdict:
    """Scaled criterion vector (1/2 Willmore, 1/3 CMC applied to
    hessH^{-1} gradK), the rigorous coordinate-norm bracket, and the
    verdict.  Inconclusive when the bracket straddles 1."""
    factor = float(_CASE_FACTOR[case.lower()])
    if not data.nondegenerate:
        raise DegenerateHessian("foliation criterion needs a nondegenerate critical point")
    (hxx, hxy), (_, hyy) = data.hessH.tolist()
    v = factor * np.array(_solve(hxx, hxy, hyy, *data.gradK.tolist()))
    lower = float(np.linalg.norm(v))
    du = data.grad_u
    upper = lower * math.sqrt(1.0 + float(du @ du))
    induced = math.sqrt(float(v @ v) + float(v @ du) ** 2)
    verdict = ("Foliates" if upper < 1.0 else
               "DoesNotFoliate" if lower > 1.0 else "Inconclusive")
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
