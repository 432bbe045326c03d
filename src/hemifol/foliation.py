"""Executable leaf families phi_lambda(omega) = lambda v e1 + lambda omega
+ lambda^2 f[lambda, omega]: ray intersections, pairwise leaf disjointness,
coverage of a deleted neighborhood, and the v < 1 / v > 1 dichotomy.

Inside/outside queries reflect the leaf across the boundary plane z = 0 to
a closed surface, the reflection device of the abstract foliation
argument, and decide against it exactly: the doubled leaf is a radial graph
about its base center, so the signed radial gap of a point (its distance
from that center minus the leaf's along the same ray, found by the
ray-intersection fixed point) is negative exactly inside.  Two leaves meet
when that gap, taken over the points of the smaller leaf, changes sign.
Smoothness of the leaf map is not certified, only injectivity, monotonicity
and coverage; reports say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex

__all__ = [
    "LeafFamily", "RayIntersection", "PairResult", "FoliationReport",
    "NoIntersection", "NoConvergence", "InconclusiveOverlap",
    "ray_intersect", "leaves_intersect", "foliation_report",
    "load_family_file",
]

SMOOTHNESS_NOTE = ("leaf-map smoothness is not certified numerically; "
                   "this report checks injectivity, ray monotonicity and "
                   "coverage only")

RAY_TOL = 1e-12
RAY_MAX_ITER = 200
E1 = np.array([1.0, 0.0, 0.0])


class NoIntersection(Exception):
    pass


class NoConvergence(Exception):
    pass


class InconclusiveOverlap(Exception):
    """The radial gap between two leaves is within its computed error, so
    whether they touch or cross cannot be decided numerically."""


class LeafFamily:
    """Family of perturbed hemispheres with speed v >= 0 and smooth
    second-order perturbation f given by three expressions in
    lambda, w1, w2, w3 with f3 = 0 on the equator.

    ``c_bound`` is the sampled sup of |f| + |Df|; ``lambda_max * c_bound``
    must be below 1.  With g = lambda f that gives |g| + |Dg| < 1, so every
    leaf is transverse to each ray from its base center lambda v e1 and the
    doubled leaf is a radial graph about it, as the inside test assumes."""

    def __init__(self, v: float, f_exprs=(ex.ZERO, ex.ZERO, ex.ZERO),
                 lambda_max: float = 0.1):
        if v < 0:
            raise ValueError("v must be non-negative")
        if lambda_max <= 0:
            raise ValueError("lambda_max must be positive")
        self.v = float(v)
        self.f_exprs = tuple(f_exprs)
        self.lambda_max = float(lambda_max)
        # row-major: _df[3 i + j] = d f_i / d w_j
        self._df = tuple(ex.diff(c, w) for c in self.f_exprs
                         for w in ("w1", "w2", "w3"))
        self._check_boundary_condition()
        self.c_bound = self._estimate_bound()
        if self.lambda_max * self.c_bound >= 1:
            raise ValueError("lambda_max * sup(|f| + |Df|) must be below 1")

    def _check_boundary_condition(self):
        phi = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        for lam in np.linspace(0.0, self.lambda_max, 5):
            vals = ex.evaluate(self.f_exprs[2], {
                "lambda": np.full_like(phi, lam),
                "w1": np.cos(phi), "w2": np.sin(phi),
                "w3": np.zeros_like(phi)})
            if np.max(np.abs(np.asarray(vals, dtype=float))) > 1e-12:
                raise ValueError("f3 must vanish on the equator")

    def _estimate_bound(self):
        t = np.linspace(0.0, 1.0, 12)
        phi = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)
        tt, pp = np.meshgrid(t, phi, indexing="ij")
        s = np.sqrt(np.clip(1 - tt ** 2, 0.0, None))
        b = {"w1": (s * np.cos(pp)).ravel(), "w2": (s * np.sin(pp)).ravel(),
             "w3": tt.ravel()}
        sup = 0.0
        for lam in np.linspace(0.0, self.lambda_max, 4):
            bl = dict(b, **{"lambda": np.full_like(b["w3"], lam)})
            zero = np.zeros_like(b["w3"])
            sq = [np.broadcast_to(np.asarray(val, dtype=float), zero.shape) ** 2
                  for val in ex.evaluate(self.f_exprs + self._df, bl)]
            sup = max(sup, float(np.max(np.sqrt(sum(sq[:3], zero))
                                        + np.sqrt(sum(sq[3:], zero)))))
        return sup

    def f(self, lam, omega):
        """Perturbation at points omega (shape (..., 3)) -> same shape."""
        omega = np.asarray(omega, dtype=float)
        b = {"lambda": np.broadcast_to(lam, omega[..., 0].shape),
             "w1": omega[..., 0], "w2": omega[..., 1], "w3": omega[..., 2]}
        out = np.empty_like(omega)
        for i, val in enumerate(ex.evaluate(self.f_exprs, b)):
            out[..., i] = val
        return out

    def jacobian_f(self, lam, omega):
        """df/domega at points omega (..., 3) -> (..., 3, 3)."""
        omega = np.asarray(omega, dtype=float)
        b = {"lambda": np.broadcast_to(lam, omega[..., 0].shape),
             "w1": omega[..., 0], "w2": omega[..., 1], "w3": omega[..., 2]}
        out = np.empty(omega.shape[:-1] + (9,))
        for k, val in enumerate(ex.evaluate(self._df, b)):
            out[..., k] = val
        return out.reshape(omega.shape[:-1] + (3, 3))

    def leaf(self, lam, omega):
        """phi_lambda(omega) for points omega (..., 3)."""
        omega = np.asarray(omega, dtype=float)
        return lam * self.v * E1 + lam * omega + lam ** 2 * self.f(lam, omega)


@dataclass(frozen=True)
class RayIntersection:
    t: float
    omega: np.ndarray
    residual: float


@dataclass(frozen=True)
class PairResult:
    lambda1: float
    lambda2: float
    intersects: bool
    min_distance: float            # smallest radial gap; 0.0 for a crossing
    witness: tuple | None          # (point on leaf 1, point on leaf 2) at a crossing
    method: str                    # 'interior' (crossing) | 'disjoint'


@dataclass
class FoliationReport:
    verdict: str                   # 'Foliates' | 'Overlaps'
    witness_pair: tuple | None
    pair_results: list
    monotone: bool
    monotone_witness: tuple | None
    coverage: list
    note: str = SMOOTHNESS_NOTE


# ---------------------------------------------------------------------------
# ray fixed point, the radial gap and the inside/outside test
# ---------------------------------------------------------------------------

def _ray_fixed_point(fam: LeafFamily, lam: float, origin, theta0):
    """Coupled fixed point (t, omega) of origin + t theta0 = phi_lam(omega)
    for unit directions ``theta0`` of shape (..., 3): t from the quadratic
    |origin + t theta0 - center|^2 = lambda^2 (larger root) with center =
    lambda v e1 + lambda^2 f(lambda, omega), omega by renormalizing the
    pullback; contraction for small lambda.  Iterates until the largest step
    over all directions is below ``RAY_TOL``."""
    omega = theta0.copy()
    t_val = lam
    shift = lam * fam.v * E1 - origin
    for _ in range(RAY_MAX_ITER):
        rel = shift + lam ** 2 * fam.f(lam, omega)
        b = (theta0 * rel).sum(axis=-1)
        disc = b * b - (rel * rel).sum(axis=-1) + lam ** 2
        if disc.min() < 0:
            raise NoIntersection(
                f"ray misses the leaf (discriminant {disc.min():.3e})")
        t_new = b + np.sqrt(disc)
        # |om_raw| = 1 up to rounding, by the choice of t_new
        om_raw = (t_new[..., None] * theta0 - rel) / lam
        om_new = om_raw / np.sqrt((om_raw * om_raw).sum(axis=-1, keepdims=True))
        step = om_new - omega
        delta = abs(t_new - t_val) + np.sqrt((step * step).sum(axis=-1))
        t_val, omega = t_new, om_new
        if delta.max() < RAY_TOL:
            return t_val, omega
    raise NoConvergence(f"fixed point not contracting after {RAY_MAX_ITER} iterations")


def ray_intersect(fam: LeafFamily, lam: float, theta0) -> RayIntersection:
    """Unique intersection t(lambda, theta0) theta0 of the ray R+ theta0
    from the origin with the leaf, by the fixed point of
    :func:`_ray_fixed_point`."""
    if not 0 < lam <= fam.lambda_max:
        raise ValueError("lambda must lie in (0, lambda_max]")
    theta0 = np.asarray(theta0, dtype=float)
    theta0 = theta0 / np.linalg.norm(theta0)
    t_val, omega = _ray_fixed_point(fam, lam, np.zeros(3), theta0)
    t_val = float(t_val)
    if t_val < 0:
        raise NoIntersection("leaf lies behind the ray origin")
    if omega[2] < -1e-9:
        raise NoIntersection("intersection lies below the boundary plane")
    residual = float(np.linalg.norm(t_val * theta0 - fam.leaf(lam, omega)))
    return RayIntersection(t_val, omega, residual)


def _radial_gap(fam: LeafFamily, lam: float, points):
    """Signed radial gap of points (..., 3) to the leaf doubled by reflection
    across z = 0: each point, reflected to z >= 0, has its distance from the
    base center lambda v e1 less the leaf's distance from that center along
    the same ray.  The doubled leaf is a radial graph about the center (see
    :class:`LeafFamily`), so the gap is negative exactly inside it.  Returns
    the gap and the leaf's point on each ray."""
    base = lam * fam.v * E1
    d = np.concatenate((points[..., :2], np.abs(points[..., 2:])), axis=-1) - base
    r = np.linalg.norm(d, axis=-1)
    # the center itself is inside along any ray
    u = np.where(r[..., None] > 0, d, [0.0, 0.0, 1.0])
    u = u / np.linalg.norm(u, axis=-1, keepdims=True)
    t_val, _ = _ray_fixed_point(fam, lam, base, u)
    return r - t_val, base + t_val[..., None] * u


def point_inside_leaf(fam: LeafFamily, lam: float, point) -> bool:
    """Inside the leaf doubled by reflection across z = 0: the radial gap of
    :func:`_radial_gap` at one point is negative."""
    return bool(_radial_gap(fam, lam, np.asarray(point, dtype=float))[0] < 0)


# ---------------------------------------------------------------------------
# pairwise leaf intersection
# ---------------------------------------------------------------------------

# polar angle and azimuth of the grid on which leaves_intersect first
# evaluates the gap; both spacings are pi/32
_THETA = np.linspace(0.0, np.pi / 2, 17)
_PHI = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
_STENCIL = np.arange(-2.0, 3.0)
_FINEST_STEP = 1e-6
_SECTIONS = np.linspace(0.0, 1.0, 17)[:, None]


def _half_sphere(theta, phi):
    s = np.sin(theta)
    return np.stack([s * np.cos(phi), s * np.sin(phi), np.cos(theta)], axis=-1)


def leaves_intersect(fam: LeafFamily, lam1: float, lam2: float) -> PairResult:
    """Decide im(phi_{lam1}) intersect im(phi_{lam2}) by the sign of the
    radial gap g (:func:`_radial_gap`) of leaf lam1's points to leaf lam2.

    g is evaluated on a 17 x 64 (theta, phi) grid of the half-sphere.  With
    no sign change there, a 5 x 5 stencil around the node of smallest |g|
    moves that node, its spacing halving from pi/32 to 1e-6.  The error of
    g is the change of the smallest |g| over the last halving plus
    ``RAY_TOL``.  Values of both signs beyond the error mean a crossing,
    found by sectioning the parameter segment between the most negative and
    the most positive value.  Otherwise the pair is disjoint with
    ``min_distance`` the smallest |g|, unless that is within the error,
    which raises :class:`InconclusiveOverlap`.

    The points are taken on the smaller leaf: a constructed v > 1 pair's
    small leaf straddles the large one, while the crossing region on the
    large leaf is only about (v - 1)/v radians wide."""
    if not 0 < lam1 < lam2 <= fam.lambda_max:
        raise ValueError("need 0 < lambda1 < lambda2 <= lambda_max")

    def gap(theta, phi):
        p = fam.leaf(lam1, _half_sphere(theta, phi))
        return _radial_gap(fam, lam2, p) + (p,)

    theta, phi = np.meshgrid(_THETA, _PHI, indexing="ij")
    g = gap(theta, phi)[0]
    k = int(np.argmin(np.abs(g)))
    err, step = RAY_TOL, _THETA[1]
    while g.min() >= -err or g.max() <= err:
        low = abs(g.flat[k])
        if step < _FINEST_STEP:
            if low <= err:
                raise InconclusiveOverlap(
                    f"radial gap {low:.3e} within its error {err:.3e}")
            return PairResult(lam1, lam2, False, float(low), None, "disjoint")
        theta, phi = np.meshgrid(
            np.clip(theta.flat[k] + step * _STENCIL, 0.0, np.pi / 2),
            phi.flat[k] + step * _STENCIL, indexing="ij")
        g = gap(theta, phi)[0]
        k = int(np.argmin(np.abs(g)))
        err = abs(abs(g.flat[k]) - low) + RAY_TOL
        step /= 2
    # g < 0 at a and g >= 0 at b; 13 sections of 16 shrink [a, b] to about
    # the float spacing of the parameters
    nodes = np.stack([theta.ravel(), phi.ravel()], axis=-1)
    a, b = nodes[np.argmin(g)], nodes[np.argmax(g)]
    for _ in range(13):
        ab = a + _SECTIONS * (b - a)
        g, q, p = gap(ab[:, 0], ab[:, 1])
        g[0], g[-1] = -1.0, 1.0
        j = int(np.argmax(g >= 0))
        a, b = ab[j - 1], ab[j]
    return PairResult(lam1, lam2, True, 0.0, (p[j], q[j]), "interior")


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------

def _theta_grid():
    out = [np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]),
           np.array([-1.0, 0.0, 0.0])]
    for tz in (0.2, 0.5, 0.8):
        s = math.sqrt(1 - tz * tz)
        for ang in np.linspace(0.0, 2 * np.pi, 8, endpoint=False):
            out.append(np.array([s * math.cos(ang), s * math.sin(ang), tz]))
    return out


def foliation_report(fam: LeafFamily, lambda_grid, sample_points=()) -> FoliationReport:
    """Verdict 'Foliates' when consecutive-and-skip leaf pairs are disjoint,
    t(lambda, theta0) is strictly increasing on a ray grid, and every sample
    point is hit by exactly one leaf (bisection through the monotone ray
    map); otherwise 'Overlaps' with a witness.  For v > 1 the constructed
    pairs (lambda1, lambda1 * v/(v-1)) are tested first so the witness
    realizes the eps = lambda1/(v-1) construction."""
    lam = sorted(float(x) for x in lambda_grid)
    if not lam or lam[0] <= 0 or lam[-1] > fam.lambda_max:
        raise ValueError("lambda grid must lie in (0, lambda_max]")

    pairs = []
    if fam.v > 1.0:
        # eps = lambda1/(v-1), i.e. lambda2 = lambda1 * v/(v-1); take grid
        # starts when they fit under lambda_max and one constructed start
        # otherwise
        ratio = fam.v / (fam.v - 1.0)
        feasible = [l1 for l1 in lam if l1 * ratio <= fam.lambda_max]
        if not feasible:
            # for constant f1, leaves a < b cross iff v + f1 (lambda_a +
            # lambda_b) > 1, which lambda2 <= (v - 1)/(2 |f1|) meets; the
            # factor 4 leaves another 2 for curved f
            l2 = 0.9 * fam.lambda_max
            if fam.c_bound > 0:
                l2 = min(l2, (fam.v - 1.0) / (4.0 * fam.c_bound))
            feasible = [l2 / ratio]
        for l1 in feasible:
            pairs.append((l1, l1 * ratio))
    pairs += [(lam[i], lam[i + 1]) for i in range(len(lam) - 1)]
    pairs += [(lam[i], lam[i + 2]) for i in range(len(lam) - 2)]

    pair_results = []
    witness_pair = None
    for l1, l2 in pairs:
        res = leaves_intersect(fam, l1, l2)
        pair_results.append(res)
        if res.intersects and witness_pair is None:
            witness_pair = (l1, l2, res)

    monotone = True
    mono_witness = None
    for theta0 in _theta_grid():
        try:
            ts = [ray_intersect(fam, l, theta0).t for l in lam]
        except NoIntersection:
            continue
        diffs = np.diff(ts)
        if np.any(diffs <= 0):
            monotone = False
            k = int(np.argmax(diffs <= 0))
            mono_witness = (theta0, lam[k], lam[k + 1])
            break

    coverage = []
    for p in sample_points:
        p = np.asarray(p, dtype=float)
        r = float(np.linalg.norm(p))
        theta0 = p / r
        try:
            t_lo = ray_intersect(fam, lam[0], theta0).t
            t_hi = ray_intersect(fam, lam[-1], theta0).t
        except NoIntersection:
            coverage.append({"point": p, "lambda": None, "hits": 0,
                             "status": "ray-misses"})
            continue
        if not t_lo <= r <= t_hi:
            coverage.append({"point": p, "lambda": None, "hits": 0,
                             "status": "not-covered"})
            continue
        lo, hi = lam[0], lam[-1]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if ray_intersect(fam, mid, theta0).t < r:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-14:
                break
        lam_star = 0.5 * (lo + hi)
        resid = abs(ray_intersect(fam, lam_star, theta0).t - r)
        coverage.append({"point": p, "lambda": lam_star,
                         "hits": 1 if resid < 1e-8 else 0,
                         "status": "unique" if resid < 1e-8 else "ambiguous"})

    covered = all(c["hits"] == 1 for c in coverage)
    if witness_pair is None and monotone and covered:
        verdict = "Foliates"
    else:
        verdict = "Overlaps"
    return FoliationReport(
        verdict=verdict,
        witness_pair=witness_pair,
        pair_results=pair_results,
        monotone=monotone,
        monotone_witness=mono_witness,
        coverage=coverage,
    )


def load_family_file(path) -> tuple[LeafFamily, dict]:
    """Family description file: lines ``v = <real>``, ``f1|f2|f3 = <expr in
    lambda, w1, w2, w3>``, ``lambda_max = <real>``."""
    v = None
    lam_max = None
    fs = {"f1": ex.ZERO, "f2": ex.ZERO, "f3": ex.ZERO}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key == "v":
                v = float(val)
            elif key == "lambda_max":
                lam_max = float(val)
            elif key in fs:
                fs[key] = ex.parse(val)
            else:
                raise ValueError(f"unrecognized family-file key {key!r}")
    if v is None or lam_max is None:
        raise ValueError("family file needs 'v' and 'lambda_max'")
    fam = LeafFamily(v, (fs["f1"], fs["f2"], fs["f3"]), lam_max)
    return fam, {"v": v, "lambda_max": lam_max}
