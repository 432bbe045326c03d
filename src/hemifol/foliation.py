"""Executable leaf families phi_lambda(omega) = lambda v e1 + lambda omega
+ lambda^2 f[lambda, omega]: ray intersections, pairwise leaf disjointness,
coverage of a deleted neighborhood, and the v < 1 / v > 1 dichotomy.

Inside/outside queries reflect the leaf across the boundary plane z = 0 to
a closed surface, the reflection device of the abstract foliation
argument, and decide against it exactly: the doubled leaf is a radial graph
about its base center, so a point is inside when it is nearer that center
than the leaf along the same ray, found by the ray-intersection fixed
point.  Smoothness of the leaf map is not certified, only injectivity,
monotonicity and coverage; reports say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

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

CONTACT_TOL = 1e-9
INCONCLUSIVE_TOL = 1e-6
RAY_TOL = 1e-12
RAY_MAX_ITER = 200
E1 = np.array([1.0, 0.0, 0.0])


class NoIntersection(Exception):
    pass


class NoConvergence(Exception):
    pass


class InconclusiveOverlap(Exception):
    """Minimum leaf distance falls in the tangency band [1e-9, 1e-6] where
    intersection cannot be certified numerically; refine the grid."""


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
    min_distance: float
    witness: tuple | None          # (point on leaf 1-ish, point on leaf 2) or None
    method: str                    # 'distance' | 'interior' | 'disjoint'


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
# ray fixed point: ray intersections and the inside/outside test
# ---------------------------------------------------------------------------

def _ray_fixed_point(fam: LeafFamily, lam: float, origin, theta0):
    """Coupled fixed point (t, omega) of origin + t theta0 = phi_lam(omega):
    t from the quadratic |origin + t theta0 - center|^2 = lambda^2
    (larger root) with center = lambda v e1 + lambda^2 f(lambda, omega),
    omega by renormalizing the pullback; contraction for small lambda.
    ``theta0`` is a unit vector."""
    omega = theta0.copy()
    t_val = lam
    for _ in range(RAY_MAX_ITER):
        rel = lam * fam.v * E1 + lam ** 2 * fam.f(lam, omega) - origin
        b = float(theta0 @ rel)
        c = float(rel @ rel) - lam ** 2
        disc = b * b - c
        if disc < 0:
            raise NoIntersection(
                f"ray misses the leaf (discriminant {disc:.3e})")
        t_new = b + math.sqrt(disc)
        om_raw = (t_new * theta0 - rel) / lam
        nrm = np.linalg.norm(om_raw)
        if nrm == 0:
            raise NoConvergence("degenerate pullback")
        om_new = om_raw / nrm
        delta = abs(t_new - t_val) + float(np.linalg.norm(om_new - omega))
        t_val, omega = t_new, om_new
        if delta < RAY_TOL:
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
    if t_val < 0:
        raise NoIntersection("leaf lies behind the ray origin")
    if omega[2] < -1e-9:
        raise NoIntersection("intersection lies below the boundary plane")
    residual = float(np.linalg.norm(t_val * theta0 - fam.leaf(lam, omega)))
    return RayIntersection(t_val, omega, residual)


def point_inside_leaf(fam: LeafFamily, lam: float, point) -> bool:
    """Inside the leaf doubled by reflection across z = 0: reflect the point
    to z >= 0 and compare its distance from the base center lambda v e1 with
    the leaf's along the same ray.  The doubled leaf is a radial graph about
    that center (see :class:`LeafFamily`), so this decides exactly."""
    point = np.asarray(point, dtype=float)
    base = lam * fam.v * E1
    d = np.array([point[0], point[1], abs(point[2])]) - base
    r = float(np.linalg.norm(d))
    if r == 0:
        return True
    t_val, _ = _ray_fixed_point(fam, lam, base, d / r)
    return r < t_val


# ---------------------------------------------------------------------------
# pairwise leaf intersection
# ---------------------------------------------------------------------------

def _sphere_grid(n: int):
    t = np.linspace(0.0, 1.0, n)
    phi = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    tt, pp = np.meshgrid(t, phi, indexing="ij")
    s = np.sqrt(np.clip(1.0 - tt ** 2, 0.0, None))
    return np.stack([s * np.cos(pp), s * np.sin(pp), tt], axis=-1).reshape(-1, 3)


_SEED_GRID = _sphere_grid(32)
_DESCENT_STEPS = 50


def _nearest_pair(p1, p2):
    """First (i, j) in row-major order minimizing |p1[i] - p2[j]|^2, as
    ``np.argmin`` over the all-pairs array would pick it, found with k-d
    trees: the nearest distance r bounds a ball query, and the pairs within
    r (1 + 1e-9) are scored again with the all-pairs expression."""
    tree1, tree2 = cKDTree(p1), cKDTree(p2)
    r = float(np.min(tree1.query(p2)[0]))
    near = tree1.query_ball_tree(tree2, r * (1.0 + 1e-9))
    i = np.repeat(np.arange(len(near)), [len(js) for js in near])
    j = np.fromiter((jj for js in near for jj in js), dtype=np.intp, count=len(i))
    d2 = np.sum((p1[i] - p2[j]) ** 2, axis=-1)
    best = d2 == d2.min()
    return min(zip(i[best].tolist(), j[best].tolist()))


def _min_distance(fam: LeafFamily, lam1: float, lam2: float):
    """Minimum distance between two leaves and a witness pair of points, by
    projected gradient descent on the squared distance from a seed pair;
    deterministic.

    The seed is the nearest pair of leaf points over a 32 x 32 grid of the
    half-sphere (:func:`_nearest_pair`).  The tie-break is explicit because
    exact ties occur: the grid's t = 1 row holds 32 copies of the pole, and
    symmetric families can give mirror pairs at equal distance.  The first pair
    in row-major order is the one a dense ``argmin`` picks, so the seed, and
    with it the descent's result, does not depend on the trees' order."""
    i, j = _nearest_pair(fam.leaf(lam1, _SEED_GRID), fam.leaf(lam2, _SEED_GRID))
    om1, om2 = _SEED_GRID[i].copy(), _SEED_GRID[j].copy()

    def project(g, om):
        g = g - (g @ om) * om
        return g

    def tangent_step(om, g, size):
        cand = om - size * g
        cand = cand / np.linalg.norm(cand)
        if cand[2] < 0.0:
            cand = cand.copy()
            cand[2] = 0.0
            cand = cand / np.linalg.norm(cand)
        return cand

    x1, x2 = fam.leaf(lam1, om1), fam.leaf(lam2, om2)
    cur = float(np.linalg.norm(x1 - x2))
    step = 0.1
    for _ in range(_DESCENT_STEPS):
        diff = x1 - x2
        j1 = lam1 * (np.eye(3) + lam1 * fam.jacobian_f(lam1, om1))
        j2 = lam2 * (np.eye(3) + lam2 * fam.jacobian_f(lam2, om2))
        g1 = project(2.0 * diff @ j1, om1)
        g2 = project(-2.0 * diff @ j2, om2)
        norm = math.sqrt(float(g1 @ g1 + g2 @ g2))
        if norm < 1e-16:
            break
        improved = False
        for _ in range(30):
            c1 = tangent_step(om1, g1 / norm, step)
            c2 = tangent_step(om2, g2 / norm, step)
            y1, y2 = fam.leaf(lam1, c1), fam.leaf(lam2, c2)
            val = float(np.linalg.norm(y1 - y2))
            if val < cur:
                om1, om2, x1, x2, cur = c1, c2, y1, y2, val
                improved = True
                break
            step *= 0.5
        if not improved or step < 1e-14:
            break
    return cur, (x1, x2)


def _interior_crossing(fam: LeafFamily, lam1: float, lam2: float):
    """Interior test: phi_{lam2}(-e1) strictly inside the region bounded by
    leaf lam1 while phi_{lam2}(+e1) is outside forces a crossing along any
    connecting curve; returns the crossing point or None."""
    p_minus = fam.leaf(lam2, np.array([-1.0, 0.0, 0.0]))
    p_plus = fam.leaf(lam2, np.array([1.0, 0.0, 0.0]))
    if not (point_inside_leaf(fam, lam1, p_minus)
            and not point_inside_leaf(fam, lam1, p_plus)):
        return None
    # bisection along the equator path gamma(s) from -e1 to +e1 on leaf lam2
    def gamma(s):
        ang = math.pi * (1.0 - s)
        return np.array([math.cos(ang), math.sin(ang), 0.0])

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if point_inside_leaf(fam, lam1, fam.leaf(lam2, gamma(mid))):
            lo = mid
        else:
            hi = mid
    crossing = fam.leaf(lam2, gamma(0.5 * (lo + hi)))
    return crossing


def leaves_intersect(fam: LeafFamily, lam1: float, lam2: float) -> PairResult:
    """Decide im(phi_{lam1}) intersect im(phi_{lam2}): near-contact by
    minimum distance below 1e-9, or the interior test firing; distances in
    [1e-9, 1e-6] raise :class:`InconclusiveOverlap`."""
    if not 0 < lam1 < lam2 <= fam.lambda_max:
        raise ValueError("need 0 < lambda1 < lambda2 <= lambda_max")
    dist, witness = _min_distance(fam, lam1, lam2)
    if dist < CONTACT_TOL:
        return PairResult(lam1, lam2, True, dist, witness, "distance")
    crossing = _interior_crossing(fam, lam1, lam2)
    if crossing is not None:
        return PairResult(lam1, lam2, True, dist,
                          (crossing, crossing), "interior")
    if dist <= INCONCLUSIVE_TOL:
        raise InconclusiveOverlap(
            f"minimum leaf distance {dist:.3e} in the tangency band; "
            "grid refinement advised")
    return PairResult(lam1, lam2, False, dist, None, "disjoint")


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
        # starts when they fit under lambda_max and one guaranteed-feasible
        # start otherwise
        ratio = fam.v / (fam.v - 1.0)
        feasible = [l1 for l1 in lam if l1 * ratio <= fam.lambda_max]
        if not feasible:
            feasible = [0.9 * fam.lambda_max / ratio]
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
