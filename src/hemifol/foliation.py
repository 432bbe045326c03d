"""Executable leaf families phi_lambda(omega) = lambda v e1 + lambda omega
+ lambda^2 f[lambda, omega]: ray intersections, pairwise leaf disjointness,
coverage of a deleted neighborhood, and the v < 1 / v > 1 dichotomy.

Inside/outside queries reflect the leaf across the boundary plane z = 0 to
a closed surface, the reflection device of the abstract foliation
argument, and decide against it exactly: the doubled leaf is a radial graph
about its base center lambda v e1 (:meth:`LeafFamily.center`), so the
signed radial gap r - t of a point, r its distance from that center and t
the leaf's along the ray from the center through it, is negative exactly
inside.  Two leaves meet when that gap, taken over the points of the
smaller leaf, changes sign.  Smoothness of the leaf map is not certified,
only injectivity, monotonicity and coverage; reports say so.

Every request is a set of rays from an origin (0, or a leaf's center) to
one leaf, answered by one vectorised fixed point, :func:`_fixed_points`,
in which each request iterates until its own step is below ``RAY_TOL``.
The pair test and the coverage bisection are generators that yield
requests; :func:`_lockstep` drives many of them at once, evaluating the
pending requests of all in one batch, so a report pays numpy's per-call
overhead once per round instead of once per pair or ray.  Results and
errors are those of running the generators one after another.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import expr as ex
from . import quadrature as hq
from . import sphere

__all__ = [
    "LeafFamily", "RayIntersection", "PairResult", "FoliationReport",
    "NoIntersection", "NoConvergence", "InconclusiveOverlap",
    "ray_intersect", "ray_outcomes", "point_inside_leaf", "leaves_intersect",
    "checked_lambda_grid", "midway_samples", "foliation_report",
    "load_family_file",
]

SMOOTHNESS_NOTE = ("leaf-map smoothness is not certified numerically; "
                   "this report checks injectivity, ray monotonicity and "
                   "coverage only")

RAY_TOL = 1e-12
RAY_MAX_ITER = 200
# leaf points lie within lambda_max (2 + v) of the origin (base center
# lambda v e1, radius lambda, lambda^2 |f| < lambda); the fixed points and
# distances add squares of such coordinates, which must stay finite; below
# SCALE_MIN those squares leave the normal doubles
SCALE_MAX = 1e150
SCALE_MIN = 1e-150
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
    leaf is transverse to each ray from its base center (:meth:`center`)
    and the doubled leaf is a radial graph about it, as the inside test
    assumes."""

    def __init__(self, v: float, f_exprs=(ex.ZERO, ex.ZERO, ex.ZERO),
                 lambda_max: float = 0.1):
        if not (math.isfinite(v) and math.isfinite(lambda_max)):
            raise ValueError("v and lambda_max must be finite")
        if v < 0:
            raise ValueError("v must be non-negative")
        if lambda_max <= 0:
            raise ValueError("lambda_max must be positive")
        if lambda_max * (2.0 + v) > SCALE_MAX:
            raise ValueError(f"lambda_max * (2 + v) must be at most {SCALE_MAX:g}")
        self.v = float(v)
        self.f_exprs = tuple(f_exprs)
        self.lambda_max = float(lambda_max)
        # row-major: _df[3 i + j] = d f_i / d w_j
        self._df = tuple(ex.diff(c, w) for c in self.f_exprs
                         for w in ("w1", "w2", "w3"))
        self._check_boundary_condition()
        self.c_bound = self._estimate_bound()
        if not self.lambda_max * self.c_bound < 1:
            raise ValueError("lambda_max * sup(|f| + |Df|) must be below 1")

    # both checks bind lambda as a column against a row of points, so one
    # walk covers every lambda; a NaN fails them
    def _check_boundary_condition(self):
        lam = np.linspace(0.0, self.lambda_max, 5)[:, None]
        vals = ex.evaluate(self.f_exprs[2], {**hq.equator_rule(64).bindings, "lambda": lam})
        if not np.max(np.abs(np.asarray(vals, dtype=float))) <= 1e-12:
            raise ValueError("f3 must vanish on the equator")

    def _estimate_bound(self):
        t = np.linspace(0.0, 1.0, 12)
        phi = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)
        tt, pp = np.meshgrid(t, phi, indexing="ij")
        lam = np.linspace(0.0, self.lambda_max, 4)[:, None]
        w = sphere.omega_values(tt.ravel(), pp.ravel())
        b = {"lambda": lam, "w1": w[0], "w2": w[1], "w3": w[2]}
        zero = np.zeros((lam.size, tt.size))
        sq = [np.broadcast_to(np.asarray(val, dtype=float), zero.shape) ** 2
              for val in ex.evaluate(self.f_exprs + self._df, b)]
        return float(np.max(np.sqrt(sum(sq[:3], zero)) + np.sqrt(sum(sq[3:], zero))))

    def f(self, lam, omega):
        """Perturbation at points omega (shape (..., 3)) -> same shape."""
        omega = np.asarray(omega, dtype=float)
        b = {"lambda": np.broadcast_to(lam, omega[..., 0].shape),
             "w1": omega[..., 0], "w2": omega[..., 1], "w3": omega[..., 2]}
        out = np.empty_like(omega)
        for i, val in enumerate(ex.evaluate(self.f_exprs, b)):
            out[..., i] = val
        return out

    def center(self, lam):
        """Base center lambda v e1 of leaf ``lam``: shape (3,) for a scalar
        lambda, one row per lambda for an array."""
        return np.multiply.outer(np.asarray(lam, dtype=float) * self.v, E1)

    def leaf(self, lam, omega):
        """phi_lambda(omega) for points omega (..., 3)."""
        omega = np.asarray(omega, dtype=float)
        return self.center(lam) + lam * omega + lam ** 2 * self.f(lam, omega)


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

def _fixed_points(fam: LeafFamily, lam, shift, theta0, sizes):
    """Coupled fixed points (t, omega) of origin + t theta0 = phi_lam(omega)
    for many independent requests at once.  Request i has leaf ``lam[i]``,
    ``shift[i]`` = ``fam.center(lam[i])`` - origin and the next
    ``sizes[i]`` columns of the unit directions ``theta0`` (shape (3, N)).
    t comes from the quadratic |origin + t theta0 - c|^2 = lambda^2 (larger
    root) with c = ``fam.center(lambda)`` + lambda^2 f(lambda, omega),
    omega from renormalizing the pullback; contraction for small lambda.  Each request
    iterates until the largest step over its own directions is below
    ``RAY_TOL`` and then freezes, so its values do not depend on the rest
    of the batch.

    Vectors are stored one component per row, so that the sums over the
    three components run over contiguous rows, in the order x + y + z of a
    sum over the last axis of an (N, 3) array.  Returns t (N,), omega
    (3, N) and, per request, None or the :class:`NoIntersection` or
    :class:`NoConvergence` it met."""
    sizes = np.asarray(sizes)
    lam_p = np.repeat(np.asarray(lam, dtype=float), sizes)
    # lambda^2 of each request as the scalar code squares it: a numpy power
    # on an array may round differently
    sq = np.repeat(np.array([x ** 2 for x in lam], dtype=float), sizes)
    shift = np.repeat(np.asarray(shift, dtype=float).T, sizes, axis=1)
    t_out, om_out = np.empty(theta0.shape[1]), np.empty_like(theta0)
    errors = [None] * len(sizes)
    live, cols = np.arange(len(sizes)), np.arange(theta0.shape[1])
    omega, t_val = theta0, lam_p
    starts = np.cumsum(sizes) - sizes
    for _ in range(RAY_MAX_ITER):
        rel = shift + sq * fam.f(lam_p, omega.T).T
        b = (theta0 * rel).sum(axis=0)
        disc = b * b - (rel * rel).sum(axis=0) + sq
        low = np.minimum.reduceat(disc, starts)
        # |disc| = disc but on the columns of a missing request, which are
        # dropped below: disc = x + lambda^2 is never -0
        t_new = b + np.sqrt(np.abs(disc))
        # |om_raw| = 1 up to rounding, by the choice of t_new
        om_raw = (t_new * theta0 - rel) / lam_p
        om_new = om_raw / np.sqrt((om_raw * om_raw).sum(axis=0))
        step = om_new - omega
        delta = abs(t_new - t_val) + np.sqrt((step * step).sum(axis=0))
        t_val, omega = t_new, om_new
        miss = low < 0
        done = np.maximum.reduceat(delta, starts) < RAY_TOL
        stop = done | miss
        if stop.any():
            for i in np.flatnonzero(miss):
                errors[live[i]] = NoIntersection(
                    f"ray misses the leaf (discriminant {low[i]:.3e})")
            fin = np.repeat(done, sizes)
            t_out[cols[fin]], om_out[:, cols[fin]] = t_val[fin], omega[:, fin]
            if stop.all():
                return t_out, om_out, errors
            keep = np.repeat(~stop, sizes)
            live, sizes = live[~stop], sizes[~stop]
            starts = np.cumsum(sizes) - sizes
            cols, sq, lam_p, t_val = (x[keep] for x in (cols, sq, lam_p, t_val))
            theta0, shift, omega = (x[:, keep] for x in (theta0, shift, omega))
    for i in live:
        errors[i] = NoConvergence(
            f"fixed point not contracting after {RAY_MAX_ITER} iterations")
    return t_out, om_out, errors


def _radial(base, points):
    """Distance r from ``base`` of each point (one component per row)
    reflected to z >= 0, and the unit vector from ``base`` towards it (e3
    at ``base`` itself, which is inside along any ray)."""
    d = np.concatenate((points[:2], np.abs(points[2:]))) - base
    r = np.sqrt((d * d).sum(axis=0))
    u = np.where(r > 0, d, [[0.0], [0.0], [1.0]])
    return r, u / np.sqrt((u * u).sum(axis=0))


def _half_sphere(theta, phi):
    """Points of the unit half-sphere, one component per row."""
    s = np.sin(theta)
    return np.stack([s * np.cos(phi), s * np.sin(phi), np.cos(theta)])


def _unit(theta0):
    theta0 = np.asarray(theta0, dtype=float)
    return theta0 / np.linalg.norm(theta0)


# ---------------------------------------------------------------------------
# requests and the lockstep driver
# ---------------------------------------------------------------------------

class _Ray(NamedTuple):
    """Where the ray from ``origin`` (None: 0) along the unit vector
    ``theta0`` meets leaf ``lam``.  Reply: (t, omega)."""
    lam: float
    theta0: np.ndarray
    origin: np.ndarray | None = None

    def size(self):
        return 1


class _Gap(NamedTuple):
    """Signed radial gap to leaf ``lam`` of leaf ``lam1``'s points at polar
    angles ``theta`` and azimuths ``phi``, doubling leaf ``lam`` by
    reflection across z = 0: each point, reflected to z >= 0, has its
    distance r from the center of leaf ``lam`` less the distance t at which
    the ray from that center through it meets the leaf.  The doubled leaf
    is a radial graph about the center (see :class:`LeafFamily`), so r - t
    is negative exactly inside it.  Reply, flattened in C order: (gap, the
    leaf's point on each ray, the points)."""
    lam: float
    lam1: float
    theta: np.ndarray
    phi: np.ndarray

    def size(self):
        return self.theta.size


def _answer(fam: LeafFamily, reqs) -> list:
    """Replies to a batch of requests, in order, each a reply or the error
    the request's fixed point met; leaf points, gap set-up and fixed point
    are each one vectorised evaluation over the batch."""
    gaps = [i for i, r in enumerate(reqs) if isinstance(r, _Gap)]
    rays = [i for i, r in enumerate(reqs) if not isinstance(r, _Gap)]
    lam = [reqs[i].lam for i in gaps + rays]
    sizes = [reqs[i].size() for i in gaps + rays]
    center = fam.center(lam)
    # center - origin: zero for a gap, whose rays leave the center of its leaf
    shift = center.copy()
    shift[:len(gaps)] = 0.0
    for k, i in enumerate(rays, len(gaps)):
        if reqs[i].origin is not None:
            shift[k] -= reqs[i].origin
    dirs = [np.array([reqs[i].theta0 for i in rays]).reshape(-1, 3).T]
    if gaps:
        src = [reqs[i] for i in gaps]
        n = sizes[:len(gaps)]
        om = _half_sphere(np.concatenate([r.theta.ravel() for r in src]),
                          np.concatenate([r.phi.ravel() for r in src]))
        l1 = [r.lam1 for r in src]
        lp = np.repeat(l1, n)
        # LeafFamily.leaf, with lambda^2 formed per request
        points = (np.repeat(fam.center(l1).T, n, axis=1) + lp * om
                  + np.repeat([x ** 2 for x in l1], n) * fam.f(lp, om.T).T)
        base = np.repeat(center[:len(gaps)].T, n, axis=1)
        dist, u = _radial(base, points)
        dirs.insert(0, u)
    t_val, omega, errors = _fixed_points(fam, lam, shift,
                                         np.concatenate(dirs, axis=1), sizes)
    if gaps:
        n_gap = dist.size
        g, q = dist - t_val[:n_gap], base + t_val[:n_gap] * u
    out = [None] * len(reqs)
    a = 0
    for i, size, err in zip(gaps + rays, sizes, errors):
        b = a + size
        if err is not None:
            out[i] = err
        elif isinstance(reqs[i], _Gap):
            out[i] = (g[a:b], q[:, a:b].T, points[:, a:b].T)
        else:
            out[i] = (t_val[a], omega[:, a])
        a = b
    return out


def _answer_each(fam: LeafFamily, reqs) -> list:
    try:
        return _answer(fam, reqs)
    except ex.ExprError as err:
        # f's evaluation failed for some request of the batch; answering
        # one by one gives the error to that request alone
        if len(reqs) == 1:
            return [err]
        return [_answer_each(fam, [r])[0] for r in reqs]


# the errors a request or a generator can end with; each is kept and raised
# where the sequential computation would have raised it
_ERRORS = (NoIntersection, NoConvergence, InconclusiveOverlap, ValueError,
           ex.ExprError)


def _lockstep(fam: LeafFamily, gens) -> list:
    """Drive generators that yield :class:`_Ray` and :class:`_Gap` requests
    in lockstep.  Pending requests are served first come, first served, in
    batches of at most one leaf grid's worth of points; each generator is
    sent its reply, or has its request's error thrown into it.  Returns,
    per generator, its return value or the error that ended it."""
    out = [None] * len(gens)
    queue = deque()

    def advance(i, reply):
        try:
            if isinstance(reply, Exception):
                req = gens[i].throw(reply)
            else:
                req = gens[i].send(reply)
        except StopIteration as stop:
            out[i] = stop.value
        except _ERRORS as err:
            out[i] = err
        else:
            queue.append((i, req))

    for i in range(len(gens)):
        advance(i, None)
    while queue:
        batch = [queue.popleft()]
        n = batch[0][1].size()
        while queue:
            n += queue[0][1].size()
            if n > _BATCH_POINTS:
                break
            batch.append(queue.popleft())
        for (i, _), reply in zip(batch, _answer_each(fam, [r for _, r in batch])):
            advance(i, reply)
    return out


def _unwrap(outcome):
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _run(fam: LeafFamily, gen):
    """Return value of one generator driven alone."""
    return _unwrap(_lockstep(fam, [gen])[0])


def _reply(req):
    return (yield req)


def _ray(lam, theta0):
    """ray_intersect on a unit ``theta0`` as a generator: (t, omega)."""
    t_val, omega = yield _Ray(lam, theta0)
    t_val = float(t_val)
    if t_val < 0:
        raise NoIntersection("leaf lies behind the ray origin")
    if omega[2] < -1e-9:
        raise NoIntersection("intersection lies below the boundary plane")
    return t_val, omega


def _check_lambda(fam: LeafFamily, lam):
    if not 0 < lam <= fam.lambda_max:
        raise ValueError("lambda must lie in (0, lambda_max]")


def ray_intersect(fam: LeafFamily, lam: float, theta0) -> RayIntersection:
    """Unique intersection t(lambda, theta0) theta0 of the ray R+ theta0
    from the origin with the leaf, by the fixed point of
    :func:`_fixed_points`."""
    _check_lambda(fam, lam)
    theta0 = _unit(theta0)
    t_val, omega = _run(fam, _ray(lam, theta0))
    residual = float(np.linalg.norm(t_val * theta0 - fam.leaf(lam, omega)))
    return RayIntersection(t_val, omega, residual)


def ray_outcomes(fam: LeafFamily, rays) -> list:
    """t of many rays, answered in one lockstep run: per (lambda, theta0)
    of ``rays``, the ``ray_intersect(fam, lambda, theta0).t`` it would
    return, or the error it would raise, as a value."""
    def one(lam, theta0):
        _check_lambda(fam, lam)
        return (yield from _ray(lam, _unit(theta0)))[0]
    return _lockstep(fam, [one(lam, theta0) for lam, theta0 in rays])


def point_inside_leaf(fam: LeafFamily, lam: float, point) -> bool:
    """Inside the leaf doubled by reflection across z = 0: the radial gap
    r - t of the point (:class:`_Gap`) is negative, t from the ray that
    leaves the leaf's center towards the point."""
    c = fam.center(lam)
    r, u = _radial(c[:, None], np.asarray(point, dtype=float).reshape(3, 1))
    t_val = _run(fam, _reply(_Ray(lam, u[:, 0], c)))[0]
    return bool(r[0] - t_val < 0)


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
# points per batch of the lockstep driver: one grid, which bounds its memory
_BATCH_POINTS = _THETA.size * _PHI.size


def leaves_intersect(fam: LeafFamily, lam1: float, lam2: float) -> PairResult:
    """Decide im(phi_{lam1}) intersect im(phi_{lam2}) by the sign of the
    radial gap g (:class:`_Gap`) of leaf lam1's points to leaf lam2.

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
    return _run(fam, _pair(fam, lam1, lam2))


def _pair(fam: LeafFamily, lam1: float, lam2: float):
    """leaves_intersect as a generator of :class:`_Gap` requests."""
    if not 0 < lam1 < lam2 <= fam.lambda_max:
        raise ValueError("need 0 < lambda1 < lambda2 <= lambda_max")
    theta, phi = np.meshgrid(_THETA, _PHI, indexing="ij")
    g = (yield _Gap(lam2, lam1, theta, phi))[0]
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
        g = (yield _Gap(lam2, lam1, theta, phi))[0]
        k = int(np.argmin(np.abs(g)))
        err = abs(abs(g.flat[k]) - low) + RAY_TOL
        step /= 2
    # g < 0 at a and g >= 0 at b; 13 sections of 16 shrink [a, b] to about
    # the float spacing of the parameters
    nodes = np.stack([theta.ravel(), phi.ravel()], axis=-1)
    a, b = nodes[np.argmin(g)], nodes[np.argmax(g)]
    for _ in range(13):
        ab = a + _SECTIONS * (b - a)
        g, q, p = yield _Gap(lam2, lam1, ab[:, 0], ab[:, 1])
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


def _coverage(lam, p):
    """One coverage record of foliation_report as a generator of
    :class:`_Ray` requests: bisection through the monotone ray map."""
    p = np.asarray(p, dtype=float)
    r = float(np.linalg.norm(p))
    theta0 = _unit(p / r)
    try:
        t_lo = (yield from _ray(lam[0], theta0))[0]
        t_hi = (yield from _ray(lam[-1], theta0))[0]
    except NoIntersection:
        return {"point": p, "lambda": None, "hits": 0, "status": "ray-misses"}
    if not t_lo <= r <= t_hi:
        return {"point": p, "lambda": None, "hits": 0, "status": "not-covered"}
    lo, hi = lam[0], lam[-1]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (yield from _ray(mid, theta0))[0] < r:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * max(1.0, hi):
            break
    lam_star = 0.5 * (lo + hi)
    # both stops are relative beyond unit scale, so a family's verdict does
    # not depend on the size of its leaves
    hit = abs((yield from _ray(lam_star, theta0))[0] - r) < 1e-8 * max(1.0, r)
    return {"point": p, "lambda": lam_star, "hits": 1 if hit else 0,
            "status": "unique" if hit else "ambiguous"}


def checked_lambda_grid(fam: LeafFamily, lambda_grid) -> list[float]:
    """The leaf parameters of a grid, sorted, after checking that they lie
    in [SCALE_MIN, lambda_max] and hold at least two distinct leaves."""
    lam = sorted(float(x) for x in lambda_grid)
    if not lam or lam[0] <= 0 or lam[-1] > fam.lambda_max:
        raise ValueError("lambda grid must lie in (0, lambda_max]")
    if lam[0] < SCALE_MIN:
        raise ValueError(f"smallest lambda {lam[0]:g} is below {SCALE_MIN:g}, "
                         "where squares of leaf coordinates leave the normal doubles")
    if len(set(lam)) < 2:
        # one leaf has no pair to compare, and coverage samples midway
        # between the innermost and the outermost leaf would lie on it
        raise ValueError("lambda grid must hold at least two distinct leaves")
    return lam


def midway_samples(fam: LeafFamily, lam) -> list:
    """Coverage sample points for :func:`foliation_report` on a checked
    leaf grid ``lam``: none for v >= 1; for v < 1 one point along each of
    e3 and (1/2, 1/3, 1/2), midway between the innermost and the outermost
    leaf, or at the mean of their radii where the ray misses either (the
    report then says ray-misses).  The four rays run in one lockstep run."""
    if not fam.v < 1.0:
        return []
    dirs = [np.array(d) / np.linalg.norm(d)
            for d in ([0.0, 0.0, 1.0], [1 / 2, 1 / 3, 1 / 2])]
    ends = (lam[0], lam[-1])
    outcomes = iter(ray_outcomes(fam, [(x, d) for d in dirs for x in ends]))
    samples = []
    for d in dirs:
        inner, outer = next(outcomes), next(outcomes)
        try:
            r = 0.5 * (_unwrap(inner) + _unwrap(outer))
        except NoIntersection:
            r = 0.5 * (lam[0] + lam[-1])
        samples.append(r * d)
    return samples


def foliation_report(fam: LeafFamily, lambda_grid, sample_points=()) -> FoliationReport:
    """Verdict 'Foliates' when consecutive-and-skip leaf pairs are disjoint,
    t(lambda, theta0) is strictly increasing on a ray grid, and every sample
    point is hit by exactly one leaf (bisection through the monotone ray
    map); otherwise 'Overlaps' with a witness.  For v > 1 the constructed
    pairs (lambda1, lambda1 * v/(v-1)) are tested first so the witness
    realizes the eps = lambda1/(v-1) construction.

    Every pair, ray and sample is decided in one lockstep run; the first
    error in the order pairs, rays, samples is raised, as a sequential run
    would raise it."""
    lam = checked_lambda_grid(fam, lambda_grid)
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

    thetas = _theta_grid()
    gens = [_pair(fam, l1, l2) for l1, l2 in pairs]
    for u in map(_unit, thetas):
        gens += [_ray(l, u) for l in lam]
    gens += [_coverage(lam, p) for p in sample_points]
    outcomes = iter(_lockstep(fam, gens))
    pair_out = [next(outcomes) for _ in pairs]
    ray_out = [[next(outcomes) for _ in lam] for _ in thetas]

    pair_results = [_unwrap(res) for res in pair_out]
    witness_pair = next(((l1, l2, res) for (l1, l2), res in zip(pairs, pair_results)
                         if res.intersects), None)

    monotone = True
    mono_witness = None
    for theta0, outs in zip(thetas, ray_out):
        try:
            ts = [_unwrap(o)[0] for o in outs]
        except NoIntersection:
            continue
        diffs = np.diff(ts)
        if np.any(diffs <= 0):
            monotone = False
            k = int(np.argmax(diffs <= 0))
            mono_witness = (theta0, lam[k], lam[k + 1])
            break

    coverage = [_unwrap(c) for c in outcomes]
    foliates = witness_pair is None and monotone and all(c["hits"] == 1 for c in coverage)
    return FoliationReport(
        verdict="Foliates" if foliates else "Overlaps", witness_pair=witness_pair,
        pair_results=pair_results, monotone=monotone,
        monotone_witness=mono_witness, coverage=coverage)


def load_family_file(path) -> tuple[LeafFamily, dict]:
    """Family description file: lines ``v = <real>``, ``f1|f2|f3 = <expr in
    lambda, w1, w2, w3>``, ``lambda_max = <real>``, each key at most once."""
    vals = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = (x.strip() for x in line.partition("="))
            if key not in ("v", "lambda_max", "f1", "f2", "f3"):
                raise ValueError(f"unrecognized family-file key {key!r}")
            if key in vals:
                raise ValueError(f"repeated family-file key {key!r}")
            if key in ("f1", "f2", "f3"):
                vals[key] = ex.parse(val)
                continue
            try:
                vals[key] = float(val)
            except ValueError:
                raise ValueError(f"family-file key {key!r} is not a number: {val!r}") from None
    if "v" not in vals or "lambda_max" not in vals:
        raise ValueError("family file needs 'v' and 'lambda_max'")
    meta = {"v": vals["v"], "lambda_max": vals["lambda_max"]}
    fs = tuple(vals.get(k, ex.ZERO) for k in ("f1", "f2", "f3"))
    return LeafFamily(meta["v"], fs, meta["lambda_max"]), meta
