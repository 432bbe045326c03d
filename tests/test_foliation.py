import math
from fractions import Fraction

import numpy as np
import pytest

from hemifol import expr as ex
from hemifol import foliation as fo


# --- closed-form sphere oracles (independent of the iterative path) --------

def sphere_ray_t(v, shift, lam, theta0):
    """Exact ray intersection with the sphere of radius lam centered at
    (lam*v + lam^2*shift) e1."""
    theta0 = np.asarray(theta0, dtype=float)
    theta0 = theta0 / np.linalg.norm(theta0)
    cx = lam * v + lam ** 2 * shift
    b = cx * theta0[0]
    c = cx * cx - lam ** 2
    disc = b * b - c
    if disc < 0:
        return None
    return b + math.sqrt(disc)


def spheres_intersect(v, shift, lam1, lam2):
    """Exact intersection test for two spheres of the family."""
    c1 = lam1 * v + lam1 ** 2 * shift
    c2 = lam2 * v + lam2 ** 2 * shift
    d = abs(c2 - c1)
    return abs(lam2 - lam1) <= d <= lam1 + lam2


def nested_sphere_distance(v, shift, lam1, lam2):
    """Exact minimum distance for disjoint nested spheres."""
    c1 = lam1 * v + lam1 ** 2 * shift
    c2 = lam2 * v + lam2 ** 2 * shift
    return lam2 - lam1 - abs(c2 - c1)


CONST_03 = (ex.const(Fraction(3, 10)), ex.ZERO, ex.ZERO)


class TestLeafFamily:
    def test_boundary_condition_enforced(self):
        with pytest.raises(ValueError):
            fo.LeafFamily(0.0, (ex.ZERO, ex.ZERO, ex.parse("w3 + 1/100")),
                          lambda_max=0.1)

    def test_smooth_f3_vanishing_on_equator_ok(self):
        fam = fo.LeafFamily(0.0, (ex.parse("w1*w3"), ex.ZERO,
                                  ex.parse("w3*(1-w3)")), lambda_max=0.1)
        assert fam.c_bound > 0

    def test_negative_v_rejected(self):
        with pytest.raises(ValueError):
            fo.LeafFamily(-0.5)

    @pytest.mark.parametrize("v, lam_max", [
        (math.nan, 0.1), (math.inf, 0.1), (0.5, math.nan), (0.5, math.inf)])
    def test_not_finite_rejected(self, v, lam_max):
        with pytest.raises(ValueError, match="must be finite"):
            fo.LeafFamily(v, lambda_max=lam_max)

    @pytest.mark.parametrize("v, lam_max", [(0.5, 1e300), (2.0, 1.3e154)])
    def test_scale_beyond_double_range_rejected(self, v, lam_max):
        # squared leaf coordinates would overflow in the fixed points
        with pytest.raises(ValueError, match="must be at most"):
            fo.LeafFamily(v, lambda_max=lam_max)

    def test_lambda_max_times_c_bound_below_one(self):
        # the inside test needs every leaf to be a radial graph about its
        # base center, which lambda_max * sup(|f| + |Df|) < 1 certifies
        with pytest.raises(ValueError):
            fo.LeafFamily(0.0, (ex.const(30), ex.ZERO, ex.ZERO), lambda_max=0.05)
        fam = fo.LeafFamily(0.0, (ex.const(30), ex.ZERO, ex.ZERO), lambda_max=0.03)
        assert fam.lambda_max * fam.c_bound < 1


class TestRayIntersect:
    def test_concentric(self):
        fam = fo.LeafFamily(0.0, lambda_max=0.3)
        r = fo.ray_intersect(fam, 0.2, [0.3, 0.4, 0.866])
        assert r.t == pytest.approx(0.2, abs=1e-12)
        assert r.residual < 1e-10

    def test_axis_ray(self):
        fam = fo.LeafFamily(0.5, lambda_max=0.3)
        r = fo.ray_intersect(fam, 0.1, [1.0, 0.0, 0.0])
        assert r.t == pytest.approx(0.15, abs=1e-12)

    def test_vertical_ray(self):
        fam = fo.LeafFamily(0.5, lambda_max=0.3)
        r = fo.ray_intersect(fam, 0.1, [0.0, 0.0, 1.0])
        assert r.t == pytest.approx(0.1 * math.sqrt(0.75), abs=1e-12)

    def test_generic_rays_match_closed_form(self):
        rng = np.random.default_rng(5)
        for v, shift in [(0.0, 0.0), (0.5, 0.0), (0.5, 0.3), (0.9, 0.3)]:
            f_exprs = (ex.const(Fraction(str(shift))), ex.ZERO, ex.ZERO) \
                if shift else (ex.ZERO, ex.ZERO, ex.ZERO)
            fam = fo.LeafFamily(v, f_exprs, lambda_max=0.1)
            for _ in range(10):
                lam = rng.uniform(0.01, 0.1)
                d = rng.normal(size=3)
                d[2] = abs(d[2])
                want = sphere_ray_t(v, shift, lam, d)
                got = fo.ray_intersect(fam, lam, d)
                assert got.t == pytest.approx(want, abs=1e-10)
                assert got.residual < 1e-10

    def test_bounds(self):
        # t <= C*lambda and t - lam*v*(e1.theta0) >= sqrt(1-v^2)/2 * lam
        for v in (0.0, 0.5, 0.9):
            fam = fo.LeafFamily(v, lambda_max=0.05)
            cv = math.sqrt(1 - v * v) / 2
            rng = np.random.default_rng(7)
            for _ in range(20):
                lam = rng.uniform(0.005, 0.05)
                d = rng.normal(size=3)
                d[2] = abs(d[2])
                d = d / np.linalg.norm(d)
                r = fo.ray_intersect(fam, lam, d)
                assert r.t <= (1 + v) * lam + 1e-12
                assert r.t - lam * v * d[0] >= cv * lam - 1e-12

    def test_ray_misses_for_large_v(self):
        fam = fo.LeafFamily(3.0, lambda_max=0.1)
        with pytest.raises(fo.NoIntersection):
            fo.ray_intersect(fam, 0.05, [-1.0, 0.0, 0.0])

    def test_lambda_validation(self):
        fam = fo.LeafFamily(0.0, lambda_max=0.1)
        with pytest.raises(ValueError):
            fo.ray_intersect(fam, 0.2, [0.0, 0.0, 1.0])


class TestInsideOutside:
    def test_center_inside(self):
        fam = fo.LeafFamily(0.0, lambda_max=0.3)
        assert fo.point_inside_leaf(fam, 0.2, [0.0, 0.0, 0.05])

    def test_far_point_outside(self):
        fam = fo.LeafFamily(0.0, lambda_max=0.3)
        assert not fo.point_inside_leaf(fam, 0.2, [1.0, 0.0, 0.1])

    def test_plane_point_inside_equator_disc(self):
        fam = fo.LeafFamily(0.0, lambda_max=0.3)
        assert fo.point_inside_leaf(fam, 0.2, [0.05, 0.02, 0.0])
        assert not fo.point_inside_leaf(fam, 0.2, [0.25, 0.0, 0.0])

    def test_shifted_family(self):
        fam = fo.LeafFamily(0.5, lambda_max=0.3)
        lam = 0.2
        center = lam * 0.5
        assert fo.point_inside_leaf(fam, lam, [center, 0.0, 0.01])
        assert not fo.point_inside_leaf(fam, lam, [center + 0.21, 0.0, 0.0])

    def test_near_surface_matches_closed_form(self):
        # points at lam * (1 -/+ eps) from the center of a shifted sphere
        rng = np.random.default_rng(11)
        fam = fo.LeafFamily(0.5, CONST_03, lambda_max=0.05)
        wrong = []
        for lam in (0.02, 0.05):
            center = np.array([lam * 0.5 + lam ** 2 * 0.3, 0.0, 0.0])
            for _ in range(20):
                d = rng.normal(size=3)
                d[2] = abs(d[2])
                d /= np.linalg.norm(d)
                for eps in (1e-3, 1e-4, 1e-6):
                    for sign, want in ((-1, True), (1, False)):
                        p = center + lam * (1 + sign * eps) * d
                        if fo.point_inside_leaf(fam, lam, p) != want:
                            wrong.append((lam, eps, sign))
        assert not wrong


    def test_center_and_plane_points_match_closed_form_gap(self):
        # the gap at the center is minus the leaf's distance along e3, and
        # points on z = 0 sit on their own reflection
        fam = fo.LeafFamily(0.7, (ex.parse("0.2*w1*w3"), ex.ZERO,
                                  ex.parse("0.1*w3*(1-w3)")), lambda_max=0.05)
        lam = 0.04
        c = fam.center(lam)
        assert fo.point_inside_leaf(fam, lam, c)
        assert _ref_radial_gap(fam, lam, c)[0] < 0
        for dx, dy in ((0.5, 0.0), (-0.9, 0.2), (0.0, -0.99), (1.01, 0.0), (0.3, 1.2)):
            p = c + lam * np.array([dx, dy, 0.0])
            want = _ref_radial_gap(fam, lam, p)[0] < 0
            assert want == (math.hypot(dx, dy) < 1)
            assert fo.point_inside_leaf(fam, lam, p) == want


class TestCenter:
    def test_scalar_and_array(self):
        fam = fo.LeafFamily(0.7, CONST_03, lambda_max=0.05)
        assert fam.center(0.03).tolist() == [0.03 * 0.7, 0.0, 0.0]
        lam = [0.01, 0.02, 0.05]
        assert fam.center(np.array(lam)).tolist() == [[x * 0.7, 0.0, 0.0] for x in lam]
        assert fam.center(lam).shape == (3, 3)

    def test_leaf_is_center_plus_scaled_sphere(self):
        fam = fo.LeafFamily(1.3, (ex.parse("0.2*w1*w3"), ex.ZERO,
                                  ex.parse("0.1*w3*(1-w3)")), lambda_max=0.05)
        om = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]])
        want = 0.04 * 1.3 * fo.E1 + 0.04 * om + 0.04 ** 2 * fam.f(0.04, om)
        assert fam.leaf(0.04, om).tobytes() == want.tobytes()


def _ref_midway_samples(fam, lam_grid):
    """The coverage samples foliate built in its command before
    midway_samples existed."""
    samples = []
    if fam.v < 1.0:
        dirs = [np.array(d) / np.linalg.norm(d)
                for d in ([0.0, 0.0, 1.0], [1 / 2, 1 / 3, 1 / 2])]
        ends = (lam_grid[0], lam_grid[-1])
        outcomes = iter(fo.ray_outcomes(fam, [(lam, d) for d in dirs for lam in ends]))

        def unwrap(outcome):
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        for d in dirs:
            inner, outer = next(outcomes), next(outcomes)
            try:
                r = 0.5 * (unwrap(inner) + unwrap(outer))
            except fo.NoIntersection:
                r = 0.5 * (lam_grid[0] + lam_grid[-1])
            samples.append(r * d)
    return samples


@pytest.mark.parametrize("v, f1, lam_max, n", [
    (0.5, "0", 0.05, 10), (0.6, "0.2*w1*w3", 0.05, 7), (0.999, "0", 0.05, 10),
    (0.9, "0.3", 1.0, 10), (1.0, "0", 0.05, 10), (1.7, "0.3", 0.05, 10),
], ids=["flat", "curved", "near-one", "ray-misses", "one", "fast"])
def test_midway_samples_match_command_construction(v, f1, lam_max, n):
    fam = fo.LeafFamily(v, (ex.parse(f1), ex.ZERO, ex.ZERO), lambda_max=lam_max)
    grid = fo.checked_lambda_grid(fam, np.linspace(0.005, lam_max, n))
    got = fo.midway_samples(fam, grid)
    assert _bits(got) == _bits(_ref_midway_samples(fam, grid))
    assert len(got) == (2 if v < 1 else 0)
    if f1 == "0.3" and v < 1:
        # leaves past lambda = 1/3 leave the origin outside: the vertical
        # ray misses them and its sample sits at the mean radius
        assert got[0].tolist() == [0.0, 0.0, 0.5 * (grid[0] + grid[-1])]


class TestLeavesIntersect:
    def test_nested_disjoint(self):
        fam = fo.LeafFamily(0.0, lambda_max=0.3)
        res = fo.leaves_intersect(fam, 0.1, 0.2)
        assert not res.intersects
        assert res.min_distance == pytest.approx(0.1, abs=1e-6)

    def test_v2_intersects(self):
        fam = fo.LeafFamily(2.0, lambda_max=0.3)
        res = fo.leaves_intersect(fam, 0.1, 0.2)
        assert res.intersects

    def test_constructed_pair_v15(self):
        fam = fo.LeafFamily(1.5, lambda_max=0.3)
        lam1 = 0.05
        res = fo.leaves_intersect(fam, lam1, 3 * lam1)
        assert res.intersects

    def test_matches_sphere_oracle(self):
        for v, shift in [(0.0, 0.0), (0.5, 0.3), (0.9, 0.0), (1.5, 0.0), (2.0, 0.3)]:
            f_exprs = (ex.const(Fraction(str(shift))), ex.ZERO, ex.ZERO) \
                if shift else (ex.ZERO, ex.ZERO, ex.ZERO)
            fam = fo.LeafFamily(v, f_exprs, lambda_max=0.2)
            for lam1, lam2 in [(0.05, 0.1), (0.05, 0.15), (0.1, 0.2)]:
                want = spheres_intersect(v, shift, lam1, lam2)
                got = fo.leaves_intersect(fam, lam1, lam2)
                assert got.intersects == want, (v, shift, lam1, lam2)

    def test_min_distance_matches_closed_form(self):
        fam = fo.LeafFamily(0.5, CONST_03, lambda_max=0.1)
        res = fo.leaves_intersect(fam, 0.04, 0.08)
        want = nested_sphere_distance(0.5, 0.3, 0.04, 0.08)
        assert res.min_distance == pytest.approx(want, abs=1e-8)

    def test_crossing_off_e1(self):
        # f = 15 e2: spheres of radius lam centered at 15 lam^2 e2, which cross
        # iff lam1 + lam2 >= 1/15, on the e2 side only
        fam = fo.LeafFamily(0.0, (ex.ZERO, ex.const(15), ex.ZERO), lambda_max=0.05)
        lam = np.linspace(0.005, 0.05, 10)
        pairs = [(lam[i], lam[i + k]) for k in (1, 2) for i in range(len(lam) - k)]
        crossing = 0
        for lam1, lam2 in pairs:
            res = fo.leaves_intersect(fam, lam1, lam2)
            c1, c2 = 15 * lam1 ** 2, 15 * lam2 ** 2
            assert res.intersects == (lam2 - lam1 <= c2 - c1 <= lam1 + lam2), (lam1, lam2)
            if res.intersects:
                crossing += 1
                for x in res.witness:
                    for l, c in ((lam1, c1), (lam2, c2)):
                        assert abs(np.linalg.norm(x - [0.0, c, 0.0]) - l) < 1e-10
        assert crossing == 6

    def test_nearly_touching_nested_leaves(self):
        # v = 1.0113, f1 = -0.2275: the leaves 0.02 and 0.03 are nested
        # spheres 8.5e-7 apart
        v = 1.011290136625749
        fam = fo.LeafFamily(v, (ex.parse("0-0.2275"), ex.ZERO, ex.ZERO),
                            lambda_max=0.05)
        res = fo.leaves_intersect(fam, 0.02, 0.03)
        assert not res.intersects
        want = nested_sphere_distance(v, -0.2275, 0.02, 0.03)
        assert res.min_distance == pytest.approx(want, abs=1e-12)

    def test_touching_leaves_inconclusive(self):
        # v = 1, f = 0: every leaf passes through the origin
        fam = fo.LeafFamily(1.0, lambda_max=0.05)
        with pytest.raises(fo.InconclusiveOverlap):
            fo.leaves_intersect(fam, 0.02, 0.03)

    def test_argument_validation(self):
        fam = fo.LeafFamily(0.0, lambda_max=0.1)
        with pytest.raises(ValueError):
            fo.leaves_intersect(fam, 0.1, 0.05)


class TestFoliationReport:
    def test_v05_const_f_foliates(self):
        fam = fo.LeafFamily(0.5, CONST_03, lambda_max=0.05)
        grid = list(np.linspace(0.005, 0.05, 8))
        rep = fo.foliation_report(fam, grid, [np.array([0.0, 0.0, 0.02])])
        assert rep.verdict == "Foliates"
        assert rep.monotone
        assert all(c["hits"] == 1 for c in rep.coverage)
        assert "smoothness" in rep.note

    def test_v15_overlaps_with_constructed_witness(self):
        fam = fo.LeafFamily(1.5, CONST_03, lambda_max=0.05)
        rep = fo.foliation_report(fam, list(np.linspace(0.005, 0.05, 8)))
        assert rep.verdict == "Overlaps"
        l1, l2, _ = rep.witness_pair
        assert l2 / l1 == pytest.approx(3.0, rel=1e-12)

    def test_v0_smooth_perturbation_foliates(self):
        fam = fo.LeafFamily(0.0, (ex.parse("w1*w3"), ex.ZERO,
                                  ex.parse("w3*(1-w3)")), lambda_max=0.05)
        grid = list(np.linspace(0.005, 0.05, 6))
        rep = fo.foliation_report(fam, grid, [np.array([0.0, 0.0, 0.02])])
        assert rep.verdict == "Foliates"

    def test_exact_sphere_coverage(self):
        # f = 0 reduces everything to exact sphere geometry
        v = 0.5
        fam = fo.LeafFamily(v, lambda_max=0.05)
        grid = list(np.linspace(0.005, 0.05, 8))
        p = np.array([0.011, -0.007, 0.02])
        rep = fo.foliation_report(fam, grid, [p])
        lam_star = rep.coverage[0]["lambda"]
        # closed form: |p - lam v e1| = lam
        r2 = float(p @ p)
        b = v * p[0]
        lam_closed = (-b + math.sqrt(b * b + (1 - v * v) * r2)) / (1 - v * v)
        assert lam_star == pytest.approx(lam_closed, abs=1e-10)

    def test_grid_validation(self):
        fam = fo.LeafFamily(0.0, lambda_max=0.05)
        with pytest.raises(ValueError):
            fo.foliation_report(fam, [0.0, 0.05])

    @pytest.mark.parametrize("grid", [[0.05], [0.05, 0.05]])
    def test_one_distinct_leaf_rejected(self, grid):
        fam = fo.LeafFamily(0.5, lambda_max=0.05)
        with pytest.raises(ValueError, match="two distinct leaves"):
            fo.foliation_report(fam, grid)


class TestPairwiseGridInvariant:
    def test_all_pairs_positive_distance_v_below_one(self):
        # lambda_max <= (1 - v)/(4 C) with C = sup(|f| + |Df|)
        v = 0.5
        fam = fo.LeafFamily(v, CONST_03, lambda_max=min(0.05, (1 - v) / (4 * 0.3)))
        grid = np.linspace(fam.lambda_max / 10, fam.lambda_max, 10)
        for i in range(len(grid)):
            for j in range(i + 1, len(grid)):
                res = fo.leaves_intersect(fam, grid[i], grid[j])
                assert not res.intersects
                assert res.min_distance > 0


@pytest.mark.parametrize("body, message", [
    ("v = 0.5\nspeed = 1\nlambda_max = 0.05\n", "unrecognized family-file key 'speed'"),
    ("lambda_max = 0.05\n", "family file needs 'v' and 'lambda_max'"),
    ("v = 0.5\nf1 = 0.3\n", "family file needs 'v' and 'lambda_max'"),
    ("v = 0.5\nv = 1.5\nlambda_max = 0.05\n", "repeated family-file key 'v'"),
    ("v = 0.5\nlambda_max = 0.05\nlambda_max = 0.04\n",
     "repeated family-file key 'lambda_max'"),
    ("v = 0.5\nf3 = 0\nf3 = w3*(1-w3)\nlambda_max = 0.05\n", "repeated family-file key 'f3'"),
], ids=["unknown", "no-v", "no-lambda-max", "two-v", "two-lambda-max", "two-f3"])
def test_family_file_errors(tmp_path, body, message):
    # a repeated key is ambiguous: the last one no longer wins
    path = tmp_path / "f.fam"
    path.write_text(body)
    with pytest.raises(ValueError) as err:
        fo.load_family_file(path)
    assert str(err.value) == message


def test_family_file_roundtrip(tmp_path):
    path = tmp_path / "f.fam"
    path.write_text(
        "v = 1.5\nf1 = 0.3\nf2 = 0\nf3 = 0\nlambda_max = 0.05\n")
    fam, meta = fo.load_family_file(path)
    assert fam.v == 1.5
    assert meta["lambda_max"] == 0.05
    r = fo.ray_intersect(fam, 0.04, [1.0, 0.0, 0.0])
    assert r.t == pytest.approx(0.04 * 1.5 + 0.04 ** 2 * 0.3 + 0.04, abs=1e-12)


# --- lockstep driver against the sequential code it replaced ---------------
#
# The reference below is the sequential implementation: one fixed point per
# call, leaf pairs decided one after another, and the monotonicity and
# coverage loops calling the ray intersection one ray at a time.  The
# lockstep driver must reproduce it bit for bit, errors included.

def _ref_fixed_point(fam, lam, origin, theta0):
    omega = theta0.copy()
    t_val = lam
    shift = lam * fam.v * fo.E1 - origin
    for _ in range(fo.RAY_MAX_ITER):
        rel = shift + lam ** 2 * fam.f(lam, omega)
        b = (theta0 * rel).sum(axis=-1)
        disc = b * b - (rel * rel).sum(axis=-1) + lam ** 2
        if disc.min() < 0:
            raise fo.NoIntersection(
                f"ray misses the leaf (discriminant {disc.min():.3e})")
        t_new = b + np.sqrt(disc)
        om_raw = (t_new[..., None] * theta0 - rel) / lam
        om_new = om_raw / np.sqrt((om_raw * om_raw).sum(axis=-1, keepdims=True))
        step = om_new - omega
        delta = abs(t_new - t_val) + np.sqrt((step * step).sum(axis=-1))
        t_val, omega = t_new, om_new
        if delta.max() < fo.RAY_TOL:
            return t_val, omega
    raise fo.NoConvergence(
        f"fixed point not contracting after {fo.RAY_MAX_ITER} iterations")


def _ref_ray(fam, lam, theta0):
    theta0 = np.asarray(theta0, dtype=float)
    theta0 = theta0 / np.linalg.norm(theta0)
    t_val, omega = _ref_fixed_point(fam, lam, np.zeros(3), theta0)
    t_val = float(t_val)
    if t_val < 0:
        raise fo.NoIntersection("leaf lies behind the ray origin")
    if omega[2] < -1e-9:
        raise fo.NoIntersection("intersection lies below the boundary plane")
    residual = float(np.linalg.norm(t_val * theta0 - fam.leaf(lam, omega)))
    return fo.RayIntersection(t_val, omega, residual)


def _ref_radial_gap(fam, lam, points):
    base = lam * fam.v * fo.E1
    d = np.concatenate((points[..., :2], np.abs(points[..., 2:])), axis=-1) - base
    r = np.linalg.norm(d, axis=-1)
    u = np.where(r[..., None] > 0, d, [0.0, 0.0, 1.0])
    u = u / np.linalg.norm(u, axis=-1, keepdims=True)
    t_val, _ = _ref_fixed_point(fam, lam, base, u)
    return r - t_val, base + t_val[..., None] * u


def _ref_leaves_intersect(fam, lam1, lam2):
    if not 0 < lam1 < lam2 <= fam.lambda_max:
        raise ValueError("need 0 < lambda1 < lambda2 <= lambda_max")

    def half_sphere(theta, phi):
        s = np.sin(theta)
        return np.stack([s * np.cos(phi), s * np.sin(phi), np.cos(theta)], axis=-1)

    def gap(theta, phi):
        p = fam.leaf(lam1, half_sphere(theta, phi))
        return _ref_radial_gap(fam, lam2, p) + (p,)

    theta, phi = np.meshgrid(fo._THETA, fo._PHI, indexing="ij")
    g = gap(theta, phi)[0]
    k = int(np.argmin(np.abs(g)))
    err, step = fo.RAY_TOL, fo._THETA[1]
    while g.min() >= -err or g.max() <= err:
        low = abs(g.flat[k])
        if step < fo._FINEST_STEP:
            if low <= err:
                raise fo.InconclusiveOverlap(
                    f"radial gap {low:.3e} within its error {err:.3e}")
            return fo.PairResult(lam1, lam2, False, float(low), None, "disjoint")
        theta, phi = np.meshgrid(
            np.clip(theta.flat[k] + step * fo._STENCIL, 0.0, np.pi / 2),
            phi.flat[k] + step * fo._STENCIL, indexing="ij")
        g = gap(theta, phi)[0]
        k = int(np.argmin(np.abs(g)))
        err = abs(abs(g.flat[k]) - low) + fo.RAY_TOL
        step /= 2
    nodes = np.stack([theta.ravel(), phi.ravel()], axis=-1)
    a, b = nodes[np.argmin(g)], nodes[np.argmax(g)]
    for _ in range(13):
        ab = a + fo._SECTIONS * (b - a)
        g, q, p = gap(ab[:, 0], ab[:, 1])
        g[0], g[-1] = -1.0, 1.0
        j = int(np.argmax(g >= 0))
        a, b = ab[j - 1], ab[j]
    return fo.PairResult(lam1, lam2, True, 0.0, (p[j], q[j]), "interior")


def _ref_report(fam, lambda_grid, sample_points=()):
    lam = sorted(float(x) for x in lambda_grid)
    pairs = []
    if fam.v > 1.0:
        ratio = fam.v / (fam.v - 1.0)
        feasible = [l1 for l1 in lam if l1 * ratio <= fam.lambda_max]
        if not feasible:
            l2 = 0.9 * fam.lambda_max
            if fam.c_bound > 0:
                l2 = min(l2, (fam.v - 1.0) / (4.0 * fam.c_bound))
            feasible = [l2 / ratio]
        pairs += [(l1, l1 * ratio) for l1 in feasible]
    pairs += [(lam[i], lam[i + 1]) for i in range(len(lam) - 1)]
    pairs += [(lam[i], lam[i + 2]) for i in range(len(lam) - 2)]
    pair_results = [_ref_leaves_intersect(fam, l1, l2) for l1, l2 in pairs]

    monotone, mono_witness = True, None
    for theta0 in fo._theta_grid():
        try:
            ts = [_ref_ray(fam, l, theta0).t for l in lam]
        except fo.NoIntersection:
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
            t_lo = _ref_ray(fam, lam[0], theta0).t
            t_hi = _ref_ray(fam, lam[-1], theta0).t
        except fo.NoIntersection:
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
            if _ref_ray(fam, mid, theta0).t < r:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-14:
                break
        lam_star = 0.5 * (lo + hi)
        resid = abs(_ref_ray(fam, lam_star, theta0).t - r)
        coverage.append({"point": p, "lambda": lam_star,
                         "hits": 1 if resid < 1e-8 else 0,
                         "status": "unique" if resid < 1e-8 else "ambiguous"})
    return pair_results, monotone, mono_witness, coverage


def _bits(x):
    """Exact, comparable form of results: floats by their hex digits and
    arrays by their bytes."""
    if isinstance(x, np.ndarray):
        return (x.shape, x.tobytes())
    if isinstance(x, float):
        return float(x).hex()
    if isinstance(x, (list, tuple)):
        return tuple(_bits(y) for y in x)
    if isinstance(x, dict):
        return tuple((k, _bits(v)) for k, v in sorted(x.items()))
    if isinstance(x, fo.PairResult):
        return _bits((x.lambda1, x.lambda2, x.intersects, x.min_distance,
                      x.witness, x.method))
    if isinstance(x, fo.RayIntersection):
        return _bits((x.t, x.omega, x.residual))
    return x


def _outcome(fn, *args):
    try:
        return "ok", _bits(fn(*args))
    except (fo.NoIntersection, fo.NoConvergence, fo.InconclusiveOverlap,
            ValueError, ex.DomainError) as err:
        return "raised", type(err).__name__, str(err)


def _report_bits(fam, grid, samples):
    rep = fo.foliation_report(fam, grid, samples)
    return rep.pair_results, rep.monotone, rep.monotone_witness, rep.coverage


def _seeded_families():
    rng = np.random.default_rng(20231)
    fams = []
    vs = list(rng.uniform(0.0, 2.5, 24)) + [0.999, 1.0005, 1.002, 0.98, 1.05, 2.04]
    for i, v in enumerate(vs):
        c, c3, c2 = rng.uniform(-0.3, 0.3, 3)
        kind = i % 4
        if kind == 0:
            f = (ex.ZERO, ex.ZERO, ex.ZERO)
        elif kind == 1:
            f = (ex.const(Fraction(round(c, 4)).limit_denominator(10 ** 4)),
                 ex.ZERO, ex.ZERO)
        elif kind == 2:
            f = (ex.parse(f"{abs(c):.4f}*w1*w3"), ex.ZERO,
                 ex.parse(f"{abs(c3):.4f}*w3*(1-w3)"))
        else:
            # curved, and off e1: leaves also move along e2
            f = (ex.parse(f"{abs(c):.4f}*w1*w3"), ex.parse(f"{abs(c2):.4f}*w2"),
                 ex.ZERO)
        fams.append(fo.LeafFamily(float(v), f, lambda_max=0.05))
    # f1 = -15 pulls leaves back faster than they grow along e1 beyond
    # lambda = 1/30: t(lambda, e1) is not monotone
    fams.append(fo.LeafFamily(0.0, (ex.parse("0-15"), ex.ZERO, ex.ZERO),
                              lambda_max=0.06))
    return fams


class TestLockstep:
    GRID = list(np.linspace(0.005, 0.05, 6))

    @pytest.mark.parametrize("index", range(31))
    def test_report_matches_sequential(self, index):
        fam = _seeded_families()[index]
        samples = [np.array([0.0, 0.0, 0.02]), np.array([0.012, -0.008, 0.015]),
                   np.array([-0.03, 0.0, 0.001])]
        want = _outcome(_ref_report, fam, self.GRID, samples)
        got = _outcome(_report_bits, fam, self.GRID, samples)
        assert got == want

    def test_families_mix_crossing_and_disjoint_pairs(self):
        # the seeded families cover both verdicts, and reports holding both
        # kinds of pair
        mixed = verdicts = 0
        reports = [fo.foliation_report(fam, self.GRID) for fam in _seeded_families()]
        for rep in reports:
            kinds = {r.intersects for r in rep.pair_results}
            mixed += kinds == {True, False}
            verdicts |= 1 << (rep.verdict == "Foliates")
        assert mixed >= 5
        assert verdicts == 3
        # the last family is the non-monotone one, with its witness along e1
        assert not reports[-1].monotone
        assert reports[-1].monotone_witness[0][0] == 1.0

    def test_batch_with_a_missing_ray(self):
        # v = 3: the ray along -e1 misses every leaf; the other requests of
        # its batch get their unbatched values
        fam = fo.LeafFamily(3.0, (ex.parse("0.2*w1*w3"), ex.ZERO,
                                  ex.parse("0.1*w3*(1-w3)")), lambda_max=0.05)
        rays = [(0.02, [1.0, 0.1, 0.2]), (0.03, [-1.0, 0.0, 0.0]),
                (0.04, [1.0, 0.0, 0.0]), (0.05, [0.95, 0.2, 0.1])]
        gens = [fo._ray(lam, fo._unit(d)) for lam, d in rays]
        gens.append(fo._pair(fam, 0.02, 0.045))
        out = fo._lockstep(fam, gens)
        assert isinstance(out[1], fo.NoIntersection)
        with pytest.raises(fo.NoIntersection) as info:
            _ref_ray(fam, *rays[1])
        assert str(out[1]) == str(info.value)
        for (lam, d), got in zip(rays[:1] + rays[2:], out[:1] + out[2:4]):
            want = _ref_ray(fam, lam, d)
            assert _bits((float(got[0]), got[1])) == _bits((want.t, want.omega))
            assert _bits(fo.ray_intersect(fam, lam, d)) == _bits(want)
        assert _bits(out[4]) == _bits(_ref_leaves_intersect(fam, 0.02, 0.045))

    def test_ray_outcomes_match_ray_intersect(self):
        # one lockstep run of rays, a missing one and out-of-range lambdas
        # among them: each outcome is what ray_intersect returns or raises
        fam = fo.LeafFamily(3.0, (ex.parse("0.2*w1*w3"), ex.ZERO,
                                  ex.parse("0.1*w3*(1-w3)")), lambda_max=0.05)
        rays = [(0.02, [1.0, 0.1, 0.2]), (0.03, [-1.0, 0.0, 0.0]),
                (0.0, [1.0, 0.0, 0.0]), (0.05, [0.95, 0.2, 0.1]),
                (0.06, [0.0, 0.0, 1.0]), (0.04, [1.0, 0.0, 0.0])]
        out = fo.ray_outcomes(fam, rays)
        assert [type(o).__name__ for o in out] == [
            "float", "NoIntersection", "ValueError", "float", "ValueError", "float"]
        for (lam, d), got in zip(rays, out):
            if isinstance(got, Exception):
                with pytest.raises(type(got)) as info:
                    fo.ray_intersect(fam, lam, d)
                assert str(got) == str(info.value)
            else:
                assert _bits(got) == _bits(fo.ray_intersect(fam, lam, d).t)

    def test_fixed_point_iteration_limit(self, monkeypatch):
        monkeypatch.setattr(fo, "RAY_MAX_ITER", 1)
        fam = fo.LeafFamily(0.5, CONST_03, lambda_max=0.05)
        with pytest.raises(fo.NoConvergence,
                           match="^fixed point not contracting after 1 iterations$"):
            fo.ray_intersect(fam, 0.03, [1.0, 0.2, 0.3])
        out = fo.ray_outcomes(fam, [(0.03, [1.0, 0.2, 0.3]), (0.02, [0.0, 0.5, 1.0])])
        assert [type(o) for o in out] == [fo.NoConvergence] * 2

    def test_domain_error_stays_with_its_request(self):
        # f1 leaves its domain near the horizontal direction at azimuth
        # pi/24, which the family's bound sampling misses: requests that
        # reach it get the DomainError, the rest of their batch does not
        f1 = ex.parse("0.1*sqrt(0.995 - 0.991445*w1 - 0.130526*w2)")
        fam = fo.LeafFamily(0.0, (f1, ex.ZERO, ex.ZERO), lambda_max=0.05)
        rays = [(0.02, [0.0, 1.0, 0.2]), (0.02, [0.991445, 0.130526, 0.01]),
                (0.03, [0.0, 1.0, 1.0])]
        gens = [fo._ray(lam, fo._unit(d)) for lam, d in rays]
        gens.append(fo._pair(fam, 0.01, 0.02))
        out = fo._lockstep(fam, gens)
        for k in (1, 3):
            assert isinstance(out[k], ex.DomainError)
        for k in (0, 2):
            want = _ref_ray(fam, *rays[k])
            assert _bits((float(out[k][0]), out[k][1])) == _bits((want.t, want.omega))
        grid = list(np.linspace(0.005, 0.05, 6))
        got = _outcome(_report_bits, fam, grid, [])
        assert got[:2] == ("raised", "DomainError")
        assert got == _outcome(_ref_report, fam, grid, [])

    def test_kth_pair_inconclusive_raises_as_sequential(self):
        # f1 = 1, v = 0.9: leaves a < b are nested spheres that touch
        # internally when lambda_a + lambda_b = (1 - v)/f1 = 0.1, here the
        # second pair; the first is disjoint and the third crosses
        fam = fo.LeafFamily(0.9, (ex.ONE, ex.ZERO, ex.ZERO), lambda_max=0.08)
        grid = [0.02, 0.04, 0.06, 0.08]
        with pytest.raises(fo.InconclusiveOverlap) as want:
            _ref_leaves_intersect(fam, 0.04, 0.06)
        assert not _ref_leaves_intersect(fam, 0.02, 0.04).intersects
        assert _ref_leaves_intersect(fam, 0.06, 0.08).intersects
        got = _outcome(_report_bits, fam, grid, [np.array([0.0, 0.0, 0.05])])
        assert got == ("raised", "InconclusiveOverlap", str(want.value))
        assert got == _outcome(_ref_report, fam, grid, [np.array([0.0, 0.0, 0.05])])

    def test_public_calls_match_sequential(self):
        fam = _seeded_families()[2]
        assert _outcome(fo.leaves_intersect, fam, 0.01, 0.03) == \
            _outcome(_ref_leaves_intersect, fam, 0.01, 0.03)
        assert _outcome(fo.leaves_intersect, fam, 0.03, 0.01) == \
            _outcome(_ref_leaves_intersect, fam, 0.03, 0.01)
        for p in ([0.01, 0.0, 0.01], [0.0, 0.02, 0.0], [0.1, 0.1, 0.1]):
            want = _ref_radial_gap(fam, 0.03, np.asarray(p))[0] < 0
            assert fo.point_inside_leaf(fam, 0.03, p) == want

    def test_report_memory_is_bounded(self):
        # batches hold at most one leaf grid's worth of points
        import tracemalloc
        fam = fo.LeafFamily(2.04, (ex.parse("0.2*w1*w3"), ex.ZERO,
                                   ex.parse("0.1*w3*(1-w3)")), lambda_max=0.05)
        grid = list(np.linspace(0.005, 0.05, 10))
        fo.foliation_report(fam, grid)
        tracemalloc.start()
        try:
            fo.foliation_report(fam, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6


def _ref_boundary_condition_holds(f3, lambda_max):
    """LeafFamily's equator check with one walk per lambda."""
    phi = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    for lam in np.linspace(0.0, lambda_max, 5):
        vals = ex.evaluate(f3, {"lambda": np.full_like(phi, lam), "w1": np.cos(phi),
                                "w2": np.sin(phi), "w3": np.zeros_like(phi)})
        if np.max(np.abs(np.asarray(vals, dtype=float))) > 1e-12:
            return False
    return True


def _ref_bound(fam):
    """LeafFamily's sup of |f| + |Df| with one walk per lambda."""
    t = np.linspace(0.0, 1.0, 12)
    phi = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)
    tt, pp = np.meshgrid(t, phi, indexing="ij")
    s = np.sqrt(np.clip(1 - tt ** 2, 0.0, None))
    b = {"w1": (s * np.cos(pp)).ravel(), "w2": (s * np.sin(pp)).ravel(),
         "w3": tt.ravel()}
    sup = 0.0
    for lam in np.linspace(0.0, fam.lambda_max, 4):
        bl = dict(b, **{"lambda": np.full_like(b["w3"], lam)})
        zero = np.zeros_like(b["w3"])
        sq = [np.broadcast_to(np.asarray(val, dtype=float), zero.shape) ** 2
              for val in ex.evaluate(fam.f_exprs + fam._df, bl)]
        sup = max(sup, float(np.max(np.sqrt(sum(sq[:3], zero))
                                    + np.sqrt(sum(sq[3:], zero)))))
    return sup


def _lambda_families():
    """Families whose perturbation depends on lambda, through sin, cos, ln
    and powers."""
    rng = np.random.default_rng(27)
    fams = []
    for i in range(12):
        a, b, c = (f"{x:.4f}" for x in rng.uniform(0.05, 0.3, 3))
        f = (ex.parse(f"{a}*sin(lambda)*w1*w3 + {b}*cos(3*lambda) + lambda^2*w2"),
             ex.parse(f"{c}*w2*ln(1 + lambda) + {b}*sqrt(1 + lambda*w1^2)"),
             ex.parse(f"{a}*w3*(1 - w3)*sin(5*lambda + {c})"))
        fams.append(fo.LeafFamily(float(rng.uniform(0.0, 2.5)), f,
                                  lambda_max=float(rng.uniform(0.01, 0.5))))
    return fams


class TestLambdaColumn:
    def test_bound_matches_per_lambda_walks(self):
        # lambda bound as a column gives every element of the per-lambda
        # walks, so the sup is bit for bit the max of their maxima
        for fam in _seeded_families() + _lambda_families():
            assert fam.c_bound.hex() == _ref_bound(fam).hex()
            assert _ref_boundary_condition_holds(fam.f_exprs[2], fam.lambda_max)

    @pytest.mark.parametrize("f3", [
        "lambda*w1", "(lambda - 1/20)*w1", "sin(lambda)^2*w2/1000000000",
        "w1/10000000000000", "lambda*w3", "sin(3*lambda)*(w1^2 - w2^2)/100000000000",
        "(1 - w3)*w3*cos(lambda)"])
    def test_boundary_check_matches_per_lambda_walks(self, f3):
        e = ex.parse(f3)
        holds = _ref_boundary_condition_holds(e, 0.05)
        try:
            fo.LeafFamily(0.5, (ex.ZERO, ex.ZERO, e), lambda_max=0.05)
        except ValueError as err:
            assert str(err) == "f3 must vanish on the equator"
            assert not holds
        else:
            assert holds

    def test_one_walk_per_check(self, monkeypatch):
        calls = []
        evaluate = ex.evaluate

        def counted(e, bindings):
            calls.append(np.broadcast_shapes(*map(np.shape, bindings.values())))
            return evaluate(e, bindings)

        monkeypatch.setattr(ex, "evaluate", counted)
        fo.LeafFamily(0.5, (ex.parse("0.2*sin(lambda)*w1*w3"), ex.parse("0.1*w2"),
                            ex.parse("0.1*w3*(1-w3)*lambda")), lambda_max=0.05)
        assert calls == [(5, 64), (4, 288)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("index, message", [
        (0, "lambda_max * sup(|f| + |Df|) must be below 1"),
        (2, "f3 must vanish on the equator")])
    def test_nan_perturbation_rejected(self, index, message):
        # both powers overflow to inf, and inf - inf is NaN: a NaN fails
        # both checks instead of being passed over
        nan = ex.parse("(w1 + 3)^1000 - (w1 + 4)^1000")
        f = [ex.ZERO, ex.ZERO, ex.ZERO]
        f[index] = nan * ex.var("w3") if index == 2 else nan
        with pytest.raises(ValueError) as err:
            fo.LeafFamily(0.5, tuple(f), lambda_max=0.05)
        assert str(err.value) == message
