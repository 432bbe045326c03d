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


def test_family_file_roundtrip(tmp_path):
    path = tmp_path / "f.fam"
    path.write_text(
        "v = 1.5\nf1 = 0.3\nf2 = 0\nf3 = 0\nlambda_max = 0.05\n")
    fam, meta = fo.load_family_file(path)
    assert fam.v == 1.5
    assert meta["lambda_max"] == 0.05
    r = fo.ray_intersect(fam, 0.04, [1.0, 0.0, 0.0])
    assert r.t == pytest.approx(0.04 * 1.5 + 0.04 ** 2 * 0.3 + 0.04, abs=1e-12)
