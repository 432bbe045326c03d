import math
from fractions import Fraction

import numpy as np
import pytest

from hemifol import expr as ex
from hemifol import graph_surface as gs


def _grad_at_origin(surface):
    return gs.curvature_at(surface, 0.0, 0.0).gradH


def _reference_curvature(s, x, y):
    """H, K, gradH, the symmetrized hessH and gradK at (x, y) by symbolic
    differentiation of H and K, the construction the jet walk replaced."""
    gradH = (ex.diff(s.H, "x"), ex.diff(s.H, "y"))
    gradK = (ex.diff(s.K, "x"), ex.diff(s.K, "y"))
    hessH = (ex.diff(gradH[0], "x"), ex.diff(gradH[0], "y"),
             ex.diff(gradH[1], "x"), ex.diff(gradH[1], "y"))
    vals = ex.evaluate(gradH + hessH + (s.H, s.K) + gradK, {"x": x, "y": y})
    hess = np.array(vals[2:6]).reshape(2, 2)
    return {"H": vals[6], "K": vals[7], "gradH": np.array(vals[0:2]),
            "hessH": 0.5 * (hess + hess.T), "gradK": np.array(vals[8:10])}


class TestCurvatureAt:
    def test_plane(self):
        data = gs.curvature_at(gs.GraphSurface(ex.ZERO), 0.0, 0.0)
        assert data.H == 0.0 and data.K == 0.0

    def test_gallery_critical_gradient(self):
        data = gs.curvature_at(gs.gallery_surface(0.1), 0.0, 0.0)
        assert np.linalg.norm(data.gradH) < 1e-14
        assert data.hess_is_covariant

    def test_dHdx_formula_with_free_c1(self):
        # a = 0.3, c1 = 0: evaluate the closed form as the oracle
        s = gs.gallery_surface(0.3, c1=0.0, c2=0.0)
        got = gs.curvature_at(s, 0.0, 0.0).gradH[0]
        a = 0.3
        want = -2 * (a - a ** 3) / (1 + 2 * a ** 2) ** 2.5
        assert got == pytest.approx(want, rel=1e-12)

    def test_covariance_flag_off_critical(self):
        data = gs.curvature_at(gs.gallery_surface(0.3, c1=0.0, c2=0.0), 0.0, 0.0)
        assert not data.hess_is_covariant

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            gs.curvature_at(gs.GraphSurface(ex.ZERO), 2.0, 0.0)

    def test_unbound_parameter_rejected(self):
        with pytest.raises(ValueError):
            gs.GraphSurface(ex.parse("a*x"))


class TestClosedFormAnchors:
    def test_dH_formulas_random_triples(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, c1, c2 = rng.uniform(-0.5, 0.5, 3)
            s = gs.gallery_surface(a, c1, c2)
            g = _grad_at_origin(s)
            assert g[0] == pytest.approx(gs.gallery_dHdx(a, c1), rel=1e-10)
            assert g[1] == pytest.approx(gs.gallery_dHdx(a, c2), rel=1e-10)

    @pytest.mark.parametrize("a", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    def test_gradient_vanishes_with_gallery_c(self, a):
        s = gs.gallery_surface(a)
        assert np.linalg.norm(_grad_at_origin(s)) < 1e-12

    @pytest.mark.parametrize("a", [0.05, 0.15, 0.3, 0.45])
    def test_hessH_gradK_closed_forms(self, a):
        data = gs.curvature_at(gs.gallery_surface(a), 0.0, 0.0)
        hess, gradK = gs.hessH_and_gradK_gallery(a)
        assert np.max(np.abs(data.hessH - hess)) < 1e-10
        assert np.max(np.abs(data.gradK - gradK)) < 1e-10

    def test_a0_closed_forms(self):
        hess, gradK = gs.hessH_and_gradK_gallery(0.0)
        assert np.allclose(hess, -2 * np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(gradK, 0.0)

    def test_finite_difference_gradients(self):
        s = gs.gallery_surface(0.25)
        h = 1e-4
        for x0, y0 in [(0.0, 0.0), (0.1, -0.05)]:
            sym = gs.curvature_at(s, x0, y0).gradH
            fd = np.array([
                (ex.evaluate(s.H, {"x": x0 + h, "y": y0})
                 - ex.evaluate(s.H, {"x": x0 - h, "y": y0})) / (2 * h),
                (ex.evaluate(s.H, {"x": x0, "y": y0 + h})
                 - ex.evaluate(s.H, {"x": x0, "y": y0 - h})) / (2 * h),
            ])
            assert np.max(np.abs(sym - fd)) < 1e-6 * max(1.0, np.max(np.abs(sym)))
        # second derivatives by FD of the jet gradient
        hess_sym = gs.curvature_at(s, 0.0, 0.0).hessH
        fd_hess = np.zeros((2, 2))
        for j, (dx, dy) in enumerate([(h, 0.0), (0.0, h)]):
            gp = gs.curvature_at(s, dx, dy).gradH
            gm = gs.curvature_at(s, -dx, -dy).gradH
            fd_hess[:, j] = (gp - gm) / (2 * h)
        assert np.max(np.abs(hess_sym - fd_hess)) < 1e-6 * np.max(np.abs(hess_sym))


def _translated_gallery(a, x0, y0):
    """The gallery surface moved so that its critical point is (x0, y0)."""
    shift = {"x": ex.var("x") - ex.const(Fraction(repr(x0))),
             "y": ex.var("y") - ex.const(Fraction(repr(y0)))}
    return gs.GraphSurface(ex.substitute(gs.gallery_surface(a).u, shift))


class TestJetAgainstSymbolic:
    """The jet walk against symbolic differentiation: each quantity agrees
    to 1e-12 of its scale, the largest reference entry or 1 if smaller."""

    @staticmethod
    def _agree(s, x, y):
        got = gs.curvature_at(s, x, y)
        ref = _reference_curvature(s, x, y)
        for name, want in ref.items():
            have = np.asarray(getattr(got, name))
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(have - want)) <= 1e-12 * scale, name
        assert got.hessH[0, 1] == got.hessH[1, 0]

    @pytest.mark.parametrize("a", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    def test_gallery(self, a):
        self._agree(gs.gallery_surface(a), 0.0, 0.0)

    def test_random_cubic_triples(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, c1, c2 = rng.uniform(-0.5, 0.5, 3)
            x, y = rng.uniform(-0.5, 0.5, 2)
            self._agree(gs.gallery_surface(a, c1, c2), x, y)

    @pytest.mark.parametrize("a, x0, y0", [(0.1, 0.2, -0.1), (0.35, -0.25, 0.3),
                                           (0.5, 0.05, 0.05)])
    def test_translated_cubics(self, a, x0, y0):
        s = _translated_gallery(a, x0, y0)
        self._agree(s, x0, y0)
        self._agree(s, x0 + 0.1, y0 - 0.2)

    @pytest.mark.parametrize("u, x, y", [
        ("sin(x)*cos(y) + x*y/2", 0.3, -0.2),
        ("sqrt(2 + x^2 + x*y)", 0.4, 0.1),
        ("ln(3 + x - y^2) + x^2", -0.2, 0.5),
    ])
    def test_non_polynomial(self, u, x, y):
        s = gs.GraphSurface(ex.parse(u))
        assert np.linalg.norm(gs.curvature_at(s, x, y).gradH) > 1e-3
        self._agree(s, x, y)


class TestV0:
    @pytest.mark.parametrize("a", [0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.5])
    def test_matrix_solve_matches_closed_form(self, a):
        data = gs.curvature_at(gs.gallery_surface(a), 0.0, 0.0)
        v = np.linalg.solve(data.hessH, data.gradK)
        assert np.linalg.norm(v) == pytest.approx(gs.gallery_v0_norm(a), rel=1e-10)

    def test_norm_value_at_03(self):
        a = 0.3
        want = (2 * a * (1 + a ** 2) * math.sqrt(2 * (1 + 2 * a ** 2))
                / abs(1 - 15 * a ** 4 + 2 * a ** 6))
        assert gs.gallery_v0_norm(0.3) == pytest.approx(want)
        assert want == pytest.approx(1.141752065, abs=1e-8)

    def test_v0_zero_at_a0(self):
        data = gs.curvature_at(gs.gallery_surface(0.0), 0.0, 0.0)
        v = np.linalg.solve(data.hessH, data.gradK)
        assert np.allclose(v, 0.0)


class TestFindCriticalPoint:
    @pytest.mark.parametrize("a", [0.1, 0.2, 0.3, 0.4])
    def test_gallery_converges_to_origin(self, a):
        s = gs.gallery_surface(a)
        data = gs.find_critical_point(s, (0.01, -0.01))
        assert np.max(np.abs(data.point)) < 1e-10
        assert data.nondegenerate

    def test_paraboloid(self):
        s = gs.GraphSurface(ex.parse("x^2 + y^2"))
        data = gs.find_critical_point(s, (0.05, -0.07))
        assert np.max(np.abs(data.point)) < 1e-10
        # numeric cross-check: H is radially symmetric, extremal at 0
        h0 = ex.evaluate(s.H, {"x": 0.0, "y": 0.0})
        h1 = ex.evaluate(s.H, {"x": 0.05, "y": 0.0})
        assert h0 > h1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_guess_not_finite(self, bad):
        s = gs.gallery_surface(0.3)
        for guess in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(ValueError, match="^guess must be finite$"):
                gs.find_critical_point(s, guess)

    def test_tilted_plane_degenerate(self):
        s = gs.GraphSurface(ex.parse("x"))
        with pytest.raises((gs.DegenerateHessian, gs.NoConvergence)):
            gs.find_critical_point(s, (0.1, 0.1))


class TestFoliationCriterion:
    def test_a0_foliates_both_cases(self):
        s = gs.gallery_surface(0.0)
        data = gs.curvature_at(s, 0.0, 0.0)
        for case in ("willmore", "cmc"):
            v = gs.foliation_criterion(s, data, case)
            assert v.verdict == "Foliates"
            assert v.v0_norm_lower == 0.0

    def test_near_root_does_not_foliate(self):
        s = gs.gallery_surface(0.51)
        data = gs.curvature_at(s, 0.0, 0.0)
        for case in ("willmore", "cmc"):
            v = gs.foliation_criterion(s, data, case)
            assert v.verdict == "DoesNotFoliate"

    def test_factor_between_cases(self):
        s = gs.gallery_surface(0.3)
        data = gs.curvature_at(s, 0.0, 0.0)
        vw = gs.foliation_criterion(s, data, "willmore")
        vc = gs.foliation_criterion(s, data, "cmc")
        assert vw.v0_norm_lower == pytest.approx(0.5 * gs.gallery_v0_norm(0.3), rel=1e-9)
        assert vc.v0_norm_lower == pytest.approx(gs.gallery_v0_norm(0.3) / 3, rel=1e-9)

    def test_norm_bracket_holds(self):
        for a in (0.1, 0.3, 0.45):
            s = gs.gallery_surface(a)
            data = gs.curvature_at(s, 0.0, 0.0)
            v = gs.foliation_criterion(s, data, "willmore")
            assert v.v0_norm_lower <= v.v0_norm_induced + 1e-15
            assert v.v0_norm_induced <= v.v0_norm_upper + 1e-15

    def test_bracket_scaling(self):
        # gradient of the gallery graph at 0 is (a, a)
        a = 0.3
        s = gs.gallery_surface(a)
        data = gs.curvature_at(s, 0.0, 0.0)
        v = gs.foliation_criterion(s, data, "cmc")
        assert v.v0_norm_upper == pytest.approx(
            v.v0_norm_lower * math.sqrt(1 + 2 * a ** 2), rel=1e-12)


class TestGalleryRoot:
    def test_bracket_signs(self):
        p = lambda x: 1 - 15 * x ** 4 + 2 * x ** 6
        assert p(0.5) > 0 and p(0.52) < 0
        assert p(0.5) == pytest.approx(0.09375)

    def test_root(self):
        xi = gs.gallery_root()
        assert 0.5 < xi < 0.52
        assert abs(1 - 15 * xi ** 4 + 2 * xi ** 6) < 1e-11

    def test_bisection_oracle(self):
        # independent oracle: numpy polynomial root in the bracket
        roots = np.roots([2, 0, -15, 0, 0, 0, 1])
        real = [r.real for r in roots if abs(r.imag) < 1e-12 and 0.5 < r.real < 0.52]
        assert len(real) == 1
        assert gs.gallery_root() == pytest.approx(real[0], abs=1e-11)


def test_surface_file_roundtrip(tmp_path):
    params = gs.gallery_params(0.3)
    path = tmp_path / "s.surf"
    path.write_text(
        "name = test\n"
        "u = a*x + a*y + x*y - c1*x^3 - c2*y^3\n"
        f"params: a=0.3, c1={params.c1!r}, c2={params.c2!r}\n")
    s = gs.load_surface_file(path)
    assert s.name == "test"
    data = gs.find_critical_point(s, (0.01, -0.01))
    assert np.max(np.abs(data.point)) < 1e-10
