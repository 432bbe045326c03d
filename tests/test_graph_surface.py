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


# The four-direction walk as numpy Jet2s with length-4 array parts, as
# _derivatives made it before its jets carried float lanes: the reference
# that the lanes must equal bit for bit.
_REF_DX = np.array([1.0, 0.0, 1.0, 1.0])
_REF_DY = np.array([0.0, 1.0, 1.0, -1.0])


def _array_lane_jet(e, x, y):
    return ex.evaluate_jet(e, {"x": ex.Jet2(x, _REF_DX, 0.0),
                               "y": ex.Jet2(y, _REF_DY, 0.0)})


def _array_lane_derivatives(e, x, y):
    j = _array_lane_jet(e, x, y)
    d1 = np.broadcast_to(j.d1, 4)
    d2 = np.broadcast_to(j.d2, 4)
    mixed = 0.25 * (d2[2] - d2[3])
    return j.f, d1[:2].copy(), np.array([[d2[0], mixed], [mixed, d2[1]]])


def _lane_bits(j):
    """Bytes of f, d1 and d2 with d1 and d2 as four lanes; signed zeros
    and NaN payloads count."""
    return tuple(np.broadcast_to(np.asarray(p, dtype=float), s).tobytes()
                 for p, s in ((j.f, ()), (j.d1, 4), (j.d2, 4)))


def _lane_walk(e, x, y):
    return ex.evaluate_jet(e, {"x": ex.LaneJet2(x, gs._X_LANES, gs._ZERO_LANES),
                               "y": ex.LaneJet2(y, gs._Y_LANES, gs._ZERO_LANES)})


def _assert_lanes_equal_arrays(e, x, y):
    assert _lane_bits(_lane_walk(e, x, y)) == _lane_bits(_array_lane_jet(e, x, y)), \
        (ex.to_string(e), x, y)


def _data_bits(d):
    return {name: (value if isinstance(value, bool)
                   else np.asarray(value, dtype=float).tobytes())
            for name, value in vars(d).items()}


class TestLanesBitIdentical:
    """The float-lane jet of :func:`gs._derivatives` against the numpy
    Jet2 walk with length-4 arrays, compared byte for byte."""

    def test_gallery_grid(self):
        for a in np.linspace(0.0, 0.7, 29):
            s = gs.gallery_surface(float(a))
            for x, y in ((0.0, 0.0), (0.25, -0.4), (-0.9, 0.7)):
                _assert_lanes_equal_arrays(s.H, x, y)
                _assert_lanes_equal_arrays(s.K, x, y)

    def test_analysis_cubics_at_random_points(self):
        rng = np.random.default_rng(26)
        for _ in range(12):
            a = float(rng.uniform(0.0, 0.55))
            x0, y0 = (round(float(v), 6) for v in rng.uniform(-0.3, 0.3, 2))
            s = _translated_gallery(a, x0, y0)
            for x, y in [(x0, y0)] + [tuple(map(float, p))
                                      for p in rng.uniform(-1.0, 1.0, (4, 2))]:
                _assert_lanes_equal_arrays(s.H, x, y)
                _assert_lanes_equal_arrays(s.K, x, y)

    def test_every_node_kind(self):
        corpus = [
            "ln(2 + x*y) * sqrt(3 + x - y^2)",
            "sin(x*y) + cos(x - 2*y)",
            "cos(x)", "cos(y)/3",                 # -0.0 in the lanes of the other variable
            "artanh(x*y/4) - cot(1 + x/3 + y/5)",
            "(x + y)/3 + x/(1 + y^2)",            # plain and jet divisors
            "(1 + x^2 + y^2)^-2 * x^3",           # negative and positive powers
            "1 - x*y",                            # constant minus jet
            "pi/(2 + sin(x)) - 0/(1 + x^2)",
            "x", "y", "7/3",                      # a binding and a constant root
        ]
        rng = np.random.default_rng(7)
        points = [(0.0, 0.0), (-0.0, 0.5), (0.3, -0.0)] + [
            tuple(map(float, p)) for p in rng.uniform(-0.9, 0.9, (6, 2))]
        for text in corpus:
            e = ex.parse(text)
            for x, y in points:
                _assert_lanes_equal_arrays(e, x, y)
            for name in ("x", "y"):
                d = ex.diff(e, name)
                for x, y in points:
                    _assert_lanes_equal_arrays(d, x, y)
        # operators, unary minus included, on jets with signed zeros and a
        # non-finite part, and plain operands (nonzero divisors: a walk
        # checks those before it divides)
        ops = (lambda a, b: a + b, lambda a, b: a - b,
               lambda a, b: a * b, lambda a, b: a / b)
        parts = [(0.7, (0.5, -0.0, 3.0, -2.5), (0.0, 1e300, -1e-300, math.inf)),
                 (-0.0, (0.0, 1e300, -1e-300, math.inf), (-0.0, 2.0, 0.5, -1.0)),
                 (-2.0, (1.0, -1.0, 0.0, 4.0), (0.5, -0.0, 3.0, -2.5))]
        jets = [(ex.LaneJet2(f, d1, d2), ex.Jet2(f, np.array(d1), np.array(d2)))
                for f, d1, d2 in parts]
        with np.errstate(all="ignore"):
            for p, pr in jets:
                assert _lane_bits(-p) == _lane_bits(-pr)
                assert _lane_bits(p ** 3) == _lane_bits(pr ** 3)
                for q, qr in jets[::2]:
                    for op in ops:
                        assert _lane_bits(op(p, q)) == _lane_bits(op(pr, qr))
                for c in (2.0, -0.0, -3.25):
                    for op in ops[:3]:
                        assert _lane_bits(op(p, c)) == _lane_bits(op(pr, c))
                        assert _lane_bits(op(c, p)) == _lane_bits(op(c, pr))
                for c in (2.0, -3.25):
                    assert _lane_bits(p / c) == _lane_bits(pr / c)
            for q, qr in jets[::2]:
                assert _lane_bits(1.5 / q) == _lane_bits(1.5 / qr)
                assert _lane_bits(q ** -2) == _lane_bits(qr ** -2)

    def test_constant_has_zero_derivatives(self):
        f, grad, hess = gs._derivatives(ex.parse("5/2"), 0.1, 0.2)
        assert f == 2.5
        assert grad.tobytes() == np.zeros(2).tobytes()
        assert hess.tobytes() == np.zeros((2, 2)).tobytes()

    def test_curvature_data_and_newton(self, monkeypatch):
        rng = np.random.default_rng(11)
        cases = []
        for _ in range(6):
            a = float(rng.uniform(0.0, 0.45))
            x0, y0 = (round(float(v), 6) for v in rng.uniform(-0.3, 0.3, 2))
            cases.append((_translated_gallery(a, x0, y0), (x0 + 0.005, y0 - 0.005)))
        for u in ("x*y + sqrt(4 + x^2) - cos(y)/3",
                  "x*y + x^2*sqrt(1 + y^2)/3 + artanh(x/2)*y"):
            cases.append((gs.GraphSurface(ex.parse(u)), (0.05, -0.05)))
        got = [(_data_bits(gs.curvature_at(s, *p)), _data_bits(gs.find_critical_point(s, p)))
               for s, p in cases]
        monkeypatch.setattr(gs, "_derivatives", _array_lane_derivatives)
        want = [(_data_bits(gs.curvature_at(s, *p)), _data_bits(gs.find_critical_point(s, p)))
                for s, p in cases]
        assert got == want


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

    def test_step_limit(self, monkeypatch):
        monkeypatch.setattr(gs, "NEWTON_MAX_ITER", 1)
        with pytest.raises(gs.NoConvergence, match="^no critical point within 1 Newton steps$"):
            gs.find_critical_point(gs.gallery_surface(0.3), (0.01, -0.01))

    @pytest.mark.filterwarnings("error")
    def test_non_finite_jet_refused(self):
        # the products overflow to inf and inf - inf is NaN, which numpy's
        # det warned about before the iterate left the domain as (nan, nan)
        s = gs.GraphSurface(ex.parse("x*y + x^2 + y^2 + (x+3)^600*(x+3)^600"))
        with pytest.raises(gs.NoConvergence) as err:
            gs.find_critical_point(s, (0.01, -0.01))
        assert str(err.value) == ("H or its derivatives not finite at "
                                  "Newton iterate (0.01, -0.01)")

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


@pytest.mark.parametrize("body, message", [
    ("name = s\n", "surface file has no 'u = <expr>' line"),
    ("u = x*y + x^2\nu = x*y + 2*x^2\n", "repeated surface-file key 'u'"),
    ("name = a\nname = b\nu = x*y\n", "repeated surface-file key 'name'"),
    ("u = a*x*y\nparams: a=1\nparams: a=2\n", "params item 'a=2': repeated name 'a'"),
    ("u = a*x*y\nparams: a=1, a=1\n", "params item 'a=1': repeated name 'a'"),
    ("u = a*x*y\nparams: a=\n", "params item 'a=': Invalid literal for Fraction: ''"),
    ("u = a*x*y\nparams: a=x\n", "params item 'a=x': Invalid literal for Fraction: 'x'"),
], ids=["no-u", "two-u", "two-names", "param-two-lines", "param-one-line",
        "param-empty", "param-letter"])
def test_surface_file_errors(tmp_path, body, message):
    # a repeated key is ambiguous, and every malformed params item names itself
    path = tmp_path / "s.surf"
    path.write_text(body)
    with pytest.raises(ValueError) as err:
        gs.load_surface_file(path)
    assert str(err.value) == message
