import math
from fractions import Fraction

import numpy as np
import pytest
from jet_reference import Jet, walk

from hemifol import expr as ex
from hemifol import graph_surface as gs


def _grad_at_origin(surface):
    return gs.curvature_at(surface, 0.0, 0.0).gradH


def _symbolic_H_K(u):
    """H and K of the graph of u as expressions in x and y, built from
    ``ex.diff`` of u: the reference for the fixed formula of
    ``gs._curvatures``, with its sign convention H = kappa_1 + kappa_2."""
    ux, uy = ex.diff(u, "x"), ex.diff(u, "y")
    uxx = ex.diff(ux, "x")
    uxy, uyy = ex.diff((ux, uy), "y")
    w2 = 1 + ux ** 2 + uy ** 2
    H = ((1 + uy ** 2) * uxx - 2 * ux * uy * uxy
         + (1 + ux ** 2) * uyy) / (w2 * ex.sqrt(w2))
    K = (uxx * uyy - uxy ** 2) / w2 ** 2
    return H, K


def _reference_curvature(s, x, y):
    """H, K, gradH, the symmetrized hessH and gradK at (x, y) by symbolic
    differentiation of H and K."""
    H, K = _symbolic_H_K(s.u)
    gradH = (ex.diff(H, "x"), ex.diff(H, "y"))
    gradK = (ex.diff(K, "x"), ex.diff(K, "y"))
    hessH = (ex.diff(gradH[0], "x"), ex.diff(gradH[0], "y"),
             ex.diff(gradH[1], "x"), ex.diff(gradH[1], "y"))
    vals = ex.evaluate(gradH + hessH + (H, K) + gradK, {"x": x, "y": y})
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
                (gs.curvature_at(s, x0 + h, y0).H - gs.curvature_at(s, x0 - h, y0).H) / (2 * h),
                (gs.curvature_at(s, x0, y0 + h).H - gs.curvature_at(s, x0, y0 - h).H) / (2 * h),
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


class TestMongeClosedForms:
    """``gs._curvatures`` at the origin of a Monge jet, u = (k1 x^2 + k2 y^2)/2
    + (a x^3 + 3b x^2 y + 3c x y^2 + d y^3)/6 + q0 x^4 + q1 x^3 y + q2 x^2 y^2
    + q3 x y^3 + q4 y^4, against its closed forms (Cazals & Pouget, CAGD 22
    (2005)): H = k1 + k2, gradH = (a + c, b + d), K = k1 k2,
    gradK = (k2 a + k1 c, k2 b + k1 d), which is (k2 - k1)(a, b) where the
    origin is critical, and hessH = [[24 q0 + 4 q2 - k1^2 (3 k1 + k2),
    6 (q1 + q3)], [6 (q1 + q3), 24 q4 + 4 q2 - k2^2 (k1 + 3 k2)]]."""

    @staticmethod
    def _check(k1, k2, a, b, c, d, q):
        jet = (0.0, 0.0, k1, 0.0, k2, a, b, c, d,
               24 * q[0], 6 * q[1], 4 * q[2], 6 * q[3], 24 * q[4])
        H, K = gs._curvatures(jet)
        want_H = (k1 + k2, a + c, b + d,
                  24 * q[0] + 4 * q[2] - k1 ** 2 * (3 * k1 + k2), 6 * (q[1] + q[3]),
                  24 * q[4] + 4 * q[2] - k2 ** 2 * (k1 + 3 * k2))
        want_K = (k1 * k2, k2 * a + k1 * c, k2 * b + k1 * d)
        scale = max(map(abs, want_H + want_K))
        for got, want in zip(H + K, want_H + want_K):
            assert abs(got - want) <= 1e-13 * scale, (jet, H, K)
        return K

    def test_random_jets(self):
        rng = np.random.default_rng(15)
        for _ in range(1000):
            k1, k2, a, b, c, d = (float(v) for v in rng.uniform(-2.0, 2.0, 6))
            q = [float(v) for v in rng.uniform(-1.0, 1.0, 5)]
            self._check(k1, k2, a, b, c, d, q)
            # critical at the origin: c = -a and d = -b
            K = self._check(k1, k2, a, b, -a, -b, q)
            scale = max(abs(k1), abs(k2)) * max(abs(a), abs(b))
            for got, want in zip(K[1:], ((k2 - k1) * a, (k2 - k1) * b)):
                assert abs(got - want) <= 1e-13 * scale

    def test_umbilic_plane_and_sphere_cap(self):
        # exact where every product is exact
        assert gs._curvatures((0.0,) * 14) == ((0.0,) * 6, (0.0,) * 3)
        H, K = gs._curvatures((0.0, 0.0, 1.0, 0.0, 1.0) + (0.0,) * 4 + (3.0, 0.0, 1.0, 0.0, 3.0))
        assert H == (2.0, 0.0, 0.0, 0.0, 0.0, 0.0) and K == (1.0, 0.0, 0.0)


def _translated_gallery(a, x0, y0):
    """The gallery surface moved so that its critical point is (x0, y0)."""
    shift = {"x": ex.var("x") - ex.const(Fraction(repr(x0))),
             "y": ex.var("y") - ex.const(Fraction(repr(y0)))}
    return gs.GraphSurface(ex.substitute(gs.gallery_surface(a).u, shift))


class TestJetAgainstSymbolic:
    """``curvature_at``, the fixed formula on u's 4-jet, against symbolic
    differentiation of H and K: each quantity agrees to 1e-12 of its scale,
    the largest reference entry or 1 if smaller."""

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
            s = gs.gallery_surface(a, c1, c2)
            for x, y in rng.uniform(-0.5, 0.5, (3, 2)):
                self._agree(s, x, y)

    def test_random_quartics(self):
        # every monomial of degrees 1 to 4, each with a rational coefficient
        rng = np.random.default_rng(4)
        monomials = [(i, n - i) for n in range(1, 5) for i in range(n + 1)]
        for _ in range(12):
            terms = [f"({Fraction(repr(float(c)))})*x^{i}*y^{j}"
                     for (i, j), c in zip(monomials, rng.uniform(-0.6, 0.6, len(monomials)))]
            s = gs.GraphSurface(ex.parse(" + ".join(terms).replace("(-", "(0-")))
            for x, y in rng.uniform(-0.9, 0.9, (3, 2)):
                self._agree(s, x, y)

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
        for dx, dy in ((0.0, 0.0), (0.15, 0.1), (-0.1, -0.2)):
            self._agree(s, x + dx, y + dy)


_OPS = (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b, lambda a, b: a / b)

# the directions (1, 0), (0, 1), (1, 1) and (1, -1) of x and y: four float
# jets, or one jet whose derivative parts are length-4 arrays
_REF_DX = np.array([1.0, 0.0, 1.0, 1.0])
_REF_DY = np.array([0.0, 1.0, 1.0, -1.0])


def _array_lane_jet(e, x, y):
    return ex.evaluate_jet(e, {"x": ex.Jet2(x, _REF_DX, 0.0),
                               "y": ex.Jet2(y, _REF_DY, 0.0)})


def _lane_bits(j, k):
    """Bytes of f and of element k of d1 and d2 (a float part is its own
    element); signed zeros and NaN payloads count."""
    return (np.asarray(j.f, dtype=float).tobytes(),) + tuple(
        np.broadcast_to(np.asarray(p, dtype=float), 4)[k].tobytes() for p in (j.d1, j.d2))


def _assert_lanes_equal_arrays(e, x, y):
    want = _array_lane_jet(e, x, y)
    reference = walk(e, {"x": Jet(x, _REF_DX, 0.0), "y": Jet(y, _REF_DY, 0.0)})
    for k in range(4):
        lane = ex.evaluate_jet(e, {"x": ex.Jet2(x, float(_REF_DX[k]), 0.0),
                                   "y": ex.Jet2(y, float(_REF_DY[k]), 0.0)})
        assert _lane_bits(lane, k) == _lane_bits(want, k), (ex.to_string(e), x, y, k)
        assert _lane_bits(reference, k) == _lane_bits(want, k), (ex.to_string(e), x, y, k)


class TestLanesBitIdentical:
    """A jet walk whose derivative parts are floats, one per direction,
    against one walk whose parts are length-4 arrays (one lane per element)
    and against the reference jet arithmetic of ``jet_reference`` on those
    arrays, byte for byte: a float part takes the IEEE operations of one
    array element.  The DAGs are the symbolic H and K of graph surfaces."""

    def test_gallery_grid(self):
        for a in np.linspace(0.0, 0.7, 15):
            H, K = _symbolic_H_K(gs.gallery_surface(float(a)).u)
            for x, y in ((0.0, 0.0), (0.25, -0.4), (-0.9, 0.7)):
                _assert_lanes_equal_arrays(H, x, y)
                _assert_lanes_equal_arrays(K, x, y)

    def test_analysis_cubics_at_random_points(self):
        rng = np.random.default_rng(26)
        for _ in range(6):
            a = float(rng.uniform(0.0, 0.55))
            x0, y0 = (round(float(v), 6) for v in rng.uniform(-0.3, 0.3, 2))
            H, K = _symbolic_H_K(_translated_gallery(a, x0, y0).u)
            for x, y in [(x0, y0)] + [tuple(map(float, p))
                                      for p in rng.uniform(-1.0, 1.0, (3, 2))]:
                _assert_lanes_equal_arrays(H, x, y)
                _assert_lanes_equal_arrays(K, x, y)

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
        # each operation, unary minus included, on jets with signed zeros
        # and a non-finite part, and with plain operands (nonzero divisors:
        # a walk checks those before it divides): the walk of x op y with
        # float parts, and with length-4 array parts, against the reference
        # arithmetic on those arrays
        ops = [(text, ex.parse(text)) for text in ("x + y", "x - y", "x*y", "x/y")]
        swapped = [(text, ex.parse(text)) for text in ("y + x", "y - x", "y*x")]
        parts = [(0.7, (0.5, -0.0, 3.0, -2.5), (0.0, 1e300, -1e-300, math.inf)),
                 (-0.0, (0.0, 1e300, -1e-300, math.inf), (-0.0, 2.0, 0.5, -1.0)),
                 (-2.0, (1.0, -1.0, 0.0, 4.0), (0.5, -0.0, 3.0, -2.5))]
        jets = [(f, d1, d2, ex.Jet2(f, np.array(d1), np.array(d2)),
                 Jet(f, np.array(d1), np.array(d2))) for f, d1, d2 in parts]

        def lane(j, k):
            return ex.Jet2(j[0], j[1][k], j[2][k]) if isinstance(j, tuple) else j

        def check(text, e, p, q, pa, qa, want):
            got = ex.evaluate_jet(e, {"x": pa, "y": qa})
            for k in range(4):
                b = {"x": lane(p, k), "y": lane(q, k)}
                assert (_lane_bits(ex.evaluate_jet(e, b), k) == _lane_bits(got, k)
                        == _lane_bits(want, k)), (text, b)

        with np.errstate(all="ignore"):
            for *p, pa, pr in jets:
                p = tuple(p)
                # -x is 0 - x
                check("-x", -ex.var("x"), p, 0.0, pa, 0.0, 0.0 - pr)
                check("x^3", ex.parse("x^3"), p, 0.0, pa, 0.0, pr ** 3)
                for *q, qa, qr in jets[::2]:
                    for (text, e), op in zip(ops, _OPS):
                        check(text, e, p, tuple(q), pa, qa, op(pr, qr))
                for c in (2.0, -0.0, -3.25):
                    for (text, e), (flipped, f), op in zip(ops, swapped, _OPS):
                        check(text, e, p, c, pa, c, op(pr, c))
                        check(flipped, f, p, c, pa, c, op(c, pr))
                for c in (2.0, -3.25):
                    check("x/y", ops[3][1], p, c, pa, c, pr / c)
            for *q, qa, qr in jets[::2]:
                check("1.5/x", ex.parse("3/2/x"), tuple(q), 0.0, qa, 0.0, 1.5 / qr)
                check("x^-2", ex.parse("x^-2"), tuple(q), 0.0, qa, 0.0, qr ** -2)

    def test_constant_has_zero_derivatives(self):
        # a constant root walked beside a jet root is a jet with +0.0 parts
        e = ex.parse("x*y - cos(x)/3")
        for k in range(4):
            b = {"x": ex.Jet2(0.1, float(_REF_DX[k]), 0.0),
                 "y": ex.Jet2(0.2, float(_REF_DY[k]), 0.0)}
            const, got = ex.evaluate((ex.parse("5/2"), e), b)
            assert _lane_bits(const, k) == tuple(np.array(v).tobytes() for v in (2.5, 0.0, 0.0))
            assert _lane_bits(got, k) == _lane_bits(_array_lane_jet(e, 0.1, 0.2), k)


def _symbolic_derivatives(u):
    """u's 14 partial derivatives of orders 1 to 4 as expressions, in the
    order of ``gs._curvatures``, from 8 ``diff`` calls: u_x, u_y, then each
    order's x derivative of its first entry and y derivatives of all."""
    roots = order = [ex.diff(u, "x"), ex.diff(u, "y")]
    for _ in range(3):
        order = [ex.diff(order[0], "x")] + ex.diff(order, "y")
        roots = roots + order
    return roots


class TestTaylorAgainstDiff:
    """The 14 derivatives of one Taylor walk of u against a plain walk of
    u's symbolic derivatives: each agrees to 1e-13 of the largest derivative
    of its order."""

    # every _FUNCS entry, positive and negative powers, quotients, nesting
    SURFACES = [
        "ln(3 + x - y^2) + x^2", "sqrt(2 + x^2 + x*y)", "sin(x)*cos(y) + x*y/2",
        "artanh(x*y/2 + x/3)", "cot(1 + x - y/2)", "(x - 2*y)^5 + x^3*y^2",
        "(1 + x*y)^7 - y^4", "x*y/(2 + x)^2 + (2 + x + y)^-3", "(1 + x^2 + y^2)^-1",
        "(x - y/3)/(2 + x*y + y^2)", "1/(3 + x) - y/(2 - x*y)",
        "sqrt(1 + sin(x*y)^2) + ln(2 + cos(x - y))", "cot(x^2 + 1/2)^3/(1 + y^2)",
        "artanh(y/2 + 3/4)^-2 + x",
    ]

    @staticmethod
    def _agree(s, points):
        roots = _symbolic_derivatives(s.u)
        for x, y in points:
            x, y = float(x), float(y)
            want = ex.evaluate(roots, {"x": x, "y": y})
            got = gs._derivatives(s, x, y)
            for lo, hi in ((0, 2), (2, 5), (5, 9), (9, 14)):
                scale = max(abs(w) for w in want[lo:hi])
                for k in range(lo, hi):
                    assert abs(got[k] - want[k]) <= 1e-13 * scale, (ex.to_string(s.u), x, y, k)

    @pytest.mark.parametrize("u", SURFACES)
    def test_functions_powers_quotients(self, u):
        rng = np.random.default_rng(len(u))
        self._agree(gs.GraphSurface(ex.parse(u)), rng.uniform(-0.45, 0.45, (4, 2)))

    @pytest.mark.parametrize("a", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    def test_gallery(self, a):
        self._agree(gs.gallery_surface(a), [(0.0, 0.0), (0.3, -0.2), (-0.05, 0.41)])

    def test_translated_cubics(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            a = float(rng.uniform(0.0, 0.55))
            x0, y0 = (round(float(v), 6) for v in rng.uniform(-0.3, 0.3, 2))
            s = _translated_gallery(a, x0, y0)
            self._agree(s, [(x0, y0), (x0 + 0.005, y0 - 0.005)] + list(rng.uniform(-0.5, 0.5, (2, 2))))

    def test_constant_and_linear_u(self):
        # a u without x and y walks to a float: every derivative is 0
        assert gs._derivatives(gs.GraphSurface(ex.parse("3/2")), 0.1, 0.2) == (0.0,) * 14
        assert gs._derivatives(gs.GraphSurface(ex.parse("2*x - y")), 0.1, 0.2) == (
            (2.0, -1.0) + (0.0,) * 12)


class TestJointWalk:
    """Each Newton iterate walks u once."""

    def test_h_failure_named_as_before(self):
        # Newton names the node that a plain walk of u alone names:
        # the first failing one in left-to-right order
        s = gs.GraphSurface(ex.parse("x*y + x^2 + y^2 + ln(x + 1/2)^3"))
        with pytest.raises(ex.DomainError) as newton:
            gs.find_critical_point(s, (-0.75, 0.0))
        with pytest.raises(ex.DomainError) as alone:
            ex.evaluate(s.u, {"x": -0.75, "y": 0.0})
        assert str(newton.value) == str(alone.value)
        assert str(alone.value) == "ln of non-positive value in subexpression 'ln(x + 1/2)'"

    def test_converged_walk_supplies_the_data(self, monkeypatch):
        # the data Newton returns is curvature_at at its point, bit for
        # bit, from one walk per iterate
        calls = []
        evaluate = ex.evaluate
        monkeypatch.setattr(ex, "evaluate", lambda e, b: calls.append(b) or evaluate(e, b))
        rng = np.random.default_rng(11)
        for _ in range(4):
            a = float(rng.uniform(0.0, 0.45))
            x0, y0 = (round(float(v), 6) for v in rng.uniform(-0.3, 0.3, 2))
            s = _translated_gallery(a, x0, y0)
            calls.clear()
            data = gs.find_critical_point(s, (x0 + 0.005, y0 - 0.005))
            steps = len(calls)
            want = gs.curvature_at(s, *data.point)
            assert _data_bits(data) == _data_bits(want)
            assert 1 < steps < gs.NEWTON_MAX_ITER and len(calls) == steps + 1


def _data_bits(d):
    return {name: (value if isinstance(value, bool)
                   else np.asarray(value, dtype=float).tobytes())
            for name, value in vars(d).items()}


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
        H, _ = _symbolic_H_K(s.u)
        h0 = ex.evaluate(H, {"x": 0.0, "y": 0.0})
        h1 = ex.evaluate(H, {"x": 0.05, "y": 0.0})
        assert h0 > h1 and data.H == pytest.approx(h0, rel=1e-14)

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
            v = gs.foliation_criterion(data, case)
            assert v.verdict == "Foliates"
            assert v.v0_norm_lower == 0.0

    def test_near_root_does_not_foliate(self):
        s = gs.gallery_surface(0.51)
        data = gs.curvature_at(s, 0.0, 0.0)
        for case in ("willmore", "cmc"):
            v = gs.foliation_criterion(data, case)
            assert v.verdict == "DoesNotFoliate"

    def test_factor_between_cases(self):
        s = gs.gallery_surface(0.3)
        data = gs.curvature_at(s, 0.0, 0.0)
        vw = gs.foliation_criterion(data, "willmore")
        vc = gs.foliation_criterion(data, "cmc")
        assert vw.v0_norm_lower == pytest.approx(0.5 * gs.gallery_v0_norm(0.3), rel=1e-9)
        assert vc.v0_norm_lower == pytest.approx(gs.gallery_v0_norm(0.3) / 3, rel=1e-9)

    def test_norm_bracket_holds(self):
        for a in (0.1, 0.3, 0.45):
            s = gs.gallery_surface(a)
            data = gs.curvature_at(s, 0.0, 0.0)
            v = gs.foliation_criterion(data, "willmore")
            assert v.v0_norm_lower <= v.v0_norm_induced + 1e-15
            assert v.v0_norm_induced <= v.v0_norm_upper + 1e-15

    def test_bracket_scaling(self):
        # gradient of the gallery graph at 0 is (a, a)
        a = 0.3
        s = gs.gallery_surface(a)
        data = gs.curvature_at(s, 0.0, 0.0)
        v = gs.foliation_criterion(data, "cmc")
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
