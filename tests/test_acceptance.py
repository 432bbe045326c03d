"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion (run with ``pytest -v -s tests/test_acceptance.py``)."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hemifol import expr as ex
from hemifol import foliation as fo
from hemifol import graph_surface as gs
from hemifol import linearized as lin
from hemifol import quadrature as hq
from hemifol import sphere
from hemifol import variational as va

LN2 = math.log(2.0)


def _report(n, label):
    print(f"ACCEPTANCE {n}: PASS - {label}")


def test_criterion_1_exact_moments():
    assert hq.surface_moment(hq.Moment(2, 0, 1)) == Fraction(1, 4)
    assert hq.surface_moment(hq.Moment(0, 0, 1)) == Fraction(1)
    q1 = hq.integrate_surface(ex.parse("w1^2*w3"))
    q2 = hq.integrate_surface(ex.parse("w3"))
    assert abs(q1 - math.pi / 4) < 1e-12
    assert abs(q2 - math.pi) < 1e-12
    _report(1, "exact moments pi/4 and pi; quadrature within 1e-12")


def test_criterion_2_linearized_solutions():
    for case, k1, k2 in [("willmore", 1.0, 1.0), ("willmore", 1.0, 0.0),
                         ("cmc", 1.0, 1.0), ("cmc", 1.0, 0.0)]:
        p = lin.LinearizedProblem(case, k1, k2)
        rep = lin.residual_check(p, lin.closed_form_uprime(p))
        assert rep.max_residual() < 1e-10, (case, k1, k2)
        sol = lin.solve_ode_modes(p)
        t, phi, got = sol.samples[:, 0], sol.samples[:, 1], sol.samples[:, 2]
        w1, w2, w3 = sphere.omega_values(t, phi)
        want = ex.evaluate(lin.closed_form_uprime(p),
                           {"w1": w1, "w2": w2, "w3": w3})
        assert np.max(np.abs(got - want)) < 1e-7, (case, k1, k2)
        alpha, beta = lin.multipliers(p)
        closed = -3.0 / 8.0 * p.H if case == "cmc" else p.H / 4.0
        assert abs(alpha - closed) < 1e-10
        assert np.max(np.abs(beta)) < 1e-10
    _report(2, "closed-form residuals < 1e-10, ODE modes < 1e-7, multipliers")


_WILLMORE_PINNED = {
    "D1sq": ((Fraction(-8, 7), Fraction(0)), (Fraction(863, 280), Fraction(-3))),
    "D12": ((Fraction(23, 14), Fraction(0)), (Fraction(-291, 560), Fraction(0))),
    "D2sq": ((Fraction(4, 21), Fraction(0)), (Fraction(16, 35), Fraction(0))),
    "D1_u2": ((Fraction(0), Fraction(0)), (Fraction(-4), Fraction(4))),
    "D2_g2": ((Fraction(-4, 3), Fraction(0)), (Fraction(0), Fraction(0))),
}

_CMC_PINNED = {
    "D12": ((Fraction(5, 14), Fraction(0)), (Fraction(-579, 2240), Fraction(0))),
    "D1sq": ((Fraction(-31, 270), Fraction(-4, 9)),
             (Fraction(2201, 8640), Fraction(1, 9))),
    "D2sq": ((Fraction(64, 105), Fraction(0)), (Fraction(-4, 21), Fraction(0))),
    "D2_g2": ((Fraction(-4, 5), Fraction(0)), (Fraction(4, 15), Fraction(0))),
    "D1_u2": ((Fraction(-229, 945), Fraction(4, 9)),
              (Fraction(113, 30240), Fraction(-1, 9))),
}


def _check_suite(dec, pinned, total_K, total_H2):
    for name, (wk, wh) in pinned.items():
        tv = dec.terms[name]
        assert (tv.K_coeff.p, tv.K_coeff.q) == wk, name
        assert (tv.H2_coeff.p, tv.H2_coeff.q) == wh, name
        ref_k = hq.CoefficientVector(*wk).value()
        ref_h = hq.CoefficientVector(*wh).value()
        for (k1, k2), raw in tv.raw.items():
            assert abs(raw - (ref_k * k1 * k2 + ref_h * (k1 + k2) ** 2)) < 1e-7
    kt, ht = dec.total()
    assert (kt.p, kt.q) == total_K
    assert (ht.p, ht.q) == total_H2
    for k1, k2 in va.PROBE_PAIRS:
        total_raw = sum(
            (2 if name == "D12" else 1) * tv.raw[(k1, k2)]
            for name, tv in dec.terms.items())
        want = (hq.CoefficientVector(*total_K).value() * k1 * k2
                + hq.CoefficientVector(*total_H2).value() * (k1 + k2) ** 2)
        assert abs(total_raw - want) < 1e-7


def test_criterion_3_willmore_coefficient_suite(willmore_terms):
    _check_suite(willmore_terms, _WILLMORE_PINNED,
                 (Fraction(1), Fraction(0)), (Fraction(-3, 2), Fraction(1)))
    _report(3, "five Willmore terms exact; totals pi K + pi (ln2 - 3/2) H^2")


def test_criterion_4_cmc_coefficient_suite(cmc_terms):
    _check_suite(cmc_terms, _CMC_PINNED,
                 (Fraction(1, 6), Fraction(0)), (Fraction(-35, 192), Fraction(0)))
    assert abs(cmc_terms.first_derivative - (-math.pi / 4)) < 1e-10
    _report(4, "five CMC terms exact; first derivative -pi H/4; "
               "total pi (K/6 - 35/192 H^2)")


def test_criterion_5_gallery():
    for a in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]:
        s = gs.gallery_surface(a)
        g = gs.curvature_at(s, 0.0, 0.0).gradH
        assert np.linalg.norm(g) < 1e-12, a
    for a in [0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.5]:
        data = gs.curvature_at(gs.gallery_surface(a), 0.0, 0.0)
        v = np.linalg.solve(data.hessH, data.gradK)
        assert np.linalg.norm(v) == pytest.approx(
            gs.gallery_v0_norm(a), rel=1e-10), a
    xi = gs.gallery_root()
    assert 0.5 < xi < 0.52
    assert abs(1 - 15 * xi ** 4 + 2 * xi ** 6) < 1e-11
    data0 = gs.curvature_at(gs.gallery_surface(0.0), 0.0, 0.0)
    v0 = np.linalg.solve(data0.hessH, data0.gradK)
    assert np.allclose(v0, 0.0)
    _report(5, "gallery gradients vanish, |v0| matches the closed form, "
               "root in (0.5, 0.52)")


def test_criterion_6_foliation_dichotomy():
    shift_exprs = (ex.const(Fraction(3, 10)), ex.ZERO, ex.ZERO)
    zero_exprs = (ex.ZERO, ex.ZERO, ex.ZERO)
    grid = list(np.linspace(0.005, 0.05, 8))
    for f_exprs, shift in [(zero_exprs, 0.0), (shift_exprs, 0.3)]:
        for v in (0.0, 0.5, 0.9):
            fam = fo.LeafFamily(v, f_exprs, lambda_max=0.05)
            rep = fo.foliation_report(
                fam, grid, [np.array([0.0, 0.0, 0.02])])
            assert rep.verdict == "Foliates", (v, shift)
        for v in (1.1, 1.5, 2.0):
            fam = fo.LeafFamily(v, f_exprs, lambda_max=0.05)
            rep = fo.foliation_report(fam, grid)
            assert rep.verdict == "Overlaps", (v, shift)
            l1, l2, _ = rep.witness_pair
            assert l2 == pytest.approx(l1 + l1 / (v - 1.0), rel=1e-9), (v, shift)
    # sphere-geometry closed form for f = 0
    rng = np.random.default_rng(2)
    for v in (0.0, 0.5, 0.9, 1.1, 1.5, 2.0):
        fam = fo.LeafFamily(v, zero_exprs, lambda_max=0.05)
        for _ in range(5):
            lam = rng.uniform(0.01, 0.05)
            d = rng.normal(size=3)
            d[2] = abs(d[2])
            d /= np.linalg.norm(d)
            b = lam * v * d[0]
            disc = b * b - (lam * v) ** 2 + lam ** 2
            if disc < 0 or b + math.sqrt(disc) < 0:
                continue
            want = b + math.sqrt(disc)
            assert fo.ray_intersect(fam, lam, d).t == pytest.approx(
                want, abs=1e-10)
    _report(6, "v in {0, 0.5, 0.9} foliates, v in {1.1, 1.5, 2} overlaps with "
               "the eps = lambda1/(v-1) witness; sphere closed forms to 1e-10")


def test_criterion_7_cancellation_identities():
    g1 = va.metric_first_order()
    g2 = va.metric_second_order()
    results = []
    for dh in (0.0, 1.0):
        f_g2 = va.functionals(ex.ZERO, g2, hq.QuadratureGrid(), 1.3, -0.7, dh=dh)
        f_g1 = va.functionals(ex.ZERO, g1, hq.QuadratureGrid(), 1.3, -0.7, dh=dh)
        cancel = f_g2["V"].d1 + f_g1["V"].d2
        odd = hq.integrate_boundary_tphi(
            va.d2_b1_boundary_integrand(g2),
            extra={"k1": 1.3, "k2": -0.7, **{n: dh for n in va.DH_NAMES}})
        assert abs(cancel) < 1e-10, dh
        assert abs(odd) < 1e-10, dh
        results.append((f_g2["V"].d1, f_g2["A"].d1, f_g2["W"].d1))
    assert np.max(np.abs(np.array(results[0]) - np.array(results[1]))) < 1e-10
    _report(7, "D2V g'' + D2^2V(g', g') = 0 and odd boundary integral = 0, "
               "independent of the free d_i h_ab symbols")


def test_criterion_8_invariant_suites(willmore_terms, cmc_terms):
    # jet vs finite difference (1e-5 relative)
    u_dir = lin.uprime_expr("cmc")
    g1 = va.metric_first_order()
    grid = hq.QuadratureGrid(48, 96)
    jet = va.functionals(u_dir, g1, grid, 1.0, 0.5)["A"]
    fields = va._build_fields(u_dir, g1)
    t, phi, w = grid.nodes()

    def area(lam):
        b = {"t": t, "phi": phi, **va._bindings(1.0, 0.5, 0.0, float(lam))}
        vals = ex.evaluate(fields["density"], b)
        return float(np.sum(np.broadcast_to(vals, w.shape) * w))

    h = 1e-4
    fd1 = (8 * (area(h) - area(-h)) - (area(2 * h) - area(-2 * h))) / (12 * h)
    fd2 = (-area(2 * h) + 16 * area(h) - 30 * area(0.0)
           + 16 * area(-h) - area(-2 * h)) / (12 * h * h)
    assert jet.d1 == pytest.approx(fd1, rel=1e-5, abs=1e-8)
    assert jet.d2 == pytest.approx(fd2, rel=1e-5, abs=1e-5)

    # variation-formula cross-checks (1e-8)
    tg, pg = np.linspace(0.05, 0.9, 24), np.linspace(0, 2 * np.pi, 16,
                                                     endpoint=False)
    tt, pp = np.meshgrid(tg, pg, indexing="ij")
    tt, pp = tt.ravel(), pp.ravel()
    for text in ("w3", "w1^2", "w2^2*w3"):
        phi_e = ex.parse(text)
        pt = sphere.to_tphi(phi_e)
        jets = va.field_jets(phi_e, va.metric_zero(), ["density", "H"], tt, pp)
        pv = ex.evaluate(pt, {"t": tt, "phi": pp})
        lap = ex.evaluate(sphere.laplacian(pt), {"t": tt, "phi": pp})
        assert np.max(np.abs(jets["density"].d1 - 2 * pv)) < 1e-8
        assert np.max(np.abs(jets["H"].d1 + lap + 2 * pv)) < 1e-8
        f = va.functionals(phi_e, va.metric_zero(), grid)
        assert abs(f["A"].d1 - 2 * hq.integrate_tphi(pt, grid)) < 1e-8
        assert abs(f["V"].d1 - hq.integrate_tphi(pt, grid)) < 1e-8

    # odd integrands (1e-12)
    for text in ("w1*w3", "w2", "w1^3*w3^2"):
        assert abs(hq.integrate_surface(ex.parse(text))) < 1e-12

    # probe-pair consistency (1e-7)
    for dec in (willmore_terms, cmc_terms):
        for name, tv in dec.terms.items():
            for (k1, k2), raw in tv.raw.items():
                assert abs(raw - tv.of(k1, k2)) < 1e-7, name
    _report(8, "jet-vs-FD 1e-5, variation formulas 1e-8, odd integrands "
               "1e-12, probe consistency 1e-7")
