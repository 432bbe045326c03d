import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from hemifol import expr as ex
from hemifol import graph_surface as gs
from hemifol import linearized as lin
from hemifol import quadrature as hq
from hemifol import sphere
from hemifol import variational as va

LN2 = math.log(2.0)
GRID = hq.QuadratureGrid(48, 96)


def _nodes():
    t = np.linspace(0.02, 0.95, 40)
    phi = np.linspace(0.0, 2 * np.pi, 32, endpoint=False)
    tt, pp = np.meshgrid(t, phi, indexing="ij")
    return tt.ravel(), pp.ravel()


RANDOM_PHIS = [
    "w3", "w1^2", "w1*w2 + w3^2", "w2^2*w3", "w1^2 - w2^2 + w3",
]


class TestRoundHemisphere:
    def test_baseline_functionals(self):
        f = va.functionals(ex.ZERO, va.metric_zero(), GRID)
        assert f["A"].f == pytest.approx(2 * math.pi, abs=1e-12)
        assert f["V"].f == pytest.approx(2 * math.pi / 3, abs=1e-12)
        assert f["W"].f == pytest.approx(2 * math.pi, abs=1e-12)
        assert abs(f["B1int"].f) < 1e-14

    def test_normal_is_minus_omega(self):
        t, phi = _nodes()
        nu = va.field_jets(ex.ZERO, va.metric_zero(), ["normal"], t, phi)["normal"]
        w = sphere.omega_values(t, phi)
        for i in range(3):
            assert np.max(np.abs(nu[i].f + w[i])) < 1e-14

    def test_mean_curvature_is_two(self):
        t, phi = _nodes()
        H = va.field_jets(ex.ZERO, va.metric_zero(), ["H"], t, phi)["H"]
        assert np.max(np.abs(H.f - 2.0)) < 1e-12


class TestGraphDirectionJets:
    """First and second variations in the graph direction against the
    closed forms, pointwise on a grid."""

    @pytest.mark.parametrize("text", RANDOM_PHIS)
    def test_D1_measure(self, text):
        phi_e = ex.parse(text)
        t, phi = _nodes()
        jets = va.field_jets(phi_e, va.metric_zero(), ["density"], t, phi)
        pv = ex.evaluate(sphere.to_tphi(phi_e), {"t": t, "phi": phi})
        assert np.max(np.abs(jets["density"].d1 - 2 * pv)) < 1e-8

    @pytest.mark.parametrize("text", RANDOM_PHIS)
    def test_D1sq_measure(self, text):
        phi_e = ex.parse(text)
        t, phi = _nodes()
        jets = va.field_jets(phi_e, va.metric_zero(), ["density"], t, phi)
        pt = sphere.to_tphi(phi_e)
        pv = ex.evaluate(pt, {"t": t, "phi": phi})
        grad2 = ex.evaluate(sphere.grad_norm_sq(pt), {"t": t, "phi": phi})
        assert np.max(np.abs(jets["density"].d2 - (grad2 + 2 * pv ** 2))) < 1e-8

    @pytest.mark.parametrize("text", RANDOM_PHIS)
    def test_D1_mean_curvature(self, text):
        phi_e = ex.parse(text)
        t, phi = _nodes()
        H = va.field_jets(phi_e, va.metric_zero(), ["H"], t, phi)["H"]
        pt = sphere.to_tphi(phi_e)
        want = -ex.evaluate(sphere.laplacian(pt) + 2 * pt, {"t": t, "phi": phi})
        assert np.max(np.abs(H.d1 - want)) < 1e-8

    def test_D1_mean_curvature_w3_translation(self):
        t, phi = _nodes()
        H = va.field_jets(ex.var("w3"), va.metric_zero(), ["H"], t, phi)["H"]
        assert np.max(np.abs(H.d1)) < 1e-12

    @pytest.mark.parametrize("text", RANDOM_PHIS)
    def test_D1sq_mean_curvature(self, text):
        phi_e = ex.parse(text)
        t, phi = _nodes()
        H = va.field_jets(phi_e, va.metric_zero(), ["H"], t, phi)["H"]
        pt = sphere.to_tphi(phi_e)
        pv = ex.evaluate(pt, {"t": t, "phi": phi})
        lap = ex.evaluate(sphere.laplacian(pt), {"t": t, "phi": phi})
        assert np.max(np.abs(H.d2 - (4 * pv * lap + 4 * pv ** 2))) < 1e-8

    @pytest.mark.parametrize("text", RANDOM_PHIS)
    def test_D1_normal_tangential_gradient(self, text):
        phi_e = ex.parse(text)
        t, phi = _nodes()
        nu = va.field_jets(phi_e, va.metric_zero(), ["normal"], t, phi)["normal"]
        pt = sphere.to_tphi(phi_e)
        # surface gradient of phi in ambient components
        dt_ = ex.evaluate(ex.diff(pt, "t"), {"t": t, "phi": phi})
        dp_ = ex.evaluate(ex.diff(pt, "phi"), {"t": t, "phi": phi})
        om_t = [ex.evaluate(ex.diff(sphere.OMEGA[m], "t"), {"t": t, "phi": phi})
                for m in range(3)]
        om_p = [ex.evaluate(ex.diff(sphere.OMEGA[m], "phi"), {"t": t, "phi": phi})
                for m in range(3)]
        for m in range(3):
            want = (1 - t ** 2) * dt_ * om_t[m] + dp_ * om_p[m] / (1 - t ** 2)
            assert np.max(np.abs(nu[m].d1 - want)) < 1e-8

    @pytest.mark.parametrize("text", RANDOM_PHIS)
    def test_D1sq_normal_radial_part(self, text):
        phi_e = ex.parse(text)
        t, phi = _nodes()
        nu = va.field_jets(phi_e, va.metric_zero(), ["normal"], t, phi)["normal"]
        w = sphere.omega_values(t, phi)
        radial = sum(nu[i].d2 * w[i] for i in range(3))
        grad2 = ex.evaluate(sphere.grad_norm_sq(sphere.to_tphi(phi_e)),
                            {"t": t, "phi": phi})
        assert np.max(np.abs(radial - grad2)) < 1e-8

    @pytest.mark.parametrize("text", RANDOM_PHIS)
    def test_D1_functionals(self, text):
        phi_e = ex.parse(text)
        f = va.functionals(phi_e, va.metric_zero(), GRID)
        pt = sphere.to_tphi(phi_e)
        int_phi = hq.integrate_tphi(pt, GRID)
        int_phi2 = hq.integrate_tphi(pt ** 2, GRID)
        assert f["A"].d1 == pytest.approx(2 * int_phi, abs=1e-10)
        assert f["V"].d1 == pytest.approx(int_phi, abs=1e-10)
        assert f["V"].d2 == pytest.approx(2 * int_phi2, abs=1e-10)
        for i in (0, 1):
            want = 1.5 / math.pi * hq.integrate_tphi(pt * sphere.OMEGA[i], GRID)
            assert f[f"C{i+1}"].d1 == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("text", RANDOM_PHIS)
    def test_D1_B1_is_minus_eta_derivative(self, text):
        phi_e = ex.parse(text)
        n = 128
        phis = 2 * np.pi * np.arange(n) / n
        jets = va.field_jets(phi_e, va.metric_zero(), ["B1"],
                             np.zeros(n), phis)
        want = -ex.evaluate(sphere.eta_derivative(sphere.to_tphi(phi_e)),
                            {"t": np.zeros(n), "phi": phis})
        assert np.max(np.abs(jets["B1"].d1 - want)) < 1e-8


class TestMetricDirectionJets:
    def test_D2_measure(self):
        g1 = va.metric_first_order()
        t, phi = _nodes()
        jets = va.field_jets(ex.ZERO, g1, ["density"], t, phi, k1=1.3, k2=-0.4)
        w1, w2, w3 = sphere.omega_values(t, phi)
        # tr_{S2} q = tr_{R3} q - q(omega, omega); tr_{R3} g'(0) = 0
        qoo = 2 * (1.3 * w1 ** 2 - 0.4 * w2 ** 2) * w3
        assert np.max(np.abs(jets["density"].d1 - 0.5 * (-qoo))) < 1e-10

    def test_D2_mean_curvature_matches_reference_field(self):
        g1 = va.metric_first_order()
        t, phi = _nodes()
        H = va.field_jets(ex.ZERO, g1, ["H"], t, phi, k1=1.3, k2=-0.4)["H"]
        w1, w2, w3 = sphere.omega_values(t, phi)
        want = 5 * (1.3 * w1 ** 2 - 0.4 * w2 ** 2) * w3 - w3 * (1.3 - 0.4)
        assert np.max(np.abs(H.d1 - want)) < 1e-10

    def test_D2_B1(self):
        g1 = va.metric_first_order()
        n = 128
        phis = 2 * np.pi * np.arange(n) / n
        jets = va.field_jets(ex.ZERO, g1, ["B1"], np.zeros(n), phis, 1.3, -0.4)
        w1 = np.cos(phis)
        w2 = np.sin(phis)
        want = -(1.3 * w1 ** 2 - 0.4 * w2 ** 2)
        assert np.max(np.abs(jets["B1"].d1 - want)) < 1e-10

    def test_D2_B2_chain(self):
        # eta-derivative of the D2 H field plus the second-fundamental-form
        # term gives 7 (k1 w1^2 + k2 w2^2) - H on the equator
        k1, k2 = 1.3, -0.4
        g1 = va.metric_first_order()
        n = 128
        phis = 2 * np.pi * np.arange(n) / n
        t0 = np.zeros(n)
        h = 1e-5
        jets_h = va.field_jets(ex.ZERO, g1, ["H"], t0 + h, phis, k1, k2)
        jets_2h = va.field_jets(ex.ZERO, g1, ["H"], t0 + 2 * h, phis, k1, k2)
        jets_0 = va.field_jets(ex.ZERO, g1, ["H"], t0, phis, k1, k2)
        d_eta = (-jets_2h["H"].d1 + 4 * jets_h["H"].d1 - 3 * jets_0["H"].d1) / (2 * h)
        w1, w2 = np.cos(phis), np.sin(phis)
        kappa_form = k1 * w1 ** 2 + k2 * w2 ** 2
        # D2 h~(nu, nu) term: omega_i omega_j (d_i q_j3 + d_j q_i3 - d_3 q_ij)
        # equals 2 kappa_form for the first-order metric
        want = (7 * kappa_form - (k1 + k2)) - 2 * kappa_form
        assert np.max(np.abs(d_eta - want)) < 1e-3

    def test_D2_volume_first_order_vanishes(self):
        f = va.functionals(ex.ZERO, va.metric_first_order(), GRID, 1.7, -0.9)
        assert abs(f["V"].d1) < 1e-12

    def test_D2_volume_generic_direction(self):
        # D2 V = 1/2 int_{B+} tr q with a non-traceless direction
        x1 = ex.var("x1")
        one = ex.ONE
        z = ex.ZERO
        q = va.MetricPerturbation(((one, z, z), (z, x1 ** 2, z), (z, z, z)))
        f = va.functionals(ex.ZERO, q, GRID)
        # int_{B+} 1 = 2 pi/3; int_{B+} x1^2 = (2 pi/5) * (1/3) hmm: compute by
        # moments: int_0^1 r^4 dr * int_{S+} w1^2 = (1/5)(2 pi/3)
        want = 0.5 * (2 * math.pi / 3 + (1.0 / 5.0) * (2 * math.pi / 3))
        assert f["V"].d1 == pytest.approx(want, abs=1e-10)

    def test_D2_area_first_order(self):
        f = va.functionals(ex.ZERO, va.metric_first_order(), GRID, 1.7, -0.9)
        want = -math.pi / 4 * (1.7 - 0.9)
        assert f["A"].d1 == pytest.approx(want, abs=1e-12)

    def test_degenerate_metric_detected(self):
        z = ex.ZERO
        big = ex.const(-2)
        q = va.MetricPerturbation(((big, z, z), (z, big, z), (z, z, big)))
        t, phi = _nodes()
        # the eps-jet at 0 sees the round metric and stays fine
        nu = va.field_jets(ex.ZERO, q, ["normal"], t, phi)["normal"]
        assert np.max(np.abs(nu[2].f + t)) < 1e-12
        # a finite deformation with delta - 2 eps delta flips the radicand
        with pytest.raises(va.DegenerateMetric):
            va.field_jets(ex.ZERO, q, ["normal"], t, phi, eps=1.0)
        with pytest.raises(va.DegenerateMetric):
            va.field_jets(ex.ZERO, q, ["H"], t, phi, eps=1.0)


class TestJetsVsFiniteDifference:
    @pytest.mark.parametrize("name", ["A", "V", "W"])
    def test_first_and_second_jets(self, name):
        u_dir = lin.uprime_expr("willmore")
        g1 = va.metric_first_order()
        k1, k2 = 1.0, 0.5

        jet = va.functionals(u_dir, g1, GRID, k1, k2)[name]

        def value(lam):
            fields = va._build_fields(u_dir, g1)
            t, phi, w = GRID.nodes()
            b = {"t": t, "phi": phi, **va._bindings(k1, k2, 0.0, float(lam))}
            if name == "A":
                vals = ex.evaluate(fields["density"], b)
                return float(np.sum(np.broadcast_to(vals, w.shape) * w))
            if name == "W":
                vals = ex.evaluate(fields["W_density"], b)
                return float(np.sum(np.broadcast_to(vals, w.shape) * w))
            # an independent radial rule, not the one functionals uses
            xs, ws = np.polynomial.legendre.leggauss(32)
            s_nodes = 0.5 * (xs + 1.0)
            s_w = 0.5 * ws
            bv = {"t": t[None, :], "phi": phi[None, :],
                  **va._bindings(k1, k2, 0.0, float(lam))}
            bv["s"] = s_nodes[:, None]
            vals = ex.evaluate(fields["vol_integrand"], bv)
            w2 = s_w[:, None] * w[None, :]
            return float(np.sum(vals * w2))

        h = 1e-4
        vm2, vm1, v0, vp1, vp2 = (value(x) for x in (-2*h, -h, 0.0, h, 2*h))
        fd1 = (8 * (vp1 - vm1) - (vp2 - vm2)) / (12 * h)
        fd2 = (-vp2 + 16 * vp1 - 30 * v0 + 16 * vm1 - vm2) / (12 * h * h)
        assert jet.d1 == pytest.approx(fd1, rel=1e-5, abs=1e-7)
        assert jet.d2 == pytest.approx(fd2, rel=1e-5, abs=1e-5)


class TestCancellationIdentities:
    @pytest.mark.parametrize("dh", [0.0, 1.0])
    def test_volume_g2_cancellation(self, dh):
        g1 = va.metric_first_order()
        g2 = va.metric_second_order()
        k1, k2 = 1.3, -0.7
        f_g2 = va.functionals(ex.ZERO, g2, GRID, k1, k2, dh=dh)
        f_g1 = va.functionals(ex.ZERO, g1, GRID, k1, k2, dh=dh)
        assert abs(f_g2["V"].d1 + f_g1["V"].d2) < 1e-10

    @pytest.mark.parametrize("dh", [0.0, 1.0])
    def test_odd_boundary_integral_vanishes(self, dh):
        g2 = va.metric_second_order()
        odd = hq.integrate_boundary_tphi(
            va.d2_b1_boundary_integrand(g2),
            extra={"k1": 1.3, "k2": -0.7, **{n: dh for n in va.DH_NAMES}})
        assert abs(odd) < 1e-10

    def test_dh_independence(self):
        g2 = va.metric_second_order()
        vals = []
        for dh in (0.0, 1.0):
            f = va.functionals(ex.ZERO, g2, GRID, 1.3, -0.7, dh=dh)
            vals.append((f["A"].d1, f["V"].d1, f["W"].d1))
        assert np.max(np.abs(np.array(vals[0]) - np.array(vals[1]))) < 1e-10


class TestArgumentSymmetry:
    def test_polarized_mixed_jet_order_independent(self):
        # D12 via polarization must agree when the roles of the two
        # directions are exchanged through scaling: F[eps*u, delta+eps*c*q]
        u_dir = lin.uprime_expr("cmc")
        g1 = va.metric_first_order()
        k = (1.0, 1.0)

        diag = va.functionals(u_dir, g1, GRID, *k)["A"].d2
        uu = va.functionals(u_dir, va.metric_zero(), GRID, *k)["A"].d2
        gg = va.functionals(ex.ZERO, g1, GRID, *k)["A"].d2
        d12 = 0.5 * (diag - uu - gg)

        # scale u by 2: diagonal with direction pair (2u, q)
        u2 = ex.const(2) * u_dir
        diag2 = va.functionals(u2, g1, GRID, *k)["A"].d2
        uu2 = va.functionals(u2, va.metric_zero(), GRID, *k)["A"].d2
        d12_b = 0.25 * (diag2 - uu2 - gg)
        assert d12 == pytest.approx(d12_b, abs=1e-9)


class TestSecondDerivativeTerms:
    def test_willmore_terms_exact(self, willmore_terms):
        expected = {
            "D1sq": ((Fraction(-8, 7), Fraction(0)),
                     (Fraction(863, 280), Fraction(-3))),
            "D12": ((Fraction(23, 14), Fraction(0)),
                    (Fraction(-291, 560), Fraction(0))),
            "D2sq": ((Fraction(4, 21), Fraction(0)),
                     (Fraction(16, 35), Fraction(0))),
            "D1_u2": ((Fraction(0), Fraction(0)), (Fraction(-4), Fraction(4))),
            "D2_g2": ((Fraction(-4, 3), Fraction(0)),
                      (Fraction(0), Fraction(0))),
        }
        for name, (wk, wh) in expected.items():
            tv = willmore_terms.terms[name]
            assert (tv.K_coeff.p, tv.K_coeff.q) == wk, name
            assert (tv.H2_coeff.p, tv.H2_coeff.q) == wh, name

    def test_cmc_terms_exact(self, cmc_terms):
        expected = {
            "D12": ((Fraction(5, 14), Fraction(0)),
                    (Fraction(-579, 2240), Fraction(0))),
            "D1sq": ((Fraction(-31, 270), Fraction(-4, 9)),
                     (Fraction(2201, 8640), Fraction(1, 9))),
            "D2sq": ((Fraction(64, 105), Fraction(0)),
                     (Fraction(-4, 21), Fraction(0))),
            "D2_g2": ((Fraction(-4, 5), Fraction(0)),
                      (Fraction(4, 15), Fraction(0))),
            "D1_u2": ((Fraction(-229, 945), Fraction(4, 9)),
                      (Fraction(113, 30240), Fraction(-1, 9))),
        }
        for name, (wk, wh) in expected.items():
            tv = cmc_terms.terms[name]
            assert (tv.K_coeff.p, tv.K_coeff.q) == wk, name
            assert (tv.H2_coeff.p, tv.H2_coeff.q) == wh, name

    def test_probe_consistency(self, willmore_terms, cmc_terms):
        for dec in (willmore_terms, cmc_terms):
            for name, tv in dec.terms.items():
                for (k1, k2), raw in tv.raw.items():
                    assert raw == pytest.approx(tv.of(k1, k2), abs=1e-7), name

    def test_willmore_total(self, willmore_terms):
        kt, ht = willmore_terms.total()
        assert (kt.p, kt.q) == (Fraction(1), Fraction(0))
        assert (ht.p, ht.q) == (Fraction(-3, 2), Fraction(1))

    def test_cmc_total(self, cmc_terms):
        kt, ht = cmc_terms.total()
        assert (kt.p, kt.q) == (Fraction(1, 6), Fraction(0))
        assert (ht.p, ht.q) == (Fraction(-35, 192), Fraction(0))

    def test_first_derivatives(self, willmore_terms, cmc_terms):
        assert willmore_terms.first_derivative == pytest.approx(-math.pi, abs=1e-10)
        assert cmc_terms.first_derivative == pytest.approx(-math.pi / 4, abs=1e-10)

    def test_willmore_area_constraint(self):
        # d1 of A along the Willmore diagonal vanishes: the area constraint
        u_dir = lin.uprime_expr("willmore")
        f = va.functionals(u_dir, va.metric_first_order(), GRID, 1.5, -0.25)
        assert abs(f["A"].d1) < 1e-10

    def test_formula_vs_jet_for_g2_direction(self):
        # dual route: the closed metric-variation integrands against raw jets
        g2 = va.metric_second_order()
        k1, k2 = 2.0, -1.0
        f = va.functionals(ex.ZERO, g2, GRID, k1, k2)
        aw = hq.integrate_tphi(va.d2_area_g2_integrand(g2), GRID,
                               extra={"k1": k1, "k2": k2,
                                      **{n: 0.0 for n in va.DH_NAMES}})
        ww = hq.integrate_tphi(va.d2_willmore_g2_integrand(g2), GRID,
                               extra={"k1": k1, "k2": k2,
                                      **{n: 0.0 for n in va.DH_NAMES}})
        assert f["A"].d1 == pytest.approx(aw, abs=1e-10)
        assert f["W"].d1 == pytest.approx(ww, abs=1e-10)

    @pytest.mark.parametrize("case", ["willmore", "cmc"])
    def test_expansion_grid_pinned(self, request, case):
        # on EXPANSION_GRID every raw value, and the lambda-linear
        # coefficient, lies within 1e-12 of its value on the 64x128 grid
        # (3.2e-14 at most, Willmore D12), far inside RECOVER_TOL
        dec = request.getfixturevalue(f"{case}_terms")
        raw, first = va._probe_values(case, hq.QuadratureGrid(64, 128), 0.0)
        assert abs(dec.first_derivative - first) <= 1e-12
        for name, tv in dec.terms.items():
            assert tv.raw.keys() == raw[name].keys()
            for pair, v in tv.raw.items():
                assert abs(v - raw[name][pair]) <= 1e-12, (name, pair)

    @pytest.mark.parametrize("case, dh", [
        ("willmore", 0.0), ("cmc", 0.0), ("willmore", 1.0), ("cmc", 1.0)],
        ids=["willmore", "cmc", "willmore-dh1", "cmc-dh1"])
    def test_raw_values_match_public_functionals(self, request, case, dh):
        # _probe_values integrates only what it reads; every raw probe
        # value must equal, bit for bit, the one assembled from the full
        # one-pair functionals on EXPANSION_GRID, also with the free dh
        # symbols bound to 1
        grid = va.EXPANSION_GRID
        got_raw, got_first = va._probe_values(case, grid, dh)
        if dh == 0.0:
            dec = request.getfixturevalue(f"{case}_terms")
            assert {n: tv.raw for n, tv in dec.terms.items()} == got_raw
            assert dec.first_derivative.hex() == got_first.hex()
        u_dir = lin.uprime_expr(case)
        g1, g2 = va.metric_first_order(), va.metric_second_order()
        key = "W" if case == "willmore" else "A"
        raw = {name: {} for name in va.WILLMORE_TERMS}
        d1 = []
        for k1, k2 in va.PROBE_PAIRS:
            extra = {"k1": k1, "k2": k2, **{n: dh for n in va.DH_NAMES}}
            f_diag = va.functionals(u_dir, g1, grid, k1, k2, dh=dh)
            f_u = va.functionals(u_dir, va.metric_zero(), grid, k1, k2, dh=dh)
            f_g = va.functionals(ex.ZERO, g1, grid, k1, k2, dh=dh)
            p = (k1, k2)
            raw["D1sq"][p] = f_u[key].d2
            raw["D2sq"][p] = f_g[key].d2
            raw["D12"][p] = 0.5 * (f_diag[key].d2 - f_u[key].d2 - f_g[key].d2)
            if case == "willmore":
                raw["D1_u2"][p] = f_diag["B1int"].d2 + hq.integrate_boundary_tphi(
                    va.d2_b1_boundary_integrand(g2), extra=extra)
                raw["D2_g2"][p] = hq.integrate_tphi(
                    va.d2_willmore_g2_integrand(g2), grid, extra=extra)
            else:
                raw["D1_u2"][p] = -4.0 * hq.integrate_tphi(
                    sphere.to_tphi(u_dir) ** 2, grid, extra={"k1": k1, "k2": k2})
                raw["D2_g2"][p] = hq.integrate_tphi(
                    va.d2_area_g2_integrand(g2), grid, extra=extra)
            if k1 + k2:
                d1.append(f_diag[key].d1 / (k1 + k2))
        def bits(values):
            return {p: float(v).hex() for p, v in values.items()}

        for name, values in raw.items():
            assert bits(got_raw[name]) == bits(values), name
        assert got_first.hex() == float(np.mean(d1)).hex()

    @pytest.mark.parametrize("case, jet_walks, float_walks", [
        ("willmore", {2048: 12, 256: 4}, {2048: 4, 256: 4}),
        ("cmc", {2048: 12}, {2048: 8})],
        ids=["willmore", "cmc"])
    def test_probe_walks(self, request, monkeypatch, case, jet_walks, float_walks):
        # one jet walk per field and probe pair on EXPANSION_GRID's 2,048
        # nodes: 3 surface fields for both cases, plus B1 on the 256-node
        # equator for Willmore; the float walks are the closed u'' and g''
        # integrands, one each per probe pair, and no radicand sign test
        walks = {"evaluate_jet": Counter(), "evaluate": Counter()}

        def counted(name):
            walk = getattr(ex, name)

            def wrapper(e, bindings):
                shapes = [np.shape(getattr(v, "f", v)) for v in bindings.values()]
                walks[name][int(np.prod(np.broadcast_shapes(*shapes)))] += 1
                return walk(e, bindings)
            return wrapper

        for name in walks:
            monkeypatch.setattr(ex, name, counted(name))
        dec = va.second_derivative_terms(case)
        assert walks == {"evaluate_jet": Counter(jet_walks),
                         "evaluate": Counter(float_walks)}
        ref = request.getfixturevalue(f"{case}_terms")
        assert dec.first_derivative.hex() == ref.first_derivative.hex()
        for name, tv in dec.terms.items():
            assert tv.raw == ref.terms[name].raw, name

    @pytest.mark.parametrize("case", ["willmore", "cmc"])
    def test_radicand_is_one_at_eps_zero(self, case):
        # the integrals take no sign test of the normal radicand: at eps = 0
        # the metric is delta and f = omega, so b_i = <omega, d_i omega> = 0
        # and the radicand is |omega|^2 = 1 on every field set of
        # second_derivative_terms, whatever the curvatures and dh
        rules = (hq.surface_rule(va.EXPANSION_GRID),
                 hq.equator_rule(4 * va.EXPANSION_GRID.n_azimuthal))
        u_dir = lin.uprime_expr(case)
        g1, g2 = va.metric_first_order(), va.metric_second_order()
        for u, g in ((u_dir, g1), (u_dir, va.metric_zero()), (ex.ZERO, g1),
                     (ex.ZERO, g2)):
            rad = va._build_fields(u, g)["radicand"]
            for rule in rules:
                for k1, k2 in va.PROBE_PAIRS + ((1e6, -3e5),):
                    for dh in (0.0, 1.0):
                        b = {**rule.bindings,
                             **va._bindings(k1, k2, dh, va._EPS_JET)}
                        value = ex.evaluate_jet(rad, b).f
                        assert np.max(np.abs(value - 1.0)) <= 1e-13, (k1, k2, dh)


class TestAssembleExpansion:
    def test_willmore_c2_value(self, willmore_terms):
        out = va.assemble_expansion("willmore", willmore_terms)
        # kappa1 = kappa2 = 1: c2 = pi (2 ln2 - 5/2)
        c2 = (out["c2_K"].value() * 1.0
              + out["c2_H2"].value() * 4.0)
        assert c2 == pytest.approx(math.pi * (2 * LN2 - 2.5), abs=1e-9)
        assert out["c0"] == pytest.approx(2 * math.pi)

    def test_cmc_c2_value(self, cmc_terms):
        out = va.assemble_expansion("cmc", cmc_terms)
        # kappa1 = 1, kappa2 = 0: c2 = -pi 35/384
        c2 = out["c2_K"].value() * 0.0 + out["c2_H2"].value() * 1.0
        assert c2 == pytest.approx(-math.pi * 35 / 384, abs=1e-9)

    @pytest.mark.parametrize("case", ["willmore", "cmc"])
    def test_criterion_factor_from_expansion(self, request, case):
        # the centre of the reduced functional's critical point moves by
        # lambda (c2_K / |c1|) hessH^-1 gradK: the factor analyze applies
        out = va.assemble_expansion(case, request.getfixturevalue(f"{case}_terms"))
        c1 = hq.recover_coefficients(out["c1_per_H"], tol=va.RECOVER_TOL)
        c2 = out["c2_K"]
        assert c1.q == c2.q == 0
        assert c2.p / abs(c1.p) == gs._CASE_FACTOR[case]

    def test_flat_boundary(self, cmc_terms):
        out = va.assemble_expansion("cmc", cmc_terms)
        assert out["c2_K"].value() * 0.0 + out["c2_H2"].value() * 0.0 == 0.0
