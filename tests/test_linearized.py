import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from hemifol import expr as ex
from hemifol import linearized as lin
from hemifol import quadrature as hq
from hemifol import sphere

LN2 = math.log(2.0)


class TestClosedForms:
    def test_cmc_pole_value(self):
        p = lin.LinearizedProblem("cmc", 1.0, 1.0)
        u = lin.closed_form_uprime(p)
        assert ex.evaluate(u, {"w1": 0.0, "w2": 0.0, "w3": 1.0}) == pytest.approx(-0.125)

    def test_willmore_pole_value(self):
        p = lin.LinearizedProblem("willmore", 1.0, 1.0)
        u = lin.closed_form_uprime(p)
        assert ex.evaluate(u, {"w1": 0.0, "w2": 0.0, "w3": 1.0}) == pytest.approx(
            0.5 - LN2)

    def test_cmc_mode2_factored_equator(self):
        # (2 + w3)/(3 (1 + w3)^2) equals 2/3 at the equator
        p = lin.LinearizedProblem("cmc", 1.0, -1.0)
        u = lin.closed_form_uprime(p)
        got = ex.evaluate(u, {"w1": 1.0, "w2": 0.0, "w3": 0.0})
        assert got == pytest.approx(0.5 * 2.0 / 3.0)

    def test_factored_form_equals_rational_form(self):
        # (2 - 3t + t^3)/(1 - t^2)^2 == (2 + t)/(1 + t)^2 away from t = 1
        t = np.linspace(0.0, 0.99, 200)
        lhs = (2 - 3 * t + t ** 3) / (1 - t ** 2) ** 2
        rhs = (2 + t) / (1 + t) ** 2
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_pole_regularity(self):
        # factored closed forms stay finite and smooth at t = 1
        for case in ("cmc", "willmore"):
            p = lin.LinearizedProblem(case, 2.0, -1.0)
            u = sphere.to_tphi(lin.closed_form_uprime(p))
            vals = ex.evaluate(u, {"t": np.linspace(0.999, 1.0, 50),
                                   "phi": np.linspace(0, 2 * np.pi, 50)})
            assert np.all(np.isfinite(vals))

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            lin.LinearizedProblem("minimal", 1.0, 1.0)


class TestResiduals:
    @pytest.mark.parametrize("case,k1,k2", [
        ("cmc", 1.0, 0.0), ("cmc", 1.0, 1.0), ("cmc", 2.0, -1.0),
        ("willmore", 1.0, 1.0), ("willmore", 1.0, 0.0), ("willmore", 2.0, -1.0),
    ])
    def test_closed_forms_solve_the_problems(self, case, k1, k2):
        p = lin.LinearizedProblem(case, k1, k2)
        rep = lin.residual_check(p, lin.closed_form_uprime(p))
        assert rep.max_residual() < 1e-10

    def test_zero_candidate_detected(self):
        p = lin.LinearizedProblem("cmc", 1.0, 1.0)
        rep = lin.residual_check(p, ex.ZERO)
        assert rep.neumann == pytest.approx(1.0, abs=1e-12)

    def test_willmore_mass_constraint_value(self):
        p = lin.LinearizedProblem("willmore", 2.0, -0.5)
        u = sphere.to_tphi(lin.closed_form_uprime(p))
        mass = hq.integrate_tphi(u)
        assert mass == pytest.approx(math.pi / 8 * p.H, abs=1e-10)

    def test_cmc_mass_constraint_zero(self):
        p = lin.LinearizedProblem("cmc", 2.0, -0.5)
        u = sphere.to_tphi(lin.closed_form_uprime(p))
        assert abs(hq.integrate_tphi(u)) < 1e-10


def _mode_op(g, c, k):
    """g'' + c cot(theta) g' + k g of a Chebyshev series g in t = cos(theta),
    by the series' own arithmetic."""
    t = np.polynomial.Chebyshev.identity(domain=[0.0, 1.0])
    return (1.0 - t ** 2) * g.deriv(2) - (1.0 + c) * t * g.deriv() + k * g


class TestOdeModes:
    def test_cmc_modes_match_closed_forms(self):
        g1, g2 = lin.solve_cmc_modes()
        # v1 = 3/4 - t, point by point on t in [0, 1]
        t = np.linspace(0.0, 1.0, 300)
        err1 = max(abs(g1(x) - (0.75 - x)) for x in t)
        assert err1 < 1e-13
        # v2 factor (2 + t)/(3 (1 + t)^2) on t in [0, 1]
        sol = lin.solve_ode_modes(lin.LinearizedProblem("cmc", 1.0, 0.0))
        assert sol.mode_sup_errors["mode0"] < 1e-13
        assert sol.mode_sup_errors["mode2"] < 1e-13

    def test_willmore_modes_match_closed_forms(self):
        sol = lin.solve_ode_modes(lin.LinearizedProblem("willmore", 1.0, 1.0))
        assert sol.mode_sup_errors["mode0"] < 1e-13
        assert sol.mode_sup_errors["mode2"] < 1e-13

    def test_equator_conditions(self):
        # g_theta(pi/2) = -g_t(0); the Willmore mass integral is taken by
        # Gauss-Legendre on [0, 1], not by the solver's own integral row
        g1, g2 = lin.solve_cmc_modes()
        v1, h = lin.solve_willmore_modes()
        for mode, want in ((g1, 1.0), (g2, 1.0), (v1, 0.25), (h, 1.0)):
            assert abs(-mode.deriv()(0.0) - want) < 1e-13
        x, w = np.polynomial.legendre.leggauss(40)
        assert abs(0.5 * w @ v1(0.5 * (x + 1.0)) - 0.125) < 1e-13
        # w = (Lap + 2) h has w_theta(pi/2) = -4
        assert abs(-_mode_op(h, 5.0, -4.0).deriv()(0.0) - (-4.0)) < 1e-13

    def test_modes_meet_their_odes_between_nodes(self):
        # 50 points of [0, 1], none a Chebyshev point of the collocation
        t = (np.arange(50) + 0.5) / 50
        nodes = 0.5 * (1.0 + np.cos(np.pi * np.arange(33) / 32))
        assert np.min(np.abs(t[:, None] - nodes)) > 1e-4
        g1, g2 = lin.solve_cmc_modes()
        v1, h = lin.solve_willmore_modes()
        for residual in (_mode_op(g1, 1.0, 2.0) - 1.5, _mode_op(g2, 5.0, -4.0),
                         _mode_op(_mode_op(v1, 1.0, 2.0), 1.0, 0.0) + 1.0,
                         _mode_op(_mode_op(h, 5.0, -4.0), 5.0, -6.0)):
            assert np.max(np.abs(residual(t))) < 1e-12

    @pytest.mark.parametrize("case,k1,k2", [
        ("cmc", 1.0, 0.0), ("cmc", 2.0, -1.0),
        ("willmore", 1.0, 1.0), ("willmore", 0.5, 2.0),
    ])
    def test_assembled_solution_matches_closed_form(self, case, k1, k2):
        p = lin.LinearizedProblem(case, k1, k2)
        sol = lin.solve_ode_modes(p)
        t, phi, got = sol.samples[:, 0], sol.samples[:, 1], sol.samples[:, 2]
        w1, w2, w3 = sphere.omega_values(t, phi)
        want = ex.evaluate(lin.closed_form_uprime(p),
                           {"w1": w1, "w2": w2, "w3": w3})
        assert np.max(np.abs(got - want)) < 1e-7


class TestStructure:
    def test_linearity_in_curvatures(self):
        rng = np.random.default_rng(3)
        for case in ("cmc", "willmore"):
            for _ in range(10):
                k1a, k2a, k1b, k2b = rng.uniform(-2, 2, 4)
                ua = lin.closed_form_uprime(lin.LinearizedProblem(case, k1a, k2a))
                ub = lin.closed_form_uprime(lin.LinearizedProblem(case, k1b, k2b))
                uab = lin.closed_form_uprime(
                    lin.LinearizedProblem(case, k1a + k1b, k2a + k2b))
                pts = {"w1": rng.uniform(-0.7, 0.7, 20)}
                pts["w2"] = rng.uniform(-0.5, 0.5, 20)
                pts["w3"] = np.sqrt(np.clip(1 - pts["w1"]**2 - pts["w2"]**2, 0, 1))
                va = ex.evaluate(ua, pts)
                vb = ex.evaluate(ub, pts)
                vab = ex.evaluate(uab, pts)
                assert np.max(np.abs(vab - va - vb)) < 1e-12

    def test_symmetry_decomposition(self):
        # the (k1 + k2) part is azimuthally invariant, the (k1 - k2) part
        # transforms with cos(2 phi) once the even particular part is removed
        t = np.full(64, 0.4)
        phi = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        w1, w2, w3 = sphere.omega_values(t, phi)

        def u_vals(case, k1, k2):
            u = lin.closed_form_uprime(lin.LinearizedProblem(case, k1, k2))
            return ex.evaluate(u, {"w1": w1, "w2": w2, "w3": w3})

        for case in ("cmc", "willmore"):
            sym = 0.5 * (u_vals(case, 1.0, 1.0))
            # remove the even -f/2 part: f = (k1 w1^2 + k2 w2^2) w3
            f_sym = 0.25 * (w1 ** 2 + w2 ** 2) * w3
            mode0 = sym + f_sym
            assert np.max(np.abs(mode0 - np.mean(mode0))) < 1e-12

            anti = 0.5 * (u_vals(case, 1.0, -1.0) - u_vals(case, -1.0, 1.0))
            f_anti = 0.5 * (w1 ** 2 - w2 ** 2) * w3
            mode2 = anti + f_anti
            c = np.cos(2 * phi)
            coeff = float(mode2 @ c) / float(c @ c)
            assert np.max(np.abs(mode2 - coeff * c)) < 1e-10


class TestMultipliers:
    def test_cmc(self):
        alpha, beta = lin.multipliers(lin.LinearizedProblem("cmc", 1.0, 1.0))
        assert alpha == pytest.approx(-0.75, abs=1e-10)
        assert np.max(np.abs(beta)) < 1e-10

    def test_willmore(self):
        alpha, beta = lin.multipliers(lin.LinearizedProblem("willmore", 1.0, 1.0))
        assert alpha == pytest.approx(0.5, abs=1e-10)
        assert np.max(np.abs(beta)) < 1e-10

    @pytest.mark.parametrize("case,k1,k2,want", [
        ("cmc", 2.0, -1.0, -3.0 / 8.0), ("cmc", 0.5, 0.25, -3.0 / 8.0 * 0.75),
        ("willmore", 2.0, -1.0, 0.25), ("willmore", 0.5, 0.25, 0.1875),
    ])
    def test_general_curvatures(self, case, k1, k2, want):
        alpha, beta = lin.multipliers(lin.LinearizedProblem(case, k1, k2))
        assert alpha == pytest.approx(want, abs=1e-10)
        assert np.max(np.abs(beta)) < 1e-10

    @pytest.mark.parametrize("case", ["cmc", "willmore"])
    def test_cross_check_catches_a_perturbed_field(self, case, monkeypatch):
        # the right-hand side scaled by 1 + 1e-6 moves alpha' by far more
        # than the gate's 1e-8 (|k1| + |k2|); the fields are cached per
        # case, so they are rebuilt with the perturbation and again after
        rhs = lin.pde_rhs_expr
        monkeypatch.setattr(lin, "pde_rhs_expr",
                            lambda c: ex.const("1.000001") * rhs(c))
        lin._fields.cache_clear()
        try:
            with pytest.raises(lin.ConstraintSingular):
                lin.multipliers(lin.LinearizedProblem(case, 1.0, 0.5))
        finally:
            lin._fields.cache_clear()


def _reference_solve_ode_modes(p):
    """solve_ode_modes with the modes read one point at a time."""
    def sup_error(numeric, closed):
        t = np.linspace(0.0, 1.0, 400)
        got = np.array([numeric(x) for x in t])
        return float(np.max(np.abs(got - closed(t))))

    if p.case == "cmc":
        m0, m2 = lin.solve_cmc_modes()
        coef0 = (p.kappa1 + p.kappa2) / 4.0
        errs = {
            "mode0": sup_error(m0, lambda t: 0.75 - t),
            "mode2": sup_error(m2, lambda t: (2.0 + t) / (3.0 * (1.0 + t) ** 2)),
        }
    else:
        m0, m2 = lin.solve_willmore_modes()
        coef0 = p.kappa1 + p.kappa2
        errs = {
            "mode0": sup_error(
                m0, lambda t: 1.0 - math.log(2.0) + 0.5 * np.log(1.0 + t) - 0.75 * t),
            "mode2": sup_error(m2, lambda t: 1.0 / (1.0 + t)),
        }
    coef2 = (p.kappa1 - p.kappa2) / 4.0

    t = np.linspace(0.0, math.cos(1e-3), 40)
    phi = np.linspace(0.0, 2 * np.pi, 32, endpoint=False)
    tt, pp = np.meshgrid(t, phi, indexing="ij")
    w1, w2_, w3 = sphere.omega_values(tt, pp)
    mode0_vals = np.array([m0(x) for x in tt.ravel()]).reshape(tt.shape)
    mode2_vals = np.array([m2(x) for x in tt.ravel()]).reshape(tt.shape)
    f_half = 0.5 * (p.kappa1 * w1 ** 2 + p.kappa2 * w2_ ** 2) * w3
    u_vals = (coef0 * mode0_vals
              + coef2 * (w1 ** 2 - w2_ ** 2) * mode2_vals
              - f_half)
    samples = np.column_stack([tt.ravel(), pp.ravel(), u_vals.ravel()])
    alpha, beta = lin.multipliers(p)
    return lin.LinearizedSolution(
        u_prime=lin.closed_form_uprime(p), samples=samples,
        alpha_prime=alpha, beta_prime=beta, mode_sup_errors=errs)


def _curvatures():
    rng = np.random.default_rng(11)
    seeded = [tuple(float(k) for k in rng.uniform(-3.0, 3.0, 2)) for _ in range(7)]
    return [(0.0, 0.0), (1.0, 1.0), (-2.5, -2.5), (0.0, 1.5), (-0.75, 0.0)] + seeded


def _same_bytes(a, b):
    assert a.samples.dtype == b.samples.dtype
    assert a.samples.shape == b.samples.shape
    assert a.samples.tobytes() == b.samples.tobytes()
    assert a.mode_sup_errors.keys() == b.mode_sup_errors.keys()
    for key in a.mode_sup_errors:
        assert a.mode_sup_errors[key].hex() == b.mode_sup_errors[key].hex()
    assert float(a.alpha_prime).hex() == float(b.alpha_prime).hex()
    assert np.asarray(a.beta_prime).tobytes() == np.asarray(b.beta_prime).tobytes()


class TestModeTables:
    @pytest.mark.parametrize("case", ["cmc", "willmore"])
    def test_same_bytes_as_per_point_reference(self, case):
        # the modes read as arrays give exactly the samples, sup errors and
        # multipliers of reading them point by point, on every call
        for k1, k2 in _curvatures():
            p = lin.LinearizedProblem(case, k1, k2)
            want = _reference_solve_ode_modes(p)
            _same_bytes(lin.solve_ode_modes(p), want)
            _same_bytes(lin.solve_ode_modes(p), want)

    def test_array_reads_match_point_reads(self):
        t = np.linspace(0.0, 1.0, 97)
        for modes in (lin.solve_cmc_modes(), lin.solve_willmore_modes()):
            for mode in modes:
                each = np.array([mode(x) for x in t])
                assert mode(t).tobytes() == each.tobytes()

    def test_callers_cannot_change_the_tables(self):
        p = lin.LinearizedProblem("willmore", 0.7, -1.3)
        first = lin.solve_ode_modes(p)
        want_samples = first.samples.copy()
        want_errors = dict(first.mode_sup_errors)
        first.samples[:, 2] = 0.0
        first.mode_sup_errors["mode0"] = 1.0
        first.mode_sup_errors.clear()
        second = lin.solve_ode_modes(p)
        assert second.samples.tobytes() == want_samples.tobytes()
        assert second.mode_sup_errors == want_errors
        assert second.samples is not first.samples
        assert second.mode_sup_errors is not first.mode_sup_errors


class TestBoundCurvatures:
    def test_new_curvatures_add_no_nodes(self, tmp_path, monkeypatch):
        # the curvatures are bound at evaluation, not substituted into the
        # fields: after one run per case, runs at new curvatures evaluate
        # the same DAG, kept by the per-case caches, and construct no node
        from hemifol import cli

        def run(case, k1, k2):
            out = str(tmp_path / f"{case}.jsonl")
            assert cli.main(["linearized", "--case", case, f"--k1={k1!r}",
                             f"--k2={k2!r}", "--out", out]) == 0

        for case in ("cmc", "willmore"):
            run(case, 1.0, 0.0)
        made = []
        init = ex.Expr.__init__

        def counting_init(node, *args):
            made.append(args[0])
            init(node, *args)

        monkeypatch.setattr(ex.Expr, "__init__", counting_init)
        for case in ("cmc", "willmore"):
            for k1, k2 in ((0.3125, -1.75), (2.5, 0.0625), (-0.875, -0.4375)):
                run(case, k1, k2)
        assert made == []


def _reference_fields(case, u):
    """The residual fields and the multiplier integrands of each case,
    built as two separate tables."""
    ut = sphere.to_tphi(u) if ex.free_variables(u) & {"w1", "w2", "w3"} else u
    rhs = sphere.to_tphi(lin.pde_rhs_expr(case))
    lap2_u = sphere.laplacian(ut) + 2 * ut
    kappa_form = sphere.to_tphi(lin._KAPPA_FORM)
    du_eta = sphere.eta_derivative(ut)
    w = {i: sphere.OMEGA[i - 1] for i in (1, 2)}
    res = {"neumann": du_eta + kappa_form, "u": ut,
           "w1_u": ut * sphere.OMEGA[0], "w2_u": ut * sphere.OMEGA[1]}
    mul = {f"w{i}_du_eta": w[i] * du_eta for i in w}
    if case == "cmc":
        res["interior"] = lap2_u - rhs - ex.const(3) / 8 * lin._H
        mul.update(rhs=rhs, du_eta=du_eta, u=ut)
        mul.update({f"w{i}_rhs": w[i] * rhs for i in w})
    else:
        res["interior"] = sphere.laplacian(lap2_u) - sphere.laplacian(rhs) + lin._H
        res["third_order"] = sphere.eta_derivative(lap2_u) - 7 * kappa_form + lin._H
        third = sphere.eta_derivative(lap2_u)
        mul.update(third_order=third, rhs_eta=sphere.eta_derivative(rhs))
        mul.update({f"w{i}_third_order": w[i] * third for i in w})
    return res, mul


def _reference_residuals(p, u):
    """residual_check field by field: one walk per field and per sup, and
    the equator as its own linspace."""
    kb = {"k1": float(p.kappa1), "k2": float(p.kappa2)}
    fields, _ = _reference_fields(p.case, u)
    equator = (np.zeros(256), np.linspace(0.0, 2 * np.pi, 256, endpoint=False))

    def sup(name, points):
        t, phi = points
        return float(np.max(np.abs(ex.evaluate(fields[name], dict(kb, t=t, phi=phi)))))

    interior = sup("interior", (lin._GRID["t"], lin._GRID["phi"]))
    third = float("nan") if p.case == "cmc" else sup("third_order", equator)
    target = 0.0 if p.case == "cmc" else math.pi / 8.0 * p.H
    mass = abs(hq.integrate_surface(fields["u"], extra=kb) - target)
    center = max(abs(hq.integrate_surface(fields["w1_u"], extra=kb)),
                 abs(hq.integrate_surface(fields["w2_u"], extra=kb)))
    return [interior, sup("neumann", equator), third, mass, center]


def _reference_multipliers(p):
    """multipliers with one integral per field."""
    kb = {"k1": float(p.kappa1), "k2": float(p.kappa2)}
    _, fields = _reference_fields(p.case, lin.uprime_expr(p.case))

    def surface(name):
        return hq.integrate_surface(fields[name], extra=kb)

    def boundary(name):
        return hq.integrate_boundary(fields[name], extra=kb)

    if p.case == "cmc":
        alpha = ((surface("rhs") + boundary("du_eta") - 2.0 * surface("u"))
                 / (2.0 * math.pi))
        beta = [-boundary(f"w{i}_du_eta") - surface(f"w{i}_rhs") for i in (1, 2)]
    else:
        alpha = (-boundary("third_order") + boundary("rhs_eta")) / (-8.0 * math.pi)
        beta = [0.5 * (2.0 * boundary(f"w{i}_du_eta") - boundary(f"w{i}_third_order"))
                for i in (1, 2)]
    return [alpha, *beta]


_PAIRS = [(1.0, 1.0), (1.0, 0.0), (2.0, -1.0), (0.0, 0.0), (0.75, -0.75),
          (-2.5, 2.5), (0.3125, -1.75), (1e7, 1e7), (1e9, -1e9), (1e300, 1e300)]


def _walks(monkeypatch):
    """Counter of ex.evaluate walks by the number of points bound."""
    walks = Counter()
    evaluate = ex.evaluate

    def counted(e, bindings):
        walks[int(np.prod(np.broadcast_shapes(*map(np.shape, bindings.values()))))] += 1
        return evaluate(e, bindings)

    monkeypatch.setattr(ex, "evaluate", counted)
    return walks


class TestOneWalkPerPointSet:
    @pytest.mark.parametrize("case", ["cmc", "willmore"])
    def test_same_bits_as_field_by_field(self, case):
        # the grouped walks of residual_check and multipliers give exactly
        # the floats of walking and integrating each field alone
        for k1, k2 in _PAIRS:
            p = lin.LinearizedProblem(case, k1, k2)
            rep = lin.residual_check(p, lin.uprime_expr(case))
            got = [rep.interior, rep.neumann, rep.third_order,
                   rep.mass_constraint, rep.center_constraint]
            want = _reference_residuals(p, lin.uprime_expr(case))
            assert [x.hex() for x in got] == [x.hex() for x in want], (k1, k2)
            alpha, beta = lin.multipliers(p)
            got = [float(alpha), *map(float, beta)]
            assert [x.hex() for x in got] == [x.hex() for x in _reference_multipliers(p)]

    def test_other_candidates_same_bits(self):
        # a candidate other than the closed form, over omega and in (t, phi)
        for case in ("cmc", "willmore"):
            for u in (ex.ZERO, ex.parse("k1*w1^2*w3 + w2/3"),
                      sphere.to_tphi(ex.parse("k2*w3^2 - w1"))):
                p = lin.LinearizedProblem(case, 1.5, -0.25)
                rep = lin.residual_check(p, u)
                got = [rep.interior, rep.neumann, rep.third_order,
                       rep.mass_constraint, rep.center_constraint]
                want = _reference_residuals(p, u)
                assert [x.hex() for x in got] == [x.hex() for x in want]

    @pytest.mark.parametrize("case, want", [
        ("cmc", {8192: 2, 256: 2, 6208: 1}),
        ("willmore", {8192: 1, 256: 2, 6208: 1})], ids=["cmc", "willmore"])
    def test_walks_per_command(self, monkeypatch, case, want):
        # one linearized command: the multipliers (inside solve_ode_modes)
        # walk the surface rule (CMC) and the equator once each, and
        # residual_check walks the residual grid, the equator and the
        # surface rule once each (the 6,208-point grid is 97 x 64)
        p = lin.LinearizedProblem(case, 1.0, 0.0)
        lin.solve_ode_modes(p)
        walks = _walks(monkeypatch)
        sol = lin.solve_ode_modes(p)
        lin.residual_check(p, sol.u_prime)
        assert walks == Counter(want)

    def test_one_field_table(self):
        # the multipliers read the table of the closed-form candidate: its
        # multiplier integrands are interned with its residuals, and the
        # third-order integrand is the residual's eta derivative
        lin._fields.cache_clear()
        for case in ("cmc", "willmore"):
            p = lin.LinearizedProblem(case, 1.0, 0.5)
            lin.residual_check(p, lin.uprime_expr(case))
            lin.multipliers(p)
        info = lin._fields.cache_info()
        assert info.currsize == 2 and info.misses == 2
        for case in ("cmc", "willmore"):
            fields = lin._fields(case, lin.uprime_expr(case))
            res, mul = _reference_fields(case, lin.uprime_expr(case))
            for name in set(res) & {"interior", "third_order", "neumann", "u"}:
                assert res[name] is fields[name]
            for name in set(mul) & {"rhs", "du_eta", "rhs_eta", "u"}:
                assert mul[name] is fields[name]
        assert mul["third_order"] is fields["lap2_u_eta"]


class TestMemory:
    # the most memory traced at once by one linearized command's solve and
    # residual check, after a first call has built the fields; traced
    # allocations do not depend on the machine.  Bound as flattened
    # meshgrids the grids took 4.60 MiB (Willmore) and 2.01 MiB (CMC); as
    # broadcast factors 3.11 and 1.31 MiB, and with the walk visiting the
    # operand of larger need first 2.24 and 1.31 MiB
    @pytest.mark.parametrize("case, bound_mib", [("willmore", 2.6), ("cmc", 1.6)])
    def test_traced_peak(self, case, bound_mib):
        p = lin.LinearizedProblem(case, 0.7, -1.3)

        def run():
            lin.residual_check(p, lin.solve_ode_modes(p).u_prime)

        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2 ** 20
