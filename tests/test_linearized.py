import math

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


class TestOdeModes:
    def test_cmc_modes_match_closed_forms(self):
        g1, g2 = lin.solve_cmc_modes()
        # v1 = 3/4 - cos(theta)
        theta = np.linspace(lin.THETA_START, math.pi / 2, 300)
        err1 = max(abs(g1(th) - (0.75 - math.cos(th))) for th in theta)
        assert err1 < 1e-8
        # v2 factor (2 + t)/(3 (1 + t)^2) on t in [0, 0.999]
        sol = lin.solve_ode_modes(lin.LinearizedProblem("cmc", 1.0, 0.0))
        assert sol.mode_sup_errors["mode0"] < 1e-8
        assert sol.mode_sup_errors["mode2"] < 1e-7

    def test_willmore_modes_match_closed_forms(self):
        sol = lin.solve_ode_modes(lin.LinearizedProblem("willmore", 1.0, 1.0))
        assert sol.mode_sup_errors["mode0"] < 1e-8
        assert sol.mode_sup_errors["mode2"] < 1e-7

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
        lin._multiplier_fields.cache_clear()
        try:
            with pytest.raises(lin.ConstraintSingular):
                lin.multipliers(lin.LinearizedProblem(case, 1.0, 0.5))
        finally:
            lin._multiplier_fields.cache_clear()


def _reference_solve_ode_modes(p):
    """solve_ode_modes as it was before the mode tables: the modes solved
    on every call and their dense output read one point at a time."""
    def sup_error(numeric, closed):
        t = np.linspace(0.0, 0.999, 400)
        theta = np.arccos(t)
        theta = np.clip(theta, lin.THETA_START, None)
        got = np.array([numeric(th) for th in theta])
        want = closed(np.cos(theta))
        return float(np.max(np.abs(got - want)))

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

    t = np.linspace(0.0, math.cos(lin.THETA_START), 40)
    phi = np.linspace(0.0, 2 * np.pi, 32, endpoint=False)
    tt, pp = np.meshgrid(t, phi, indexing="ij")
    theta = np.arccos(np.clip(tt, -1.0, 1.0))
    w1, w2_, w3 = sphere.omega_values(tt, pp)
    mode0_vals = np.array([m0(th) for th in theta.ravel()]).reshape(theta.shape)
    mode2_vals = np.array([m2(th) for th in theta.ravel()]).reshape(theta.shape)
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
        # the modes solved once per case and read as arrays give exactly the
        # samples, sup errors and multipliers of solving and reading them
        # point by point, on a cache miss and on a hit
        for k1, k2 in _curvatures():
            p = lin.LinearizedProblem(case, k1, k2)
            want = _reference_solve_ode_modes(p)
            lin._mode_tables.cache_clear()
            _same_bytes(lin.solve_ode_modes(p), want)
            _same_bytes(lin.solve_ode_modes(p), want)
            assert lin._mode_tables.cache_info().hits >= 1

    def test_array_reads_match_point_reads(self):
        theta = np.linspace(lin.THETA_START, math.pi / 2, 97)
        for modes in (lin.solve_cmc_modes(), lin.solve_willmore_modes()):
            for mode in modes:
                each = np.array([mode(th) for th in theta])
                assert mode(theta).tobytes() == each.tobytes()

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

    def test_one_entry_per_case(self):
        lin._mode_tables.cache_clear()
        for case in ("cmc", "willmore", "CMC", "Willmore"):
            lin.solve_ode_modes(lin.LinearizedProblem(case, 1.0, 0.5))
        info = lin._mode_tables.cache_info()
        assert info.currsize == 2 and info.misses == 2
        table = lin._mode_tables("cmc")
        assert not any(column.flags.writeable for column in table[1:])


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
