import gc
import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hemifol import cli
from hemifol import expr as ex
from hemifol import foliation as fo
from hemifol import graph_surface as gs
from hemifol import quadrature as hq
from hemifol import variational as va


def _surface_file(tmp_path, a):
    params = gs.gallery_params(a)
    path = tmp_path / f"gallery-{a}.surf"
    path.write_text(
        f"name = gallery-a-{a}\n"
        "u = a*x + a*y + x*y - c1*x^3 - c2*y^3\n"
        f"params: a={a!r}, c1={params.c1!r}, c2={params.c2!r}\n")
    return path


def _family_file(tmp_path, v, shift="0.3", lam_max=0.05):
    path = tmp_path / f"family-{v}.fam"
    path.write_text(
        f"v = {v}\nf1 = {shift}\nf2 = 0\nf3 = 0\nlambda_max = {lam_max}\n")
    return path


class TestMoments:
    def test_max_degree_4_contains_quarter_pi(self, tmp_path, capsys):
        assert cli.main(["moments", "--max-degree", "4"]) == 0
        out = capsys.readouterr().out
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 35
        table = {(r[0], r[1], r[2]): (r[3], r[4]) for r in rows}
        assert table[("2", "0", "1")] == ("1", "4")

    def test_max_degree_0(self, capsys):
        assert cli.main(["moments", "--max-degree", "0"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2
        assert out[1].split(",") == ["0", "0", "0", "2", "1"]

    def test_boundary(self, capsys):
        assert cli.main(["moments", "--boundary", "--max-degree", "2"]) == 0
        out = capsys.readouterr().out
        rows = {tuple(r.split(",")[:2]): r.split(",")[2:]
                for r in out.strip().splitlines()[1:]}
        assert rows[("2", "0")] == ["1", "1"]

    def test_negative_degree_rejected(self, capsys):
        # a negative degree is an input error, not an empty table
        assert cli.main(["moments", "--max-degree", "-1"]) == cli.EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hemifol: error: max_degree must be non-negative\n"

    @pytest.mark.parametrize("degree", ["151", "1000000000"])
    def test_degree_above_bound_rejected(self, capsys, degree):
        # the table grows as degree^3: a degree above the bound is refused
        # before any row is built
        assert cli.main(["moments", "--max-degree", degree]) == cli.EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hemifol: error: max_degree must be at most 150\n"

    def test_byte_identical_reruns(self, capsys):
        cli.main(["moments", "--max-degree", "6"])
        first = capsys.readouterr().out
        cli.main(["moments", "--max-degree", "6"])
        second = capsys.readouterr().out
        assert first == second


class TestAnalyze:
    def test_gallery_a0_foliates(self, tmp_path, capsys):
        code = cli.main(["analyze", str(_surface_file(tmp_path, 0.0)),
                         "--case", "willmore"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: Foliates" in out

    def test_gallery_near_root_does_not_foliate(self, tmp_path, capsys):
        code = cli.main(["analyze", str(_surface_file(tmp_path, 0.51)),
                         "--case", "cmc"])
        out = capsys.readouterr().out
        assert code == 1
        assert "verdict: DoesNotFoliate" in out

    def test_gallery_a03_cmc(self, tmp_path, capsys):
        code = cli.main(["analyze", str(_surface_file(tmp_path, 0.3)),
                         "--case", "cmc"])
        out = capsys.readouterr().out
        assert code == 0
        # 1/3 of the closed-form norm
        want = gs.gallery_v0_norm(0.3) / 3
        line = [l for l in out.splitlines() if "bracket" in l][0]
        lower = float(line.split("[")[1].split(",")[0])
        assert lower == pytest.approx(want, rel=1e-9)

    def test_deep_flat_sum(self, tmp_path, capsys):
        # 1500 terms: a sum chain far deeper than the interpreter's stack
        terms = " + ".join(f"x^3/{1000 * i}" for i in range(1, 1501))
        path = tmp_path / "deep.surf"
        path.write_text(f"name = deep\nu = x*y + {terms}\n")
        assert cli.main(["analyze", str(path), "--case", "willmore"]) == 0
        assert "verdict: Foliates" in capsys.readouterr().out.splitlines()

    def test_intern_table_growth_per_surface(self, tmp_path, capsys):
        # the intern table holds its nodes weakly: once the cyclic collector
        # has run, the DAGs of analyzed surfaces are gone
        rng = np.random.default_rng(3)

        def analyze(i):
            a = rng.uniform(0.0, 0.45)
            x0, y0 = (round(v, 6) for v in rng.uniform(-0.3, 0.3, 2))
            c = (-a + a ** 3) / (3.0 + 9.0 * a ** 2 + 6.0 * a ** 4)
            X = f"(x-{x0:.6f})" if x0 >= 0 else f"(x+{-x0:.6f})"
            Y = f"(y-{y0:.6f})" if y0 >= 0 else f"(y+{-y0:.6f})"
            path = tmp_path / f"t{i}.surf"
            path.write_text(f"name = t{i}\n"
                            f"u = a*{X} + a*{Y} + {X}*{Y} - c1*{X}^3 - c2*{Y}^3\n"
                            f"params: a={a!r}, c1={c!r}, c2={c!r}\n")
            return cli.main(["analyze", str(path), "--case", "cmc",
                             "--guess", f"{x0 + 0.005}", f"{y0 - 0.005}"])

        def live():
            gc.collect()
            return sum(ref() is not None for ref in ex._TABLE.values())

        assert analyze(-1) in (0, 1, 2)
        before = live()
        codes = [analyze(i) for i in range(50)]
        assert set(codes) <= {0, 1, 2}
        assert live() - before < 100
        capsys.readouterr()

    def test_analyzed_surfaces_leave_no_cyclic_garbage(self, tmp_path, capsys):
        # no cache forms a reference cycle, whatever the surface: with the
        # cyclic collector off, each analyzed surface's DAG is freed by
        # reference counting alone
        rng = np.random.default_rng(3)
        paths = []
        for i in range(21):
            a = rng.uniform(0.0, 0.45)
            x0, y0 = (round(v, 6) for v in rng.uniform(-0.3, 0.3, 2))
            c = (-a + a ** 3) / (3.0 + 9.0 * a ** 2 + 6.0 * a ** 4)
            X = f"(x-{x0:.6f})" if x0 >= 0 else f"(x+{-x0:.6f})"
            Y = f"(y-{y0:.6f})" if y0 >= 0 else f"(y+{-y0:.6f})"
            path = tmp_path / f"t{i}.surf"
            path.write_text(f"name = t{i}\n"
                            f"u = a*{X} + a*{Y} + {X}*{Y} - c1*{X}^3 - c2*{Y}^3\n"
                            f"params: a={a!r}, c1={c!r}, c2={c!r}\n")
            paths.append((path, f"{x0 + 0.005}", f"{y0 - 0.005}"))
        # d sqrt(a) holds sqrt(a), and d sin(a) and d cos(a) hold each other
        path = tmp_path / "sqrt.surf"
        path.write_text("u = x*y + sqrt(4 + x^2) - cos(y)/3 + x^2/5\n")
        paths += [(path, "0", "0")] * 5

        def analyze(path, gx, gy):
            return cli.main(["analyze", str(path), "--case", "cmc", "--guess", gx, gy])

        def live():
            return sum(ref() is not None for ref in ex._TABLE.values())

        assert analyze(*paths[0]) in (0, 1, 2)
        gc.collect()
        before = live()
        gc.disable()
        try:
            codes = [analyze(*p) for p in paths[1:]]
            after = live()
            garbage = gc.collect()
        finally:
            gc.enable()
        assert set(codes) <= {0, 1, 2}
        assert (after, garbage) == (before, 0)
        capsys.readouterr()

    def test_constants_of_analyzed_surfaces_swept(self, tmp_path, capsys):
        # constants are interned by numerator and denominator; a freed
        # surface's entries leave the table at the next sweep
        rng = np.random.default_rng(5)
        keys, surfaces = [], []
        for i in range(5):
            a = float(rng.uniform(0.0, 0.45))
            c = (-a + a ** 3) / (3.0 + 9.0 * a ** 2 + 6.0 * a ** 4)
            path = tmp_path / f"s{i}.surf"
            path.write_text(f"name = s{i}\nu = a*x + a*y + x*y - c1*x^3 - c2*y^3\n"
                            f"params: a={a!r}, c1={c!r}, c2={c!r}\n")
            assert cli.main(["analyze", str(path), "--case", "willmore"]) in (0, 1, 2)
            surfaces.append(gs.load_surface_file(path))
            keys += [("const", f.numerator, f.denominator)
                     for f in (Fraction(repr(a)), Fraction(repr(c)))]
        assert all(ex._TABLE[k]() is not None for k in keys)
        del surfaces
        gc.collect()
        ex._sweep()
        assert not set(keys) & set(ex._TABLE)
        capsys.readouterr()

    @pytest.mark.parametrize("u, params, message", [
        # u_x^2 = (2e198 + ...)^2 overflows to inf in the curvature formula
        ("a*x^2 + x*y + y^2", "a=1e200",
         "H or its derivatives not finite at Newton iterate (0.01, -0.01)"),
        # (a*(x + 2))^2 = 4e-400 underflows to 0, and u divides by it
        ("x*y + x^2 + y^2 + c/(a*(x + 2))^2", "a=1e-200, c=1e-200",
         "division by zero in 'div' subexpression of 419 characters"),
        # |grad u|^2 = 2e80: the curvatures and their derivatives are tiny
        ("a*x + a*y + x*y", "a=1e40",
         "critical point at (0.01, -0.01) has |det hessH| <= 1e-10"),
    ], ids=["overflow", "underflow", "steep"])
    @pytest.mark.filterwarnings("error")
    def test_arithmetic_out_of_range(self, tmp_path, capsys, u, params, message):
        path = tmp_path / "s.surf"
        path.write_text(f"name = s\nu = {u}\nparams: {params}\n")
        assert cli.main(["analyze", str(path), "--case", "cmc"]) == cli.EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"hemifol: error: {message}\n"

    def test_no_symbolic_differentiation(self, tmp_path, capsys, monkeypatch):
        # u's derivatives come from a Taylor walk of u alone
        def diff(e, name):
            raise AssertionError("ex.diff called")
        monkeypatch.setattr(ex, "diff", diff)
        path = tmp_path / "s.surf"
        path.write_text("name = s\nu = x*y + sqrt(4 + x^2) - cos(y)/3 + x^2/5 + 1/(3 + y)^2\n")
        assert cli.main(["analyze", str(path), "--case", "cmc", "--guess", "0", "0"]) in (0, 1, 2)
        assert cli.main(["analyze", str(_surface_file(tmp_path, 0.3)), "--case", "willmore"]) == 0
        assert cli.main(["gallery"]) == 0
        assert cli.main(["gallery", "--case", "cmc"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error")
    def test_tiny_quotient_foliates(self, tmp_path, capsys):
        # the Taylor walk of u takes 1/(a*(x + 2)) by the reciprocal's
        # recurrence, which forms no square of 2e-100, so this surface, whose
        # symbolic third derivative divided by an underflowed square, has a
        # verdict: the tiny term moves the critical point of x*y + x^2 + y^2
        # by about 4e-15
        path = tmp_path / "s.surf"
        path.write_text("name = s\nu = x*y + x^2 + y^2 + c/(a*(x + 2))\n"
                        "params: a=1e-100, c=1e-200\n")
        assert cli.main(["analyze", str(path), "--case", "cmc"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[-1] == "verdict: Foliates"
        x, y = map(float, lines[1].removeprefix("critical point: (").rstrip(")").split(", "))
        assert 0.0 < x < 1e-14 and -1e-14 < y < 0.0

    @pytest.mark.parametrize("u, params, message", [
        # Fraction(1, 0) raised ZeroDivisionError, exit 1
        ("a*x + x*y + x^2 + y^2", "a=1/0", "params item 'a=1/0': zero denominator"),
        # a literal or a folded power past str()'s digit limit could not be
        # printed in the message; both are refused before being built
        ("a*x + x*y + x^2 + y^2", "a=1e999999",
         "params item 'a=1e999999': constant of more than {limit} digits"),
        ("x*y + 3^999999*x^2 + y^2", "",
         "constant of more than {limit} digits in subexpression '3^999999'"),
        ("x*y + x^2 + 2^-999999*y^2", "a=1",
         "constant of more than {limit} digits in subexpression '1/2^999999'"),
    ], ids=["zero-denominator", "long-param", "long-power", "long-inverse-power"])
    @pytest.mark.filterwarnings("error")
    def test_bad_constant(self, tmp_path, capsys, u, params, message):
        path = tmp_path / "s.surf"
        path.write_text(f"name = s\nu = {u}\n" + (f"params: {params}\n" if params else ""))
        assert cli.main(["analyze", str(path), "--case", "cmc"]) == cli.EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        limit = sys.get_int_max_str_digits()
        assert captured.err == f"hemifol: error: {message.format(limit=limit)}\n"

    def test_same_surface_twice_with_dag_freed(self, tmp_path):
        path = _surface_file(tmp_path, 0.3)

        def analyze(i):
            out = tmp_path / f"run{i}.txt"
            assert cli.main(["analyze", str(path), "--case", "willmore",
                             "--out", str(out)]) == 0
            return out.read_bytes()

        first = analyze(1)
        # loading the file again gives the first run's node if it still lives
        probe = weakref.ref(gs.load_surface_file(path).u)
        gc.collect()
        assert probe() is None
        assert analyze(2) == first


class TestGallery:
    def test_csv_columns_and_verdicts(self, capsys):
        assert cli.main(["gallery", "--a", "0", "0.3", "0.51",
                         "--case", "willmore"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "a,v0x,v0y,v0norm,verdict"
        rows = [line.split(",") for line in out[1:]]
        assert rows[0][4] == "Foliates"
        assert rows[2][4] == "DoesNotFoliate"

    @pytest.mark.parametrize("value", ["-5e-1", "-5E-1", "-.5e0", "-5.e-1", "-0.05e+1"])
    def test_negative_exponent_form_is_a_value(self, capsys, value):
        assert cli.main(["gallery", "--a", "0.1", "-0.5"]) == 0
        want = capsys.readouterr().out
        assert cli.main(["gallery", "--a", "0.1", value]) == 0
        assert capsys.readouterr().out == want

    def test_deterministic(self, capsys):
        cli.main(["gallery", "--a", "0.2", "0.4"])
        first = capsys.readouterr().out
        cli.main(["gallery", "--a", "0.2", "0.4"])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("a, message", [
        ("nan", "a must be finite"), ("inf", "a must be finite"),
        # a^4 in c1 and c2 leaves the doubles past a = 1.16e77
        *(pytest.param(a, "a is too large: the powers of a in c1 and c2 overflow", id=a)
          for a in ("1e100", "1.2e77")),
        # hessH at the origin falls like a^-3: its determinant is below the
        # degeneracy tolerance, and the curvatures stay finite
        *(pytest.param(a, "foliation criterion needs a nondegenerate critical point", id=a)
          for a in ("1e77", "1e76", "1e60", "1e40", "1e35"))])
    @pytest.mark.filterwarnings("error")
    def test_a_out_of_range(self, capsys, a, message):
        assert cli.main(["gallery", "--a", "0.3", a]) == cli.EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"hemifol: error: {message}\n"


class TestLinearized:
    def test_negative_exponent_form_is_a_value(self, capsys):
        # argparse's own pattern reads -1e-3 as an option string
        assert cli.main(["linearized", "--case", "cmc", "--k2=-1e-3"]) == 0
        want = capsys.readouterr().out
        assert cli.main(["linearized", "--case", "cmc", "--k2", "-1e-3"]) == 0
        assert capsys.readouterr().out == want

    def test_cmc_report(self, capsys):
        assert cli.main(["linearized", "--case", "cmc",
                         "--k1", "1", "--k2", "0"]) == 0
        records = [json.loads(line)
                   for line in capsys.readouterr().out.strip().splitlines()]
        by_field = {r["field"]: r for r in records}
        assert by_field["interior_pde"]["residual"] < 1e-10
        assert by_field["neumann"]["residual"] < 1e-10
        assert by_field["third_order"]["residual"] is None
        assert by_field["alpha_prime"]["value"] == pytest.approx(-0.375)
        assert max(abs(x) for x in by_field["beta_prime"]["value"]) < 1e-10

    def test_willmore_dump(self, tmp_path, capsys):
        csv_path = tmp_path / "u.csv"
        assert cli.main(["linearized", "--case", "willmore",
                         "--k1", "1", "--k2", "1",
                         "--dump-csv", str(csv_path)]) == 0
        records = [json.loads(line)
                   for line in capsys.readouterr().out.strip().splitlines()]
        by_field = {r["field"]: r for r in records}
        assert by_field["third_order"]["residual"] < 1e-10
        assert by_field["alpha_prime"]["value"] == pytest.approx(0.5)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "t,phi,u_prime"
        assert len(lines) > 100

    @pytest.mark.parametrize("case, k1, k2", [
        pytest.param("cmc", 1e7, 1e7, id="cmc"),
        pytest.param("willmore", 1e7, 1e7, id="willmore"),
        pytest.param("cmc", 1e9, -1e9, id="cmc-1e9-cancelling"),
        pytest.param("willmore", 1e9, -1e9, id="willmore-1e9-cancelling"),
        pytest.param("cmc", 1e10, -1e10, id="cmc-1e10-cancelling"),
        pytest.param("willmore", 1e10, -1e10, id="willmore-1e10-cancelling"),
    ])
    def test_large_curvatures(self, case, k1, k2, capsys):
        # the alpha' cross check scales with the curvatures, not with H: at
        # k2 = -k1 the closed form is 0 but the quadrature's rounding is not
        assert cli.main(["linearized", "--case", case,
                         f"--k1={k1}", f"--k2={k2}"]) == 0
        records = [json.loads(line)
                   for line in capsys.readouterr().out.strip().splitlines()]
        alpha = {r["field"]: r for r in records}["alpha_prime"]["value"]
        closed = (k1 + k2) * (-0.375 if case == "cmc" else 0.25)
        assert abs(alpha - closed) <= 1e-8 * (abs(k1) + abs(k2))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_curvature_rejected(self, value, capsys):
        # a non-finite curvature would print NaN tokens, which are not JSON
        assert cli.main(["linearized", "--case", "cmc", f"--k1={value}",
                         "--k2", "1"]) == cli.EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hemifol: error: curvatures must be finite\n"

    @pytest.mark.parametrize("case", ["cmc", "willmore"])
    @pytest.mark.parametrize("k1, k2", [("1e308", "1e308"), ("0", "-1e301")])
    def test_overflowing_curvatures_rejected(self, case, k1, k2, capsys):
        # the fields are linear in the curvatures, and past 1e300 they would
        # overflow to inf and NaN; the largest curvatures that ran before
        # still print finite values, without a floating-point warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["linearized", "--case", case, f"--k1={k1}",
                             f"--k2={k2}"]) == cli.EX_DATAERR
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("hemifol: error: curvatures too large: "
                                    "the linearized fields overflow\n")
            big = "1e160" if case == "willmore" else "1e200"
            assert cli.main(["linearized", "--case", case, "--k1", big,
                             "--k2", big]) == 0

        def finite_only(token):
            raise AssertionError(f"non-finite value {token}")

        records = [json.loads(line, parse_constant=finite_only)
                   for line in capsys.readouterr().out.strip().splitlines()]
        alpha = {r["field"]: r for r in records}["alpha_prime"]["value"]
        assert alpha == pytest.approx(2 * float(big)
                                      * (-0.375 if case == "cmc" else 0.25))

    def test_shared_mode_tables_match_fresh_runs(self, tmp_path, capsys):
        # alternating cases and curvatures in one process print what the
        # same runs print in the reverse order
        runs = [("cmc", "1", "0"), ("willmore", "0.5", "-2"), ("cmc", "-1.25", "3"),
                ("willmore", "0", "0"), ("cmc", "0", "0"), ("willmore", "1", "1")]

        def run(case, k1, k2):
            csv_path = tmp_path / "u.csv"
            assert cli.main(["linearized", "--case", case, "--k1", k1,
                             "--k2", k2, "--dump-csv", str(csv_path)]) == 0
            return capsys.readouterr().out, csv_path.read_bytes()

        shared = [run(*args) for args in runs]
        fresh = [run(*args) for args in reversed(runs)]
        assert shared == fresh[::-1]


class TestFoliate:
    def test_foliating_family(self, tmp_path, capsys):
        fam = _family_file(tmp_path, 0.5)
        code = cli.main(["foliate", str(fam), "--n-lambda", "6"])
        records = [json.loads(line)
                   for line in capsys.readouterr().out.strip().splitlines()]
        assert code == 0
        assert records[-1]["verdict"] == "Foliates"

    def test_overlapping_family(self, tmp_path, capsys):
        fam = _family_file(tmp_path, 1.5)
        code = cli.main(["foliate", str(fam), "--n-lambda", "6"])
        records = [json.loads(line)
                   for line in capsys.readouterr().out.strip().splitlines()]
        assert code == 1
        assert records[-1]["verdict"] == "Overlaps"
        l1, l2 = records[-1]["witness_pair"]
        assert l2 / l1 == pytest.approx(3.0, rel=1e-9)

    def test_coverage_samples_between_leaves_near_v1(self, tmp_path, capsys):
        # for v near 1 the lambda_max leaf is low on the z axis, so a sample
        # at the mean radius would lie outside every leaf
        fam = _family_file(tmp_path, 0.9)
        code = cli.main(["foliate", str(fam)])
        records = [json.loads(line)
                   for line in capsys.readouterr().out.strip().splitlines()]
        assert code == 0
        assert [r["status"] for r in records if "status" in r] == ["unique", "unique"]

    def test_coverage_ray_missing_a_leaf(self, tmp_path, capsys):
        # v + lambda_max * f1 > 1 puts the origin outside the lambda_max
        # leaf, so the vertical ray from it misses that leaf
        fam = _family_file(tmp_path, 0.999)
        code = cli.main(["foliate", str(fam)])
        records = [json.loads(line)
                   for line in capsys.readouterr().out.strip().splitlines()]
        assert code == 1
        assert [r["status"] for r in records if "status" in r][0] == "ray-misses"

    @pytest.mark.parametrize("v, f1", [
        (1.011290136625749, -0.2275), (1.0003322523382998, -0.1513)])
    def test_constructed_pair_near_v1(self, tmp_path, capsys, v, f1):
        # v/(v-1) * lambda_min exceeds lambda_max, so the constructed pair
        # has lambda2 = (v-1)/(4 c_bound), where the leaves still cross
        fam = _family_file(tmp_path, v, f"(0-{-f1})")
        code = cli.main(["foliate", str(fam)])
        records = [json.loads(line)
                   for line in capsys.readouterr().out.strip().splitlines()]
        assert code == 1
        l1, l2 = records[-1]["witness_pair"]
        assert l2 == pytest.approx((v - 1) / (4 * -f1), rel=1e-12)
        assert l1 == pytest.approx(l2 * (v - 1) / v, rel=1e-12)

    @pytest.mark.parametrize("v", [0.5, 1.5])
    @pytest.mark.parametrize("lambda_min", ["0", "0.2"])
    def test_lambda_min_not_positive(self, tmp_path, capsys, v, lambda_min):
        # a grid outside (0, lambda_max = 0.05] is refused before any ray,
        # with one message whether v < 1 (sample-radius rays) or v > 1
        fam = _family_file(tmp_path, v)
        rays = tmp_path / "rays.csv"
        code = cli.main(["foliate", str(fam), "--lambda-min", lambda_min,
                         "--rays-csv", str(rays)])
        assert code == cli.EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hemifol: error: lambda grid must lie in (0, lambda_max]\n"
        assert not rays.exists()

    @pytest.mark.parametrize("lam_max, lambda_min", [
        ("1e-200", "1e-201"), ("1e-140", "1e-160"), ("1e-140", "9.99e-151")])
    def test_lambda_min_below_scale_min(self, tmp_path, capsys, lam_max, lambda_min):
        # below SCALE_MIN squares of leaf coordinates are subnormal: one
        # stderr line and no numpy warning, where the rays would divide by
        # zero or fail to contract
        fam = _family_file(tmp_path, 0.5, shift="0", lam_max=lam_max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["foliate", str(fam), "--lambda-min", lambda_min])
        assert code == cli.EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"hemifol: error: smallest lambda {float(lambda_min):g} is below 1e-150, "
            "where squares of leaf coordinates leave the normal doubles\n")
        if float(lam_max) >= 1e-150:
            # the bound itself is a grid the rays run on
            code = cli.main(["foliate", str(fam), "--lambda-min", "1e-150"])
            assert code != cli.EX_DATAERR
            capsys.readouterr()

    @pytest.mark.parametrize("n", ["5001", "100000000000"])
    def test_n_lambda_above_bound_rejected(self, tmp_path, capsys, n):
        # refused before the grid is built, not a memory error with the
        # Overlaps exit code
        fam = _family_file(tmp_path, 0.5)
        assert cli.main(["foliate", str(fam), "--n-lambda", n]) == cli.EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hemifol: error: n_lambda must be at most 5000\n"

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_lambda_min_not_finite(self, tmp_path, capsys, value):
        # one stderr line, and no numpy warning before it
        fam = _family_file(tmp_path, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["foliate", str(fam), f"--lambda-min={value}"])
        assert code == cli.EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hemifol: error: lambda_min must be finite\n"

    @pytest.mark.parametrize("lam_max", ["1e8", "1e140"])
    def test_large_family_foliates(self, tmp_path, capsys, lam_max):
        # the f = 0, v = 0.5 family foliates at every scale: the coverage
        # bisection and its residual gate are relative beyond unit scale
        fam = _family_file(tmp_path, 0.5, shift="0", lam_max=lam_max)
        assert cli.main(["foliate", str(fam)]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        coverage = [r for r in records if "hits" in r]
        assert len(coverage) == 2
        assert all(r["hits"] == 1 and r["status"] == "unique" for r in coverage)
        assert records[-1]["verdict"] == "Foliates"

    @pytest.mark.parametrize("v", [0.5, 1.5])
    def test_negative_lambda_count_rejected(self, tmp_path, capsys, v):
        # refused before numpy builds the grid, whose error text it was
        fam = _family_file(tmp_path, v)
        code = cli.main(["foliate", str(fam), "--n-lambda", "-3"])
        assert code == cli.EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hemifol: error: n_lambda must be non-negative\n"

    @pytest.mark.parametrize("v", [0.5, 1.5])
    def test_empty_lambda_grid(self, tmp_path, capsys, v):
        # v < 1 would read the grid's ends for its sample-radius rays, v > 1
        # meets the empty grid in the report; both are bad input
        fam = _family_file(tmp_path, v)
        code = cli.main(["foliate", str(fam), "--n-lambda", "0"])
        assert code == cli.EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hemifol: error: lambda grid must lie in (0, lambda_max]\n"

    @pytest.mark.parametrize("v", [0.5, 1.5])
    @pytest.mark.parametrize("grid", [["--n-lambda", "1"],
                                      ["--lambda-min", "0.05"]],
                             ids=["one-point", "lambda-min-at-max"])
    def test_one_leaf(self, tmp_path, capsys, v, grid):
        # one distinct leaf has no pair to compare, and the coverage samples
        # would sit on it: the v = 0.5 family foliates on two leaves, but
        # one leaf read as Overlaps without a witness pair
        fam = _family_file(tmp_path, v)
        assert cli.main(["foliate", str(fam), *grid]) == cli.EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("hemifol: error: lambda grid must hold at "
                                "least two distinct leaves\n")
        assert cli.main(["foliate", str(fam), "--n-lambda", "2"]) == (v > 1)
        capsys.readouterr()

    @pytest.mark.parametrize("v, lam_max", [
        ("nan", "0.05"), ("inf", "0.05"), ("0.5", "nan"), ("0.5", "inf")])
    def test_family_not_finite(self, tmp_path, capsys, v, lam_max):
        path = tmp_path / "bad.fam"
        path.write_text(f"v = {v}\nlambda_max = {lam_max}\n")
        assert cli.main(["foliate", str(path)]) == cli.EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hemifol: error: v and lambda_max must be finite\n"

    def test_family_too_large(self, tmp_path, capsys):
        # lambda_max = 1e300 is finite, but lambda^2 would overflow in the
        # leaf fixed points: rejected as it is read, in one line
        path = tmp_path / "huge.fam"
        path.write_text("v = 0.5\nlambda_max = 1e300\n")
        assert cli.main(["foliate", str(path)]) == cli.EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("hemifol: error: lambda_max * (2 + v) must "
                                "be at most 1e+150\n")

    def test_fixed_point_not_converging(self, tmp_path, capsys, monkeypatch):
        # a leaf fixed point that does not converge is bad input, not the
        # Overlaps verdict's exit 1
        def stuck(*args):
            raise fo.NoConvergence("fixed point not contracting")

        monkeypatch.setattr(fo, "foliation_report", stuck)
        fam = _family_file(tmp_path, 0.5)
        assert cli.main(["foliate", str(fam)]) == cli.EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hemifol: error: fixed point not contracting\n"

    def test_touching_leaves_inconclusive(self, tmp_path, capsys):
        # v = 1, f = 0: every leaf touches the next at the origin, a radial
        # gap of 0 within its error, which is no verdict either way
        fam = _family_file(tmp_path, 1, shift="0")
        rays = tmp_path / "rays.csv"
        code = cli.main(["foliate", str(fam), "--rays-csv", str(rays)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        assert [json.loads(line) for line in captured.out.splitlines()] == [
            {"verdict": "Inconclusive", "witness_pair": None,
             "note": "radial gap 0.000e+00 within its error 1.000e-12"}]
        assert rays.read_text().splitlines()[0] == "lambda,theta0_x,theta0_y,theta0_z,t"

    def test_rays_csv(self, tmp_path, capsys):
        fam = _family_file(tmp_path, 0.5)
        rays = tmp_path / "rays.csv"
        cli.main(["foliate", str(fam), "--n-lambda", "4",
                  "--rays-csv", str(rays)])
        capsys.readouterr()
        lines = rays.read_text().strip().splitlines()
        assert lines[0] == "lambda,theta0_x,theta0_y,theta0_z,t"
        assert len(lines) > 4


class TestVerifyExpansions:
    def test_willmore_all_pass(self, capsys):
        code = cli.main(["verify-expansions", "--case", "willmore"])
        out = capsys.readouterr().out
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 6
        assert all(r.endswith("PASS") for r in rows)

    def test_detectability_of_mismatch(self, capsys, monkeypatch):
        # a wrong pinned value must surface as a flagged FAIL row and a
        # nonzero exit, never as a silent pass
        from fractions import Fraction
        import copy
        bad = copy.deepcopy(cli._REFERENCE_TERMS)
        bad["willmore"]["D2_g2"] = (Fraction(-5, 3), Fraction(0),
                                    Fraction(0), Fraction(0))
        monkeypatch.setattr(cli, "_REFERENCE_TERMS", bad)
        code = cli.main(["verify-expansions", "--case", "willmore"])
        out = capsys.readouterr().out
        assert code == 1
        fail_rows = [r for r in out.strip().splitlines() if r.endswith("FAIL")]
        assert any(r.startswith("D2_g2") for r in fail_rows)

    def test_abs_err_is_the_largest_residual(self, capsys, cmc_terms):
        # a term row prints the largest residual of its raw values against
        # the recovered and the reference coefficients, the total row the
        # lambda-linear coefficient's distance from -pi/4; a second run
        # prints the same bytes
        assert cli.main(["verify-expansions", "--case", "cmc"]) == 0
        out = capsys.readouterr().out
        rows = {line.split(",")[0]: line.split(",")
                for line in out.strip().splitlines()[1:]}
        assert len(rows) == 6
        for name, tv in cmc_terms.terms.items():
            want = cli._REFERENCE_TERMS["cmc"][name]
            ref = va.FunctionalValue(hq.CoefficientVector(*want[:2]),
                                     hq.CoefficientVector(*want[2:]), {})
            err = max(abs(raw - fv.of(k1, k2)) for fv in (tv, ref)
                      for (k1, k2), raw in tv.raw.items())
            assert rows[name][7] == cli._f(err), name
        assert rows["total"][7] == cli._f(
            abs(cmc_terms.first_derivative + math.pi / 4))
        assert cli.main(["verify-expansions", "--case", "cmc"]) == 0
        assert capsys.readouterr().out == out

    def test_unrecoverable_values_fail(self, capsys, monkeypatch):
        # values the grid cannot pin down are one FAIL row and exit 1
        def no_fit(case):
            raise hq.NoRationalFit("no rational fit of 0.123")

        monkeypatch.setattr(va, "second_derivative_terms", no_fit)
        assert cli.main(["verify-expansions", "--case", "cmc"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[1:] == [
            "all,,,,,,,unrecoverable: no rational fit of 0.123,FAIL"]

    def test_tolerance_below_errors_fails(self, capsys):
        code = cli.main(["verify-expansions", "--case", "cmc", "--tolerance", "1e-16"])
        assert code == 1
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 6
        assert all(r.endswith(",FAIL") for r in rows)


class TestConfig:
    # verify-expansions' --tolerance is the one setting, and no other
    # command takes it
    VERIFY = ["verify-expansions", "--case", "cmc"]

    def test_bad_tolerance_rejected(self, capsys):
        code = cli.main(self.VERIFY + ["--tolerance", "-1"])
        assert code == cli.EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hemifol: error: tolerance must be positive\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_rejected(self, capsys, value):
        # NaN passed no row and exited 1, the mismatch code;
        # "--tolerance -inf" would read -inf as an option, so "=" joins them
        code = cli.main(self.VERIFY + [f"--tolerance={value}"])
        assert code == cli.EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hemifol: error: tolerance must be finite\n"

    @pytest.mark.parametrize("flag", ["--tolerance"])
    def test_zero_override_rejected(self, capsys, flag):
        # 0 is an invalid value, not a request for the default
        code = cli.main(self.VERIFY + [flag, "0"])
        assert code == cli.EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("hemifol: error: ")

    @pytest.mark.parametrize("argv", [
        ["--tolerance", "1e-7", "verify-expansions", "--case", "cmc"],
        ["--config", "run.cfg", "verify-expansions", "--case", "cmc"],
    ], ids=["global-tolerance", "config"])
    def test_global_settings_are_usage_errors(self, capsys, argv):
        # there is no global option and no configuration file
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == cli.EX_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith("hemifol: error: ")

    @pytest.mark.parametrize("argv", [
        ["moments"], ["analyze", "u.surf", "--case", "cmc"], ["gallery"],
        ["linearized", "--case", "cmc"], ["foliate", "f.fam"],
    ], ids=lambda argv: argv[0])
    def test_tolerance_on_other_commands_rejected(self, capsys, argv):
        # only verify-expansions reads a tolerance; the usage error comes
        # before any file is opened
        with pytest.raises(SystemExit) as info:
            cli.main(argv + ["--tolerance", "1e-7"])
        assert info.value.code == cli.EX_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "hemifol: error: unrecognized arguments: --tolerance 1e-7")

    @pytest.mark.parametrize("flag", ["--n-polar", "--n-azimuthal"])
    def test_grid_flags_rejected(self, capsys, flag):
        # verify-expansions measures its grid; there is no grid to set
        with pytest.raises(SystemExit) as info:
            cli.main([flag, "32", "verify-expansions", "--case", "cmc"])
        assert info.value.code == cli.EX_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith("hemifol: error: ")


class TestInputErrors:
    # input errors exit 65 (usage errors 64) with one line on stderr, so they
    # cannot be read as the verdict codes 0/1/2
    @pytest.mark.parametrize("body", [None, "v = 0.5\nf1 = 0.3*(\nlambda_max = 0.05\n",
                                      "v = 0.5\nf3 = 1\nlambda_max = 0.05\n"],
                             ids=["missing", "syntax", "f3-on-equator"])
    def test_bad_family_file(self, tmp_path, capsys, body):
        path = tmp_path / "bad.fam"
        if body is not None:
            path.write_text(body)
        assert cli.main(["foliate", str(path)]) == cli.EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("hemifol: error: ")

    @pytest.mark.parametrize("body, line", [
        ("u = x*y\nuu = x^3\n", "uu = x^3"),
        ("names = bogus\nu = x*y\n", "names = bogus"),
    ], ids=["uu", "names"])
    def test_surface_file_unknown_key(self, tmp_path, capsys, body, line):
        # keys match whole: a key that merely starts with 'u' or 'name'
        # is not one
        path = tmp_path / "bad.surf"
        path.write_text(body)
        assert cli.main(["analyze", str(path), "--case", "cmc"]) == cli.EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"hemifol: error: unrecognized surface-file line: {line!r}\n"

    @pytest.mark.parametrize("command, name, body, message", [
        ("analyze", "s.surf", "name = s\nu = x*y + x^2 + cot(x - 1/100)\n",
         "cot at a pole in subexpression 'cot(x - 1/100)'"),
        ("analyze", "s.surf", "name = s\nu = x*y + x^2 + y^2 + (x+3)^600*(x+3)^600\n",
         "H or its derivatives not finite at Newton iterate (0.01, -0.01)"),
        ("analyze", "s.surf", "name = s\nu = x*y + x^2 + y^2\nu = x*y + 2*x^2 + y^2\n",
         "repeated surface-file key 'u'"),
        ("analyze", "s.surf", "name = s\nu = a*x + x*y + x^2 + y^2\nparams: a=\n",
         "params item 'a=': Invalid literal for Fraction: ''"),
        ("foliate", "f.fam", "v = 0.5\nf1 = cot(w3)/100\nlambda_max = 0.05\n",
         "cot at a pole in subexpression 'cot(w3)'"),
        ("foliate", "f.fam", "v = 0.5\nv = 1.5\nlambda_max = 0.05\n",
         "repeated family-file key 'v'"),
        ("analyze", "s.surf", "name = s\nu = a*x + x*y + x^2 + y^2\nparams: a=1, =3\n",
         "params item '=3': empty name"),
        ("foliate", "f.fam", "v = abc\nlambda_max = 0.05\n",
         "family-file key 'v' is not a number: 'abc'"),
        ("foliate", "f.fam", "v = 0.5\nlambda_max = 5e-2x\n",
         "family-file key 'lambda_max' is not a number: '5e-2x'"),
        # 0.01^155 = 1e-310 at the Newton guess: cos/sin would overflow
        ("analyze", "s.surf", "name = s\nu = x*y + x^2 + y^2 + cot(x^155)\n",
         "cot at a pole in subexpression 'cot(x^155)'"),
    ], ids=["cot-surface", "non-finite-jet", "two-u", "empty-param", "cot-family", "two-v",
            "empty-param-name", "v-not-a-number", "lambda-max-not-a-number", "cot-overflow"])
    @pytest.mark.filterwarnings("error")
    def test_one_line_without_numpy_warning(self, tmp_path, capsys, command, name,
                                            body, message):
        path = tmp_path / name
        path.write_text(body)
        argv = [command, str(path)] + (["--case", "cmc"] if command == "analyze" else [])
        assert cli.main(argv) == cli.EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"hemifol: error: {message}\n"

    @pytest.mark.parametrize("body", [
        "u = a*x^2 + x*y + y^2\nparams: a=1e200\n",
        "u = x*y + x^2 + y^2 + c/(a*(x + 2))^2\nparams: a=1e-200, c=1e-200\n",
        "u = a*x + a*y + x*y\nparams: a=1e40\n",
        "u = x*y + x^2 + y^2 + (x+3)^600*(x+3)^600\n",
        "u = x*y + x^2 + y^2 + cot(x^155)\n",
    ], ids=["overflow", "underflow", "steep", "inf", "cotnear"])
    def test_float_range_in_a_fresh_process(self, tmp_path, body):
        # the console command with every warning an error: a float
        # product past the range in the curvature formula, or a walk of u's
        # derivatives that leaves it, exits 65 with one line, no traceback
        (tmp_path / "s.surf").write_text(f"name = s\n{body}")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                        env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "hemifol.cli", "analyze",
                               "s.surf", "--case", "cmc"], capture_output=True, text=True,
                              env=env, cwd=tmp_path, timeout=600)
        assert proc.returncode == cli.EX_DATAERR
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("hemifol: error: ")

    def test_missing_surface_file(self, tmp_path, capsys):
        code = cli.main(["analyze", str(tmp_path / "none.surf"), "--case", "cmc"])
        assert code == cli.EX_DATAERR
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "none.surf" in err

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["frobnicate"])
        assert info.value.code == cli.EX_USAGE
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("f1, message", [
        ("ln(w3)", "ln of non-positive value in subexpression 'ln(w3)'"),
        ("z*w3", "unbound variable 'z'"),
    ], ids=["domain", "unbound"])
    def test_family_expression_not_evaluable(self, tmp_path, capsys, f1, message):
        path = tmp_path / "bad.fam"
        path.write_text(f"v = 0.5\nf1 = {f1}\nlambda_max = 0.05\n")
        assert cli.main(["foliate", str(path)]) == cli.EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"hemifol: error: {message}\n"

    @pytest.mark.parametrize("u, message", [
        ("x + y", "hemifol: error: critical point at (0.01, -0.01) has |det hessH| <= 1e-10"),
        ("x*y + " + " + ".join(f"x^2*y/{i}" for i in range(1, 21)),
         "hemifol: error: Newton iterate left the domain: (2.69"),
    ], ids=["degenerate", "no-convergence"])
    def test_surface_without_critical_point(self, tmp_path, capsys, u, message):
        path = tmp_path / "bad.surf"
        path.write_text(f"name = bad\nu = {u}\n")
        assert cli.main(["analyze", str(path), "--case", "willmore"]) == cli.EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(message)

    @pytest.mark.parametrize("guess", [["nan", "0"], ["inf", "0"], ["0", "nan"]])
    def test_guess_not_finite(self, tmp_path, capsys, guess):
        # -inf cannot be passed: the option parser reads it as a flag
        path = _surface_file(tmp_path, 0.3)
        code = cli.main(["analyze", str(path), "--case", "cmc", "--guess", *guess])
        assert code == cli.EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hemifol: error: guess must be finite\n"

    def test_guess_outside_square_root_domain(self, tmp_path, capsys):
        path = tmp_path / "dome.surf"
        path.write_text("name = dome\nu = sqrt(1 - x^2 - y^2)\n")
        code = cli.main(["analyze", str(path), "--case", "cmc", "--guess", "2", "2"])
        assert code == cli.EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("hemifol: error: sqrt of negative value in "
                                "subexpression 'sqrt(1 - x^2 - y^2)'\n")


class TestParserReuse:
    def test_one_parser_matches_fresh_parsers(self, tmp_path, capsys, monkeypatch):
        # main builds its parser once per process; alternating commands,
        # usage errors among them, must give what a fresh parser gives
        surf = str(_surface_file(tmp_path, 0.3))
        fam = str(_family_file(tmp_path, 1.5))
        runs = [
            ["analyze", surf, "--case", "willmore"],
            ["linearized", "--case", "cmc", "--k1", "0.5"],
            ["foliate", fam, "--n-lambda", "4"],
            ["analyze", surf],
            ["verify-expansions", "--case", "cmc", "--tolerance", "1e-6"],
            ["analyze", surf, "--case", "cmc", "--guess", "0.02", "-0.02"],
            ["foliate"],
            ["linearized", "--case", "willmore"],
            ["foliate", fam, "--n-lambda", "5", "--lambda-min", "0.01"],
            ["gallery", "--a", "0.1"],
            ["gallery"],
        ]

        def outcomes():
            got = []
            for argv in runs:
                try:
                    code = cli.main(argv)
                except SystemExit as stop:
                    code = ("exit", stop.code)
                captured = capsys.readouterr()
                got.append((code, captured.out, captured.err))
            return got

        shared = outcomes()
        assert cli._build_parser() is cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        assert outcomes() == shared
        assert [c for c, _, _ in shared] == [
            0, 0, 1, ("exit", cli.EX_USAGE), 0, 0, ("exit", cli.EX_USAGE),
            0, 1, 0, 0]
