import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hemifol import expr as ex
from hemifol import quadrature as hq
from hemifol import variational as va

LN2 = math.log(2.0)


# oracle, independent of the quadrature module it checks: 16-node
# Gauss-Legendre in t times 32 equispaced phi.  For a + b even the integrand
# is a polynomial of degree a + b + c <= 31 in t times a trigonometric
# polynomial of degree a + b < 32 in phi, which this rule integrates exactly
def _product_rule_moment(a, b, c):
    x, w = np.polynomial.legendre.leggauss(16)
    t, wt = 0.5 * (x + 1.0), 0.5 * w
    phi = 2 * np.pi * np.arange(32) / 32
    tt, pp = np.meshgrid(t, phi, indexing="ij")
    s = np.sqrt(1 - tt ** 2)
    vals = (s * np.cos(pp)) ** a * (s * np.sin(pp)) ** b * tt ** c
    return float(np.sum(vals * wt[:, None])) * (2 * np.pi) / 32


class TestExactMoments:
    def test_reference_values(self):
        assert hq.surface_moment(hq.Moment(2, 0, 1)) == Fraction(1, 4)
        assert hq.surface_moment(hq.Moment(0, 0, 1)) == Fraction(1)

    def test_trivial_values(self):
        assert hq.surface_moment(hq.Moment(0, 0, 0)) == Fraction(2)
        assert hq.surface_moment(hq.Moment(1, 0, 0)) == Fraction(0)

    def test_beta_factorization_values(self):
        assert hq.surface_moment(hq.Moment(4, 0, 0)) == Fraction(2, 5)
        assert hq.surface_moment(hq.Moment(2, 2, 0)) == Fraction(2, 15)

    def test_odd_moments_vanish(self):
        for a, b, c in [(1, 0, 0), (0, 3, 2), (1, 1, 0), (3, 2, 1)]:
            if a % 2 or b % 2:
                assert hq.surface_moment(hq.Moment(a, b, c)) == 0

    def test_nonnegative_when_even(self):
        for a in range(0, 7, 2):
            for b in range(0, 7, 2):
                for c in range(5):
                    assert hq.surface_moment(hq.Moment(a, b, c)) >= 0

    def test_against_midpoint_oracle(self):
        for a, b, c in [(0, 0, 0), (2, 0, 1), (4, 2, 0), (2, 2, 3), (0, 0, 5)]:
            exact = float(hq.surface_moment(hq.Moment(a, b, c))) * math.pi
            assert exact == pytest.approx(_product_rule_moment(a, b, c), abs=1e-12)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            hq.Moment(-1, 0, 0)


class TestBoundaryMoments:
    def test_reference_value(self):
        assert hq.boundary_moment(2, 0) == Fraction(1)

    def test_trivial(self):
        assert hq.boundary_moment(0, 0) == Fraction(2)

    def test_wallis(self):
        assert hq.boundary_moment(4, 0) == Fraction(3, 4)
        assert hq.boundary_moment(2, 2) == Fraction(1, 4)

    def test_odd_vanish(self):
        assert hq.boundary_moment(1, 0) == 0
        assert hq.boundary_moment(2, 3) == 0


class TestSurfaceQuadrature:
    def test_reference_integrand(self):
        v = hq.integrate_surface(ex.parse("w1^2*w3"))
        assert abs(v - math.pi / 4) < 1e-12

    def test_area(self):
        v = hq.integrate_surface(ex.parse("1"))
        assert abs(v - 2 * math.pi) < 1e-12

    def test_all_monomials_degree_12(self):
        grid = hq.QuadratureGrid()
        for a in range(0, 13):
            for b in range(0, 13 - a):
                for c in range(0, 13 - a - b):
                    e = (ex.var("w1") ** a * ex.var("w2") ** b
                         * ex.var("w3") ** c if a + b + c else ex.ONE)
                    got = hq.integrate_surface(e, grid)
                    want = float(hq.surface_moment(hq.Moment(a, b, c))) * math.pi
                    assert abs(got - want) < 1e-12, (a, b, c)

    def test_omega_and_tphi_mixed(self):
        # the nodes bind omega and (t, phi) alike: w1^2 * t = w1^2 * w3
        e = ex.parse("w1^2*t")
        assert abs(hq.integrate_surface(e) - math.pi / 4) < 1e-12
        assert abs(hq.integrate_tphi(e) - math.pi / 4) < 1e-12

    def test_odd_integrand_vanishes(self):
        # odd under (w1, w2) -> (-w1, -w2)
        for text in ["w1*w3", "w2", "w1*w2^2", "w1^3*w3^2"]:
            assert abs(hq.integrate_surface(ex.parse(text))) < 1e-12

    def test_grid_doubling_converged(self):
        e = ex.parse("ln(1+w3)*w1^2 + sqrt(1+w2^2)")
        g = hq.QuadratureGrid()
        v1 = hq.integrate_surface(e, g)
        v2 = hq.integrate_surface(e, hq.QuadratureGrid(128, 256))
        assert abs(v1 - v2) < 1e-10

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            hq.QuadratureGrid(4, 64)
        with pytest.raises(ValueError):
            hq.QuadratureGrid(16, 15)


class TestGridNodes:
    @pytest.mark.parametrize("grid", [hq.QuadratureGrid(), hq.QuadratureGrid(16, 32),
                                      hq.QuadratureGrid(48, 96)])
    def test_nodes_match_fresh_product_rule(self, grid):
        # the shared arrays are bit for bit the ones computed afresh
        x, w = np.polynomial.legendre.leggauss(grid.n_polar)
        phi = 2.0 * np.pi * np.arange(grid.n_azimuthal) / grid.n_azimuthal
        T, P = np.meshgrid(0.5 * (x + 1.0), phi, indexing="ij")
        W = np.repeat(0.5 * w, grid.n_azimuthal) * (2.0 * np.pi / grid.n_azimuthal)
        for got, want in zip(grid.nodes(), (T.ravel(), P.ravel(), W)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_nodes_are_read_only(self):
        for arr in hq.QuadratureGrid(16, 32).nodes():
            with pytest.raises(ValueError):
                arr[0] = 1.0
            with pytest.raises(ValueError):
                arr += 1.0

    def test_equal_grids_give_equal_nodes(self):
        a = hq.QuadratureGrid(16, 32).nodes()
        b = hq.QuadratureGrid(16, 32).nodes()
        c = dataclasses.replace(hq.QuadratureGrid(), n_polar=16,
                                n_azimuthal=32).nodes()
        for x, y, z in zip(a, b, c):
            assert np.array_equal(x, y) and np.array_equal(x, z)


class TestBoundaryQuadrature:
    def test_reference_value(self):
        assert hq.integrate_boundary(ex.parse("w1^2")) == pytest.approx(math.pi)

    def test_w3_vanishes(self):
        assert hq.integrate_boundary(ex.parse("w3")) == 0.0

    def test_curvature_combination(self):
        e = ex.parse("2*w1^2 + 0*w2^2")
        assert hq.integrate_boundary(e) == pytest.approx(2 * math.pi)


COEFFICIENT_LIBRARY = [
    (Fraction(-8, 7), Fraction(0)), (Fraction(863, 280), Fraction(-3)),
    (Fraction(23, 14), Fraction(0)), (Fraction(-291, 560), Fraction(0)),
    (Fraction(4, 21), Fraction(0)), (Fraction(16, 35), Fraction(0)),
    (Fraction(-4), Fraction(4)), (Fraction(-4, 3), Fraction(0)),
    (Fraction(5, 14), Fraction(0)), (Fraction(-579, 2240), Fraction(0)),
    (Fraction(-31, 270), Fraction(-4, 9)), (Fraction(2201, 8640), Fraction(1, 9)),
    (Fraction(64, 105), Fraction(0)), (Fraction(-4, 21), Fraction(0)),
    (Fraction(-4, 5), Fraction(0)), (Fraction(4, 15), Fraction(0)),
    (Fraction(113, 30240), Fraction(-1, 9)), (Fraction(-229, 945), Fraction(4, 9)),
    (Fraction(1), Fraction(0)), (Fraction(-3, 2), Fraction(1)),
]


class TestRecoverCoefficients:
    def test_ln2_minus_one(self):
        cv = hq.recover_coefficients(4 * math.pi * (LN2 - 1))
        assert (cv.p, cv.q) == (Fraction(-4), Fraction(4))

    def test_zero(self):
        cv = hq.recover_coefficients(0.0)
        assert (cv.p, cv.q) == (Fraction(0), Fraction(0))

    def test_pure_rational(self):
        cv = hq.recover_coefficients(math.pi * 23 / 14)
        assert (cv.p, cv.q) == (Fraction(23, 14), Fraction(0))

    @pytest.mark.parametrize("p,q", COEFFICIENT_LIBRARY)
    def test_identity_on_coefficient_library(self, p, q):
        x = math.pi * (float(p) + float(q) * LN2)
        cv = hq.recover_coefficients(x)
        assert (cv.p, cv.q) == (p, q)

    def test_rejects_generic_values(self):
        for bad in (math.e, 1.234567890123, math.pi * math.sqrt(2)):
            with pytest.raises(hq.NoRationalFit):
                hq.recover_coefficients(bad)

    def test_rejects_out_of_range(self):
        with pytest.raises(hq.NoRationalFit):
            hq.recover_coefficients(1e13)

    def test_rejects_insufficient_accuracy(self):
        x = math.pi * (113 / 30240 - LN2 / 9) + 1e-6
        with pytest.raises(hq.NoRationalFit):
            hq.recover_coefficients(x)


# ---------------------------------------------------------------------------
# lattice reduction: the incremental LLL against a full recomputation
# ---------------------------------------------------------------------------

def _reference_lll(basis):
    """The LLL that recomputed the whole Gram-Schmidt after every size
    reduction and swap, kept as the reference."""
    basis = [row[:] for row in basis]
    n = len(basis)

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def gram():
        bstar = []
        mu = [[Fraction(0)] * n for _ in range(n)]
        norms = []
        for i in range(n):
            v = [Fraction(x) for x in basis[i]]
            for j in range(i):
                mu[i][j] = Fraction(dot(basis[i], bstar[j]), 1) / norms[j] \
                    if norms[j] else Fraction(0)
                v = [x - mu[i][j] * y for x, y in zip(v, bstar[j])]
            bstar.append(v)
            norms.append(dot(v, v))
        return mu, norms

    mu, norms = gram()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                basis[k] = [x - q * y for x, y in zip(basis[k], basis[j])]
                mu, norms = gram()
        if norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            basis[k], basis[k - 1] = basis[k - 1], basis[k]
            mu, norms = gram()
            k = max(k - 1, 1)
    return basis


def test_nearest_rounds_half_to_even():
    # the integer rounding of the LLL is round() on the exact quotient
    nums = list(range(-41, 42)) + [-(10 ** 30) - 5, 10 ** 30 + 5, 3 * 2 ** 70 + 2 ** 69]
    dens = [1, 2, 3, 4, 6, 10, 2 ** 70]
    ties = 0
    for b in dens:
        for a in nums:
            ties += 2 * (a % b) == b
            assert hq._nearest(a, b) == round(Fraction(a, b)), (a, b)
    assert ties > 40
    for half, want in [(Fraction(1, 2), 0), (Fraction(-1, 2), 0),
                       (Fraction(3, 2), 2), (Fraction(-3, 2), -2),
                       (Fraction(5, 2), 2), (Fraction(-5, 2), -2)]:
        assert hq._nearest(half.numerator, half.denominator) == want
        assert hq._nearest(7 * half.numerator, 7 * half.denominator) == want


def _recovery_lattices(values, monkeypatch):
    """(basis, reduced basis) of every _lll call recover_coefficients makes
    for these values."""
    seen = []
    lll = hq._lll

    def record(rows):
        rows = [row[:] for row in rows]
        reduced = lll(rows)
        seen.append((rows, reduced))
        return reduced

    monkeypatch.setattr(hq, "_lll", record)
    for x in values:
        try:
            hq.recover_coefficients(x)
        except hq.NoRationalFit:
            pass
    monkeypatch.setattr(hq, "_lll", lll)
    assert len(seen) == 6 * len(values)
    return seen


class TestLLL:
    def test_term_value_lattices(self, willmore_terms, cmc_terms, monkeypatch):
        # the K and H^2 coefficients of the ten terms of both cases
        values = [c for dec in (willmore_terms, cmc_terms)
                  for tv in dec.terms.values()
                  for c in va._fit_K_H2(tv.raw)]
        assert len(values) == 20
        for rows, reduced in _recovery_lattices(values, monkeypatch):
            assert reduced == _reference_lll(rows), rows

    def test_random_value_lattices(self, monkeypatch):
        rng = random.Random(2023)
        values = [rng.uniform(-5.0, 5.0) for _ in range(300)]
        for rows, reduced in _recovery_lattices(values, monkeypatch):
            assert reduced == _reference_lll(rows), rows

    @pytest.mark.parametrize("rows", [
        [[1, 0], [0, 0]],                                # zero B[k], mu 0
        [[2, 0], [1, 0], [1, 1]],                        # zero B[k], mu 1/2
        [[1, 2], [2, 4], [1, 0]],
        [[3, 1], [0, 0], [1, 1]],
        [[2, 0, 1], [1, 0, 0], [0, 3, 1], [1, 1, 1]],
    ])
    def test_dependent_rows_swap_a_zero_norm(self, rows):
        # recover_coefficients' rows [I_3 | c] are independent, so no
        # Gram-Schmidt norm is ever 0 there; dependent rows reach that case
        assert hq._lll(rows) == _reference_lll(rows)

    @pytest.mark.parametrize("rows", [
        [[2, 0], [1, 5]],                                # mu 1/2 rounds to 0
        [[2, 0], [-1, 5]],                               # mu -1/2 rounds to 0
        [[2, 0], [3, 7]],                                # mu 3/2 rounds to 2
        [[2, 0], [-3, 7]],                               # mu -3/2 rounds to -2
        [[2, 0], [5, 9]],                                # mu 5/2 rounds to 2
        [[2, 0], [-5, 9]],                               # mu -5/2 rounds to -2
        [[2, 0, 0], [0, 2, 0], [1, -1, 7]],              # ties against two rows
        [[2, 0, 0], [0, 4, 0], [5, -10, 9]],
        [[4, 0, 0], [2, 6, 0], [-6, 3, 13]],
    ])
    def test_rounding_ties(self, rows):
        # a coefficient exactly halfway between integers rounds to even
        assert hq._lll(rows) == _reference_lll(rows)

    def test_random_small_lattices(self):
        rng = random.Random(7)
        for _ in range(400):
            n, d = rng.randint(2, 5), rng.randint(1, 5)
            rows = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(n)]
            if rng.random() < 0.5:
                a, b = rng.sample(range(n), 2)
                rows[a] = [rng.randint(-2, 2) * x for x in rows[b]]
            assert hq._lll(rows) == _reference_lll(rows), rows


def test_moment_table_sizes():
    rows = hq.moment_table(4)
    assert len(rows) == 35
    table = dict(rows)
    assert table[(2, 0, 1)] == Fraction(1, 4)
    rows_b = hq.moment_table(2, boundary=True)
    assert dict(rows_b)[(2, 0)] == Fraction(1)
