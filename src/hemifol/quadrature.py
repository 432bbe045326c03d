"""Exact monomial moments on the upper unit hemisphere and its equator,
fixed-grid spectral quadrature for general hemisphere expressions, and
recognition of numeric results as pi*(p + q*ln 2) with rational p, q.

Parametrization: t = omega_3 in [0, 1] (Gauss-Legendre) and azimuth phi
(uniform); the round measure is d(mu) = dt dphi, so polynomial-in-t
integrands are integrated exactly and there is no pole clustering.

This module is the one place that builds quadrature nodes and weights and
sums over them.  Each rule -- the product grid on the hemisphere, the same
grid times 32 radial shells for the half ball, and the trapezoid rule on
the equator -- is a :class:`Rule` built once per size and shared
read-only.  Its nodes bind omega (w1, w2, w3) and (t, phi) alike, and
:meth:`Rule.sum` is the one weighted sum, of plain values (a caller sums a
jet's parts one by one); :meth:`Rule.integrate` walks one expression or a
sequence of them once.

A product rule binds its factors, not a meshgrid: t is a column and phi a
row, which numpy broadcasts to the grid, so a subexpression of t alone is
computed once per row and one of phi alone once per column.  Each grid
point still takes the same IEEE operations, so its value is bit for bit
the meshgrid's.  All reductions use a fixed summation order: a sum runs
over the C-contiguous product of the broadcast values and the weights,
which numpy adds as it adds their ravel, so results are bit-reproducible
and equal those of the flattened grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import expr as ex
from . import sphere

__all__ = [
    "Moment", "CoefficientVector", "QuadratureGrid", "Rule", "NoRationalFit",
    "surface_rule", "shell_rule", "equator_rule",
    "surface_moment", "boundary_moment",
    "integrate_surface", "integrate_boundary",
    "integrate_tphi", "integrate_boundary_tphi",
    "recover_coefficients", "moment_table",
]

LN2 = math.log(2.0)


class NoRationalFit(Exception):
    """No pi*(p + q*ln2) with small denominators reproduces the value; the
    quadrature is not accurate enough or the value is not of this form."""


@dataclass(frozen=True)
class Moment:
    """Monomial exponents (a, b, c) of omega_1^a omega_2^b omega_3^c."""
    a: int
    b: int
    c: int

    def __post_init__(self):
        if min(self.a, self.b, self.c) < 0:
            raise ValueError("exponents must be non-negative")


@dataclass(frozen=True)
class CoefficientVector:
    """A constant pi*(p + q*ln 2) with exact rational p and q."""
    p: Fraction
    q: Fraction

    def value(self) -> float:
        return math.pi * (float(self.p) + float(self.q) * LN2)

    def __str__(self):
        return f"pi*({self.p} + {self.q}*ln2)"


@dataclass(frozen=True)
class QuadratureGrid:
    n_polar: int = 64
    n_azimuthal: int = 128

    def __post_init__(self):
        if self.n_polar < 8:
            raise ValueError("n_polar must be >= 8")
        if self.n_azimuthal < 16 or self.n_azimuthal % 2:
            raise ValueError("n_azimuthal must be even and >= 16")

    def nodes(self):
        """(t, phi, weight) at every point of :func:`surface_rule`'s grid,
        as flat read-only arrays in row-major order (t slowest)."""
        rule = surface_rule(self)
        shape = rule.weights.shape
        out = tuple(np.broadcast_to(a, shape).ravel()
                    for a in (rule.bindings["t"], rule.bindings["phi"], rule.weights))
        for arr in out:
            arr.flags.writeable = False
        return out


@dataclass(frozen=True, eq=False)
class Rule:
    """Nodes and weights of one quadrature rule, built once per size and
    shared read-only.  ``bindings`` holds the nodes both as omega (w1, w2,
    w3) and as (t, phi), so a rule integrates expressions in either set of
    names, or in both.  Each binding has the shape of its own factor of
    the product grid (t a column, phi a row) and broadcasts to the shape of
    ``weights``.  The equator rule has no weight array: its weights are all
    2 pi / n, applied to the sum."""
    bindings: Mapping[str, np.ndarray]
    weights: np.ndarray | None

    def sum(self, values):
        """The weighted sum of ``values`` (broadcast to the nodes), a float."""
        if self.weights is None:
            n = self.bindings["phi"].size
            return float(np.sum(np.broadcast_to(values, (n,))) * 2.0 * np.pi / n)
        return float(np.sum(np.broadcast_to(values, self.weights.shape) * self.weights))

    def integrate(self, e, extra: dict | None = None):
        """The weighted sum of ``e`` evaluated at the nodes, with any extra
        bindings; a sequence of expressions gives the list of their sums,
        from one walk over one memo."""
        values = ex.evaluate(e, {**self.bindings, **(extra or {})})
        return self.sum(values) if isinstance(e, ex.Expr) else list(map(self.sum, values))


def _rule(weights, **nodes) -> Rule:
    for arr in (weights, *nodes.values()):
        if arr is not None:
            arr.flags.writeable = False
    return Rule(MappingProxyType(nodes), weights)


@functools.lru_cache(maxsize=8)
def surface_rule(grid: QuadratureGrid) -> Rule:
    """Gauss-Legendre in t on [0, 1] times the uniform rule in phi: t and
    w3 are a column (n_polar, 1), phi a row (1, n_azimuthal), and w1, w2
    and the weights are (n_polar, n_azimuthal)."""
    x, w = np.polynomial.legendre.leggauss(grid.n_polar)
    t = (0.5 * (x + 1.0))[:, None]
    phi = (2.0 * np.pi * np.arange(grid.n_azimuthal) / grid.n_azimuthal)[None, :]
    W = np.repeat(0.5 * w, grid.n_azimuthal).reshape(grid.n_polar, grid.n_azimuthal)
    W *= 2.0 * np.pi / grid.n_azimuthal
    w1, w2, w3 = sphere.omega_values(t, phi)
    return _rule(W, t=t, phi=phi, w1=w1, w2=w2, w3=w3)


@functools.lru_cache(maxsize=8)
def shell_rule(grid: QuadratureGrid) -> Rule:
    """The half ball r = s * rho(omega): 32 Gauss-Legendre nodes in s on
    [0, 1] (shape (32, 1, 1)) in front of the surface rule's factors.  For
    polynomial metric directions the jet parts of a volume integrand at
    eps = 0 are polynomials in s of degree below 64, so the radial rule is
    exact for them."""
    xs, ws = np.polynomial.legendre.leggauss(32)
    surface = surface_rule(grid)
    weights = (0.5 * ws)[:, None, None] * surface.weights
    return _rule(weights, s=(0.5 * (xs + 1.0))[:, None, None], **surface.bindings)


@functools.lru_cache(maxsize=8)
def equator_rule(n: int) -> Rule:
    """The uniform trapezoid rule with n nodes on the equator t = 0
    (spectral for smooth periodic integrands); t and w3 are one-element
    zero arrays."""
    phi = 2.0 * np.pi * np.arange(n) / n
    zero = np.zeros(1)
    return _rule(None, t=zero, phi=phi, w1=np.cos(phi), w2=np.sin(phi), w3=zero)


def _azimuthal_coeff(a: int, b: int) -> Fraction:
    """Exact value of (1/pi) * integral over [0, 2pi) of cos^a sin^b."""
    if a % 2 or b % 2:
        return Fraction(0)
    m, n = a // 2, b // 2
    num = Fraction(2) * math.factorial(2 * m) * math.factorial(2 * n)
    den = 4 ** (m + n) * math.factorial(m) * math.factorial(n) * math.factorial(m + n)
    return Fraction(num, den)


def _polar_coeff(ab_half: int, c: int) -> Fraction:
    """Exact integral over [0,1] of (1-t^2)^ab_half * t^c."""
    total = Fraction(0)
    for k in range(ab_half + 1):
        total += Fraction((-1) ** k * math.comb(ab_half, k), 2 * k + c + 1)
    return total


def surface_moment(m: Moment) -> Fraction:
    """Exact hemisphere moment as the rational coefficient of pi.

    Factorizes as (azimuthal cos^a sin^b integral) x (polar Beta-type
    integral); zero whenever a or b is odd.
    """
    az = _azimuthal_coeff(m.a, m.b)
    if az == 0:
        return Fraction(0)
    return az * _polar_coeff((m.a + m.b) // 2, m.c)


def boundary_moment(a: int, b: int) -> Fraction:
    """Exact equator moment of omega_1^a omega_2^b as coefficient of pi."""
    return _azimuthal_coeff(a, b)


def integrate_surface(e, grid: QuadratureGrid = QuadratureGrid(),
                      extra: dict | None = None):
    """Hemisphere integral of an expression in w1, w2, w3, in (t, phi), or
    in both (plus any extra bindings); spectrally accurate for smooth
    integrands.  A sequence of expressions gives a list from one walk."""
    return surface_rule(grid).integrate(e, extra)


def integrate_boundary(e, n: int = 256, extra: dict | None = None):
    """Equator line integral of an expression in w1, w2, w3, in (t, phi),
    or in both, by the uniform trapezoid rule with n nodes; a sequence of
    expressions gives a list from one walk."""
    return equator_rule(n).integrate(e, extra)


# the older names of the (t, phi) forms, kept because perfbench/tracing.py
# wraps them by name; the library calls the names above
integrate_tphi = integrate_surface
integrate_boundary_tphi = integrate_boundary


# ---------------------------------------------------------------------------
# constant recognition
# ---------------------------------------------------------------------------

def _nearest(a: int, b: int) -> int:
    """The integer nearest to a / b for b > 0, ties to even: exactly
    ``round(Fraction(a, b))``."""
    q, r = divmod(a, b)
    if 2 * r > b or (2 * r == b and q & 1):
        q += 1
    return q


def _integral_gram(basis):
    """Integral Gram-Schmidt data of linearly independent rows (Cohen,
    Alg. 2.6.7, step 2).

    With B_i the squared norm of the i-th Gram-Schmidt vector, ``d[0] = 1``
    and ``d[i + 1] = B_0 * ... * B_i``; ``lam[i][j]`` is ``d[j + 1] * mu_ij``
    for j < i, an integer.  Each step of the recursion divides exactly by
    the previous ``d``, so the rows must be independent: a norm of 0 raises
    :class:`ValueError`."""
    n = len(basis)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(basis[k], basis[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif not u:
                raise ValueError("rows must be linearly independent")
            else:
                d[k + 1] = u
    return d, lam


def _lll(basis):
    """Integer LLL reduction (delta = 3/4) on a small list of linearly
    independent integer rows.

    Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.6.7:
    the Gram-Schmidt data are the integers ``d`` and ``lam`` of
    :func:`_integral_gram`, updated in place by each size reduction and
    each swap.  The steps are those of the rational Alg. 2.6.3 on
    ``mu_kj = lam[k][j] / d[j + 1]``: size-reduce row k against every j
    from k-1 down to 0 by the nearest integer, ties to even
    (:func:`_nearest`, which is ``round`` on a ``Fraction``), then test the
    Lovasz condition ``B_k >= (3/4 - mu_k,k-1^2) B_k-1``, multiplied
    through by 4 d[k] d[k-1] into integers, and swap rows k-1 and k by
    Cohen's SWAPI if it fails.  Each integer equals ``d`` times the exact
    rational it stands for, so every rounding and every comparison has
    the rational algorithm's outcome and the reduced rows are the same.

    Dependent rows raise :class:`ValueError`.  The rows [I_3 | c] of
    :func:`recover_coefficients` are independent whatever c is, because
    of the identity block, and size reductions and swaps keep them so."""
    basis = [row[:] for row in basis]
    n = len(basis)
    d, lam = _integral_gram(basis)
    k = 1
    while k < n:
        row, lk = basis[k], lam[k]
        for j in range(k - 1, -1, -1):
            q = _nearest(lk[j], d[j + 1])
            if q:
                row = [x - q * y for x, y in zip(row, basis[j])]
                lk[j] -= q * d[j + 1]
                lj = lam[j]
                for i in range(j):
                    lk[i] -= q * lj[i]
        basis[k] = row
        m = lk[k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] * d[k] - 4 * m * m:
            k += 1
            continue
        # Cohen's SWAPI: lam[k][k-1] and d[k + 1] are unchanged
        basis[k], basis[k - 1] = basis[k - 1], row
        b = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, n):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - m * t) // d[k]
            li[k - 1] = (b * t + m * li[k]) // d[k + 1]
        lam[k], lam[k - 1] = lam[k - 1], lk
        lam[k][k - 1], lk[k - 1] = m, 0
        d[k] = b
        k = max(k - 1, 1)
    return basis


MAX_DENOMINATOR = 2 ** 20

# A candidate pair only counts as recognized when its residual is far
# tighter than chance at its complexity: rationals with denominator product
# D approximate a generic real to about 1/D^2, so we demand a residual below
# SIGNIFICANCE / D^2.  Pairs whose required residual falls below what double
# precision can evidence (CERTIFIABLE_FLOOR) are rejected outright; that
# still certifies products up to ~2e6, an order of magnitude beyond the
# worst constant of this problem (30240 * 9).
SIGNIFICANCE = 0.05
CERTIFIABLE_FLOOR = 1e-14


def recover_coefficients(x: float, tol: float = 1e-10) -> CoefficientVector:
    """Recognize x as pi*(p + q*ln2) with rational p, q.

    Searches for integer relations a*x/pi + b + c*ln2 = 0 by lattice
    reduction over a sweep of precision scales; every significant candidate
    is verified against x and the one minimizing the residual wins.  Raises
    :class:`NoRationalFit` if no candidate reproduces x within tol
    (insufficient quadrature accuracy, or a value outside the
    pi*(p + q*ln2) algebra).
    """
    if abs(x) >= 1e12:
        raise NoRationalFit(f"value {x} out of range")
    y = x / math.pi
    candidates = {(Fraction(y).limit_denominator(MAX_DENOMINATOR), Fraction(0))}
    for scale in (10 ** 10, 10 ** 12, 10 ** 13, 10 ** 14, 10 ** 15, 10 ** 16):
        rows = [
            [1, 0, 0, round(y * scale)],
            [0, 1, 0, scale],
            [0, 0, 1, round(LN2 * scale)],
        ]
        for row in _lll(rows):
            a, b, c = row[0], row[1], row[2]
            if a == 0:
                continue
            p = Fraction(-b, a)
            q = Fraction(-c, a)
            if p.denominator <= MAX_DENOMINATOR and q.denominator <= MAX_DENOMINATOR:
                candidates.add((p, q))
    best = None
    for p, q in candidates:
        product = p.denominator * q.denominator
        gate = min(tol, SIGNIFICANCE / product ** 2)
        if gate < CERTIFIABLE_FLOOR:
            continue
        cand = CoefficientVector(p, q)
        resid = abs(x - cand.value())
        if resid > gate:
            continue
        rank = (resid, product)
        if best is None or rank < best[0]:
            best = (rank, cand)
    if best is None:
        raise NoRationalFit(
            f"no pi*(p + q*ln2) with denominators <= {MAX_DENOMINATOR} "
            f"matches {x!r} within {tol}")
    return best[1]


def moment_table(max_degree: int, boundary: bool = False):
    """All moments of total degree <= max_degree as (exponents, Fraction)."""
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    rows = []
    if boundary:
        for a in range(max_degree + 1):
            for b in range(max_degree + 1 - a):
                rows.append(((a, b), boundary_moment(a, b)))
    else:
        for a in range(max_degree + 1):
            for b in range(max_degree + 1 - a):
                for c in range(max_degree + 1 - a - b):
                    rows.append(((a, b, c), surface_moment(Moment(a, b, c))))
    return rows
