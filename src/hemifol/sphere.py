"""Calculus on the round upper hemisphere in (t, phi) coordinates,
t = omega_3 in [0, 1]: variable substitution from ambient omega coordinates,
the Laplace-Beltrami operator, tangential gradients and the interior
conormal derivative along the equator.

The round metric is dt^2/(1-t^2) + (1-t^2) dphi^2 with unit area density,
so d(mu) = dt dphi and the equator measure is dphi.
"""

from __future__ import annotations

import numpy as np

from . import expr as ex

__all__ = [
    "T", "PHI", "OMEGA", "to_tphi", "laplacian", "grad_norm_sq",
    "eta_derivative", "omega_values",
]

T = ex.var("t")
PHI = ex.var("phi")

_SIN_THETA = ex.sqrt(1 - T ** 2)

# omega components as (t, phi) expressions
OMEGA = (
    _SIN_THETA * ex.cos(PHI),
    _SIN_THETA * ex.sin(PHI),
    T,
)

_SUBST = {"w1": OMEGA[0], "w2": OMEGA[1], "w3": OMEGA[2]}


def to_tphi(e: ex.Expr) -> ex.Expr:
    """Rewrite an expression in w1, w2, w3 into (t, phi) coordinates."""
    return ex.substitute(e, _SUBST)


def laplacian(f):
    """Spherical Laplacian d_t((1-t^2) d_t f) + (1-t^2)^{-1} d_phi^2 f of a
    (t, phi)-coordinate expression, or of a sequence of them into a list,
    whose derivatives in each variable are taken in one :func:`ex.diff`."""
    fs = (f,) if isinstance(f, ex.Expr) else f
    out = _laplacian(fs, ex.diff(fs, "t"))
    return out[0] if isinstance(f, ex.Expr) else out


def _laplacian(fs, fts):
    """The Laplacians of the expressions ``fs``, given their t-derivatives."""
    radial = ex.diff([(1 - T ** 2) * ft for ft in fts], "t")
    azimuthal = ex.diff(ex.diff(fs, "phi"), "phi")
    return [r + a / (1 - T ** 2) for r, a in zip(radial, azimuthal)]


def grad_norm_sq(f: ex.Expr) -> ex.Expr:
    """|grad f|^2 on the round sphere for a (t, phi)-coordinate expression."""
    ft = ex.diff(f, "t")
    fp = ex.diff(f, "phi")
    return (1 - T ** 2) * ft ** 2 + fp ** 2 / (1 - T ** 2)


def eta_derivative(f):
    """Derivative along the interior conormal of the equator: equals
    d_t f evaluated at t = 0 (eta points from the equator toward the pole,
    and dt/ds = sin(theta) = 1 there).  The returned expression is the field
    d_t f, or a list of them for a sequence; evaluate it at t = 0."""
    return ex.diff(f, "t")


def omega_values(t, phi):
    """Numeric omega components for arrays of (t, phi)."""
    s = np.sqrt(1.0 - t * t)
    return s * np.cos(phi), s * np.sin(phi), t
