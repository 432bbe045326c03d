"""Product grids bound as broadcast factors give the bits of the flattened
meshgrid: every field, jet part and weighted sum.

Each point takes the same IEEE operations either way, so the values agree
bit for bit wherever numpy's elementwise functions (sin, cos, log, sqrt,
arctanh) do not depend on an element's position in its array or on the
array's length; these tests check that on the machine that runs them.  A
sum over a C-contiguous product adds in the order of its ravel, so the
weighted sums agree too.
"""

import math

import numpy as np
import pytest

from hemifol import expr as ex
from hemifol import linearized as lin
from hemifol import quadrature as hq
from hemifol import sphere
from hemifol import variational as va

KB = {"k1": 0.7, "k2": -1.3}


def _flat_surface(grid):
    """The surface rule as a flattened meshgrid: (bindings, weights)."""
    x, w = np.polynomial.legendre.leggauss(grid.n_polar)
    phi = 2.0 * np.pi * np.arange(grid.n_azimuthal) / grid.n_azimuthal
    T, P = np.meshgrid(0.5 * (x + 1.0), phi, indexing="ij")
    t, phi = T.ravel(), P.ravel()
    W = np.repeat(0.5 * w, grid.n_azimuthal) * (2.0 * np.pi / grid.n_azimuthal)
    w1, w2, w3 = sphere.omega_values(t, phi)
    return dict(t=t, phi=phi, w1=w1, w2=w2, w3=w3), W


def _flat_shell(grid):
    xs, ws = np.polynomial.legendre.leggauss(32)
    nodes, W = _flat_surface(grid)
    nodes = {name: arr[None, :] for name, arr in nodes.items()}
    return dict(nodes, s=(0.5 * (xs + 1.0))[:, None]), (0.5 * ws)[:, None] * W[None, :]


def _flat_equator(n):
    phi = 2.0 * np.pi * np.arange(n) / n
    zero = np.zeros(n)
    return dict(t=zero, phi=phi, w1=np.cos(phi), w2=np.sin(phi), w3=zero)


def _flat_tphi(t, phi):
    T, P = np.meshgrid(t, phi, indexing="ij")
    return dict(t=T.ravel(), phi=P.ravel())


# the residual grid of linearized and the sample grid of solve_ode_modes
_RESIDUAL = (np.linspace(0.0, 0.95, 97), np.linspace(0.0, 2 * np.pi, 64, endpoint=False))
_SAMPLES = (np.linspace(0.0, math.cos(1e-3), 40),
            np.linspace(0.0, 2 * np.pi, 32, endpoint=False))

# (factored bindings, flattened bindings, factored rule or None, flattened
# weights or None)
POINT_SETS = {
    "surface-32x64": lambda: (hq.surface_rule(hq.QuadratureGrid(32, 64)).bindings,
                              *_flat_surface(hq.QuadratureGrid(32, 64)),
                              hq.surface_rule(hq.QuadratureGrid(32, 64))),
    "surface-64x128": lambda: (hq.surface_rule(hq.QuadratureGrid(64, 128)).bindings,
                               *_flat_surface(hq.QuadratureGrid(64, 128)),
                               hq.surface_rule(hq.QuadratureGrid(64, 128))),
    "shell-16x32": lambda: (hq.shell_rule(hq.QuadratureGrid(16, 32)).bindings,
                            *_flat_shell(hq.QuadratureGrid(16, 32)),
                            hq.shell_rule(hq.QuadratureGrid(16, 32))),
    "equator-256": lambda: (hq.equator_rule(256).bindings, _flat_equator(256), None,
                            hq.equator_rule(256)),
    "residual-grid": lambda: (lin._GRID, _flat_tphi(*_RESIDUAL), None, None),
    "sample-grid": lambda: ({"t": _SAMPLES[0][:, None], "phi": _SAMPLES[1][None, :]},
                            _flat_tphi(*_SAMPLES), None, None),
}


def _fields():
    """Every field the check covers, each an expression in (t, phi) or omega;
    the last one covers the elementary functions the fields do not use."""
    out = {f"OMEGA{i + 1}": e for i, e in enumerate(sphere.OMEGA)}
    out["artanh-cot"] = ex.parse("artanh(t*cos(phi)/2) * cot(1 + phi/3)")
    for case in ("cmc", "willmore"):
        fields = lin._fields(case, lin.uprime_expr(case))
        for name in ("interior", "neumann", "third_order"):
            if name in fields:
                out[f"{case}-{name}"] = fields[name]
    return out


def _shapes(factored, flat):
    """The grid's shape as its factors broadcast, and the flattened size."""
    return (np.broadcast_shapes(*map(np.shape, factored.values())),
            np.broadcast_shapes(*map(np.shape, flat.values())))


def _flat_bits(value, shape):
    """Bytes of a value broadcast to the full grid shape and raveled."""
    return np.broadcast_to(value, shape).ravel().tobytes()


def _flat_sum(values, flat_weights, n):
    """The weighted sum as the flattened rule took it."""
    if flat_weights is None:
        return float(np.sum(np.broadcast_to(values, (n,))) * 2.0 * np.pi / n)
    return float(np.sum(np.broadcast_to(values, flat_weights.shape) * flat_weights))


@pytest.mark.parametrize("name", list(POINT_SETS))
def test_nodes_are_the_meshgrid(name):
    factored, flat, _, _ = POINT_SETS[name]()
    shape, size = _shapes(factored, flat)
    assert math.prod(shape) == math.prod(size)
    for key, arr in flat.items():
        want = np.broadcast_to(arr, size).ravel().tobytes()
        assert _flat_bits(factored[key], shape) == want, key


@pytest.mark.parametrize("name", list(POINT_SETS))
def test_fields_and_sums_match_bit_for_bit(name):
    factored, flat, flat_weights, rule = POINT_SETS[name]()
    shape, size = _shapes(factored, flat)
    for key, e in _fields().items():
        got = ex.evaluate(e, {**factored, **KB})
        want = ex.evaluate(e, {**flat, **KB})
        assert _flat_bits(got, shape) == np.broadcast_to(want, size).ravel().tobytes(), key
        if rule is not None:
            n = math.prod(size)
            assert rule.sum(got).hex() == _flat_sum(want, flat_weights, n).hex(), key


@pytest.mark.parametrize("name", list(POINT_SETS))
@pytest.mark.parametrize("density", ["density", "W_density"])
def test_variational_density_jet_matches_bit_for_bit(name, density):
    factored, flat, flat_weights, rule = POINT_SETS[name]()
    shape, size = _shapes(factored, flat)
    field = va._build_fields(lin.uprime_expr("willmore"), va.metric_first_order())[density]
    extra = va._bindings(0.7, -1.3, 0.25, va._EPS_JET)
    got = ex.evaluate_jet(field, {**factored, **extra})
    want = ex.evaluate_jet(field, {**flat, **extra})
    for part in ("f", "d1", "d2"):
        assert (_flat_bits(getattr(got, part), shape)
                == np.broadcast_to(getattr(want, part), size).ravel().tobytes()), part
    if rule is not None:
        n = math.prod(size)
        for part in ("f", "d1", "d2"):
            assert (getattr(rule.sum(got), part).hex()
                    == _flat_sum(getattr(want, part), flat_weights, n).hex()), part


def test_solve_ode_modes_samples_are_the_meshgrid():
    # the samples' t and phi columns are the flattened meshgrid of the
    # sample grid's factors
    sol = lin.solve_ode_modes(lin.LinearizedProblem("willmore", 0.7, -1.3))
    flat = _flat_tphi(*_SAMPLES)
    assert sol.samples[:, 0].tobytes() == flat["t"].tobytes()
    assert sol.samples[:, 1].tobytes() == flat["phi"].tobytes()
