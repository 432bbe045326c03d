"""hemifol: foliation criteria, hemisphere quadrature and variational
expansions for CMC and Willmore half-spheres on a domain boundary.

Subpackages:

- ``expr``: symbolic expression trees, parsing, differentiation, order-2 jets
- ``quadrature``: exact hemisphere moments, spectral quadrature,
  pi*(p + q*ln2) constant recognition
- ``sphere``: hemisphere calculus in (t, phi) coordinates
- ``graph_surface``: curvature of graphs z = u(x, y) and the foliation
  criterion
- ``linearized``: linearized CMC/Willmore boundary-value problems
- ``variational``: jet-based first/second variation engine and the
  energy/area expansions
- ``foliation``: executable leaf families and the v < 1 / v > 1 dichotomy
- ``cli``: command-line front end

``import hemifol`` imports none of them: each is imported on first use,
as an attribute (PEP 562) or by ``from hemifol import ...``.
"""

__version__ = "0.1.0"

__all__ = [
    "expr", "quadrature", "sphere", "graph_surface", "linearized",
    "variational", "foliation",
]


def __getattr__(name):
    # only for a name not bound yet, as the import binds it; the builtin
    # __import__ takes the path that -X importtime reports
    if name in __all__ or name == "cli":
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
