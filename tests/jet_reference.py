"""Order-2 jets as a number type with overloaded operators, and a walk of
an expression DAG in that type: the reference that the jet instructions of
``expr``'s evaluation tape are compared against, bit for bit.

:class:`Jet` is the arithmetic the library's jets had before its tape did
jets itself, and :func:`walk` is that walk: every node is computed from
its operands' values, and a value is a :class:`Jet` exactly where a jet
binding reaches it.  Lanes are parts that are length-L arrays.  There are
no domain checks: compare where the walk is defined.
"""

from __future__ import annotations

from hemifol import expr as ex


class Jet:
    """Truncated Taylor value f(eps) = f + d1*eps + d2/2*eps^2 + O(eps^3).

    Components may be floats or numpy arrays (broadcast elementwise), all in
    one shared deformation parameter.  Arithmetic is exact at truncation
    order 2.

    The other operand of an operator may be a plain float or array, a value
    that does not depend on eps: its derivative parts are zero, and the
    products with them are skipped.  Numpy defers to the reflected
    operators, so ``ndarray * Jet`` is a Jet, not an object array.
    """

    __slots__ = ("f", "d1", "d2")
    __array_ufunc__ = None

    def __init__(self, f, d1=0.0, d2=0.0):
        self.f = f
        self.d1 = d1
        self.d2 = d2

    @staticmethod
    def lift(x):
        return x if isinstance(x, Jet) else Jet(x)

    def __add__(self, o):
        if not isinstance(o, Jet):
            return Jet(self.f + o, self.d1, self.d2)
        return Jet(self.f + o.f, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __sub__(self, o):
        if not isinstance(o, Jet):
            return Jet(self.f - o, self.d1, self.d2)
        return Jet(self.f - o.f, self.d1 - o.d1, self.d2 - o.d2)

    def __rsub__(self, o):
        return Jet(o - self.f, 0.0 - self.d1, 0.0 - self.d2)

    def __mul__(self, o):
        if not isinstance(o, Jet):
            return Jet(self.f * o, self.d1 * o, self.d2 * o)
        return Jet(
            self.f * o.f,
            self.f * o.d1 + self.d1 * o.f,
            self.f * o.d2 + 2.0 * self.d1 * o.d1 + self.d2 * o.f,
        )

    __rmul__ = __mul__

    def __truediv__(self, o):
        # a plain divisor's reciprocal is 1/o, as the lifted jet's was
        return self * (o._recip() if isinstance(o, Jet) else 1.0 / o)

    def __rtruediv__(self, o):
        return self._recip() * o

    def _recip(self):
        b = self.f
        return self._chain(1.0 / b, -1.0 / (b * b), 2.0 / (b * b * b))

    def _chain(self, f0, f1, f2):
        """Compose with a scalar function given phi(b), phi'(b), phi''(b)."""
        return Jet(f0, f1 * self.d1, f2 * self.d1 * self.d1 + f1 * self.d2)

    def powi(self, n):
        b = self.f
        return self._chain(b ** n, n * b ** (n - 1), n * (n - 1) * b ** (n - 2))

    __pow__ = powi


def _function(kind, a):
    fn, derivs = ex._FUNCS[kind][:2]
    b = a.f if isinstance(a, Jet) else a
    if isinstance(b, float):
        y = float(fn(b))
        return a._chain(y, *map(float, derivs(b, y))) if isinstance(a, Jet) else y
    y = fn(b)
    return a._chain(y, *derivs(b, y)) if isinstance(a, Jet) else y


def walk(e, bindings):
    """``e`` at ``bindings``, whose jets are :class:`Jet` values.  With a
    jet binding a quotient by a plain value is a * (1/b), and a root that
    no jet reaches is lifted to a jet."""
    jet = any(isinstance(v, Jet) for v in bindings.values())
    values = {}
    for n in ex._postorder((e,)):
        args = [values[id(a)] for a in n.args]
        if n.value is not None:
            r = n.value
        elif n.kind == "var":
            r = bindings[n.payload]
        elif n.kind == "pow":
            r = args[0] ** n.payload
        elif n.kind in ex._FUNCS:
            r = _function(n.kind, args[0])
        elif n.kind == "add":
            r = args[0] + args[1]
        elif n.kind == "sub":
            r = args[0] - args[1]
        elif n.kind == "mul":
            r = args[0] * args[1]
        elif jet and not isinstance(args[1], Jet):
            r = args[0] * (1.0 / args[1])
        else:
            r = args[0] / args[1]
        values[id(n)] = r
    return Jet.lift(values[id(e)]) if jet else values[id(e)]

