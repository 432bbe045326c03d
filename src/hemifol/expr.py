"""Symbolic expression trees with exact rational constants, order-2 jets and
order-4 bivariate Taylor numbers.

Expressions are immutable, hash-consed nodes: structurally identical subtrees
share one object, so evaluation and differentiation run over a DAG instead of
a tree.  Supported operations: + - * /, integer powers, ln, sqrt, sin, cos,
artanh, cot, the constant pi, named variables and exact rational constants.
Half-integer powers are expressed as sqrt composed with an integer power so
the differentiation rules stay closed.

The intern table holds its nodes weakly, so a node lives only while something
uses it, and structural sharing holds among the live nodes (Filliatre &
Conchon, *Type-Safe Modular Hash-Consing*, ML Workshop 2006).  A live node
keeps its children alive, so the child ids in its table key stay valid.
A node caches only its compiled evaluation program, which lives and dies
with it.  A program holds no node, and it refers to the other roots it was
compiled for only weakly, so it forms no reference cycle; it is kept for
those roots and one quotient rule (see below).  No node keeps a
derivative: the derivative of sqrt(a) contains sqrt(a), so a cached one
would form a cycle; each :func:`diff` call keeps its own memo instead.  So
a DAG that nothing uses is freed at once by reference counting.  Whatever
a caller reuses across calls, it keeps alive itself.  A constant is keyed
by its numerator and denominator, two ints, not by its ``Fraction``, whose
hash takes a modular inverse, and any other node by its kind, its payload
and the ids of its children.  An interned constant is returned before any
check, and ``add``, ``sub`` and ``mul`` test ``ZERO`` and ``ONE`` before
folding two constants: the same node, with no ``Fraction`` work.
Interning takes no lock, so the module is not thread-safe.

Every walk of the DAG is a loop over one iterative children-first order, so
no expression is too deep to evaluate, differentiate or print; only the
parser recurses, and it rejects more than ``MAX_NESTING`` nested groups.
An evaluation runs a program compiled once per tuple of roots, an
evaluation tape (Griewank & Walther, *Evaluating Derivatives*, 2nd ed.,
SIAM 2008, ch. 3-4): one instruction per computed node, each naming its
operands and the values last read there by slot position, so a run indexes
a list instead of looking nodes up, and drops each intermediate value after
its last read, keeping only the roots' values and those still to be read.
The program lists, of two operands, the one whose subtree holds more
values at once first (Sethi-Ullman numbers, kept on each node as ``need``),
which lowers how many arrays a run holds at a time.  No value depends on
the order; a failed run is repeated on a left-to-right program that keeps
its nodes, so the subexpression that a :class:`DomainError` names does not
either.  :func:`evaluate` takes one root or a sequence of roots; a
subexpression shared between roots is computed once.

A walk runs the same instructions over every number type: floats, numpy
arrays, and two kinds of truncated Taylor numbers (Griewank & Walther,
ch. 13) that combine their parts through their own operators.  Only the
function and divisor checks look at the number type.

Order-2 jets, :class:`Jet2` values (f, f', f'') in one deformation
parameter, have float or array parts.  A subexpression that no jet binding
reaches stays a plain float or array, so derivative work is done only
where a jet is present.  The value parts equal those of lifting every
binding to a jet, because a quotient in a walk with a jet binding is taken
as a * (1.0 / b), as a jet with zero derivative parts divides; the
derivative parts are equal after broadcasting, apart from the sign of
exact zeros and the NaN that a skipped ``f * 0.0`` made of a non-finite
``f``.  :func:`evaluate` takes that rule whenever a binding is a jet, and
:func:`evaluate_jet` always, so a program is compiled per quotient rule.
A float derivative part takes the IEEE operations that one element of an
array part takes.

:class:`Taylor` numbers are truncated bivariate Taylor polynomials in
(dx, dy) of order ``TAYLOR_ORDER`` = 4 with float coefficients, not mixed
with arrays or jets, so one walk of a tape gives every partial derivative
of orders 1 to 4 of its roots at a point.  Products, reciprocals and the
series of powers and elementary functions are straight-line rules
generated once per polynomial degree; a function takes its first four
derivatives from ``_FUNCS``.  No simplification is performed
beyond constant folding; correctness of rewrites is semantic (evaluation
equality), not syntactic.

At a float point a walk computes in Python floats: an elementary function
of a float returns a float, and its domain check and the divisor checks
test the float directly.  A float operation that overflows (a power) or
divides by zero (the reciprocal of a jet whose square underflowed, the
derivative of ``sqrt`` or ``ln`` at 0) raises :class:`DomainError` on its
node; numpy arrays overflow to inf as before.  Products past the float
range are inf without a warning.  A Taylor walk computes in Python floats
too: the value of a power is a float power and raises where one does, a
divisor or a reciprocal whose value is an exact zero raises, and every
other coefficient that leaves the range is inf.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import sys
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np

__all__ = [
    "Expr", "Jet2", "Taylor", "TAYLOR_ORDER",
    "ExprError", "ParseError", "ReservedNameError",
    "EvalError", "UnboundVariableError", "DomainError",
    "const", "var", "pi", "add", "sub", "mul", "div", "powi",
    "ln", "sqrt", "sin", "cos", "artanh", "cot",
    "ZERO", "ONE", "MAX_NESTING",
    "parse", "to_string", "diff", "evaluate", "evaluate_jet",
    "substitute", "free_variables",
]

FUNCTIONS = ("ln", "sqrt", "sin", "cos", "artanh", "cot")
RESERVED = ("pi",) + FUNCTIONS

# The parser spends about four stack frames per nested group; 200 groups
# stay well inside the interpreter's default recursion limit of 1000.
MAX_NESTING = 200

# longest subexpression text a DomainError message quotes
_MESSAGE_TEXT_MAX = 200


class ExprError(Exception):
    pass


class ParseError(ExprError):
    """Syntax error; ``offset`` is the byte offset into the source text."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ReservedNameError(ParseError):
    pass


class EvalError(ExprError):
    pass


class UnboundVariableError(EvalError):
    def __init__(self, name):
        super().__init__(f"unbound variable '{name}'")
        self.name = name


class DomainError(EvalError):
    """Evaluation left the function domain; carries the offending subtree.
    The message quotes the subtree's text when it is at most 200 characters
    long, and otherwise names the subtree's operator and the text's length:
    printing expands the DAG into a tree, which can exhaust memory."""

    def __init__(self, message, subtree):
        text, length = _text(subtree, _MESSAGE_TEXT_MAX)
        where = (f"subexpression '{text}'" if text is not None
                 else f"'{subtree.kind}' subexpression of {length} characters")
        super().__init__(f"{message} in {where}")
        self.subtree = subtree


class Expr:
    """One interned node of an expression DAG.  Do not construct directly;
    use the module-level constructors (which fold constants and intern)."""

    __slots__ = ("kind", "payload", "args", "value", "need", "program",
                 "__weakref__")

    def __init__(self, kind, payload, args, value=None):
        self.kind = kind          # 'const'|'pi'|'var'|'add'|'sub'|'mul'|'div'|'pow'|<func>
        self.payload = payload    # Fraction for 'const', str for 'var', int for 'pow'
        self.args = args          # tuple of child Expr nodes
        self.value = value        # float of a 'pi' or 'const' node (None beyond the float range)
        # values a walk of this subtree holds at once in its evaluation order
        # (exact for a tree, an estimate where subtrees are shared); a
        # leaf's value is a constant or a binding, allocated elsewhere
        if len(args) == 2:
            a, b = args[0].need, args[1].need
            self.need = a + 1 if a == b else max(a, b)
        else:
            self.need = max(args[0].need, 1) if args else 0
        # (weak references to the other roots, program) of the last
        # evaluation with this node as its first root, see _program()
        self.program = None

    # -- operator sugar (used heavily when building formulas in code) -------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __pow__(self, n):
        return powi(self, n)

    def __neg__(self):
        return sub(ZERO, self)

    def __str__(self):
        return to_string(self)

    def __repr__(self):
        return f"Expr({to_string(self)})"


# key -> weak reference to the node: ("const", numerator, denominator),
# ("var", name), ("pi",), (kind, child id) for a function, ("pow", exponent,
# child id) and (kind, left id, right id) for a binary node.  A dead node's
# entry stays until the next sweep, which runs once the table holds more than
# _SWEEP_MIN entries and twice the entries the last sweep left.  Plain
# references without callbacks make interning and freeing about twice as
# fast as a WeakValueDictionary.
_TABLE: dict[tuple, weakref.ref] = {}
_SWEEP_MIN = 4096
_sweep_at = _SWEEP_MIN


def _mk(key, kind, payload, args=(), value=None):
    # children are already interned, so their ids identify them structurally;
    # a live node keeps its children alive, so the ids in its key are theirs.
    # A dead entry reads as a miss and is overwritten.
    ref = _TABLE.get(key)
    node = None if ref is None else ref()
    if node is None:
        node = Expr(kind, payload, args, value)
        _TABLE[key] = weakref.ref(node)
        if len(_TABLE) > _sweep_at:
            _sweep()
    return node


def _sweep():
    """Drop the entries of dead nodes."""
    global _sweep_at
    for key in [k for k, ref in _TABLE.items() if ref() is None]:
        del _TABLE[key]
    _sweep_at = max(_SWEEP_MIN, 2 * len(_TABLE))


_LOG2_10 = math.log2(10)
# Python's limit on the digits of an int converted to text (0: none)
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def const(x) -> Expr:
    if isinstance(x, Expr):
        return x
    # an interned constant passed the checks below when it was made
    if isinstance(x, (int, Fraction)):
        ref = _TABLE.get(("const", x.numerator, x.denominator))
        node = None if ref is None else ref()
        if node is not None:
            return node
    limit = _digit_limit()
    if not isinstance(x, Fraction):
        if isinstance(x, float) and not x.is_integer():
            raise TypeError("float constants are not exact; pass a Fraction or string")
        # Fraction builds 10^exponent of a text such as 1e999999: an exponent
        # past the digit limit, with the text's digits to spare, is refused
        exponent = isinstance(x, str) and re.search(r"[eE][-+]?(\d+(?:_\d+)*)\s*$", x)
        if limit and exponent and int(exponent[1]) > limit + len(x):
            raise ExprError(f"constant of more than {limit} digits")
        x = Fraction(x)
    # a constant past the digit limit could not be printed, not even in an
    # error message, so it is refused
    big = max(abs(x.numerator), x.denominator)
    if limit and big.bit_length() > limit * _LOG2_10 and big >= 10 ** limit:
        raise ExprError(f"constant of more than {limit} digits")
    try:
        value = float(x)
    except OverflowError:
        value = None
    # keyed by two ints: hashing a Fraction takes a modular inverse
    return _mk(("const", x.numerator, x.denominator), "const", x, value=value)


def var(name: str) -> Expr:
    if name in RESERVED:
        raise ValueError(f"'{name}' is reserved")
    return _mk(("var", name), "var", name)


def _coerce(x) -> Expr:
    return x if isinstance(x, Expr) else const(x)


pi = _mk(("pi",), "pi", None, value=math.pi)
ZERO = const(0)
ONE = const(1)


def _is_const(e):
    return e.kind == "const"


def _binary(kind, a, b):
    return _mk((kind, id(a), id(b)), kind, None, (a, b))


def add(a, b) -> Expr:
    a, b = _coerce(a), _coerce(b)
    if a is ZERO:
        return b
    if b is ZERO:
        return a
    if _is_const(a) and _is_const(b):
        return const(a.payload + b.payload)
    return _binary("add", a, b)


def sub(a, b) -> Expr:
    a, b = _coerce(a), _coerce(b)
    if b is ZERO:
        return a
    if a is b:
        return ZERO
    if _is_const(a) and _is_const(b):
        return const(a.payload - b.payload)
    return _binary("sub", a, b)


def mul(a, b) -> Expr:
    a, b = _coerce(a), _coerce(b)
    if a is ZERO or b is ZERO:
        return ZERO
    if a is ONE:
        return b
    if b is ONE:
        return a
    if _is_const(a) and _is_const(b):
        return const(a.payload * b.payload)
    return _binary("mul", a, b)


def div(a, b) -> Expr:
    a, b = _coerce(a), _coerce(b)
    if _is_const(b) and b.payload != 0:
        if _is_const(a):
            return const(Fraction(a.payload, b.payload))
        if b is ONE:
            return a
        if a is ZERO:
            return ZERO
    return _binary("div", a, b)


def powi(a, n: int) -> Expr:
    a = _coerce(a)
    n = int(n)
    if n == 0:
        return ONE
    if n == 1:
        return a
    # 0^-n is left to evaluation, as a division by a constant zero is; as
    # |p|^|n| >= 2^(|n| (bits(p) - 1)), a power far past the limit is refused
    if _is_const(a) and (a.payload or n > 0):
        limit, x = _digit_limit(), a.payload
        bits = max(abs(x.numerator), x.denominator).bit_length() - 1
        if limit and abs(n) * bits >= limit * _LOG2_10:
            raise DomainError(f"constant of more than {limit} digits", _power(a, n))
        return const(x ** n)
    return _power(a, n)


def _power(a, n):
    return _mk(("pow", n, id(a)), "pow", n, (a,))


def _unary(kind):
    def f(a):
        a = _coerce(a)
        return _mk((kind, id(a)), kind, None, (a,))
    f.__name__ = kind
    return f


ln = _unary("ln")
sqrt = _unary("sqrt")
sin = _unary("sin")
cos = _unary("cos")
artanh = _unary("artanh")
cot = _unary("cot")

_BUILD = dict({k: globals()[k] for k in FUNCTIONS}, add=add, sub=sub, mul=mul, div=div)


def _artanh_derivs(b, y):
    d = 1.0 - b * b
    return 1.0 / d, 2.0 * b / (d * d)


# cos(b) / sin(b) overflows where |sin(b)| <= 1 / max float
_COT_POLE = 1.0 / sys.float_info.max
# cot's second derivative 2 y (1 + y^2), y = cot(b), is finite exactly
# while |y| < 2^341, and its first derivative -(1 + y^2) with it
_COT_DERIV_MAX = 2.0 ** 341


def _cot_derivs(b, y):
    # raised before the products, so an array part warns of no overflow;
    # the walk makes it a DomainError on the cot node
    if np.any(abs(y) >= _COT_DERIV_MAX):
        raise OverflowError
    s = 1.0 + y * y
    return -s, 2.0 * y * s

def _artanh_derivs34(b, y):
    d = 1.0 - b * b
    return (2.0 + 6.0 * b * b) / (d * d * d), 24.0 * b * (1.0 + b * b) / (d * d * d * d)


def _cot_derivs34(b, y):
    s = 1.0 + y * y
    return -2.0 * s * (1.0 + 3.0 * y * y), 8.0 * y * s * (2.0 + 3.0 * y * y)


# The elementary functions of plain, jet and symbolic code: kind -> (phi,
# (b, phi(b)) -> (phi'(b), phi''(b)), None or (mask of the points of b
# outside the domain, message), (a, da) -> d phi(a) as an expression,
# (b, phi(b)) -> (phi'''(b), phi''''(b)) for Taylor numbers).
_FUNCS = {
    "ln": (np.log, lambda b, y: (1.0 / b, -1.0 / (b * b)),
           (lambda b: b <= 0, "ln of non-positive value"),
           lambda a, da: div(da, a),
           lambda b, y: (2.0 / (b * b * b), -6.0 / (b * b * b * b))),
    "sqrt": (np.sqrt, lambda b, y: (0.5 / y, -0.25 / (y * b)),
             (lambda b: b < 0, "sqrt of negative value"),
             lambda a, da: div(da, mul(const(2), sqrt(a))),
             lambda b, y: (0.375 / (y * b * b), -0.9375 / (y * b * b * b))),
    "sin": (np.sin, lambda b, y: (np.cos(b), -y), None,
            lambda a, da: mul(cos(a), da),
            lambda b, y: (-np.cos(b), y)),
    "cos": (np.cos, lambda b, y: (-np.sin(b), -y), None,
            lambda a, da: mul(const(-1), mul(sin(a), da)),
            lambda b, y: (np.sin(b), y)),
    "artanh": (np.arctanh, _artanh_derivs,
               (lambda b: abs(b) >= 1, "artanh outside (-1, 1)"),
               lambda a, da: div(da, sub(ONE, powi(a, 2))),
               _artanh_derivs34),
    "cot": (lambda b: np.cos(b) / np.sin(b), _cot_derivs,
            (lambda b: abs(np.sin(b)) <= _COT_POLE, "cot at a pole"),
            lambda a, da: mul(const(-1), mul(add(ONE, powi(cot(a), 2)), da)),
            _cot_derivs34),
}


# ---------------------------------------------------------------------------
# the walk
# ---------------------------------------------------------------------------

def _postorder(roots, by_need=False):
    """Nodes reachable from ``roots``, children first and each once, in the
    order a left-to-right recursive walk would finish them.

    With ``by_need``, of two children the one whose subtree holds more
    values at once is walked first (Sethi & Ullman, J. ACM 17, 1970): the
    evaluation order, in which a walk that drops each value after its last
    read holds fewer arrays at a time.  No value depends on the order;
    which of two failing subexpressions raises first does."""
    out, seen = [], set()
    # nodes still to visit, the next on top; None marks that the node
    # below it has had its children finished
    stack = list(reversed(roots))
    while stack:
        n = stack.pop()
        if n is None:
            out.append(stack.pop())
            continue
        if id(n) in seen:
            continue
        seen.add(id(n))
        args = n.args
        if not args:
            out.append(n)
            continue
        stack += (n, None)
        if len(args) == 1:
            stack.append(args[0])
        elif by_need and args[1].need > args[0].need:
            stack += args
        else:
            stack += (args[1], args[0])
    return out


def free_variables(e: Expr) -> frozenset[str]:
    return frozenset(n.payload for n in _postorder((e,)) if n.kind == "var")


def substitute(e: Expr, mapping: dict[str, Expr]) -> Expr:
    """Replace free variables by expressions (capture is not a concern:
    there are no binders)."""
    memo: dict[int, Expr] = {}
    for n in _postorder((e,)):
        if n.kind == "var":
            r = mapping.get(n.payload, n)
        else:
            args = tuple(memo[id(a)] for a in n.args)
            if all(x is y for x, y in zip(args, n.args)):
                r = n
            elif n.kind == "pow":
                r = powi(args[0], n.payload)
            else:
                r = _BUILD[n.kind](*args)
        memo[id(n)] = r
    return memo[id(e)]


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def diff(e, name: str):
    """Exact symbolic partial derivative with respect to ``name`` of one
    expression, or of a sequence of expressions into a list.  The memo
    lives for the call, so a subexpression shared between roots is
    differentiated once and no node keeps a derivative."""
    roots = (e,) if isinstance(e, Expr) else tuple(e)
    memo: dict[int, Expr] = {}
    for n in _postorder(roots):
        k, args = n.kind, n.args
        if not args:
            r = ONE if k == "var" and n.payload == name else ZERO
        elif len(args) == 1:
            (a,) = args
            da = memo[id(a)]
            r = (mul(mul(const(n.payload), powi(a, n.payload - 1)), da)
                 if k == "pow" else _FUNCS[k][3](a, da))
        else:
            a, b = args
            da, db = memo[id(a)], memo[id(b)]
            if k == "mul":
                r = add(mul(da, b), mul(a, db))
            elif k == "div":
                r = div(sub(mul(da, b), mul(a, db)), powi(b, 2))
            else:
                r = _BUILD[k](da, db)
        memo[id(n)] = r
    return memo[id(e)] if isinstance(e, Expr) else [memo[id(r)] for r in roots]


# ---------------------------------------------------------------------------
# order-2 jets
# ---------------------------------------------------------------------------

class Jet2:
    """Truncated Taylor value f(eps) = f + d1*eps + d2/2*eps^2 + O(eps^3)
    (Griewank & Walther, ch. 13): a jet binding of a walk, or the value of
    a root in a walk with one.  Parts are floats or numpy arrays.  The walk
    takes its plain instructions, so a jet supplies the arithmetic: a sum,
    difference or product with a plain value or another jet, the
    reciprocal 1.0 / jet that a quotient is taken through, and an integer
    power.  A plain operand has zero derivative parts, and no product with
    them is formed: it scales a jet's parts, a sum with it keeps them, and
    plain - jet takes 0.0 - d.  Numpy defers to the reflected operators,
    so ``ndarray * Jet2`` is a jet, not an object array."""

    __slots__ = ("f", "d1", "d2")
    __array_ufunc__ = None

    def __init__(self, f, d1=0.0, d2=0.0):
        self.f = f
        self.d1 = d1
        self.d2 = d2

    def __repr__(self):
        return f"Jet2({self.f}, {self.d1}, {self.d2})"

    def __add__(self, o):
        if type(o) is not Jet2:
            return Jet2(self.f + o, self.d1, self.d2)
        return Jet2(self.f + o.f, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is not Jet2:
            return Jet2(self.f - o, self.d1, self.d2)
        return Jet2(self.f - o.f, self.d1 - o.d1, self.d2 - o.d2)

    def __rsub__(self, o):
        return Jet2(o - self.f, 0.0 - self.d1, 0.0 - self.d2)

    def __mul__(self, o):
        if type(o) is not Jet2:
            return Jet2(self.f * o, self.d1 * o, self.d2 * o)
        f, p, c, g, q, e = self.f, self.d1, self.d2, o.f, o.d1, o.d2
        return Jet2(f * g, f * q + p * g, f * e + 2.0 * p * q + c * g)

    __rmul__ = __mul__

    def __rtruediv__(self, one):
        """1.0 / jet: a walk takes a quotient as a * (1.0 / b), once it has
        checked that b's value is nonzero, and forms no other."""
        if type(one) is not float or one != 1.0:
            return NotImplemented
        g = self.f
        return self._chain(1.0 / g, -1.0 / (g * g), 2.0 / (g * g * g))

    def __pow__(self, n):
        f = self.f
        return self._chain(f ** n, n * f ** (n - 1), n * (n - 1) * f ** (n - 2))

    def _chain(self, f0, f1, f2):
        """phi of this jet, from phi(f), phi'(f) and phi''(f)."""
        p = self.d1
        return Jet2(f0, f1 * p, f2 * p * p + f1 * self.d2)


# ---------------------------------------------------------------------------
# order-4 bivariate Taylor numbers
# ---------------------------------------------------------------------------

# a Taylor number keeps the terms dx^i dy^j with i + j <= TAYLOR_ORDER
TAYLOR_ORDER = 4
# (i, j) of each coefficient, in graded order: by degree i + j, and within a
# degree by falling i: 1, dx, dy, dx^2, dx dy, dy^2, dx^3, ...
_MONOMIALS = tuple((d - j, j) for d in range(TAYLOR_ORDER + 1) for j in range(d + 1))
_INDEX = {m: k for k, m in enumerate(_MONOMIALS)}
# the number of coefficients of degree at most d, by d
_PREFIX = tuple((d + 1) * (d + 2) // 2 for d in range(TAYLOR_ORDER + 1))
# d^(i+j) / dx^i dy^j of dx^i dy^j
_FACTORIALS = tuple(float(math.factorial(i) * math.factorial(j)) for i, j in _MONOMIALS)


class Taylor(tuple):
    """Truncated Taylor polynomial f(x + dx, y + dy) = sum of t[k] dx^i
    dy^j over i + j <= ``TAYLOR_ORDER`` (Griewank & Walther, ch. 13): a
    binding of a plain walk, or the value of a root in a walk with one.  It
    is the tuple of its float coefficients in graded order (see
    ``_MONOMIALS``) up to the polynomial's degree, so a variable has 3 and
    x*y has 6, and a product of low-degree numbers computes only the terms
    it can have; a quotient or a function has all of them.  The walk takes
    its plain instructions, so a Taylor number supplies the arithmetic: a
    sum, difference, product or quotient with a float or another Taylor
    number, and an integer power.  Products, reciprocals and the series of
    a power or a function are straight-line rules generated once per
    degree (see :func:`_product_rule`)."""

    __slots__ = ()

    def __repr__(self):
        return f"Taylor({tuple.__repr__(self)})"

    def partials(self):
        """The 15 partial derivatives d^(i+j) f / dx^i dy^j at the point, in
        graded order: each coefficient times i! j!."""
        return tuple(map(operator.mul, self, _FACTORIALS)) + (0.0,) * (len(_MONOMIALS) - len(self))

    def __add__(self, other):
        if type(other) is not Taylor:
            return Taylor((self[0] + other,) + self[1:])
        return Taylor(_sum_rule(len(self), len(other), "+")(self, other))

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Taylor:
            return Taylor((self[0] - other,) + self[1:])
        return Taylor(_sum_rule(len(self), len(other), "-")(self, other))

    def __rsub__(self, other):
        return Taylor((other - self[0],) + tuple([-x for x in self[1:]]))

    def __mul__(self, other):
        if type(other) is not Taylor:
            return Taylor([other * x for x in self])
        return Taylor(_product_rule(len(self), len(other))(self, other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Taylor:
            return Taylor([x / other for x in self])
        return self * Taylor(_reciprocal_rule(len(other))(other))

    def __rtruediv__(self, other):
        return other * Taylor(_reciprocal_rule(len(self))(self))

    def __pow__(self, n):
        """An integer power: f^n = sum of binomial(n, k) f0^(n - k) h^k
        with h = f - f0, k <= min(n, TAYLOR_ORDER).  A negative power is
        f0^n (1 + h/f0)^n, so the terms are scaled as h is; f0 is nonzero
        there, which the walk checks.  f0^n raises as a float power does."""
        f = self[0]
        if n >= 0:
            return _series(self, [b * f ** (n - k) for k, b in enumerate(_binomials(n))])
        return f ** n * _series([x / f for x in self], _binomials(n))


# bounded: the exponents come from the input
@functools.lru_cache(maxsize=64)
def _binomials(n):
    """binomial(n, k) as floats for k <= min(n, TAYLOR_ORDER), or k <=
    TAYLOR_ORDER where n < 0."""
    out = [1]
    for k in range(1, (min(n, TAYLOR_ORDER) if n >= 0 else TAYLOR_ORDER) + 1):
        out.append(out[-1] * (n - k + 1) // k)
    return tuple(map(float, out))


def _series(c, phi):
    """sum of phi[k] h^k, h = c - c[0], as a :class:`Taylor`."""
    return Taylor(_series_rule(len(c), len(phi) - 1)(c, phi))


def _product_texts(a, b, size):
    """Texts of the first ``size`` graded coefficients of the product of two
    polynomials, each a list of coefficient texts with None for a zero."""
    out = []
    for p, q in _MONOMIALS[:size]:
        terms = []
        for (i, j), x in zip(_MONOMIALS, a):
            k = _INDEX.get((p - i, q - j), len(b))
            if x is not None and k < len(b) and b[k] is not None:
                terms.append(f"{x} * {b[k]}")
        out.append(" + ".join(terms) if terms else None)
    return out


def _straight_line(params, lines, out):
    """The function of ``params`` that runs ``lines`` and returns the tuple
    of the texts ``out`` (None for 0.0)."""
    values = "".join(f"{x or '0.0'}, " for x in out)
    scope = {}
    exec("\n    ".join([f"def rule({params}):", *lines, f"return ({values})"]), scope)
    return scope["rule"]


def _unpack(name, n):
    return f"{''.join(f'{name}{k}, ' for k in range(n))}= {name}"


@functools.lru_cache(maxsize=None)
def _sum_rule(m, n, op):
    """The rule f + g or f - g, by ``op``, of two Taylor numbers with m and
    n coefficients."""
    out = [f"f{k} {op} g{k}" if k < min(m, n) else f"f{k}" if k < m else f"{'' if op == '+' else '-'}g{k}"
           for k in range(max(m, n))]
    return _straight_line("f, g", [_unpack("f", m), _unpack("g", n)], out)


@functools.lru_cache(maxsize=None)
def _product_rule(m, n):
    """The product rule of two Taylor numbers with m and n coefficients."""
    f = [f"f{k}" for k in range(m)]
    g = [f"g{k}" for k in range(n)]
    size = _PREFIX[min(TAYLOR_ORDER, _PREFIX.index(m) + _PREFIX.index(n))]
    return _straight_line("f, g", [_unpack("f", m), _unpack("g", n)],
                          _product_texts(f, g, size))


@functools.lru_cache(maxsize=None)
def _reciprocal_rule(n):
    """The reciprocal rule of a Taylor number with n coefficients:
    r = 1/g0 and r_a = -r0 * sum of g_b r_(a - b) over 0 < b <= a."""
    lines = [_unpack("g", n), "r0 = 1.0 / g0"]
    r = ["r0"] + [None] * (len(_MONOMIALS) - 1)
    g = [None] + [f"g{k}" for k in range(1, n)]
    size = 1 if n == 1 else len(_MONOMIALS)
    for k in range(1, size):
        terms = _product_texts(g, r, k + 1)[k]
        lines.append(f"r{k} = -r0 * ({terms})")
        r[k] = f"r{k}"
    return _straight_line("g", lines, r[:size])


@functools.lru_cache(maxsize=None)
def _series_rule(n, terms):
    """The rule sum of phi[k] h^k over k <= ``terms`` of a Taylor number c
    with n coefficients, h = c - c[0]: h^k is h^(k-1) h, each coefficient
    a temporary, and h^k has no terms below degree k."""
    h = [None] + [f"c{k}" for k in range(1, n)]
    size = _PREFIX[min(TAYLOR_ORDER, _PREFIX.index(n) * terms)]
    lines = [_unpack("c", n), _unpack("phi", terms + 1)]
    powers = [h + [None] * (size - n)]
    for k in range(2, terms + 1):
        power = _product_texts(powers[-1], h, size)
        for i, x in enumerate(power):
            if x is not None:
                lines.append(f"h{k}_{i} = {x}")
                power[i] = f"h{k}_{i}"
        powers.append(power)
    out = ["phi0"] + [" + ".join(f"phi{k + 1} * {p[i]}" for k, p in enumerate(powers)
                                 if p[i] is not None) or None for i in range(1, size)]
    return _straight_line("c, phi", lines, out)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class _Fault(Exception):
    """A failure of a run whose program keeps no nodes; the run is repeated
    on one that does, which raises the :class:`DomainError`."""


def _check_nonzero(b):
    """Raise ZeroDivisionError where ``b``, or the value of a Taylor
    number or a jet, is zero."""
    if isinstance(b, float):
        zero = b == 0
    elif isinstance(b, Taylor):
        zero = b[0] == 0
    elif isinstance(b, Jet2):
        return _check_nonzero(b.f)
    else:
        zero = np.any(np.asarray(b) == 0)
    if zero:
        raise ZeroDivisionError


def _function(rules, b):
    """The ``_FUNCS`` function with ``rules`` at ``b``, after its domain
    check.  A float argument gives a Python float, so a point walk does no
    numpy scalar arithmetic; a :class:`Taylor` argument gives its series
    from the function's first four derivatives at its value, in floats;
    a :class:`Jet2` argument gives its jet from the function's value and
    first two derivatives at its value, which is checked as a plain
    argument is, and whose float parts stay floats."""
    fn, derivs, check, _, derivs34 = rules
    if isinstance(b, float):
        if check is not None and check[0](b):
            raise _Fault(check[1])
        return float(fn(b))
    if isinstance(b, Taylor):
        f = b[0]
        if check is not None and check[0](f):
            raise _Fault(check[1])
        y = float(fn(f))
        d1, d2 = map(float, derivs(f, y))
        d3, d4 = map(float, derivs34(f, y))
        return _series(b, (y, d1, 0.5 * d2, d3 / 6.0, d4 / 24.0))
    if isinstance(b, Jet2):
        f = b.f
        y = _function(rules, f)
        d1, d2 = derivs(f, y)
        if isinstance(f, float):
            d1, d2 = float(d1), float(d2)
        return b._chain(y, d1, d2)
    if check is not None and np.any(check[0](np.asarray(b))):
        raise _Fault(check[1])
    return fn(b)


# opcodes of a program's instructions, the most frequent first
_MUL, _ADD, _SUB, _POW, _DIV, _FUNC, _VAR, _FAIL = range(8)
_OPCODES = {"mul": _MUL, "add": _ADD, "sub": _SUB, "div": _DIV, "pow": _POW, "func": _FUNC}


def _compile(roots, recip=False, by_need=True):
    """The program of ``roots`` and its nodes, one slot for each, in
    :func:`_postorder` order (by need, or left to right).

    A program is (slots, code, outs, recip).  ``slots`` holds the first
    value of each slot: the float of a constant or ``pi``, else None.
    ``code`` has one instruction for each other node, in order: (opcode,
    slot, a, b, drops).  a and b are the operands' slots; a power has its
    exponent as b, a function its ``_FUNCS`` rules as b, a variable its
    name as a, and a constant past the float range its message as a.
    drops are the slots of computed values last read there, or None; the
    roots' values are kept.  ``outs`` are the roots' slots, and ``recip``
    takes every quotient as a * (1.0 / b)."""
    order = _postorder(roots, by_need=by_need)
    pos = {n: i for i, n in enumerate(order)}
    outs = tuple(pos[r] for r in roots)
    slots, code = [None] * len(order), []
    # backwards, so that the first read met is the last one
    read = set(outs)
    for node in reversed(order):
        i = pos[node]
        if node.value is not None:
            slots[i] = node.value
            continue
        k, args = node.kind, node.args
        if not args:
            code.append((_VAR, i, node.payload, None, None) if k == "var" else
                        (_FAIL, i, "constant outside the float range", None, None))
            continue
        x, y = args[0], args[-1]
        a, b = pos[x], pos[y]
        dx = a not in read and x.args != ()
        read.add(a)
        dy = b not in read and y.args != ()
        read.add(b)
        if len(args) == 1:
            k, b = ("pow", node.payload) if k == "pow" else ("func", _FUNCS[k])
        drops = (a, b) if dx and dy else (a,) if dx else (b,) if dy else None
        code.append((_OPCODES[k], i, a, b, drops))
    code.reverse()
    return (slots, code, outs, recip), order


def _program(roots, recip):
    """The by-need program of ``roots`` with quotient rule ``recip``,
    cached on the first root and keyed by the rule and by weak references
    to the other roots, so a root that dies invalidates it and no cache
    keeps a root alive.  Walks of every number type share it."""
    head, rest = roots[0], roots[1:]
    cached = head.program
    if cached is not None:
        refs, key, program = cached
        if key == recip and len(refs) == len(rest) and all(
                r() is e for r, e in zip(refs, rest)):
            return program
    program = _compile(roots, recip)[0]
    head.program = (tuple(map(weakref.ref, rest)), recip, program)
    return program


def _run(program, bindings, nodes=None):
    """The values of a program's roots.  Each instruction is one float or
    array operation, which a :class:`Jet2` or :class:`Taylor` operand
    takes through its own operators.  A failure raises
    :class:`DomainError` on its node from ``nodes``, or :class:`_Fault`
    without them."""
    slots, code, outs, recip = program
    v = slots.copy()
    # Python floats raise where numpy arrays overflow to inf
    try:
        for op, out, a, b, drops in code:
            if op == _MUL:
                r = v[a] * v[b]
            elif op == _ADD:
                r = v[a] + v[b]
            elif op == _SUB:
                r = v[a] - v[b]
            elif op == _POW:
                r = v[a]
                if b < 0:
                    _check_nonzero(r)
                r = r ** b
            elif op == _DIV:
                r = v[b]
                _check_nonzero(r)
                r = v[a] * (1.0 / r) if recip else v[a] / r
            elif op == _FUNC:
                r = _function(b, v[a])
            elif op == _VAR:
                try:
                    r = bindings[a]
                except KeyError:
                    raise UnboundVariableError(a) from None
            else:
                raise _Fault(a)
            v[out] = r
            if drops:
                for k in drops:
                    v[k] = None
    except (_Fault, ZeroDivisionError, OverflowError) as err:
        if nodes is None:
            raise _Fault from None
        message = (err.args[0] if isinstance(err, _Fault)
                   else "division by zero" if isinstance(err, ZeroDivisionError)
                   else "value outside the float range")
        raise DomainError(message, nodes[out]) from None
    return [v[k] for k in outs]


def _eval(roots, bindings, recip):
    """Values of ``roots`` from their cached program with quotient rule
    ``recip``.  Of several failing subexpressions, the one a left-to-right
    walk meets first raises: a failed run is repeated on that order's
    program."""
    if not roots:
        return []
    try:
        return _run(_program(roots, recip), bindings)
    except (_Fault, UnboundVariableError):
        pass
    program, nodes = _compile(roots, recip, by_need=False)
    return _run(program, bindings, nodes)


def _jet(value):
    """A root of a walk with jets: a plain value has zero parts."""
    return value if isinstance(value, Jet2) else Jet2(value)


def evaluate(e, bindings: dict):
    """IEEE-double evaluation of one expression, or of a sequence of
    expressions into a list of values; each intermediate value is dropped
    after its last read.  Values may be floats or numpy arrays, or
    :class:`Jet2` values; with any jet binding every quotient is taken as
    a * (1.0 / b), as in :func:`evaluate_jet`, and every root is a jet,
    with zero derivative parts where no jet binding reaches it.  Values
    may also be floats and :class:`Taylor` numbers, not mixed with arrays
    or jets: a root that a Taylor binding reaches is a Taylor number,
    whose :meth:`Taylor.partials` are its derivatives, and any other root
    a float."""
    jets = any(isinstance(j, Jet2) for j in bindings.values())
    roots = (e,) if isinstance(e, Expr) else tuple(e)
    values = _eval(roots, bindings, jets)
    if jets:
        values = list(map(_jet, values))
    return values[0] if isinstance(e, Expr) else values


def evaluate_jet(e: Expr, bindings: dict) -> Jet2:
    """Evaluate one expression with order-2 jets into a :class:`Jet2`, as
    :func:`evaluate` does with a jet binding, but with the quotient rule
    a * (1.0 / b) even without one, so the two share one program.
    Against lifting every binding to a jet, the value part is equal and
    the derivative parts are equal after broadcasting (they may be
    scalars where lifting gave arrays), apart from the sign of exact
    zeros and NaN from non-finite values."""
    return _jet(_eval((e,), bindings, True)[0])


# ---------------------------------------------------------------------------
# parsing / printing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d+|\.\d+|\d+)|(?P<ident>[a-zA-Z][a-zA-Z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            off = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", off)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the grammar:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | ident | '(' expr ')' | func '(' expr ')'

    Groups (parentheses and function calls) nest at most ``MAX_NESTING``
    deep."""

    def __init__(self, text, names):
        self.tokens = _tokenize(text)
        self.names = names
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_op(self, op):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected '{op}'", off)
        self.next()

    def parse(self):
        e = self.expr()
        kind, val, off = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input {val!r}", off)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                e = add(e, rhs) if val == "+" else sub(e, rhs)
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.factor()
                e = mul(e, rhs) if val == "*" else div(e, rhs)
            else:
                return e

    def factor(self):
        e = self.base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            e = powi(e, self.integer())
        return e

    def integer(self):
        sign = 1
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.next()
            sign = -1
            kind, val, off = self.peek()
        if kind != "num" or "." in val:
            raise ParseError("expected integer exponent", off)
        self.next()
        return sign * int(val)

    def base(self):
        kind, val, off = self.next()
        if kind == "num":
            # Fraction(val) would match the text against a pattern first
            whole, _, digits = val.partition(".")
            if not digits:
                return const(int(whole))
            scale = 10 ** len(digits)
            return const(Fraction(int(whole or "0") * scale + int(digits), scale))
        if kind == "ident" and val == "pi":
            return pi
        if kind == "ident" and val not in FUNCTIONS:
            bound = self.names.get(val)
            return var(val) if bound is None else bound
        if kind == "ident":
            k2, v2, _ = self.peek()
            if not (k2 == "op" and v2 == "("):
                raise ReservedNameError(
                    f"reserved function name '{val}' used as a variable", off)
            self.next()
        elif not (kind == "op" and val == "("):
            raise ParseError("unexpected end of input" if kind == "eof"
                             else f"unexpected token {val!r}", off)
        # a group: parenthesized expression or function call opened at off
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"more than {MAX_NESTING} nested groups", off)
        e = self.expr()
        self.expect_op(")")
        self.depth -= 1
        return _BUILD[val](e) if kind == "ident" else e


def parse(text: str, names: dict[str, Expr] | None = None) -> Expr:
    """Parse the grammar above.  An identifier that ``names`` maps to an
    expression is that expression, built into the tree as it is read, and
    any other becomes a free variable; 'pi' is the constant and function
    names may not be used as variables."""
    return _Parser(text, names or {}).parse()


# Each node prints as a text and a threshold: the text is parenthesized where
# the surrounding context binds with precedence >= the threshold (0 for a
# function argument or the whole text, 1 for a sum operand, 2 for a product
# operand or a subtrahend, 3 for a divisor, 4 for a power base).
_ATOM = 5
# kind -> (operator, left operand's context, right operand's context, threshold)
_INFIX = {"add": (" + ", 1, 1, 2), "sub": (" - ", 1, 2, 2),
          "mul": ("*", 2, 2, 3), "div": ("/", 2, 3, 3)}


def to_string(e: Expr) -> str:
    """Grammar-conformant text; parse(to_string(e)) evaluates identically
    when the text nests at most ``MAX_NESTING`` groups."""
    return _text(e)[0]


def _text(e: Expr, limit=math.inf):
    """(text, length) of ``to_string(e)``.  Lengths are summed over the DAG,
    so a text longer than ``limit`` characters is measured without being
    built, and comes back as None."""
    order = _postorder((e,))
    # a node's text is dropped once its last parent has used it: printing
    # expands the DAG into a tree, and the texts of shared subtrees are large
    uses = Counter(id(a) for n in order for a in n.args)
    memo: dict[int, tuple[str | None, int, int]] = {}

    def operand(a, prec):
        s, length, threshold = memo[id(a)]
        uses[id(a)] -= 1
        if not uses[id(a)]:
            del memo[id(a)]
        return (s and f"({s})", length + 2) if prec >= threshold else (s, length)

    for n in order:
        k = n.kind
        if k == "const":
            x = n.payload
            if x < 0:
                parts, threshold = (f"0 - {-x}",), 1
            else:
                # a/b must bind like a term, not an atom
                parts, threshold = (str(x),), 3 if x.denominator != 1 else _ATOM
        elif k == "pi":
            parts, threshold = ("pi",), _ATOM
        elif k == "var":
            parts, threshold = (n.payload,), _ATOM
        elif k in _INFIX:
            op, left, right, threshold = _INFIX[k]
            parts = (operand(n.args[0], left), op, operand(n.args[1], right))
        elif k == "pow":
            # a^-m prints as 1/a^m
            m = n.payload
            if m > 0:
                parts, threshold = (operand(n.args[0], 4), f"^{m}"), 4
            elif m == -1:
                parts, threshold = ("1/", operand(n.args[0], 3)), 3
            else:
                parts, threshold = ("1/", operand(n.args[0], 4), f"^{-m}"), 3
        else:
            parts, threshold = (f"{k}(", operand(n.args[0], 0), ")"), _ATOM
        length = sum(len(p) if isinstance(p, str) else p[1] for p in parts)
        text = (None if length > limit else
                "".join(p if isinstance(p, str) else p[0] for p in parts))
        memo[id(n)] = (text, length, threshold)
    return memo[id(e)][:2]
