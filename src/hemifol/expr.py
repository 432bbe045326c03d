"""Symbolic expression trees with exact rational constants and order-2 jets.

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
those roots and one layout of jet bindings (see below).  No node keeps a
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

A walk computes plain floats and numpy arrays.  Order-2 jets, (f, f',
f'') in one deformation parameter, are a transform of the tape (Griewank
& Walther, ch. 13): the bindings that are :class:`Jet2` records name the
jet variables, and the program compiled for that layout gives each node
that a jet reaches 3 slots, its value and its first and second
derivative parts, which one fused instruction per node updates.  Every
other subexpression stays a plain float or array, so derivative work is
done only where a jet is present.  The value parts equal those of
lifting every binding to a jet, because a plain quotient in such a walk
is taken as a * (1/b), as a jet with zero derivative parts divides; the
derivative parts are equal after broadcasting, apart from the sign of
exact zeros and the NaN that a skipped ``f * 0.0`` made of a non-finite
``f``.  :func:`evaluate` takes that rule whenever a binding is a jet, and
:func:`evaluate_jet` always.  A float derivative part takes the IEEE
operations that one element of an array part takes.  No simplification
is performed beyond constant folding; correctness of rewrites is
semantic (evaluation equality), not syntactic.

At a float point a walk computes in Python floats: an elementary function
of a float returns a float, and its domain check and the divisor checks
test the float directly.  A float operation that overflows (a power) or
divides by zero (the reciprocal of a jet whose square underflowed, the
derivative of ``sqrt`` or ``ln`` at 0) raises :class:`DomainError` on its
node; numpy arrays overflow to inf as before.  Products past the float
range are inf without a warning.
"""

from __future__ import annotations

import functools
import math
import re
import sys
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np

__all__ = [
    "Expr", "Jet2",
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

# The elementary functions of plain, jet and symbolic code: kind -> (phi,
# (b, phi(b)) -> (phi'(b), phi''(b)), None or (mask of the points of b
# outside the domain, message), (a, da) -> d phi(a) as an expression).
_FUNCS = {
    "ln": (np.log, lambda b, y: (1.0 / b, -1.0 / (b * b)),
           (lambda b: b <= 0, "ln of non-positive value"),
           lambda a, da: div(da, a)),
    "sqrt": (np.sqrt, lambda b, y: (0.5 / y, -0.25 / (y * b)),
             (lambda b: b < 0, "sqrt of negative value"),
             lambda a, da: div(da, mul(const(2), sqrt(a)))),
    "sin": (np.sin, lambda b, y: (np.cos(b), -y), None,
            lambda a, da: mul(cos(a), da)),
    "cos": (np.cos, lambda b, y: (-np.sin(b), -y), None,
            lambda a, da: mul(const(-1), mul(sin(a), da))),
    "artanh": (np.arctanh, _artanh_derivs,
               (lambda b: abs(b) >= 1, "artanh outside (-1, 1)"),
               lambda a, da: div(da, sub(ONE, powi(a, 2)))),
    "cot": (lambda b: np.cos(b) / np.sin(b), _cot_derivs,
            (lambda b: abs(np.sin(b)) <= _COT_POLE, "cot at a pole"),
            lambda a, da: mul(const(-1), mul(add(ONE, powi(cot(a), 2)), da))),
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
    """Truncated Taylor value f(eps) = f + d1*eps + d2/2*eps^2 + O(eps^3): a
    jet binding of a walk, or the value of a root in a walk with one.  Parts
    are floats or numpy arrays.  The walk does the arithmetic (see
    :func:`_compile`)."""

    __slots__ = ("f", "d1", "d2")

    def __init__(self, f, d1=0.0, d2=0.0):
        self.f = f
        self.d1 = d1
        self.d2 = d2

    def __repr__(self):
        return f"Jet2({self.f}, {self.d1}, {self.d2})"


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class _Fault(Exception):
    """A failure of a run whose program keeps no nodes; the run is repeated
    on one that does, which raises the :class:`DomainError`."""


def _check_nonzero(b):
    if b == 0 if isinstance(b, float) else np.any(np.asarray(b) == 0):
        raise ZeroDivisionError


def _function(rules, b):
    """The ``_FUNCS`` function with ``rules`` at ``b``, after its domain
    check.  A float argument gives a Python float, so a point walk does no
    numpy scalar arithmetic."""
    fn, _, check, _ = rules
    if isinstance(b, float):
        if check is not None and check[0](b):
            raise _Fault(check[1])
        return float(fn(b))
    if check is not None and np.any(check[0](np.asarray(b))):
        raise _Fault(check[1])
    return fn(b)


# The order-2 rules of a node that a jet reaches (Griewank & Walther,
# ch. 13), by (kind, whether the first operand is a jet, whether the second
# is, None for a power's exponent or a function's rules y): (statements,
# value, first and second derivative part).  f, p and c are the first
# operand's value and parts, g, q and e the second's.  Each part takes
# these IEEE operations in this order.  No product with a plain operand's
# zero parts is formed: a sum with a plain value keeps the jet's parts (the
# jet's value first), plain - jet takes 0.0 - q, and a product with a
# plain value scales the jet's parts (the jet's part first).  A quotient by
# a plain g is a * (1/g).
_RECIPROCAL = ("_check_nonzero(g)", "r, r1, r2 = 1.0 / g, -1.0 / (g * g), 2.0 / (g * g * g)")
_POWER = ("if y < 0:", "    _check_nonzero(f)",
          "f0, f1, f2 = f ** y, y * f ** (y - 1), y * (y - 1) * f ** (y - 2)")
_FUNCTION = ("f0 = _function(y, f)", "f1, f2 = y[1](f, f0)",
             "if isinstance(f, float):", "    f1, f2 = float(f1), float(f2)")
_CHAIN = ("f0", "f1 * p", "f2 * p * p + f1 * c")
_RULES = {
    ("add", True, True): ((), "f + g", "p + q", "c + e"),
    ("add", True, False): ((), "f + g", "p", "c"),
    ("add", False, True): ((), "g + f", "q", "e"),
    ("sub", True, True): ((), "f - g", "p - q", "c - e"),
    ("sub", True, False): ((), "f - g", "p", "c"),
    ("sub", False, True): ((), "f - g", "0.0 - q", "0.0 - e"),
    ("mul", True, True): ((), "f * g", "f * q + p * g",
                          "f * e + 2.0 * p * q + c * g"),
    ("mul", True, False): ((), "f * g", "p * g", "c * g"),
    ("mul", False, True): ((), "g * f", "q * f", "e * f"),
    # 1/g has the parts r1 * q and r2 * q * q + r1 * e
    ("div", True, True): (_RECIPROCAL, "f * r", "f * (r1 * q) + p * r",
                          "f * (r2 * q * q + r1 * e) + 2.0 * p * (r1 * q)"
                          " + c * r"),
    ("div", True, False): (("_check_nonzero(g)", "r = 1.0 / g"), "f * r", "p * r", "c * r"),
    ("div", False, True): (_RECIPROCAL, "r * f", "(r1 * q) * f",
                           "(r2 * q * q + r1 * e) * f"),
    ("pow", True, None): (_POWER, *_CHAIN),
    ("func", True, None): (_FUNCTION, *_CHAIN),
}


@functools.lru_cache(maxsize=None)
def _fused(kind, left, right, drop_x, drop_y):
    """``_RULES[kind, left, right]`` as a function rule(v, o, (x, y)) that
    reads its operands' slots x and y of the slot list v, clears those of
    each operand whose drop flag is set (read there for the last time),
    writes the derivative parts of the node at slot o and returns its
    value, in one call: ``("mul", True, False)`` that drops neither operand
    is ``x, y = args; f, p, c = v[x:x + 3]; g = v[y]; v[o + 1:o + 3] =
    (p * g, c * g,); return f * g``."""
    head, value, *derivatives = _RULES[kind, left, right]
    reads, clears = [], []
    for slot, names, jet, drop in zip("xy", ("fpc", "gqe"), (left, right), (drop_x, drop_y)):
        if jet is None:
            continue
        span = f"v[{slot}:{slot} + 3]" if jet else f"v[{slot}]"
        reads.append(f"{', '.join(names if jet else names[0])} = {span}")
        clears += [f"{span} = {'_GAP' if jet else 'None'}"] if drop else []
    lines = ["def rule(v, o, args):", "x, y = args", *reads, *clears, *head,
             f"v[o + 1:o + 3] = ({', '.join(derivatives)},)", f"return {value}"]
    scope = {"_check_nonzero": _check_nonzero, "_function": _function, "_GAP": (None,) * 3}
    exec("\n    ".join(lines), scope)
    return scope["rule"]


# opcodes of a program's instructions, the most frequent first
_JET, _MUL, _ADD, _SUB, _POW, _DIV, _FUNC, _VAR, _FAIL = range(9)
_OPCODES = {"mul": _MUL, "add": _ADD, "sub": _SUB, "div": _DIV, "pow": _POW, "func": _FUNC}

# the layouts of walks without jets, without and with the jet quotient rule
_PLAIN = (frozenset(), False)
_RECIP = (frozenset(), True)


def _layout(bindings, recip):
    """(names bound to jets, whether a quotient by a plain value is
    a * (1/b)) of a walk of ``bindings``: ``recip``, or any jet binding,
    sets the quotient rule."""
    names = frozenset(name for name, j in bindings.items() if isinstance(j, Jet2))
    return (names, True) if names else _RECIP if recip else _PLAIN


def _compile(roots, layout=_PLAIN, by_need=True):
    """The program of ``roots`` for ``layout`` (see :func:`_layout`) and
    the nodes of its slots, in :func:`_postorder` order (by need, or left
    to right).  A node that a jet binding reaches has 3 slots in a row,
    its value and its first and second derivative parts, and so has every
    root of a walk with jets (zero parts where no jet reaches it); any
    other node has one.

    A program is (slots, code, outs, has_jets, recip).  ``slots`` holds the
    first value of each slot: the float of a constant or ``pi``, a zero
    part, else None.  ``code`` has one instruction for each other node, in
    order: (opcode, slot, a, b, drops).  a and b are the operands' slots;
    a power has its exponent as b, a function its ``_FUNCS`` rules as b, a
    variable its name as a and whether it is a jet as b, and a constant
    past the float range its message as a.  drops are the slots of
    computed values last read there, or None; the roots' values are kept.
    A node that a jet reaches, other than a variable, is a ``_JET``
    instruction: b is its rule from :func:`_fused`, which also drops its
    operands, and a is (a, b).  ``outs`` are the roots' slots,
    ``has_jets`` whether the walk has jet bindings, and ``recip`` takes a quotient by a
    plain value as a * (1/b)."""
    names, recip = layout
    order = _postorder(roots, by_need=by_need)
    if names:
        pos, jets, size, rooted = {}, set(), 0, set(roots)
        for node in order:
            pos[node] = size
            args = node.args
            if (args[0] in jets or args[-1] in jets if args
                    else node.kind == "var" and node.payload in names):
                jets.add(node)
                size += 3
            else:
                size += 3 if node in rooted else 1
    else:
        pos, jets, size = {n: i for i, n in enumerate(order)}, (), len(order)
    outs = tuple(pos[r] for r in roots)
    slots, code, nodes = [None] * size, [], [None] * size
    # backwards, so that the first read met is the last one
    read = set(outs)
    for node in reversed(order):
        i = pos[node]
        nodes[i] = node
        jet = node in jets
        if names and not jet and i in outs:
            slots[i + 1:i + 3] = 0.0, 0.0
        if node.value is not None:
            slots[i] = node.value
            continue
        k, args = node.kind, node.args
        if not args:
            code.append((_VAR, i, node.payload, jet, None) if k == "var" else
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
        if jet:
            rule = (_fused(k, True, None, dx, False) if len(args) == 1
                    else _fused(k, x in jets, y in jets, dx, dy))
            code.append((_JET, i, (a, b), rule, None))
        else:
            drops = (a, b) if dx and dy else (a,) if dx else (b,) if dy else None
            code.append((_OPCODES[k], i, a, b, drops))
    code.reverse()
    return (slots, code, outs, bool(names), recip), nodes


def _program(roots, layout):
    """The by-need program of ``roots`` for ``layout``, cached on the first
    root and keyed by the layout and by weak references to the other
    roots, so a root that dies invalidates it and no cache keeps a root
    alive."""
    head, rest = roots[0], roots[1:]
    cached = head.program
    if cached is not None:
        refs, key, program = cached
        if key == layout and len(refs) == len(rest) and all(
                r() is e for r, e in zip(refs, rest)):
            return program
    program = _compile(roots, layout)[0]
    head.program = (tuple(map(weakref.ref, rest)), layout, program)
    return program


def _run(program, bindings, nodes=None):
    """The values of a program's roots; in a walk with jets, each a
    :class:`Jet2`.  A failure raises :class:`DomainError` on its node from
    ``nodes``, or :class:`_Fault` without them."""
    slots, code, outs, has_jets, recip = program
    v = slots.copy()
    # Python floats raise where numpy arrays overflow to inf
    try:
        for op, out, a, b, drops in code:
            if op == _JET:
                r = b(v, out, a)
            elif op == _MUL:
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
                if b:
                    v[out + 1:out + 3] = r.d1, r.d2
                    r = r.f
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
    if has_jets:
        return [Jet2(v[k], v[k + 1], v[k + 2]) for k in outs]
    return [v[k] for k in outs]


def _eval(roots, bindings, layout):
    """Values of ``roots`` from their cached program for ``layout``.  Of
    several failing subexpressions, the one a left-to-right walk meets
    first raises: a failed run is repeated on that order's program."""
    if not roots:
        return []
    try:
        return _run(_program(roots, layout), bindings)
    except (_Fault, UnboundVariableError):
        pass
    program, nodes = _compile(roots, layout, by_need=False)
    return _run(program, bindings, nodes)


def evaluate(e, bindings: dict):
    """IEEE-double evaluation of one expression, or of a sequence of
    expressions into a list of values; each intermediate value is dropped
    after its last read.  Values may be floats or numpy arrays, or
    :class:`Jet2` values; with any jet binding a quotient by a plain value
    is taken as a * (1/b), as in :func:`evaluate_jet`, and every root is a
    jet, with zero derivative parts where no jet binding reaches it."""
    layout = _layout(bindings, False)
    if isinstance(e, Expr):
        return _eval((e,), bindings, layout)[0]
    return _eval(tuple(e), bindings, layout)


def evaluate_jet(e: Expr, bindings: dict) -> Jet2:
    """Evaluate one expression with order-2 jets into a :class:`Jet2`, as
    :func:`evaluate` does with a jet binding, but with the quotient rule
    a * (1/b) even without one.  Against lifting every binding to a jet,
    the value part is equal and the derivative parts are equal after
    broadcasting (they may be scalars where lifting gave arrays), apart
    from the sign of exact zeros and NaN from non-finite values."""
    layout = _layout(bindings, True)
    value = _eval((e,), bindings, layout)[0]
    return value if layout[0] else Jet2(value)


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
