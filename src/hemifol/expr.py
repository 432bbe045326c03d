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
What a node caches lives and dies with it: its derivatives (one per variable
name, filled by :func:`diff`) and its evaluation order.  These often refer
back to the node (an order ends with its root; the derivative of sqrt(a)
contains sqrt(a)), so such nodes are freed by the cyclic garbage collector.
Whatever a caller reuses across calls, it keeps alive itself.  Interning takes no lock, so the
module is not thread-safe.

Every walk of the DAG is a loop over one iterative children-first order, so
no expression is too deep to evaluate, differentiate or print; only the
parser recurses, and it rejects more than ``MAX_NESTING`` nested groups.
Evaluating one root drops each intermediate value as soon as its last
consumer has been computed, so a walk keeps only the values still to be read.
:func:`evaluate` also takes a sequence of roots and evaluates them over one
memo kept to the end, so subexpressions shared between fields are computed
once.

Evaluation is generic over the scalar type: plain floats / numpy arrays, or
:class:`Jet2` values carrying (f, f', f'') in one shared deformation
parameter.  A jet walk (:func:`evaluate_jet`) keeps every subexpression that
does not depend on a jet binding as a plain float or array, and does
derivative work only where a jet is present.  Its value parts equal those of
lifting every binding to a jet, because a plain quotient inside a jet walk
is taken as a * (1/b), as a jet with zero derivative parts divides; its
derivative parts are equal after broadcasting, apart from the sign of exact
zeros and the NaN that a skipped ``f * 0.0`` made of a non-finite ``f``.  No
simplification is performed beyond constant folding; correctness of
rewrites is semantic (evaluation equality), not syntactic.
"""

from __future__ import annotations

import math
import re
import weakref
from collections import Counter
from fractions import Fraction
from itertools import repeat

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

    __slots__ = ("kind", "payload", "args", "value", "order", "frees",
                 "derivs", "__weakref__")

    def __init__(self, kind, payload, args):
        self.kind = kind          # 'const'|'pi'|'var'|'add'|'sub'|'mul'|'div'|'pow'|<func>
        self.payload = payload    # Fraction for 'const', str for 'var', int for 'pow'
        self.args = args          # tuple of child Expr nodes
        # float of a 'pi' or 'const' node (None beyond the float range)
        try:
            self.value = (float(payload) if kind == "const"
                          else math.pi if kind == "pi" else None)
        except OverflowError:
            self.value = None
        self.order = None         # evaluation order, cached on first evaluation
        self.frees = None         # per position of order: ids last read there
        self.derivs = None        # variable name -> derivative, filled by diff

    # -- operator sugar (used heavily when building formulas in code) -------
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, n):
        return powi(self, n)

    def __neg__(self):
        return sub(ZERO, self)

    def __str__(self):
        return to_string(self)

    def __repr__(self):
        return f"Expr({to_string(self)})"


# (kind, payload, child ids) -> weak reference to the node.  A dead node's
# entry stays until the next sweep, which runs once the table holds more than
# _SWEEP_MIN entries and twice the entries the last sweep left.  Plain
# references without callbacks make interning and freeing about twice as
# fast as a WeakValueDictionary.
_TABLE: dict[tuple, weakref.ref] = {}
_SWEEP_MIN = 4096
_sweep_at = _SWEEP_MIN


def _mk(kind, payload, args=()):
    # children are already interned, so their ids identify them structurally;
    # a live node keeps its children alive, so the ids in its key are theirs.
    # A dead entry reads as a miss and is overwritten.
    key = (kind, payload, tuple(map(id, args)))
    ref = _TABLE.get(key)
    node = None if ref is None else ref()
    if node is None:
        node = Expr(kind, payload, args)
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


def const(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, float) and not x.is_integer():
        raise TypeError("float constants are not exact; pass a Fraction or string")
    return _mk("const", Fraction(x))


def var(name: str) -> Expr:
    if name in RESERVED:
        raise ValueError(f"'{name}' is reserved")
    return _mk("var", name)


def _coerce(x) -> Expr:
    return x if isinstance(x, Expr) else const(x)


pi = _mk("pi", None)
ZERO = const(0)
ONE = const(1)


def _is_const(e):
    return e.kind == "const"


def add(a, b) -> Expr:
    a, b = _coerce(a), _coerce(b)
    if _is_const(a) and _is_const(b):
        return const(a.payload + b.payload)
    if a is ZERO:
        return b
    if b is ZERO:
        return a
    return _mk("add", None, (a, b))


def sub(a, b) -> Expr:
    a, b = _coerce(a), _coerce(b)
    if _is_const(a) and _is_const(b):
        return const(a.payload - b.payload)
    if b is ZERO:
        return a
    if a is b:
        return ZERO
    return _mk("sub", None, (a, b))


def mul(a, b) -> Expr:
    a, b = _coerce(a), _coerce(b)
    if _is_const(a) and _is_const(b):
        return const(a.payload * b.payload)
    if a is ZERO or b is ZERO:
        return ZERO
    if a is ONE:
        return b
    if b is ONE:
        return a
    return _mk("mul", None, (a, b))


def div(a, b) -> Expr:
    a, b = _coerce(a), _coerce(b)
    if _is_const(b) and b.payload != 0:
        if _is_const(a):
            return const(Fraction(a.payload, b.payload))
        if b is ONE:
            return a
        if a is ZERO:
            return ZERO
    return _mk("div", None, (a, b))


def powi(a, n: int) -> Expr:
    a = _coerce(a)
    n = int(n)
    if n == 0:
        return ONE
    if n == 1:
        return a
    if _is_const(a):
        return const(a.payload ** n)
    return _mk("pow", n, (a,))


def _unary(kind):
    def f(a):
        return _mk(kind, None, (_coerce(a),))
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


# The elementary functions of float, Jet2 and symbolic code: kind -> (phi,
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
               (lambda b: np.abs(b) >= 1, "artanh outside (-1, 1)"),
               lambda a, da: div(da, sub(ONE, powi(a, 2)))),
    "cot": (lambda b: np.cos(b) / np.sin(b),
            lambda b, y: (-(1.0 + y * y), 2.0 * y * (1.0 + y * y)), None,
            lambda a, da: mul(const(-1), mul(add(ONE, powi(cot(a), 2)), da))),
}


# ---------------------------------------------------------------------------
# the walk
# ---------------------------------------------------------------------------

def _postorder(roots, done=None):
    """Nodes reachable from ``roots``, children first and each once, in the
    order a left-to-right recursive walk would finish them.  A node for
    which ``done(node)`` is true is skipped together with its subtree."""
    out, seen = [], set()
    stack = [(None, iter(roots))]    # each node with its unvisited children
    while stack:
        for a in stack[-1][1]:
            if id(a) not in seen and not (done and done(a)):
                seen.add(id(a))
                stack.append((a, iter(a.args)))
                break
        else:
            out.append(stack.pop()[0])
    out.pop()                        # the frame of the roots
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

def diff(e: Expr, name: str) -> Expr:
    """Exact symbolic partial derivative with respect to ``name``.  Each
    node keeps its derivatives, so a subexpression is differentiated once
    for as long as it lives."""
    def known(n):
        return n.derivs is not None and name in n.derivs

    for n in _postorder((e,), known):
        k = n.kind
        if k in ("const", "pi"):
            r = ZERO
        elif k == "var":
            r = ONE if n.payload == name else ZERO
        elif k in ("add", "sub"):
            r = _BUILD[k](n.args[0].derivs[name], n.args[1].derivs[name])
        elif k == "mul":
            a, b = n.args
            r = add(mul(a.derivs[name], b), mul(a, b.derivs[name]))
        elif k == "div":
            a, b = n.args
            r = div(sub(mul(a.derivs[name], b), mul(a, b.derivs[name])),
                    powi(b, 2))
        elif k == "pow":
            (a,) = n.args
            r = mul(mul(const(n.payload), powi(a, n.payload - 1)),
                    a.derivs[name])
        else:
            (a,) = n.args
            r = _FUNCS[k][3](a, a.derivs[name])
        if n.derivs is None:
            n.derivs = {}
        n.derivs[name] = r
    return e.derivs[name]


# ---------------------------------------------------------------------------
# order-2 jets
# ---------------------------------------------------------------------------

class Jet2:
    """Truncated Taylor value f(eps) = f + d1*eps + d2/2*eps^2 + O(eps^3).

    Components may be floats or numpy arrays (broadcast elementwise), all in
    one shared deformation parameter.  Arithmetic is exact at truncation
    order 2.

    The other operand of an operator may be a plain float or array, a value
    that does not depend on eps: its derivative parts are zero, and the
    products with them are skipped.  Numpy defers to the reflected
    operators, so ``ndarray * Jet2`` is a Jet2, not an object array.
    """

    __slots__ = ("f", "d1", "d2")
    __array_ufunc__ = None

    def __init__(self, f, d1=0.0, d2=0.0):
        self.f = f
        self.d1 = d1
        self.d2 = d2

    @staticmethod
    def lift(x):
        return x if isinstance(x, Jet2) else Jet2(x)

    def __repr__(self):
        return f"Jet2({self.f}, {self.d1}, {self.d2})"

    def __add__(self, o):
        if not isinstance(o, Jet2):
            return Jet2(self.f + o, self.d1, self.d2)
        return Jet2(self.f + o.f, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __sub__(self, o):
        if not isinstance(o, Jet2):
            return Jet2(self.f - o, self.d1, self.d2)
        return Jet2(self.f - o.f, self.d1 - o.d1, self.d2 - o.d2)

    def __rsub__(self, o):
        return Jet2(o - self.f, 0.0 - self.d1, 0.0 - self.d2)

    def __mul__(self, o):
        if not isinstance(o, Jet2):
            return Jet2(self.f * o, self.d1 * o, self.d2 * o)
        return Jet2(
            self.f * o.f,
            self.f * o.d1 + self.d1 * o.f,
            self.f * o.d2 + 2.0 * self.d1 * o.d1 + self.d2 * o.f,
        )

    __rmul__ = __mul__

    def __truediv__(self, o):
        # a plain divisor's reciprocal is 1/o, as the lifted jet's was
        return self * (o._recip() if isinstance(o, Jet2) else 1.0 / o)

    def __rtruediv__(self, o):
        return self._recip() * o

    def __neg__(self):
        return Jet2(-self.f, -self.d1, -self.d2)

    def _recip(self):
        b = self.f
        return self._chain(1.0 / b, -1.0 / (b * b), 2.0 / (b * b * b))

    def _chain(self, f0, f1, f2):
        """Compose with a scalar function given phi(b), phi'(b), phi''(b)."""
        return Jet2(f0, f1 * self.d1, f2 * self.d1 * self.d1 + f1 * self.d2)

    def powi(self, n):
        b = self.f
        return self._chain(b ** n, n * b ** (n - 1), n * (n - 1) * b ** (n - 2))

    __pow__ = powi


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _check_nonzero(v, e):
    bad = v.f if isinstance(v, Jet2) else v
    if np.any(np.asarray(bad) == 0):
        raise DomainError("division by zero", e)


def _last_reads(order):
    """Per position of ``order``: None, or the ids of the nodes whose last
    consumer sits at that position."""
    last = {}
    for pos, n in enumerate(order):
        for a in n.args:
            last[id(a)] = pos
    frees = [None] * len(order)
    for i, pos in last.items():
        frees[pos] = (frees[pos] or ()) + (i,)
    return frees


def _eval(roots, bindings, release=False, jet=False):
    """Values of ``roots`` over one memo.  With ``release`` (one root) each
    value is dropped once its last consumer has been computed.  With
    ``jet`` a quotient by a plain value is taken as a * (1/b), as a jet
    with zero derivative parts divides."""
    memo = {}
    for root in roots:
        order = root.order
        if order is None:
            order = root.order = _postorder((root,))
        if release:
            frees = root.frees
            if frees is None:
                frees = root.frees = _last_reads(order)
        else:
            frees = repeat(None)
        for n, drop in zip(order, frees):
            i = id(n)
            if i in memo:
                continue
            if n.value is not None:
                r = n.value
            elif n.kind == "add":
                r = memo[id(n.args[0])] + memo[id(n.args[1])]
            elif n.kind == "mul":
                r = memo[id(n.args[0])] * memo[id(n.args[1])]
            elif n.kind == "sub":
                r = memo[id(n.args[0])] - memo[id(n.args[1])]
            elif n.kind == "var":
                try:
                    r = bindings[n.payload]
                except KeyError:
                    raise UnboundVariableError(n.payload) from None
            elif n.kind == "div":
                b = memo[id(n.args[1])]
                _check_nonzero(b, n)
                a = memo[id(n.args[0])]
                r = a * (1.0 / b) if jet and not isinstance(b, Jet2) else a / b
            elif n.kind == "const":
                raise DomainError("constant outside the float range", n)
            elif n.kind == "pow":
                a = memo[id(n.args[0])]
                if n.payload < 0:
                    _check_nonzero(a, n)
                r = a ** n.payload
            else:
                a = memo[id(n.args[0])]
                fn, derivs, check, _ = _FUNCS[n.kind]
                b = a.f if isinstance(a, Jet2) else a
                if check is not None and np.any(check[0](np.asarray(b))):
                    raise DomainError(check[1], n)
                y = fn(b)
                r = a._chain(y, *derivs(b, y)) if isinstance(a, Jet2) else y
            memo[i] = r
            if drop:
                for j in drop:
                    del memo[j]
    return [memo[id(root)] for root in roots]


def evaluate(e, bindings: dict[str, float]):
    """IEEE-double evaluation; values may be floats or numpy arrays.  ``e``
    is one expression, evaluated keeping only the values still to be read,
    or a sequence of expressions evaluated over one memo into a list of
    values."""
    if isinstance(e, Expr):
        return _eval((e,), bindings, release=True)[0]
    return _eval(e, bindings)


def evaluate_jet(e: Expr, bindings: dict) -> Jet2:
    """Evaluate with order-2 jets sharing one deformation parameter; each
    intermediate value is dropped after its last read.  Bindings are jets
    or plain floats and arrays.  A subexpression that does not depend on a
    jet stays plain and only the root is lifted, so derivative work is done
    only where a jet is present.  Against lifting every binding, the value
    part is equal and the derivative parts are equal after broadcasting
    (they may be scalars where lifting gave arrays), apart from the sign of
    exact zeros and NaN from non-finite values."""
    return Jet2.lift(_eval((e,), bindings, release=True, jet=True)[0])


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

    def __init__(self, text):
        self.tokens = _tokenize(text)
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
            return const(Fraction(val))
        if kind == "ident" and val == "pi":
            return pi
        if kind == "ident" and val not in FUNCTIONS:
            return var(val)
        if kind == "ident":
            k2, v2, _ = self.peek()
            if not (k2 == "op" and v2 == "("):
                raise ReservedNameError(
                    f"reserved function name '{val}' used as a variable", off)
            self.next()
        elif not (kind == "op" and val == "("):
            raise ParseError(f"unexpected token {val!r}", off)
        # a group: parenthesized expression or function call opened at off
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"more than {MAX_NESTING} nested groups", off)
        e = self.expr()
        self.expect_op(")")
        self.depth -= 1
        return _BUILD[val](e) if kind == "ident" else e


def parse(text: str) -> Expr:
    """Parse the grammar above.  Unknown identifiers become free variables;
    'pi' is the constant and function names may not be used as variables."""
    return _Parser(text).parse()


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
