"""Symbolic expression trees with exact rational constants and order-2 jets.

Expressions are immutable, hash-consed nodes: structurally identical subtrees
share one object, so evaluation and differentiation run over a DAG instead of
a tree.  Supported operations: + - * /, integer powers, ln, sqrt, sin, cos,
artanh, cot, the constant pi, named variables and exact rational constants.
Half-integer powers are expressed as sqrt composed with an integer power so
the differentiation rules stay closed.

Evaluation is generic over the scalar type: plain floats / numpy arrays, or
:class:`Jet2` values carrying (f, f', f'') in one shared deformation
parameter.  No simplification is performed beyond constant folding;
correctness of rewrites is semantic (evaluation equality), not syntactic.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np

__all__ = [
    "Expr", "Jet2",
    "ExprError", "ParseError", "ReservedNameError",
    "EvalError", "UnboundVariableError", "DomainError",
    "const", "var", "pi", "add", "sub", "mul", "div", "powi",
    "ln", "sqrt", "sin", "cos", "artanh", "cot",
    "ZERO", "ONE",
    "parse", "to_string", "diff", "evaluate", "evaluate_jet",
    "substitute", "free_variables",
]

FUNCTIONS = ("ln", "sqrt", "sin", "cos", "artanh", "cot")
RESERVED = ("pi",) + FUNCTIONS


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
    """Evaluation left the function domain; carries the offending subtree."""

    def __init__(self, message, subtree):
        super().__init__(f"{message} in subexpression '{to_string(subtree)}'")
        self.subtree = subtree


class Expr:
    """One interned node of an expression DAG.  Do not construct directly;
    use the module-level constructors (which fold constants and intern)."""

    __slots__ = ("kind", "payload", "args")

    def __init__(self, kind, payload, args):
        self.kind = kind          # 'const'|'pi'|'var'|'add'|'sub'|'mul'|'div'|'pow'|<func>
        self.payload = payload    # Fraction for 'const', str for 'var', int for 'pow'
        self.args = args          # tuple of child Expr nodes

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


_TABLE: dict[tuple, Expr] = {}


def _mk(kind, payload, args=()):
    # children are already interned, so their ids identify them structurally;
    # the table holds strong references, keeping ids stable for the process.
    key = (kind, payload, tuple(id(a) for a in args))
    node = _TABLE.get(key)
    if node is None:
        node = Expr(kind, payload, args)
        _TABLE[key] = node
    return node


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

_UNARY = {k: globals()[k] for k in FUNCTIONS}


def free_variables(e: Expr) -> frozenset[str]:
    seen = set()
    out = set()

    def walk(n):
        if id(n) in seen:
            return
        seen.add(id(n))
        if n.kind == "var":
            out.add(n.payload)
        for a in n.args:
            walk(a)

    walk(e)
    return frozenset(out)


def substitute(e: Expr, mapping: dict[str, Expr]) -> Expr:
    """Replace free variables by expressions (capture is not a concern:
    there are no binders)."""
    memo: dict[int, Expr] = {}

    def walk(n):
        r = memo.get(id(n))
        if r is not None:
            return r
        if n.kind == "var":
            r = mapping.get(n.payload, n)
        elif n.kind in ("const", "pi"):
            r = n
        else:
            args = tuple(walk(a) for a in n.args)
            if all(x is y for x, y in zip(args, n.args)):
                r = n
            elif n.kind == "add":
                r = add(*args)
            elif n.kind == "sub":
                r = sub(*args)
            elif n.kind == "mul":
                r = mul(*args)
            elif n.kind == "div":
                r = div(*args)
            elif n.kind == "pow":
                r = powi(args[0], n.payload)
            else:
                r = _UNARY[n.kind](args[0])
        memo[id(n)] = r
        return r

    return walk(e)


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

_DIFF_CACHE: dict[tuple[int, str], Expr] = {}


def diff(e: Expr, name: str) -> Expr:
    """Exact symbolic partial derivative with respect to ``name``."""
    key = (id(e), name)
    r = _DIFF_CACHE.get(key)
    if r is not None:
        return r
    k = e.kind
    if k in ("const", "pi"):
        r = ZERO
    elif k == "var":
        r = ONE if e.payload == name else ZERO
    elif k == "add":
        r = add(diff(e.args[0], name), diff(e.args[1], name))
    elif k == "sub":
        r = sub(diff(e.args[0], name), diff(e.args[1], name))
    elif k == "mul":
        a, b = e.args
        r = add(mul(diff(a, name), b), mul(a, diff(b, name)))
    elif k == "div":
        a, b = e.args
        r = div(sub(mul(diff(a, name), b), mul(a, diff(b, name))), powi(b, 2))
    elif k == "pow":
        (a,) = e.args
        r = mul(mul(const(e.payload), powi(a, e.payload - 1)), diff(a, name))
    else:
        (a,) = e.args
        da = diff(a, name)
        if k == "ln":
            r = div(da, a)
        elif k == "sqrt":
            r = div(da, mul(const(2), sqrt(a)))
        elif k == "sin":
            r = mul(cos(a), da)
        elif k == "cos":
            r = mul(const(-1), mul(sin(a), da))
        elif k == "artanh":
            r = div(da, sub(ONE, powi(a, 2)))
        elif k == "cot":
            r = mul(const(-1), mul(add(ONE, powi(cot(a), 2)), da))
        else:  # pragma: no cover
            raise AssertionError(k)
    _DIFF_CACHE[key] = r
    return r


# ---------------------------------------------------------------------------
# order-2 jets
# ---------------------------------------------------------------------------

class Jet2:
    """Truncated Taylor value f(eps) = f + d1*eps + d2/2*eps^2 + O(eps^3).

    Components may be floats or numpy arrays (broadcast elementwise), all in
    one shared deformation parameter.  Arithmetic is exact at truncation
    order 2.
    """

    __slots__ = ("f", "d1", "d2")

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
        o = Jet2.lift(o)
        return Jet2(self.f + o.f, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __sub__(self, o):
        o = Jet2.lift(o)
        return Jet2(self.f - o.f, self.d1 - o.d1, self.d2 - o.d2)

    def __rsub__(self, o):
        return Jet2.lift(o) - self

    def __mul__(self, o):
        o = Jet2.lift(o)
        return Jet2(
            self.f * o.f,
            self.f * o.d1 + self.d1 * o.f,
            self.f * o.d2 + 2.0 * self.d1 * o.d1 + self.d2 * o.f,
        )

    __rmul__ = __mul__

    def __truediv__(self, o):
        return self * Jet2.lift(o)._recip()

    def __rtruediv__(self, o):
        return Jet2.lift(o) * self._recip()

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

    def ln(self):
        b = self.f
        return self._chain(np.log(b), 1.0 / b, -1.0 / (b * b))

    def sqrt(self):
        s = np.sqrt(self.f)
        return self._chain(s, 0.5 / s, -0.25 / (s * self.f))

    def sin(self):
        s, c = np.sin(self.f), np.cos(self.f)
        return self._chain(s, c, -s)

    def cos(self):
        s, c = np.sin(self.f), np.cos(self.f)
        return self._chain(c, -s, -c)

    def artanh(self):
        b = self.f
        d = 1.0 - b * b
        return self._chain(np.arctanh(b), 1.0 / d, 2.0 * b / (d * d))

    def cot(self):
        s = np.sin(self.f)
        ct = np.cos(self.f) / s
        return self._chain(ct, -(1.0 + ct * ct), 2.0 * ct * (1.0 + ct * ct))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _check_positive(v, e, what):
    bad = v.f if isinstance(v, Jet2) else v
    if np.any(np.asarray(bad) <= 0):
        raise DomainError(f"{what} of non-positive value", e)


def _check_nonzero(v, e):
    bad = v.f if isinstance(v, Jet2) else v
    if np.any(np.asarray(bad) == 0):
        raise DomainError("division by zero", e)


def _eval(e, bindings, memo):
    r = memo.get(id(e))
    if r is not None:
        return r
    k = e.kind
    if k == "const":
        r = float(e.payload)
    elif k == "pi":
        r = math.pi
    elif k == "var":
        try:
            r = bindings[e.payload]
        except KeyError:
            raise UnboundVariableError(e.payload) from None
    elif k == "add":
        r = _eval(e.args[0], bindings, memo) + _eval(e.args[1], bindings, memo)
    elif k == "sub":
        r = _eval(e.args[0], bindings, memo) - _eval(e.args[1], bindings, memo)
    elif k == "mul":
        r = _eval(e.args[0], bindings, memo) * _eval(e.args[1], bindings, memo)
    elif k == "div":
        a = _eval(e.args[0], bindings, memo)
        b = _eval(e.args[1], bindings, memo)
        _check_nonzero(b, e)
        r = a / b
    elif k == "pow":
        a = _eval(e.args[0], bindings, memo)
        if e.payload < 0:
            _check_nonzero(a, e)
        r = a.powi(e.payload) if isinstance(a, Jet2) else a ** e.payload
    else:
        a = _eval(e.args[0], bindings, memo)
        if k == "ln":
            _check_positive(a, e, "ln")
            r = a.ln() if isinstance(a, Jet2) else np.log(a)
        elif k == "sqrt":
            neg = a.f if isinstance(a, Jet2) else a
            if np.any(np.asarray(neg) < 0):
                raise DomainError("sqrt of negative value", e)
            r = a.sqrt() if isinstance(a, Jet2) else np.sqrt(a)
        elif k == "sin":
            r = a.sin() if isinstance(a, Jet2) else np.sin(a)
        elif k == "cos":
            r = a.cos() if isinstance(a, Jet2) else np.cos(a)
        elif k == "artanh":
            mag = a.f if isinstance(a, Jet2) else a
            if np.any(np.abs(np.asarray(mag)) >= 1):
                raise DomainError("artanh outside (-1, 1)", e)
            r = a.artanh() if isinstance(a, Jet2) else np.arctanh(a)
        elif k == "cot":
            r = a.cot() if isinstance(a, Jet2) else np.cos(a) / np.sin(a)
        else:  # pragma: no cover
            raise AssertionError(k)
    memo[id(e)] = r
    return r


def evaluate(e: Expr, bindings: dict[str, float]) -> float:
    """IEEE-double evaluation; values may be floats or numpy arrays."""
    return _eval(e, bindings, {})


def evaluate_jet(e: Expr, bindings: dict[str, Jet2]) -> Jet2:
    """Evaluate with order-2 jets sharing one deformation parameter."""
    b = {k: Jet2.lift(v) for k, v in bindings.items()}
    return Jet2.lift(_eval(e, b, {}))


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
    """

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

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
        if kind == "ident":
            if val == "pi":
                return pi
            if val in FUNCTIONS:
                k2, v2, _ = self.peek()
                if not (k2 == "op" and v2 == "("):
                    raise ReservedNameError(
                        f"reserved function name '{val}' used as a variable", off)
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return _UNARY[val](arg)
            return var(val)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {val!r}", off)


def parse(text: str) -> Expr:
    """Parse the grammar above.  Unknown identifiers become free variables;
    'pi' is the constant and function names may not be used as variables."""
    return _Parser(text).parse()


def _frac_str(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "pow": 3}


def _print(e, prec):
    k = e.kind
    if k == "const":
        x = e.payload
        if x < 0:
            s = f"0 - {_frac_str(-x)}"
            return f"({s})" if prec >= 1 else s
        s = _frac_str(x)
        # a/b must bind like a term, not an atom
        return f"({s})" if x.denominator != 1 and prec > 2 else s
    if k == "pi":
        return "pi"
    if k == "var":
        return e.payload
    if k == "add":
        s = f"{_print(e.args[0], 1)} + {_print(e.args[1], 1)}"
    elif k == "sub":
        s = f"{_print(e.args[0], 1)} - {_print(e.args[1], 2)}"
    elif k == "mul":
        s = f"{_print(e.args[0], 2)}*{_print(e.args[1], 2)}"
    elif k == "div":
        s = f"{_print(e.args[0], 2)}/{_print(e.args[1], 3)}"
    elif k == "pow":
        n = e.payload
        if n < 0:
            return _print(div(ONE, powi(e.args[0], -n)), prec)
        s = f"{_print(e.args[0], 4)}^{n}"
        return f"({s})" if prec > 3 else s
    else:
        return f"{k}({_print(e.args[0], 0)})"
    return f"({s})" if prec >= _PREC[k] + 1 else s


def to_string(e: Expr) -> str:
    """Grammar-conformant text; parse(to_string(e)) evaluates identically."""
    return _print(e, 0)
