import gc
import math
import sys
import weakref
from fractions import Fraction

import numpy as np
import pytest
from jet_reference import Jet, walk

from hemifol import expr as ex


def test_parse_five_term_sum():
    e = ex.parse("a*x + a*y + x*y - c1*x^3 - c2*y^3")
    b = dict(a=0.5, x=1.0, y=2.0, c1=0.1, c2=0.2)
    # 0.5 + 1.0 + 2.0 - 0.1 - 1.6
    assert ex.evaluate(e, b) == pytest.approx(1.8)
    assert ex.free_variables(e) == {"a", "x", "y", "c1", "c2"}


def test_parse_zero():
    assert ex.evaluate(ex.parse("0"), {}) == 0.0


def test_parse_ln_over_sum():
    e = ex.parse("ln(1+w3)/2")
    assert ex.evaluate(e, {"w3": 1.0}) == pytest.approx(math.log(2) / 2)


def test_parse_decimal_is_exact():
    e = ex.parse("0.75")
    assert e.payload == Fraction(3, 4)


def test_parse_errors_carry_offset():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("a + * b")
    assert err.value.offset == 4
    with pytest.raises(ex.ReservedNameError):
        ex.parse("ln + 1")
    with pytest.raises(ex.ParseError):
        ex.parse("a + (b")


@pytest.mark.parametrize("text, message", [
    ("x $ y", "unexpected character '$' (at offset 2)"),
    ("x y", "trailing input 'y' (at offset 2)"),
    ("x^y", "expected integer exponent (at offset 2)"),
    ("x^1.5", "expected integer exponent (at offset 2)"),
    ("", "unexpected end of input (at offset 0)"),
    ("x+", "unexpected end of input (at offset 2)"),
    ("2*", "unexpected end of input (at offset 2)"),
    ("sin(", "unexpected end of input (at offset 4)"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(ex.ParseError) as err:
        ex.parse(text)
    assert str(err.value) == message


def test_diff_power():
    d = ex.diff(ex.parse("x^3"), "x")
    for x in (0.3, -1.2, 2.0):
        assert ex.evaluate(d, {"x": x}) == pytest.approx(3 * x * x)


def test_diff_ln():
    d = ex.diff(ex.parse("ln(1+w3)"), "w3")
    for t in (0.0, 0.5, 0.9):
        assert ex.evaluate(d, {"w3": t}) == pytest.approx(1 / (1 + t))


def test_diff_of_constant_is_zero():
    assert ex.diff(ex.parse("3/7"), "x") is ex.ZERO
    assert ex.diff(ex.pi, "x") is ex.ZERO


def test_derivative_that_holds_its_node_is_freed_by_refcount():
    # d sqrt(a) contains sqrt(a); no node keeps its derivative, so neither
    # waits for the cyclic collector
    gc.collect()
    gc.disable()
    try:
        e = ex.sqrt(ex.parse("x^2 + 7"))
        d = ex.diff(e, "x")
        probes = [weakref.ref(e), weakref.ref(d)]
        del e, d
        assert [r() for r in probes] == [None, None]
    finally:
        gc.enable()


def test_eval_direct_arithmetic():
    p = ex.parse("1 - 15*a^4 + 2*a^6")
    assert ex.evaluate(p, {"a": 0.5}) == 1 - 15 * 0.5 ** 4 + 2 * 0.5 ** 6
    assert ex.evaluate(p, {"a": 0.5}) == pytest.approx(0.09375)
    assert ex.evaluate(p, {"a": 0.52}) == 1 - 15 * 0.52 ** 4 + 2 * 0.52 ** 6
    assert ex.evaluate(p, {"a": 0.52}) < 0


def test_eval_errors():
    with pytest.raises(ex.UnboundVariableError):
        ex.evaluate(ex.parse("x + y"), {"x": 1.0})
    with pytest.raises(ex.DomainError) as err:
        ex.evaluate(ex.parse("ln(x)"), {"x": -1.0})
    assert "ln(x)" in str(err.value)
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("1/x"), {"x": 0.0})
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("artanh(x)"), {"x": 1.0})


def test_eval_vectorized():
    e = ex.parse("x^2 + 1")
    out = ex.evaluate(e, {"x": np.array([1.0, 2.0, 3.0])})
    assert np.allclose(out, [2.0, 5.0, 10.0])


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

def test_jet_square():
    j = ex.evaluate_jet(ex.parse("x^2"), {"x": ex.Jet2(1.0, 1.0, 0.0)})
    assert (j.f, j.d1, j.d2) == (1.0, 2.0, 2.0)


def test_jet_log():
    j = ex.evaluate_jet(ex.parse("ln(1+x)"), {"x": ex.Jet2(0.0, 1.0, 0.0)})
    assert (j.f, j.d1, j.d2) == (0.0, 1.0, -1.0)


def test_jet_sqrt():
    j = ex.evaluate_jet(ex.parse("sqrt(x)"), {"x": ex.Jet2(1.0, 2.0, 0.0)})
    assert j.f == 1.0
    assert j.d1 == pytest.approx(1.0)
    assert j.d2 == pytest.approx(-1.0)


def test_jet_constants_have_zero_derivatives():
    j = ex.evaluate_jet(ex.parse("pi + 3/4"), {})
    assert j.d1 == 0.0 and j.d2 == 0.0
    assert j.f == pytest.approx(math.pi + 0.75)


def test_jet_product_rule_exact():
    rng = np.random.default_rng(1)
    xy = ex.parse("x*y")
    for _ in range(30):
        a = ex.Jet2(*rng.uniform(-2, 2, 3))
        b = ex.Jet2(*rng.uniform(-2, 2, 3))
        prod = ex.evaluate_jet(xy, {"x": a, "y": b})
        assert prod.f == a.f * b.f
        assert prod.d1 == a.f * b.d1 + a.d1 * b.f
        assert prod.d2 == a.f * b.d2 + 2.0 * a.d1 * b.d1 + a.d2 * b.f


# ---------------------------------------------------------------------------
# random expressions: round trip and derivative properties
# ---------------------------------------------------------------------------

def _random_expr(rng, depth=3):
    if depth == 0 or rng.random() < 0.25:
        choice = rng.integers(0, 3)
        if choice == 0:
            return ex.var(str(rng.choice(["x", "y"])))
        if choice == 1:
            return ex.const(Fraction(int(rng.integers(1, 6)),
                                     int(rng.integers(1, 6))))
        return ex.pi
    op = rng.choice(["add", "sub", "mul", "div", "pow", "ln", "sqrt",
                     "sin", "cos", "artanh"])
    a = _random_expr(rng, depth - 1)
    if op == "add":
        return a + _random_expr(rng, depth - 1)
    if op == "sub":
        return a - _random_expr(rng, depth - 1)
    if op == "mul":
        return a * _random_expr(rng, depth - 1)
    if op == "div":
        return a / (1 + _random_expr(rng, depth - 1) ** 2)
    if op == "pow":
        return a ** int(rng.integers(2, 4))
    if op == "ln":
        return ex.ln(1 + a ** 2)
    if op == "sqrt":
        return ex.sqrt(1 + a ** 2)
    if op == "artanh":
        return ex.artanh(a / (2 + 2 * a ** 2))
    return getattr(ex, op)(a)


def test_roundtrip_print_parse():
    rng = np.random.default_rng(7)
    for _ in range(40):
        e = _random_expr(rng)
        e2 = ex.parse(ex.to_string(e))
        pts = {"x": rng.uniform(-1.5, 1.5, 100), "y": rng.uniform(-1.5, 1.5, 100)}
        got = np.broadcast_to(ex.evaluate(e2, pts), (100,))
        want = np.broadcast_to(ex.evaluate(e, pts), (100,))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_symbolic_derivative_vs_finite_difference():
    rng = np.random.default_rng(11)
    h = 1e-5
    checked = 0
    while checked < 50:
        e = _random_expr(rng)
        if "x" not in ex.free_variables(e):
            continue
        d = ex.diff(e, "x")
        x, y = rng.uniform(-1.0, 1.0, 2)
        up = ex.evaluate(e, {"x": x + h, "y": y})
        dn = ex.evaluate(e, {"x": x - h, "y": y})
        fd = (up - dn) / (2 * h)
        sym = ex.evaluate(d, {"x": x, "y": y})
        assert sym == pytest.approx(fd, rel=1e-6, abs=1e-6)
        checked += 1


def test_jet_matches_symbolic_derivatives():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 30:
        e = _random_expr(rng)
        if "x" not in ex.free_variables(e):
            continue
        x0, y0 = rng.uniform(-1.0, 1.0, 2)
        jet = ex.evaluate_jet(e, {"x": ex.Jet2(x0, 1.0, 0.0),
                                  "y": ex.Jet2(y0, 0.0, 0.0)})
        d1 = ex.evaluate(ex.diff(e, "x"), {"x": x0, "y": y0})
        d2 = ex.evaluate(ex.diff(ex.diff(e, "x"), "x"), {"x": x0, "y": y0})
        assert jet.d1 == pytest.approx(d1, rel=1e-10, abs=1e-10)
        assert jet.d2 == pytest.approx(d2, rel=1e-10, abs=1e-10)
        checked += 1


def test_derivatives_of_freed_and_rebuilt_nodes():
    # nodes die with their last user, and new nodes may take their ids: each
    # diff keeps its memo for the call only, so a rebuilt or new expression
    # never reads a dead node's derivative; each diff must match the jet walk
    xs, ys = np.linspace(-0.9, 0.9, 13), np.linspace(0.8, -0.7, 13)

    def build(seed):
        rng = np.random.default_rng(seed)
        return [e for e in (_random_expr(rng, 4) for _ in range(60))
                if "x" in ex.free_variables(e)]

    def check(roots):
        for e in roots:
            got = ex.evaluate(ex.diff(e, "x"), {"x": xs, "y": ys})
            want = ex.evaluate_jet(e, {"x": ex.Jet2(xs, 1.0, 0.0), "y": ys}).d1
            assert np.allclose(got, want, rtol=1e-9, atol=1e-9), ex.to_string(e)

    texts = [ex.to_string(e) for e in build(29)]
    for seed in (29, 31, 37, 29):
        roots = build(seed)
        check(roots)
        # a small root may also be some module's constant
        probes = [weakref.ref(e) for e in roots if len(ex._postorder((e,))) > 5]
        del roots
        gc.collect()
        assert probes and all(r() is None for r in probes)
    roots = [ex.parse(t) for t in texts]
    check(roots)
    # interning holds while the first result lives
    for t, e in zip(texts, roots):
        assert ex.parse(t) is e


def test_diff_of_a_sequence_is_the_list_of_single_diffs():
    rng = np.random.default_rng(17)
    roots = [_random_expr(rng, 4) for _ in range(40)]
    for name in ("x", "y"):
        got = ex.diff(roots, name)
        assert isinstance(got, list) and len(got) == len(roots)
        assert all(g is ex.diff(r, name) for g, r in zip(got, roots))
    assert ex.diff((), "x") == []


def test_substitute():
    e = ex.parse("a*x + b")
    s = ex.substitute(e, {"a": ex.const(2), "b": ex.parse("x^2")})
    assert ex.evaluate(s, {"x": 3.0}) == pytest.approx(15.0)


def test_artanh_representable():
    # the homogeneous ODE solution artanh(cos theta) - 1 must be expressible
    e = ex.artanh(ex.cos(ex.var("theta"))) - 1
    val = ex.evaluate(e, {"theta": math.pi / 3})
    assert val == pytest.approx(math.atanh(0.5) - 1.0)


def test_cot():
    e = ex.cot(ex.var("x"))
    assert ex.evaluate(e, {"x": math.pi / 4}) == pytest.approx(1.0)
    d = ex.diff(e, "x")
    assert ex.evaluate(d, {"x": math.pi / 4}) == pytest.approx(-2.0)


# ---------------------------------------------------------------------------
# deep expressions: every walk is iterative
# ---------------------------------------------------------------------------

N_DEEP = 1500
HARMONIC = sum(1.0 / i for i in range(1, N_DEEP + 1))


def _deep_sum():
    """x*y + sum_{i <= N} x^3/(1000 i), a left-deep chain of N additions."""
    e = ex.parse("x*y")
    for i in range(1, N_DEEP + 1):
        e = e + ex.var("x") ** 3 / (1000 * i)
    return e


def _deep_product():
    """x*x*...*x with N + 1 factors, a left-deep chain of N products."""
    x = ex.var("x")
    e = x
    for _ in range(N_DEEP):
        e = e * x
    return e


def test_deep_sum_through_every_walk():
    e = _deep_sum()
    x, y = 0.5, 0.25
    c = HARMONIC / 1000.0
    assert ex.evaluate(e, {"x": x, "y": y}) == pytest.approx(x * y + c * x ** 3, rel=1e-12)
    jet = ex.evaluate_jet(e, {"x": ex.Jet2(x, 1.0, 0.0), "y": y})
    assert jet.f == pytest.approx(x * y + c * x ** 3, rel=1e-12)
    assert jet.d1 == pytest.approx(y + 3 * c * x ** 2, rel=1e-12)
    assert jet.d2 == pytest.approx(6 * c * x, rel=1e-12)
    dx = ex.diff(e, "x")
    assert ex.evaluate(dx, {"x": x, "y": y}) == pytest.approx(y + 3 * c * x ** 2, rel=1e-12)
    s = ex.substitute(e, {"y": ex.const(2)})
    assert ex.evaluate(s, {"x": x}) == pytest.approx(2 * x + c * x ** 3, rel=1e-12)
    assert ex.free_variables(e) == {"x", "y"}
    text = ex.to_string(e)
    assert text.startswith("x*y + x^3/1000 + x^3/2000 + x^3/3000 + ")
    assert text.endswith(" + x^3/1500000")
    assert ex.parse(text) is e


def test_deep_product_through_every_walk():
    e = _deep_product()
    n = N_DEEP + 1
    x = 1.0005
    assert ex.evaluate(e, {"x": x}) == pytest.approx(x ** n, rel=1e-11)
    jet = ex.evaluate_jet(e, {"x": ex.Jet2(x, 1.0, 0.0)})
    assert jet.f == pytest.approx(x ** n, rel=1e-11)
    assert jet.d1 == pytest.approx(n * x ** (n - 1), rel=1e-11)
    assert jet.d2 == pytest.approx(n * (n - 1) * x ** (n - 2), rel=1e-11)
    dx = ex.diff(e, "x")
    assert ex.evaluate(dx, {"x": x}) == pytest.approx(n * x ** (n - 1), rel=1e-11)
    s = ex.substitute(e, {"x": ex.parse("2*y")})
    assert ex.evaluate(s, {"y": x / 2}) == pytest.approx(x ** n, rel=1e-11)
    assert ex.free_variables(e) == {"x"}
    text = ex.to_string(e)
    assert text == "*".join(["x"] * n)
    assert ex.parse(text) is e


# ---------------------------------------------------------------------------
# several roots over one memo
# ---------------------------------------------------------------------------

def _bits(v):
    parts = (v.f, v.d1, v.d2) if isinstance(v, (ex.Jet2, Jet)) else (v,)
    return [(np.shape(p), np.asarray(p, dtype=float).tobytes()) for p in parts]


def _lift(v):
    """A plain value as a jet binding with zero derivative parts."""
    return v if isinstance(v, ex.Jet2) else ex.Jet2(v)


def _reference(b):
    """Bindings for :func:`jet_reference.walk`: each jet a ``Jet``."""
    return {k: Jet(v.f, v.d1, v.d2) if isinstance(v, ex.Jet2) else v for k, v in b.items()}


def test_multi_root_evaluate_matches_single_roots():
    rng = np.random.default_rng(17)
    roots = [_random_expr(rng) for _ in range(40)]
    xs, ys = rng.uniform(-1.5, 1.5, 64), rng.uniform(-1.5, 1.5, 64)
    for b in ({"x": xs, "y": ys},
              {"x": ex.Jet2(xs, 1.0, 0.0), "y": ex.Jet2(ys, 0.5, -1.0)},
              {"x": 0.3, "y": -0.7}):
        together = ex.evaluate(roots, b)
        assert len(together) == len(roots)
        for e, got in zip(roots, together):
            assert _bits(got) == _bits(ex.evaluate(e, b)), ex.to_string(e)


# ---------------------------------------------------------------------------
# values are dropped after their last read, against a walk that keeps them
# ---------------------------------------------------------------------------

def _kept(e, b):
    """``e`` evaluated with every node of its DAG a root, so that every
    value is kept to the end of the walk."""
    return ex.evaluate(ex._postorder((e,)), b)[-1]


def _kept_jet(e, b):
    """``evaluate_jet`` by :func:`_kept` with every binding lifted to a
    jet, so that every node reading a variable, eps-free or not, does jet
    arithmetic."""
    return _kept(e, {k: _lift(v) for k, v in b.items()})


def _bits_unsigned_zero(v):
    """:func:`_bits` with -0.0 read as 0.0.  A product with a plain factor
    skips the zero term the lifted factor added, which can leave an exact
    zero derivative with the other sign (the s = 0 row of vol_integrand);
    no value of a jet walk is divided by a derivative part."""
    return [(shape, (np.frombuffer(raw) + 0.0).tobytes()) for shape, raw in _bits(v)]


_FIELD_SETS = {"u_and_g": (True, True), "u_only": (True, False), "g_only": (False, True)}

# ids: the field name alone for the Willmore (u', g') set, the first one
# this test covered, and case-set-name for the others
_VARIATIONAL_FIELDS = [
    pytest.param(case, field_set, name,
                 id=name if (case, field_set) == ("willmore", "u_and_g")
                 else f"{case}-{field_set}-{name}")
    for case in ("willmore", "cmc") for field_set in _FIELD_SETS
    for name in ("radicand", "density", "W_density", "vol_integrand", "B1")]


@pytest.mark.parametrize("case, field_set, name", _VARIATIONAL_FIELDS)
def test_release_matches_kept_memo_on_variational_fields(case, field_set, name):
    # the field sets of second_derivative_terms: (u', g'), (u', 0), (0, g').
    # With every binding lifted, the release path has the kept memo's bits.
    # With eps-free bindings plain, eps-free subexpressions stay plain, and
    # the values equal the lifted walk's but for the sign of exact zeros
    from hemifol import linearized as lin
    from hemifol import quadrature as hq
    from hemifol import variational as va

    with_u, with_g = _FIELD_SETS[field_set]
    fields = va._build_fields(lin.uprime_expr(case) if with_u else ex.ZERO,
                              va.metric_first_order() if with_g else va.metric_zero())
    t, phi, _ = hq.QuadratureGrid(16, 32).nodes()
    b = {"t": t, "phi": phi, **va._bindings(1.0, -0.5, 0.0, va._EPS_JET)}
    if name == "vol_integrand":
        b = {"t": t[None, :], "phi": phi[None, :],
             **va._bindings(1.0, -0.5, 0.0, va._EPS_JET)}
        b["s"] = np.linspace(0.0, 1.0, 5)[:, None]
    # names, not the fields, in the assertions: printing a field expands
    # its DAG into a tree of hundreds of MB
    shape = np.broadcast_shapes(*(np.shape(v) for v in b.values()))
    lifted = {k: _lift(v) for k, v in b.items()}
    want = _kept_jet(fields[name], b)
    assert _bits(ex.evaluate_jet(fields[name], lifted)) == _bits(want)
    assert _bits(want) == _bits(walk(fields[name], _reference(lifted)))
    assert _bits(want)[2][0] == shape
    # the bindings as variational passes them, eps-free ones plain
    got = ex.evaluate_jet(fields[name], b)
    assert _bits(got) == _bits(walk(fields[name], _reference(b)))
    assert _bits_unsigned_zero(got) == _bits_unsigned_zero(want)
    if name != "vol_integrand":
        assert _bits(got) == _bits(want)
    assert _bits(got)[2][0] == shape


def _broadcast_bits(*jets):
    """Bytes of each jet's parts broadcast to one shape, -0.0 read as 0.0."""
    parts = [(j.f, j.d1, j.d2) for j in jets]
    shape = np.broadcast_shapes(*(np.shape(p) for ps in parts for p in ps))
    return [[(np.broadcast_to(p, shape) + 0.0).tobytes() for p in ps] for ps in parts]


def test_plain_bindings_match_lifted_on_random_corpus():
    # y plain: every y-only subexpression stays a float or array; the
    # result has the bits of the walk with y lifted to a jet of zero
    # derivatives, but for the sign of exact zeros (see _bits_unsigned_zero)
    rng = np.random.default_rng(19)
    roots = [_random_expr(rng) for _ in range(40)]
    xs, ys = rng.uniform(-1.5, 1.5, 64), rng.uniform(-1.5, 1.5, 64)
    plain_quotients = 0
    for x, y in ((ex.Jet2(xs, 1.0, 0.0), ys), (ex.Jet2(0.3, 1.0, -0.5), -0.7),
                 (ex.Jet2(xs, 0.5, -1.0), 0.4)):
        for e in roots:
            b = {"x": x, "y": y}
            got = ex.evaluate_jet(e, b)
            assert _bits(got) == _bits(walk(e, _reference(b))), ex.to_string(e)
            got, want = _broadcast_bits(got, ex.evaluate_jet(e, {"x": x, "y": ex.Jet2(y)}))
            assert got == want, ex.to_string(e)
        for e in roots:
            (_, code, *_), nodes = ex._compile((e,))
            plain_quotients += sum(op == ex._DIV and "x" not in ex.free_variables(nodes[b])
                                   for op, _, _, b, _ in code)
    assert plain_quotients > 0
    # a plain operand on the left of a jet, an array, a float or a numpy
    # float, has the bits of the jet with zero derivative parts there
    j = ex.Jet2(xs, 1.0, 0.5)
    for left in (ys, 0.5, np.float64(0.5)):
        for text in ("y + x", "y - x", "y*x", "y/x"):
            e = ex.parse(text)
            got = ex.evaluate_jet(e, {"x": j, "y": left})
            assert _bits(got) == _bits(walk(e, _reference({"x": j, "y": left})))
            got, want = _broadcast_bits(got, ex.evaluate_jet(e, {"x": j, "y": ex.Jet2(left)}))
            assert got == want


def test_release_edge_cases():
    x, y = ex.var("x"), ex.var("y")
    xs = np.linspace(0.1, 0.9, 7)
    b = {"x": xs, "y": 2.0 * xs}
    # one argument read twice by one node
    a = ex.sin(x) + ex.ONE
    sq = ex.mul(a, a)
    assert sq.args[0] is sq.args[1]
    assert _bits(ex.evaluate(sq, b)) == _bits((np.sin(xs) + 1.0) * (np.sin(xs) + 1.0))
    # a bare variable is its own value
    assert ex.evaluate(x, b) is xs
    assert ex.evaluate_jet(x, {"x": ex.Jet2(xs, 1.0, 0.0)}).f is xs
    # the program drops each computed value but the root's once, holds no
    # node, and serves a second evaluation; a jet walk runs the program of
    # its quotient rule, one slot per node, with the same drops
    e = ex.ln(sq + y) * ex.cos(a) - a / (y + ex.ONE)
    jb = {"x": ex.Jet2(xs, 1.0, 0.0), "y": 2.0 * xs}
    for bindings, recip in ((jb, True), (b, False)):
        first = ex.evaluate(e, bindings)
        refs, key, program = e.program
        (slots, code, outs, _), nodes = ex._compile((e,), recip)
        assert refs == () and key is recip and program == (slots, code, outs, recip)
        assert outs == (len(nodes) - 1,) and len(slots) == len(nodes)
        drops = sorted(k for *_, d in code for k in d or ())
        assert drops == [i for i, n in enumerate(nodes) if n.args and n is not e]
        assert not any(isinstance(x, ex.Expr) for part in (slots, *code) for x in part)
        assert _bits(first) == _bits(_kept(e, bindings))
        assert _bits(ex.evaluate(e, bindings)) == _bits(first)
        assert e.program[2] is program
    # a root evaluated alone, then as a subtree of a later root
    later = ex.sqrt(e * e + ex.ONE) + e
    want = _kept(later, b)
    assert _bits(ex.evaluate(later, b)) == _bits(want)
    together = ex.evaluate([e, later], b)
    assert _bits(together[0]) == _bits(first)
    assert _bits(together[1]) == _bits(want)


def test_multi_root_drops_all_but_the_roots():
    x, y = ex.var("x"), ex.var("y")
    shared = ex.sin(x * y) + ex.ONE
    first, second = shared * shared, ex.sqrt(shared + y * y) - x
    xs = np.linspace(0.1, 0.9, 7)
    for b, recip in (({"x": xs, "y": 0.5}, False), ({"x": ex.Jet2(xs, 1.0, 0.0), "y": 0.5}, True)):
        (_, code, outs, _), nodes = ex._compile((first, second), recip)
        drops = sorted(k for *_, d in code for k in d or ())
        assert drops == [i for i, n in enumerate(nodes)
                         if n.args and n is not first and n is not second]
        got = ex.evaluate([first, second, first], b)
        assert [_bits(v) for v in got] == [_bits(ex.evaluate(e, b)) for e in (first, second, first)]
        assert ex.evaluate([], b) == []


def test_program_rebuilt_when_a_co_root_dies():
    # keyed weakly by the other roots: a co-root rebuilt after it died, at
    # whatever address, gets a new program, and the cache keeps no co-root
    x, y = ex.var("x"), ex.var("y")
    head = ex.cos(x) * y
    b = {"x": 0.25, "y": -1.5}
    text = "sqrt(1 + x^2) / (2 + y) + 3*x"
    co = ex.parse(text)
    probe = weakref.ref(co)
    want = ex.evaluate([head, co], b)
    program = head.program[2]
    assert ex.evaluate([head, co], b) == want and head.program[2] is program
    del co
    assert probe() is None
    co = ex.parse(text)
    assert ex.evaluate([head, co], b) == want
    assert head.program[2] is not program
    program = head.program[2]
    # another co-root, and the head alone, each replace the program
    assert ex.evaluate([head, ex.sin(y)], b)[1] == ex.evaluate(ex.sin(y), b)
    assert head.program[2] is not program
    assert ex.evaluate(head, b) == want[0] and head.program[0] == ()


def test_program_cache_is_keyed_by_the_layout():
    # a program's layout is its quotient rule alone.  One root tuple walked
    # plain, with x and y jets, with x alone a jet and plain again: each
    # walk returns the values of its own walk, whatever the cached program
    # was compiled for
    head, co = ex.parse("x*sin(y) + 1/(2 + x*y)"), ex.parse("y^3/7")
    roots = [head, co]
    both = {"x": ex.Jet2(0.3, 1.0, 0.0), "y": ex.Jet2(-0.5, 0.5, 0.25)}
    one = {"x": ex.Jet2(0.3, 1.0, 0.0), "y": -0.5}
    plain = {"x": 0.3, "y": -0.5}
    walks = [(b, ex.evaluate(roots, b)) for b in (plain, both, one, plain)]
    assert head.program[1] is False
    for b, got in walks:
        assert [_bits(v) for v in got] == [_bits(walk(e, _reference(b))) for e in roots]
    assert type(walks[0][1][0]) is float and walks[0][1] == walks[3][1]
    assert isinstance(walks[1][1][1].d1, float) and walks[2][1][1].d1 == 0.0
    # evaluate_jet without a jet binding and jet walks of any jet bindings
    # take one quotient rule, so they share one program
    ex.evaluate_jet(head, plain)
    program = head.program[2]
    for b in (both, one):
        assert _bits(ex.evaluate(head, b)) == _bits(walk(head, _reference(b)))
        assert _bits(ex.evaluate_jet(head, b)) == _bits(walk(head, _reference(b)))
        assert head.program[2] is program
    # a cached program never answers a walk with the other quotient rule:
    # pi/13 is pi * (1/13) in evaluate_jet, also with no jet binding
    pi13 = ex.parse("pi/13")
    assert ex.evaluate(pi13, {}) == math.pi / 13
    assert ex.evaluate_jet(pi13, {}).f == math.pi * (1.0 / 13)
    assert ex.evaluate(pi13, {}) == math.pi / 13
    assert ex.evaluate(pi13, {"x": ex.Jet2(0.5, 1.0, 0.0)}).f == math.pi * (1.0 / 13)


def test_jet_program_drops_every_slot_of_its_values():
    # a jet walk runs the plain program, one slot per node: each computed
    # value but the roots' is dropped after its last read, jet or plain,
    # and the program holds no node
    class Recording(list):
        def copy(self):
            self.run = list(self)
            return self.run

    x, y = ex.var("x"), ex.var("y")
    shared = ex.sin(x * y) + ex.ONE
    first, second = shared * shared, ex.sqrt(shared + y * y) - ex.cos(y * y) / 3
    b = {"x": ex.Jet2(0.5, 1.0, 0.0), "y": 0.25}
    (slots, code, outs, recip), nodes = ex._compile((first, second), True)
    assert recip and len(slots) == len(nodes)
    assert not any(isinstance(part, ex.Expr) for ins in code for part in ins)
    recording = Recording(slots)
    got = ex._run((recording, code, outs, recip), b)
    dropped = [k for k, value in enumerate(recording.run) if value is None]
    assert dropped == [i for i, n in enumerate(nodes) if n.args and i not in outs]
    assert all(isinstance(j, ex.Jet2) for j in got)
    assert [_bits(j) for j in got] == [_bits(_kept(e, b)) for e in (first, second)]


def test_jet_bindings_take_the_jet_quotient_rule():
    # evaluate with a jet binding gives, per root, the bits of evaluate_jet,
    # a plain quotient taken as a * (1/b) (pi/13 is where that shows)
    rng = np.random.default_rng(23)
    roots = [_random_expr(rng) for _ in range(30)]
    roots += [ex.parse(t) for t in ("pi/3", "pi/13", "x*(pi/13) + 1/(2 + y^2)", "7/3")]
    xs, ys = rng.uniform(-1.5, 1.5, 64), rng.uniform(-1.5, 1.5, 64)
    for b in ({"x": ex.Jet2(xs, 1.0, 0.0), "y": ys},
              {"x": ex.Jet2(0.3, 1.0, -0.5), "y": ex.Jet2(-0.7, 0.5, 0.0)},
              {"x": ex.Jet2(0.3, 1.0, 0.0), "y": -0.7}):
        together = ex.evaluate(roots, b)
        for e, got in zip(roots, together):
            assert _bits(got) == _bits(ex.evaluate_jet(e, b)), ex.to_string(e)
    pi13 = ex.parse("pi/13")
    assert ex.evaluate(pi13, {"x": ex.Jet2(0.5, 1.0, 0.0)}).f == math.pi * (1.0 / 13)
    assert ex.evaluate(pi13, {"x": 0.5}) == math.pi / 13 != math.pi * (1.0 / 13)


def test_release_domain_error_names_its_node():
    x = ex.var("x")
    head = ex.sin(x) * ex.cos(x) + x ** 2      # walked and dropped first
    bad = ex.ln(x - ex.const(2))
    e = head + bad * ex.sqrt(x)
    with pytest.raises(ex.DomainError) as err:
        ex.evaluate(e, {"x": np.array([1.0, 3.0])})
    assert err.value.subtree is bad
    assert str(err.value) == "ln of non-positive value in subexpression 'ln(x - 2)'"
    # the program cached by the failed run serves the next one
    assert ex.evaluate(e, {"x": 3.0}) == ex.evaluate([e], {"x": 3.0})[0]


def test_w_density_jet_peak_memory():
    # intermediates are dropped at their last read; a walk that keeps every
    # jet of the 1,232-node DAG peaks at about 240 MB
    import tracemalloc

    from hemifol import linearized as lin
    from hemifol import quadrature as hq
    from hemifol import variational as va

    fields = va._build_fields(lin.uprime_expr("willmore"), va.metric_first_order())
    t, phi, _ = hq.QuadratureGrid(64, 128).nodes()
    b = {"t": t, "phi": phi, **va._bindings(1.0, 1.0, 0.0, va._EPS_JET)}
    tracemalloc.start()
    try:
        ex.evaluate_jet(fields["W_density"], b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80e6, peak / 1e6

# ---------------------------------------------------------------------------
# printing: byte-identical to the recursive printer
# ---------------------------------------------------------------------------

_REF_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "pow": 3}


def _ref_frac(x):
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _reference_print(e, prec=0):
    """The recursive printer the iterative one replaced, kept as the reference."""
    k = e.kind
    if k == "const":
        x = e.payload
        if x < 0:
            s = f"0 - {_ref_frac(-x)}"
            return f"({s})" if prec >= 1 else s
        s = _ref_frac(x)
        return f"({s})" if x.denominator != 1 and prec > 2 else s
    if k == "pi":
        return "pi"
    if k == "var":
        return e.payload
    if k == "add":
        s = f"{_reference_print(e.args[0], 1)} + {_reference_print(e.args[1], 1)}"
    elif k == "sub":
        s = f"{_reference_print(e.args[0], 1)} - {_reference_print(e.args[1], 2)}"
    elif k == "mul":
        s = f"{_reference_print(e.args[0], 2)}*{_reference_print(e.args[1], 2)}"
    elif k == "div":
        s = f"{_reference_print(e.args[0], 2)}/{_reference_print(e.args[1], 3)}"
    elif k == "pow":
        n = e.payload
        if n < 0:
            return _reference_print(ex.div(ex.ONE, ex.powi(e.args[0], -n)), prec)
        s = f"{_reference_print(e.args[0], 4)}^{n}"
        return f"({s})" if prec > 3 else s
    else:
        return f"{k}({_reference_print(e.args[0], 0)})"
    return f"({s})" if prec >= _REF_PREC[k] + 1 else s


def test_to_string_matches_recursive_printer():
    rng = np.random.default_rng(19)
    corpus = []
    for _ in range(150):
        e = _random_expr(rng)
        c = ex.const(Fraction(-int(rng.integers(1, 9)), int(rng.integers(1, 9))))
        r = ex.const(Fraction(int(rng.integers(1, 9)), int(rng.integers(2, 9))))
        # negative powers, and negative and rational constants in every context
        corpus += [e, e ** -1, e ** -3, (e ** -2) ** 2, c - e, e - c, c * e, e * c,
                   e / c, e / r, r / e, r ** 2 * e, (e + c) ** 3, ex.sin(c * e),
                   e ** -2 / r, c + e ** -1]
    for e in corpus:
        assert ex.to_string(e) == _reference_print(e)


# ---------------------------------------------------------------------------
# constants, the parser's nesting cap
# ---------------------------------------------------------------------------

def test_constants_carry_their_float(monkeypatch):
    e = ex.parse("3/7*x^2 - 5/11*x + 2/3 + pi")

    def no_conversion(self):
        raise AssertionError("Fraction converted to float during evaluation")

    monkeypatch.setattr(Fraction, "__float__", no_conversion)
    x = 0.3
    assert ex.evaluate(e, {"x": x}) == pytest.approx(
        3 / 7 * x * x - 5 / 11 * x + 2 / 3 + math.pi, rel=1e-15)


def test_constant_beyond_float_range_is_a_domain_error():
    e = ex.parse("10^400*x")
    with pytest.raises(ex.DomainError) as err:
        ex.evaluate(e, {"x": 1.0})
    assert "constant outside the float range" in str(err.value)


def test_constants_within_the_digit_limit():
    # a constant whose numerator or denominator has more digits than str()
    # of an int allows is refused, exactly past the limit
    limit = sys.get_int_max_str_digits()
    big = 10 ** limit
    for x in (Fraction(big - 1), Fraction(1, big - 1), Fraction(-(big - 1), 7)):
        assert ex.to_string(ex.const(x))
    for x in (Fraction(big), Fraction(1, big), Fraction(-big, 7), big):
        with pytest.raises(ex.ExprError) as err:
            ex.const(x)
        assert str(err.value) == f"constant of more than {limit} digits"
    # a product of two folded constants is checked too
    with pytest.raises(ex.ExprError):
        ex.parse(f"{'9' * (limit // 2 + 1)}*{'9' * (limit // 2 + 1)}*x")
    # a text's exponent is checked before Fraction builds its power of ten
    for text in ("1e999999", "-2.5e-999_999", f"1e{limit}", "7E+99999 "):
        with pytest.raises(ex.ExprError) as err:
            ex.const(text)
        assert str(err.value) == f"constant of more than {limit} digits"
    assert ex.const(f"0.001e{limit + 2}").payload == 10 ** (limit - 1)


@pytest.mark.parametrize("text, power", [
    ("3^999999*x", "3^999999"), ("x + 2^-999999", "1/2^999999"),
    ("(1/3)^999999 - x", "(1/3)^999999"), ("(0-7)^999999*x", "(0 - 7)^999999")],
    ids=["3", "2", "1/3", "-7"])
def test_power_past_the_digit_limit_refused(text, power):
    # refused from the bit lengths, before the power is computed
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ex.DomainError) as err:
        ex.parse(text)
    assert str(err.value) == (f"constant of more than {limit} digits in "
                              f"subexpression '{power}'")


def test_power_just_past_the_digit_limit_refused():
    # 10^limit is computed, and const() refuses it
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ex.ExprError) as err:
        ex.parse(f"10^{limit}*x")
    assert str(err.value) == f"constant of more than {limit} digits"
    assert ex.parse(f"10^{limit - 1}*x").args[0].payload == 10 ** (limit - 1)


def test_digit_limit_follows_the_interpreter():
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        assert ex.const(Fraction(10 ** 5000)).payload == 10 ** 5000
        assert ex.parse("7^6000*x") is not None
        sys.set_int_max_str_digits(1000)
        with pytest.raises(ex.ExprError, match="more than 1000 digits in subexpression '7"):
            ex.parse("7^2000*x")
    finally:
        sys.set_int_max_str_digits(limit)


def test_zero_to_a_negative_power_is_not_folded():
    # like a division by a constant zero, left to evaluation
    e = ex.parse("0^-1*x")
    with pytest.raises(ex.DomainError) as err:
        ex.evaluate(e, {"x": 1.0})
    assert str(err.value) == "division by zero in subexpression '1/0'"
    assert ex.parse("0^3") is ex.ZERO


def test_constants_interned_by_value():
    half = ex.const(Fraction(1, 2))
    assert ex.const(Fraction(2, 4)) is half
    assert ex.parse("0.5") is half
    assert ex.const("1/2") is half
    assert ex.const(2) is ex.const(Fraction(2))
    assert ex.const(2.0) is ex.const(2)
    assert ex.const(Fraction(-3, 6)) is not half
    assert ex.const(Fraction(-3, 6)).payload == Fraction(-1, 2)


def test_dropped_constant_is_freed_and_swept():
    c = ex.const(Fraction(123457, 987653))
    key = ("const", 123457, 987653)
    assert ex._TABLE[key]() is c
    probe = weakref.ref(c)
    del c
    gc.collect()
    assert probe() is None
    ex._sweep()
    assert key not in ex._TABLE


def test_float_overflow_is_a_domain_error():
    e = ex.parse("x^2")
    with pytest.raises(ex.DomainError) as err:
        ex.evaluate(e, {"x": 1e200})
    assert str(err.value) == "value outside the float range in subexpression 'x^2'"
    assert err.value.subtree is e
    # arrays overflow to inf, as before
    with np.errstate(over="ignore"):
        assert ex.evaluate(e, {"x": np.array([1e200])})[0] == math.inf
    for jet in (ex.Jet2(1e200, 1.0, 0.0), ex.Jet2(1e200, np.array([1.0, 0.0]), 0.0)):
        with pytest.raises(ex.DomainError) as err:
            ex.evaluate_jet(e, {"x": jet})
        assert err.value.subtree is e


def test_underflowed_jet_divisor_is_a_domain_error():
    # 1/x of a jet divides by x*x, which underflows to 0 at x = 1e-200
    e = ex.parse("1 + 1/x")
    for jet in (ex.Jet2(1e-200, 1.0, 0.0), ex.Jet2(1e-200, np.array([1.0, 0.0]), 0.0)):
        with pytest.raises(ex.DomainError) as err:
            ex.evaluate_jet(e, {"x": jet})
        assert str(err.value) == "division by zero in subexpression '1/x'"
    assert ex.evaluate(e, {"x": 1e-200}) == 1e200
    # the derivative of sqrt at an exact 0
    with pytest.raises(ex.DomainError) as err:
        ex.evaluate_jet(ex.parse("sqrt(x)"), {"x": ex.Jet2(0.0, 1.0, 0.0)})
    assert str(err.value) == "division by zero in subexpression 'sqrt(x)'"


@pytest.mark.filterwarnings("error")
def test_point_walks_return_python_floats():
    e = ex.parse("sin(x)*ln(x) + sqrt(x)*cos(x) - artanh(x/2) + cot(x)")
    assert type(ex.evaluate(e, {"x": 0.5})) is float
    j = ex.evaluate_jet(e, {"x": ex.Jet2(0.5, 1.0, 0.0)})
    assert {type(v) for v in (j.f, j.d1, j.d2)} == {float}
    # products past the float range are inf, with no numpy warning
    big = ex.evaluate_jet(ex.parse("(sqrt(x)*x)*(sqrt(x)*x)*(sqrt(x)*x)"),
                          {"x": ex.Jet2(1e80, 1.0, 0.0)})
    assert big.f == math.inf


@pytest.mark.filterwarnings("error")
def test_cot_pole_is_a_domain_error():
    # cos/sin at sin = 0 gave numpy warnings and inf/NaN; every number type
    # gets the domain check
    e = ex.parse("1 + cot(x - 1/100)")
    for x in (0.01, np.array([0.5, 0.01]), ex.Jet2(0.01, 1.0, 0.0),
              ex.Jet2(np.array([0.5, 0.01]), 1.0, 0.0)):
        with pytest.raises(ex.DomainError) as err:
            ex.evaluate_jet(e, {"x": x})
        assert str(err.value) == "cot at a pole in subexpression 'cot(x - 1/100)'"
    with pytest.raises(ex.DomainError):
        ex.evaluate(e, {"x": 0.01})
    assert math.isfinite(ex.evaluate(e, {"x": 0.5}))


def test_domain_error_message_is_bounded():
    # n doublings of w3 print as 2^n copies of it, 5 * 2^n - 3 characters,
    # inside ln(0 - (...)): quoted when short, measured when long
    def doubled(n):
        e = ex.var("w3")
        for _ in range(n):
            e = ex.add(e, e)
        return ex.ln(ex.sub(ex.ZERO, e))

    with pytest.raises(ex.DomainError) as err:
        ex.evaluate(doubled(3), {"w3": 1.0})
    assert str(err.value) == ("ln of non-positive value in subexpression "
                              f"'{ex.to_string(doubled(3))}'")
    assert len(ex.to_string(doubled(3))) == 5 * 2 ** 3 + 7
    bad = doubled(25)
    with pytest.raises(ex.DomainError) as err:
        ex.evaluate(bad, {"w3": 1.0})
    assert str(err.value) == ("ln of non-positive value in 'ln' subexpression "
                              f"of {5 * 2 ** 25 + 7} characters")
    assert len(str(err.value)) <= 300
    assert err.value.subtree is bad


def test_parse_nesting_cap():
    n = ex.MAX_NESTING
    assert ex.parse("(" * n + "x" + ")" * n) is ex.var("x")
    nested = ex.parse("sin(" * n + "x" + ")" * n)
    want = 0.5
    for _ in range(n):
        want = math.sin(want)
    assert ex.evaluate(nested, {"x": 0.5}) == pytest.approx(want, rel=1e-14)
    for text, offset in [("(" * (n + 1) + "x" + ")" * (n + 1), n),
                         ("(" * 2000 + "x" + ")" * 2000, n),
                         ("1 + " + "ln(" * (n + 1) + "x" + ")" * (n + 1), 4 + 3 * n)]:
        with pytest.raises(ex.ParseError) as err:
            ex.parse(text)
        assert err.value.offset == offset
        assert f"more than {n} nested groups" in str(err.value)


def test_interned_constant_returned_at_once(monkeypatch):
    # const() finds an int or Fraction constant in the intern table before
    # it checks the digit limit or builds a Fraction
    c = ex.const("3/7")
    assert ex.const(Fraction(3, 7)) is c
    assert ex.const(Fraction(6, 14)) is c
    two = ex.const(2)

    def checked():
        raise AssertionError("digit limit read")
    monkeypatch.setattr(ex, "_digit_limit", checked)
    assert ex.const(Fraction(3, 7)) is c
    assert ex.const(2) is two and ex.const(Fraction(2)) is two
    assert ex.const(0) is ex.ZERO and ex.const(Fraction(1)) is ex.ONE


def test_constant_past_the_digit_limit_still_refused():
    limit = sys.get_int_max_str_digits()
    kept = ex.const(10 ** limit - 1)
    for x in (10 ** limit, Fraction(10 ** limit, 3), Fraction(1, 10 ** limit)):
        with pytest.raises(ex.ExprError) as err:
            ex.const(x)
        assert str(err.value) == f"constant of more than {limit} digits"
    assert ex.const(10 ** limit - 1) is kept


def test_identities_tested_before_constants_fold(monkeypatch):
    # ZERO and ONE give the interned operand without Fraction arithmetic
    c = ex.const(Fraction(3, 7))
    with monkeypatch.context() as m:
        m.setattr(ex, "const", None)
        assert ex.add(ex.ZERO, c) is c and ex.add(c, ex.ZERO) is c
        assert ex.mul(ex.ONE, c) is c and ex.mul(c, ex.ONE) is c
        assert ex.mul(ex.ZERO, c) is ex.ZERO and ex.mul(c, ex.ZERO) is ex.ZERO
        assert ex.sub(c, ex.ZERO) is c and ex.sub(c, c) is ex.ZERO
    assert ex.add(c, c) is ex.const(Fraction(6, 7))
    assert ex.sub(ex.ZERO, c) is ex.const(Fraction(-3, 7))
    assert ex.mul(c, c) is ex.const(Fraction(9, 49))


@pytest.mark.filterwarnings("error")
def test_cot_next_to_its_pole_is_a_domain_error():
    # at a nonzero |sin(b)| <= 1/max float, cos(b)/sin(b) overflows
    e = ex.parse("cot(x)")
    tiny = 1e-310
    for x in (tiny, np.array([0.5, tiny]), ex.Jet2(tiny, 1.0, 0.0),
              ex.Jet2(np.array([0.5, -tiny]), 1.0, 0.0),
              ex.Jet2(tiny, np.array([1.0, 0.0]), 0.0)):
        for walk in (ex.evaluate, ex.evaluate_jet):
            with pytest.raises(ex.DomainError) as err:
                walk(e, {"x": x})
            assert str(err.value) == "cot at a pole in subexpression 'cot(x)'"
    edge = 1 / sys.float_info.max
    with pytest.raises(ex.DomainError):
        ex.evaluate(e, {"x": edge})
    assert ex.evaluate(e, {"x": float(np.nextafter(edge, 1.0))}) == pytest.approx(
        sys.float_info.max, rel=1e-15)


@pytest.mark.filterwarnings("error")
def test_cot_jet_whose_derivatives_overflow_is_a_domain_error():
    # past the pole bound cot(b) is finite, but its derivatives -(1 + y^2)
    # and 2 y (1 + y^2) overflow once |y| >= 2^341: a jet raised no error
    # and gave Jet2(1e+200, -inf, nan), with numpy warnings on array parts
    e = ex.parse("cot(x)")
    for x in (ex.Jet2(1e-200, 1.0, 0.0), ex.Jet2(np.array([0.5, 1e-200]), 1.0, 0.0),
              ex.Jet2(-1e-200, 1.0, 0.0), ex.Jet2(1e-200, np.array([1.0, 0.0]), 0.0)):
        with pytest.raises(ex.DomainError) as err:
            ex.evaluate_jet(e, {"x": x})
        assert str(err.value) == "value outside the float range in subexpression 'cot(x)'"
    # the plain value stays finite, and so does the symbolic derivative's
    # refusal: (1 + cot^2) as an expression overflows in its power
    assert ex.evaluate(e, {"x": 1e-200}) == 1e200
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.diff(e, "x"), {"x": 1e-200})
    # at b = 2^-341, cot(b) = 1/b = 2^341 exactly; one float up it is below
    edge = 2.0 ** -341
    with pytest.raises(ex.DomainError):
        ex.evaluate_jet(e, {"x": ex.Jet2(edge, 1.0, 0.0)})
    inside = ex.evaluate_jet(e, {"x": ex.Jet2(float(np.nextafter(edge, 1.0)), 1.0, 0.0)})
    assert all(math.isfinite(part) for part in (inside.f, inside.d1, inside.d2))
    assert inside.d2 == pytest.approx(sys.float_info.max, rel=1e-14)


def test_need_counts_values_held_at_once():
    # Sethi-Ullman numbers: a leaf allocates nothing, an operation its value
    x, y, z, w = (ex.var(n) for n in "xyzw")
    assert x.need == 0 and ex.const(3).need == 0
    assert ex.sin(x).need == 1 and (x * y).need == 1
    assert ((x * y) + (z * w)).need == 2
    assert ((x * y) + z).need == 1
    assert (ex.sin((x * y) + (z * w)) * x).need == 2


def test_evaluation_order_visits_the_larger_need_first():
    # the right operand needs 2 values at once, the left 1: the right
    # subtree is walked first, and the order is children-first, each once
    x, y, z, w = (ex.var(n) for n in "xyzw")
    left, right = x * y, (x * z) + (w * y)
    e = left - right
    order = ex._postorder((e,), by_need=True)
    assert len(order) == len({id(n) for n in order}) == len(ex._postorder((e,)))
    pos = {id(n): i for i, n in enumerate(order)}
    assert all(pos[id(a)] < pos[id(n)] for n in order for a in n.args)
    assert pos[id(right)] < pos[id(left)]
    assert ex._postorder((e,)).index(left) < ex._postorder((e,)).index(right)
    b = {n: np.linspace(0.1, 0.9, 5) * (i + 1) for i, n in enumerate("xyzw")}
    want = b["x"] * b["y"] - (b["x"] * b["z"] + b["w"] * b["y"])
    assert _bits(ex.evaluate(e, b)) == _bits(want)


@pytest.mark.filterwarnings("error")
def test_failing_walk_names_the_leftmost_failure():
    # the walk visits ln(w2 - 8)'s larger subtree first and fails there;
    # the left-to-right walk repeated after it names ln(w1 - 5), as the
    # error always did
    e = ex.parse("w1^2*(ln(w1 - 5) + w2^3*ln(w2 - 8))")
    left, right = e.args[1].args
    order = ex._postorder((e,), by_need=True)
    assert right.need > left.need and order.index(right) < order.index(left)
    for b in ({"w1": 0.5, "w2": 0.5},
              {"w1": np.linspace(0.1, 0.9, 5), "w2": np.linspace(0.2, 0.8, 5)}):
        for walk in (ex.evaluate, ex.evaluate_jet, lambda e, b: ex.evaluate([e], b)):
            with pytest.raises(ex.DomainError) as err:
                walk(e, b)
            assert str(err.value) == ("ln of non-positive value in subexpression "
                                      "'ln(w1 - 5)'")
    with pytest.raises(ex.UnboundVariableError) as err:
        ex.evaluate(ex.parse("a*(b + c*d)"), {})
    assert "'a'" in str(err.value)


def _taylor_seeds(x, y):
    return {"x": ex.Taylor((x, 1.0, 0.0)), "y": ex.Taylor((y, 0.0, 1.0))}


@pytest.mark.parametrize("text, x, message", [
    ("x*y + 1/(x - 1/2)", 0.5, "division by zero in subexpression '1/(x - 1/2)'"),
    ("x*y + (x - 1/4)^-2", 0.25, "division by zero in subexpression '1/(x - 1/4)^2'"),
    ("x*y + (x + 1)^2000", 1.0, "value outside the float range in subexpression '(x + 1)^2000'"),
    ("x*y + ln(x)", -1.0, "ln of non-positive value in subexpression 'ln(x)'"),
    ("y + sqrt(x - 1)", 0.5, "sqrt of negative value in subexpression 'sqrt(x - 1)'"),
    ("artanh(x + y)", 1.0, "artanh outside (-1, 1) in subexpression 'artanh(x + y)'"),
    ("cot(x*y)", 0.0, "cot at a pole in subexpression 'cot(x*y)'"),
], ids=["quotient", "inverse-power", "power-overflow", "ln", "sqrt", "artanh", "cot"])
@pytest.mark.filterwarnings("error")
def test_taylor_walk_fails_where_a_float_walk_does(text, x, message):
    # a Taylor walk checks each value as a float walk does, on the same node
    e = ex.parse(text)
    for bindings in ({"x": x, "y": 0.0}, _taylor_seeds(x, 0.0)):
        with pytest.raises(ex.DomainError) as err:
            ex.evaluate(e, bindings)
        assert str(err.value) == message


@pytest.mark.filterwarnings("error")
def test_taylor_walk_values_and_degrees():
    # the value part is the float walk's value, and a polynomial keeps only
    # the coefficients of its degree
    e = ex.parse("x*y + 3*x^2 - y/2")
    t = ex.evaluate(e, _taylor_seeds(0.25, -0.5))
    assert type(t) is ex.Taylor and len(t) == 6
    assert t[0] == ex.evaluate(e, {"x": 0.25, "y": -0.5})
    assert t == (t[0], -0.5 + 1.5, 0.25 - 0.5, 3.0, 1.0, 0.0)
    assert t.partials() == (t[0], 1.0, -0.25, 6.0, 1.0, 0.0) + (0.0,) * 9
    # a quotient has every coefficient, all Python floats
    q = ex.evaluate(ex.parse("1/(2 + x)"), _taylor_seeds(0.0, 0.0))
    assert len(q) == len(ex._MONOMIALS) and {type(v) for v in q} == {float}
    assert q.partials()[:11] == (0.5, -0.25, 0.0, 0.25, 0.0, 0.0, -0.375, 0.0, 0.0, 0.0, 0.75)
    # a root that no Taylor binding reaches is a float
    assert ex.evaluate([ex.parse("5/2"), e], _taylor_seeds(0.25, -0.5))[0] == 2.5
