"""Command-line front end: moments tables, surface analysis, the example
gallery, expansion verification, linearized solutions and foliation
reports.

Exit codes encode verdicts so CI can assert the dichotomy, and input errors
use codes no verdict uses:

    0   Foliates; every other command succeeded
    1   DoesNotFoliate (analyze), Overlaps (foliate), mismatch
        (verify-expansions)
    2   Inconclusive (analyze; foliate when two leaves touch within the
        computed error of their radial gap)
    64  usage error: unknown command, missing or malformed option, an
        option the command does not take
    65  bad input: unreadable file, expression syntax error, invalid value
        (a degree or leaf count above its bound included), an expression
        that cannot be evaluated (unbound variable, domain error), a
        surface without a nondegenerate critical point in reach, a family
        whose leaf fixed points do not converge

``verify-expansions`` computes the expansion on one fixed quadrature grid
(``variational.EXPANSION_GRID``); each row's ``abs_err`` is the largest
residual of the row's raw values against its recovered and its reference
coefficients (the total row: the distance of the lambda-linear
coefficient from its reference).  Its one setting is ``--tolerance``, the
largest ``abs_err`` that passes (default 1e-7), which must be positive and
finite; no other command takes it.

Input errors print one line to stderr instead of a traceback.  All floats
print with 17 significant digits and identical arguments produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import expr as ex

__all__ = ["main"]

FMT = "%.17g"
EX_USAGE = 64
EX_DATAERR = 65


DEFAULT_TOLERANCE = 1e-7

# the largest table and leaf grid the commands accept: moments at degree
# 150 took 32 s, and foliate on 5000 leaves at most 33 s (a curved v = 0.5
# family, with --rays-csv) on a shared 2-vCPU machine
MAX_DEGREE = 150
MAX_N_LAMBDA = 5000


def _f(x: float) -> str:
    return FMT % x


def _emit(text: str, out):
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands: each imports the modules it runs, and a process loads no other
# ---------------------------------------------------------------------------

def cmd_moments(args) -> int:
    from . import quadrature as hq
    if args.max_degree > MAX_DEGREE:
        raise ValueError(f"max_degree must be at most {MAX_DEGREE}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    if args.boundary:
        writer.writerow(["a", "b", "p_num", "p_den"])
        for (a, b), val in hq.moment_table(args.max_degree, boundary=True):
            writer.writerow([a, b, val.numerator, val.denominator])
    else:
        writer.writerow(["a", "b", "c", "p_num", "p_den"])
        for (a, b, c), val in hq.moment_table(args.max_degree):
            writer.writerow([a, b, c, val.numerator, val.denominator])
    _emit(buf.getvalue(), args.out)
    return 0


_EXIT_BY_VERDICT = {"Foliates": 0, "DoesNotFoliate": 1, "Overlaps": 1,
                    "Inconclusive": 2}


def cmd_analyze(args) -> int:
    from . import graph_surface as gs
    surface = gs.load_surface_file(args.surface)
    data = gs.find_critical_point(surface, tuple(args.guess))
    verdict = gs.foliation_criterion(data, args.case)
    lines = [
        f"surface: {surface.name or args.surface}",
        f"critical point: ({_f(data.point[0])}, {_f(data.point[1])})",
        f"H = {_f(data.H)}   K = {_f(data.K)}",
        f"gradH = ({_f(data.gradH[0])}, {_f(data.gradH[1])})",
        f"hessH = [[{_f(data.hessH[0,0])}, {_f(data.hessH[0,1])}], "
        f"[{_f(data.hessH[1,0])}, {_f(data.hessH[1,1])}]]",
        f"gradK = ({_f(data.gradK[0])}, {_f(data.gradK[1])})",
        f"case: {verdict.case}",
        f"v0 components = ({_f(verdict.v0_component[0])}, {_f(verdict.v0_component[1])})",
        f"v0 norm bracket = [{_f(verdict.v0_norm_lower)}, {_f(verdict.v0_norm_upper)}]",
        f"v0 induced-metric norm = {_f(verdict.v0_norm_induced)}",
        f"verdict: {verdict.verdict}",
        "",
    ]
    _emit("\n".join(lines), args.out)
    return _EXIT_BY_VERDICT[verdict.verdict]


def cmd_gallery(args) -> int:
    from . import graph_surface as gs
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["a", "v0x", "v0y", "v0norm", "verdict"])
    for a in args.a:
        surface = gs.gallery_surface(a)
        data = gs.curvature_at(surface, 0.0, 0.0)
        verdict = gs.foliation_criterion(data, args.case)
        writer.writerow([
            _f(a), _f(verdict.v0_component[0]), _f(verdict.v0_component[1]),
            _f(verdict.v0_norm_lower), verdict.verdict,
        ])
    _emit(buf.getvalue(), args.out)
    return 0


_REFERENCE_TERMS = {
    "willmore": {
        "D1sq": (Fraction(-8, 7), Fraction(0), Fraction(863, 280), Fraction(-3)),
        "D12": (Fraction(23, 14), Fraction(0), Fraction(-291, 560), Fraction(0)),
        "D2sq": (Fraction(4, 21), Fraction(0), Fraction(16, 35), Fraction(0)),
        "D1_u2": (Fraction(0), Fraction(0), Fraction(-4), Fraction(4)),
        "D2_g2": (Fraction(-4, 3), Fraction(0), Fraction(0), Fraction(0)),
    },
    "cmc": {
        "D12": (Fraction(5, 14), Fraction(0), Fraction(-579, 2240), Fraction(0)),
        "D1sq": (Fraction(-31, 270), Fraction(-4, 9),
                 Fraction(2201, 8640), Fraction(1, 9)),
        "D2sq": (Fraction(64, 105), Fraction(0), Fraction(-4, 21), Fraction(0)),
        "D2_g2": (Fraction(-4, 5), Fraction(0), Fraction(4, 15), Fraction(0)),
        "D1_u2": (Fraction(-229, 945), Fraction(4, 9),
                  Fraction(113, 30240), Fraction(-1, 9)),
    },
}

_REFERENCE_TOTALS = {
    "willmore": (Fraction(1), Fraction(0), Fraction(-3, 2), Fraction(1)),
    "cmc": (Fraction(1, 6), Fraction(0), Fraction(-35, 192), Fraction(0)),
}

_REFERENCE_FIRST = {"willmore": -1.0, "cmc": -0.25}


def cmd_verify(args) -> int:
    from . import quadrature as hq
    from . import variational as va
    if not math.isfinite(args.tolerance):
        raise ValueError("tolerance must be finite")
    if args.tolerance <= 0:
        raise ValueError("tolerance must be positive")
    case = args.case
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["term", "K_p", "K_q", "H2_p", "H2_q",
                     "ref_K", "ref_H2", "abs_err", "status"])
    try:
        dec = va.second_derivative_terms(case)
    except (hq.NoRationalFit, va.InconsistentProbes) as err:
        # values the grid cannot pin down: flag and exit nonzero
        writer.writerow(["all", "", "", "", "", "", "",
                         f"unrecoverable: {err}", "FAIL"])
        _emit(buf.getvalue(), args.out)
        return 1
    failures = 0
    for name, want in _REFERENCE_TERMS[case].items():
        tv = dec.terms[name]
        got = (tv.K_coeff.p, tv.K_coeff.q, tv.H2_coeff.p, tv.H2_coeff.q)
        ref = va.FunctionalValue(hq.CoefficientVector(*want[:2]),
                                 hq.CoefficientVector(*want[2:]), {})
        # the residuals of the recovered and the reference coefficients
        abs_err = max(abs(raw - fv.of(k1, k2)) for fv in (tv, ref)
                      for (k1, k2), raw in tv.raw.items())
        exact = got == want
        status = "PASS" if exact and abs_err < args.tolerance else "FAIL"
        failures += status == "FAIL"
        writer.writerow([
            name, str(tv.K_coeff.p), str(tv.K_coeff.q),
            str(tv.H2_coeff.p), str(tv.H2_coeff.q),
            f"pi*({want[0]}+{want[1]}ln2)", f"pi*({want[2]}+{want[3]}ln2)",
            _f(abs_err), status,
        ])
    ktot, htot = dec.total()
    wk_p, wk_q, wh_p, wh_q = _REFERENCE_TOTALS[case]
    tot_ok = (ktot.p == wk_p and ktot.q == wk_q
              and htot.p == wh_p and htot.q == wh_q)
    first_err = abs(dec.first_derivative - _REFERENCE_FIRST[case] * math.pi)
    first_ok = first_err < args.tolerance
    writer.writerow(["total", str(ktot.p), str(ktot.q), str(htot.p), str(htot.q),
                     f"pi*({wk_p}+{wk_q}ln2)", f"pi*({wh_p}+{wh_q}ln2)",
                     _f(first_err), "PASS" if tot_ok and first_ok else "FAIL"])
    failures += not (tot_ok and first_ok)
    _emit(buf.getvalue(), args.out)
    return 1 if failures else 0


def cmd_linearized(args) -> int:
    from . import linearized as lin
    problem = lin.LinearizedProblem(args.case, args.k1, args.k2)
    solution = lin.solve_ode_modes(problem)
    report = lin.residual_check(problem, solution.u_prime)
    records = [
        {"field": "interior_pde", "residual": report.interior},
        {"field": "neumann", "residual": report.neumann},
        {"field": "third_order",
         "residual": None if math.isnan(report.third_order) else report.third_order},
        {"field": "mass_constraint", "residual": report.mass_constraint},
        {"field": "center_constraint", "residual": report.center_constraint},
        {"field": "alpha_prime", "value": solution.alpha_prime},
        {"field": "beta_prime", "value": list(solution.beta_prime)},
        {"field": "mode_sup_errors", "value": solution.mode_sup_errors},
    ]
    text = "".join(json.dumps(r) + "\n" for r in records)
    _emit(text, args.out)
    if args.dump_csv:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(["t", "phi", "u_prime"])
        for row in solution.samples:
            writer.writerow([_f(row[0]), _f(row[1]), _f(row[2])])
        _emit(buf.getvalue(), args.dump_csv)
    return 0


def cmd_foliate(args) -> int:
    from . import foliation as fo
    if args.n_lambda < 0:
        raise ValueError("n_lambda must be non-negative")
    if args.n_lambda > MAX_N_LAMBDA:
        raise ValueError(f"n_lambda must be at most {MAX_N_LAMBDA}")
    if not math.isfinite(args.lambda_min):
        raise ValueError("lambda_min must be finite")
    fam, meta = fo.load_family_file(args.family)
    lam_grid = fo.checked_lambda_grid(
        fam, np.linspace(args.lambda_min, fam.lambda_max, args.n_lambda))
    samples = fo.midway_samples(fam, lam_grid)
    try:
        report = fo.foliation_report(fam, lam_grid, samples)
    except fo.InconclusiveOverlap as err:
        # two leaves touch within the computed error of their radial gap
        records = [{"verdict": "Inconclusive", "witness_pair": None,
                    "note": str(err)}]
    else:
        records = []
        for pr in report.pair_results:
            records.append({
                "lambda1": pr.lambda1, "lambda2": pr.lambda2,
                "intersects": pr.intersects, "min_distance": pr.min_distance,
                "method": pr.method,
            })
        records.append({"monotone": report.monotone})
        for c in report.coverage:
            records.append({"point": list(map(float, c["point"])),
                            "lambda": c["lambda"], "hits": c["hits"],
                            "status": c["status"]})
        records.append({"verdict": report.verdict,
                        "witness_pair": None if report.witness_pair is None
                        else [report.witness_pair[0], report.witness_pair[1]],
                        "note": report.note})
    text = "".join(json.dumps(r) + "\n" for r in records)
    _emit(text, args.out)
    if args.rays_csv:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(["lambda", "theta0_x", "theta0_y", "theta0_z", "t"])
        rays = [(lamv, theta0) for theta0 in
                ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
                for lamv in lam_grid]
        for (lamv, theta0), t in zip(rays, fo.ray_outcomes(fam, rays)):
            # a ray that misses its leaf or does not converge has no row
            if isinstance(t, (fo.NoIntersection, fo.NoConvergence)):
                continue
            if isinstance(t, Exception):
                raise t
            writer.writerow([_f(lamv), _f(theta0[0]), _f(theta0[1]),
                             _f(theta0[2]), _f(t)])
        _emit(buf.getvalue(), args.rays_csv)
    return _EXIT_BY_VERDICT[records[-1]["verdict"]]


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EX_USAGE, not argparse's 2 (Inconclusive)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by later calls of
    :func:`main`: parsing leaves it unchanged, and every default is
    immutable."""
    parser = _Parser(
        prog="hemifol",
        description="foliation criteria and variational expansions for "
                    "CMC and Willmore half-spheres")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="exact hemisphere moment tables")
    p.add_argument("--max-degree", type=int, default=4,
                   help=f"largest total degree, 0 to {MAX_DEGREE} (default 4)")
    p.add_argument("--boundary", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("analyze", help="foliation criterion of a surface file")
    p.add_argument("surface")
    p.add_argument("--case", choices=["willmore", "cmc"], required=True)
    p.add_argument("--guess", type=float, nargs=2, default=(0.01, -0.01))
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gallery", help="criterion table for the cubic family")
    p.add_argument("--a", type=float, nargs="+",
                   default=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5))
    p.add_argument("--case", choices=["willmore", "cmc"], default="willmore")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_gallery)

    p = sub.add_parser("verify-expansions",
                       help="recompute the energy/area expansion terms")
    p.add_argument("--case", choices=["willmore", "cmc"], required=True)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                   help="largest abs_err that passes, positive and finite "
                        f"(default {DEFAULT_TOLERANCE:g})")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("linearized", help="linearized solutions and residuals")
    p.add_argument("--case", choices=["willmore", "cmc"], required=True)
    p.add_argument("--k1", type=float, default=1.0)
    p.add_argument("--k2", type=float, default=1.0)
    p.add_argument("--dump-csv", default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_linearized)

    p = sub.add_parser("foliate", help="foliation report for a family file")
    p.add_argument("family")
    p.add_argument("--lambda-min", type=float, default=0.005,
                   help="smallest leaf parameter, finite (default 0.005)")
    p.add_argument("--n-lambda", type=int, default=10,
                   help=f"number of leaves, at most {MAX_N_LAMBDA} (default 10)")
    p.add_argument("--rays-csv", default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_foliate)
    return parser


def _input_errors() -> tuple:
    """The exceptions :func:`main` reports as bad input (exit 65); a module's
    own errors can be raised only once it is loaded."""
    gs = sys.modules.get(f"{__package__}.graph_surface")
    fo = sys.modules.get(f"{__package__}.foliation")
    return ((ex.ExprError, OSError, ValueError)
            + ((gs.NoConvergence, gs.DegenerateHessian) if gs else ())
            + ((fo.NoConvergence,) if fo else ()))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # the tuple is built only when an exception reaches this clause
    except _input_errors() as err:
        print(f"hemifol: error: {err}", file=sys.stderr)
        return EX_DATAERR


if __name__ == "__main__":
    sys.exit(main())
