"""The package imports a submodule on first use, and each command loads only
the modules it runs; the acceptance commands raise no warning.  Both are
read in a fresh interpreter: this process has imported every module
already, and its warnings filters are pytest's."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hemifol import cli

ROOT = Path(__file__).resolve().parents[1]

# hemifol, hemifol.cli and hemifol.expr come with `from hemifol import cli`
_BASE = ["hemifol", "hemifol.cli", "hemifol.expr"]

_PROBE = """
import contextlib, io, json, sys
from hemifol import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[1:])
print(json.dumps([rc, sorted(m for m in sys.modules if m == "hemifol"
                             or m.startswith("hemifol.") or m == "numpy.polynomial")]))
"""


def _run(tmp_path, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=600)


def _python(tmp_path, *args):
    proc = _run(tmp_path, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("argv, loaded", [
    (["analyze", "s.surf", "--case", "cmc"], ["hemifol.graph_surface"]),
    (["foliate", "f.fam"], ["hemifol.foliation", "hemifol.quadrature", "hemifol.sphere"]),
    (["linearized", "--case", "cmc"],
     ["hemifol.linearized", "hemifol.quadrature", "hemifol.sphere", "numpy.polynomial"]),
    (["verify-expansions", "--case", "cmc"],
     ["hemifol.linearized", "hemifol.quadrature", "hemifol.sphere",
      "hemifol.variational", "numpy.polynomial"]),
    (["moments"], ["hemifol.quadrature", "hemifol.sphere"]),
], ids=["analyze", "foliate", "linearized", "verify-expansions", "moments"])
def test_command_loads_only_its_modules(tmp_path, argv, loaded):
    (tmp_path / "s.surf").write_text("name = s\nu = x*y + x^2 + 2*y^2 + x^3\n")
    (tmp_path / "f.fam").write_text("v = 0.5\nf1 = 0.3\nlambda_max = 0.05\n")
    rc, modules = json.loads(_python(tmp_path, "-c", _PROBE, *argv))
    assert rc == 0
    assert modules == sorted(_BASE + loaded)


# runs each command line of the JSON list argv[1] through cli.main in one
# interpreter and prints [[exit code, stdout, stderr] per command, whether
# scipy is loaded]; under -W error a warning ends the run with a traceback
_STRICT_RUNS = """
import contextlib, io, json, sys
from hemifol import cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        results.append([cli.main(argv), out.getvalue(), err.getvalue()])
print(json.dumps([results, "scipy" in sys.modules]))
"""


def test_acceptance_commands_in_a_strict_fresh_interpreter(tmp_path, monkeypatch, capsys):
    # the README acceptance commands in one fresh interpreter with every
    # warning an error: each exits with its usual code and prints nothing to
    # stderr (foliate on the v = 1.5 family reports Overlaps, exit 1), both
    # expansion cases pass at tolerance 1e-12, and neither linearized case
    # loads scipy; run again in this process, each prints the same bytes
    (tmp_path / "gallery.surf").write_text(
        "name = gallery-a-0.3\nu = a*x + a*y + x*y - c1*x^3 - c2*y^3\n"
        "params: a=0.3, c1=-0.07075104960348313, c2=-0.07075104960348313\n")
    (tmp_path / "family.fam").write_text("v = 0.5\nf1 = 0.3\nlambda_max = 0.05\n")
    (tmp_path / "fast.fam").write_text("v = 1.5\nf1 = 0.3\nlambda_max = 0.05\n")
    runs = [(["moments", "--max-degree", "4"], 0),
            (["foliate", "family.fam"], 0), (["foliate", "fast.fam"], 1)]
    for case in ("willmore", "cmc"):
        runs += [(["verify-expansions", "--case", case], 0),
                 (["verify-expansions", "--case", case, "--tolerance", "1e-12"], 0),
                 (["gallery", "--case", case], 0),
                 (["linearized", "--case", case, "--k1", "1", "--k2", "0"], 0),
                 (["linearized", "--case", case, "--k1", "0.7", "--k2=-1.3",
                   "--dump-csv", f"lin-{case}.csv"], 0),
                 (["analyze", "gallery.surf", "--case", case], 0)]
    argvs = [argv for argv, _ in runs]
    results, scipy_loaded = json.loads(
        _python(tmp_path, "-W", "error", "-c", _STRICT_RUNS, json.dumps(argvs)))
    assert [(argv, rc, err) for argv, (rc, _, err) in zip(argvs, results)] == [
        (argv, code, "") for argv, code in runs]
    assert not scipy_loaded
    monkeypatch.chdir(tmp_path)
    dumps = {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")}
    for argv, (_, out, _) in zip(argvs, results):
        cli.main(argv)
        assert capsys.readouterr().out == out, argv
    assert {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")} == dumps


def test_package_import_loads_no_submodule(tmp_path):
    out = _python(tmp_path, "-c", "import sys, hemifol; "
                  "print(sorted(m for m in sys.modules if m.startswith('hemifol')))")
    assert out == "['hemifol']\n"


def test_submodule_resolves_on_first_access(tmp_path):
    out = _python(tmp_path, "-c", """
import sys, hemifol
assert "hemifol.foliation" not in sys.modules
fo = hemifol.foliation
assert fo is sys.modules["hemifol.foliation"] and hemifol.foliation is fo
from hemifol import variational
assert variational is sys.modules["hemifol.variational"]
print(sorted(m for m in sys.modules if m.startswith("hemifol")))
""")
    assert out == ("['hemifol', 'hemifol.expr', 'hemifol.foliation', 'hemifol.linearized', "
                   "'hemifol.quadrature', 'hemifol.sphere', 'hemifol.variational']\n")


def test_unknown_attribute_raises():
    import hemifol
    with pytest.raises(AttributeError, match="has no attribute 'nonesuch'"):
        hemifol.nonesuch


def test_from_import_and_star_import():
    import hemifol
    from hemifol import foliation
    assert foliation is hemifol.foliation
    namespace = {}
    exec("from hemifol import *", namespace)
    assert all(namespace[name] is getattr(hemifol, name) for name in hemifol.__all__)


def test_input_errors_of_modules_loaded_on_demand(tmp_path):
    # main builds the exceptions it maps to exit 65 when one reaches it; the
    # errors of graph_surface and foliation join once their module is loaded
    out = _python(tmp_path, "-c", """
from hemifol import cli, expr
print(cli._input_errors() == (expr.ExprError, OSError, ValueError))
from hemifol import graph_surface as gs
print(cli._input_errors()[3:] == (gs.NoConvergence, gs.DegenerateHessian))
from hemifol import foliation as fo
print(cli._input_errors()[3:] == (gs.NoConvergence, gs.DegenerateHessian, fo.NoConvergence))
""")
    assert out.split() == ["True"] * 3


@pytest.mark.parametrize("u", ["x + y", "x*y + " + " + ".join(f"x^2*y/{i}" for i in range(1, 21))],
                         ids=["degenerate", "no-convergence"])
def test_module_error_exits_65_in_a_fresh_process(tmp_path, u):
    (tmp_path / "bad.surf").write_text(f"name = bad\nu = {u}\n")
    proc = _run(tmp_path, "-m", "hemifol.cli", "analyze", "bad.surf", "--case", "cmc")
    assert proc.returncode == 65
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("hemifol: error: ")
