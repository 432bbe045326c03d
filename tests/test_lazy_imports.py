"""The package imports a submodule on first use, and each command loads only
the modules it runs.  Module sets are read in a fresh interpreter: this
process has imported every module already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
