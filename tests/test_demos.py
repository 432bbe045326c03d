import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_foliation_dichotomy_demo():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "foliation_dichotomy.py")],
        capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    verdicts = {line.split(":")[0].strip(): line.split(":", 1)[1].strip()
                for line in proc.stdout.splitlines() if line.startswith("  v = ")}
    for v in ("0.0", "0.5", "0.9"):
        assert verdicts[f"v = {v}"] == "Foliates"
    for v in ("1.1", "1.5", "2.0"):
        assert verdicts[f"v = {v}"].startswith("Overlaps, witness leaves (")


def _run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_gallery_criterion_demo():
    out = _run_demo("gallery_criterion.py")
    rows = [line for line in out.splitlines() if "bracket [" in line]
    assert len(rows) == 8
    for line in rows:
        want = ("DoesNotFoliate" if line.lstrip().startswith(("a = 0.45", "a = 0.51"))
                else "Foliates")
        assert line.endswith(f"->  {want}"), line


def test_linearized_solutions_demo():
    out = _run_demo("linearized_solutions.py")
    assert "alpha'(0) = -0.375000000000  (closed form -0.375000000000)" in out
    assert "alpha'(0) = +0.250000000000  (closed form +0.250000000000)" in out


def test_moments_and_recovery_demo():
    out = _run_demo("moments_and_recovery.py")
    assert "integral of w1^2 w2^0 w3^1  =  1/4 * pi" in out
    assert "  e: NoRationalFit (" in out


def test_expansion_verification_demo():
    out = _run_demo("expansion_verification.py")
    totals = [line for line in out.splitlines() if line.startswith("  total : ")]
    assert totals == [
        "  total : K pi*(1 + 0*ln2)   H^2 pi*(-3/2 + 1*ln2)",
        "  total : K pi*(1/6 + 0*ln2)   H^2 pi*(-35/192 + 0*ln2)",
    ]
