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
