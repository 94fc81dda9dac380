import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_demo(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], env=env, capture_output=True, text=True, timeout=120
    )


def test_locus_calculus_demo_runs():
    result = _run_demo("locus_calculus.py")
    assert result.returncode == 0, result.stderr


def test_moduli_demo_facets_match_double_factorials():
    result = _run_demo("moduli_of_rational_curves.py")
    assert result.returncode == 0, result.stderr
    columns = re.findall(r"(\d+) == +(\d+)", result.stdout)
    assert len(columns) == 4
    assert all(a == b for a, b in columns)
