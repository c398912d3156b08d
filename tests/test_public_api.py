"""The package's public names: every export resolves, once; and what
importing the CLI loads."""

import os
import subprocess
import sys
from pathlib import Path

import vcadjust

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_export_resolves_once():
    names = vcadjust.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(vcadjust, name)]
    assert not missing


def test_star_import():
    scope = {}
    exec("from vcadjust import *", scope)
    assert set(vcadjust.__all__) <= set(scope)


def test_cli_import_leaves_scipy_optimize_out():
    """A fresh interpreter, so that the tests' own scipy imports cannot hide
    what the CLI loads: the LMM fits run the package's own Newton loop."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, vcadjust.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout
