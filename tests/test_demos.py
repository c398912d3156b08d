"""Every script under ``demos/`` runs to completion in-process.

The demos call the closed-form RCB fits, the bias study, the EM engine and
the recipe orthogonality check; each is run with ``runpy`` as ``__main__`` and must
print its report without raising.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out.strip()
