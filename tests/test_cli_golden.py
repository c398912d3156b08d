"""CLI outputs checked against goldens captured before the LMM fitters merged.

``tests/fixtures/golden_cli/`` holds two inputs in canonical record order
(treatments, then blocks): a complete RCB (``rcb``) and a balanced
incomplete-block layout (``bib``).  ``golden.json`` holds the exit code and
stdout of ``fit`` and ``adjust`` for each of the mixed, bivariate and
orthogonal models under ML and REML, of ``contrast`` for the mixed and
bivariate models, and of ``compare``, as the CLI printed them when every
model still had its own fitting code.  Text fields must match exactly and
numbers to 1e-9 relative.
"""

import json
import math
from pathlib import Path

import pytest

from vcadjust.cli import main

GOLDEN_DIR = Path(__file__).parent / "fixtures" / "golden_cli"
CASES = json.loads((GOLDEN_DIR / "golden.json").read_text())


def _field_matches(expected: str, got: str) -> bool:
    try:
        a, b = float(expected), float(got)
    except ValueError:
        return expected == got
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0)


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{c['data']}-{'-'.join(c['args'][:5])}" for c in CASES]
)
def test_cli_output_matches_golden(case, capsys):
    data = GOLDEN_DIR / f"{case['data']}.csv"
    design = GOLDEN_DIR / f"{case['data']}.json"
    code = main(case["args"] + ["--data", str(data), "--design", str(design)])
    out, err = capsys.readouterr()
    assert code == case["code"], err
    want, got = case["stdout"].split("\n"), out.split("\n")
    assert len(got) == len(want)
    for wline, gline in zip(want, got):
        wfields, gfields = wline.split("\t"), gline.split("\t")
        assert len(gfields) == len(wfields), (wline, gline)
        for w, g in zip(wfields, gfields):
            assert _field_matches(w, g), (wline, gline)
