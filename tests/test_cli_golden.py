"""CLI outputs checked against goldens captured before the code they cover changed.

``tests/fixtures/golden_cli/`` holds five inputs with their JSON designs: a
complete RCB (``rcb``) and a balanced incomplete-block layout (``bib``),
both in canonical record order (treatments, then blocks), a copy of the RCB
with two whole cells blanked (``rcb_missing``), a split plot
(``split_plot``) and a 4x4 Latin square (``latin_square``).  ``golden.json``
holds the exit code and stdout of each case.  The first 29 cases (``fit``
and ``adjust`` for each of the mixed, bivariate and orthogonal models under
ML and REML, ``contrast`` for the mixed and bivariate models, and
``compare``) were captured when every model still had its own fitting code.
The 14 cases after them (``check-design`` on all four inputs, ``fit --model
fixed``, ``fit``/``adjust --model orthogonal`` under ML and REML on the split
plot and the Latin square, and ``simulate --study bias``) were captured
before the complete-RCB closed forms moved onto stratum sums of squares and
products.  The last 11 cases (``fit`` and ``adjust --model mvc`` on all five
inputs, and ``fit --model mvc --max-iter 3`` on ``rcb``, which exits 3)
were captured while the EM engine still had a separate complete-RCB
inverse and a dense one for every other layout.  A case whose ``data`` is
null passes no ``--data``/``--design``.

The 35 cases that reach ``fit_lmm`` (the first 29 except ``fit`` and
``adjust --model bivariate --method ml`` on ``rcb``, plus the eight
``orthogonal`` split-plot and Latin-square cases) were re-captured when
``fit_lmm`` moved to the mixed-model equations with an analytic gradient
and a Newton finish.  Before that they held the point where L-BFGS-B with
finite-difference gradients stopped, up to 9e-7 (relative) from the
likelihood's stationary point; now they hold that point, which
``test_lmm.py::test_golden_variance_components_are_stationary`` checks.
Exit codes and text fields did not change, numbers moved by at most
8.4e-7 relative and the log-likelihoods by at most 1.5e-13.

The two ``fit``/``adjust --model mvc`` cases on the split plot were
re-captured when EM fits still moving after a fixed budget of EM
iterations gained a gradient finisher.  They had held EM's stop at
``max_iter`` on the PSD boundary (exit 3); now they hold the boundary
maximum (exit 0).

The ten ``fit``/``adjust --model mvc --method ml`` cases were re-captured
when EM became a ten-step start for projected Newton steps on an analytic
curvature, so that every ``mvc`` fit ends where its projected gradient is
below 1e-6.  EM's log-likelihood step rule had stopped four of them short
of that point (dense gradient up to 9.5e-4); no log-likelihood fell, two
rose by 2e-7 and 8e-8, and ``iterations`` now reads 13 or 20.
``test_mvc_em.py::test_golden_mvc_fits_are_stationary`` checks all five
``fit`` cases; ``fit --model mvc --max-iter 3`` did not change.
Text fields must match exactly and numbers to 1e-9 relative.
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
    args = list(case["args"])
    if case["data"] is not None:
        data = GOLDEN_DIR / f"{case['data']}.csv"
        design = GOLDEN_DIR / f"{case['data']}.json"
        args += ["--data", str(data), "--design", str(design)]
    code = main(args)
    out, err = capsys.readouterr()
    assert code == case["code"], err
    want, got = case["stdout"].split("\n"), out.split("\n")
    assert len(got) == len(want)
    for wline, gline in zip(want, got):
        wfields, gfields = wline.split("\t"), gline.split("\t")
        assert len(gfields) == len(wfields), (wline, gline)
        for w, g in zip(wfields, gfields):
            assert _field_matches(w, g), (wline, gline)
