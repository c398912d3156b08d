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

The four ``check-design`` cases were re-captured, and ``check-design`` on
``rcb_missing`` appended as the last case, when ``check-design`` stopped
checking the projectors of one replicate unit and began testing whether
each treatment term is orthogonal to each random grouping on the count
tables.  ``bib`` now fails (exit 2, deviation 1: its 0/1 table has empty
cells inside one connected class), as does ``rcb_missing``, which the old
check refused with "replicate units have unequal cell counts".  ``rcb``,
``split_plot`` and ``latin_square`` pass with deviation 0.  ``simulate
--study bias`` was re-captured when its ``gamma_ols`` row, a copy of the
``gamma_e_bivariate`` row, was removed; no other line changed.
Text fields must match exactly and numbers to 1e-9 relative.

Every case on ``rcb``, ``rcb_missing`` and ``bib`` runs a second time with
a design that declares the blocking factor's levels in reverse order plus
one level without cells; declared levels only reject undeclared values, so
each must match the same golden.
"""

import csv
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


def _check(case, args, capsys):
    code = main(list(case["args"]) + args)
    out, err = capsys.readouterr()
    assert code == case["code"], err
    want, got = case["stdout"].split("\n"), out.split("\n")
    assert len(got) == len(want)
    for wline, gline in zip(want, got):
        wfields, gfields = wline.split("\t"), gline.split("\t")
        assert len(gfields) == len(wfields), (wline, gline)
        for w, g in zip(wfields, gfields):
            assert _field_matches(w, g), (wline, gline)


def _case_id(case):
    return f"{case['data']}-{'-'.join(case['args'][:5])}"


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_cli_output_matches_golden(case, capsys):
    args = []
    if case["data"] is not None:
        data = GOLDEN_DIR / f"{case['data']}.csv"
        design = GOLDEN_DIR / f"{case['data']}.json"
        args += ["--data", str(data), "--design", str(design)]
    _check(case, args, capsys)


DECLARED = [c for c in CASES if c["data"] in ("rcb", "rcb_missing", "bib")]


@pytest.mark.parametrize("case", DECLARED, ids=[_case_id(c) for c in DECLARED])
def test_declared_block_levels_change_nothing(case, tmp_path, capsys):
    data = GOLDEN_DIR / f"{case['data']}.csv"
    design = json.loads((GOLDEN_DIR / f"{case['data']}.json").read_text())
    block = design["blocking_factors"][0]
    with open(data, newline="") as fh:
        present = sorted({row[block] for row in csv.DictReader(fh)})
    design["levels"] = {block: present[::-1] + ["ZZ"]}
    path = tmp_path / "design.json"
    path.write_text(json.dumps(design))
    _check(case, ["--data", str(data), "--design", str(path)], capsys)
