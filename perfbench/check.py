"""Output check of one CLI fit against its reference values.

A fit passes when it exits 0 and its ``--out`` table agrees with the
reference: every adjusted mean within ``MEAN_TOL`` reference standard errors,
every standard error within a relative ``SE_RTOL``, and, for the EM engine,
a log-likelihood no lower than the reference maximum minus ``LOGLIK_TOL``.
The closed-form joint fit in ``compare`` adds a slope-estimation term to the
plug-in standard error, so its standard errors are only required not to
fall below the reference.
"""

from __future__ import annotations

import numpy as np

MEAN_TOL = 5e-3  # in reference standard errors
SE_RTOL = 1e-3
LOGLIK_TOL = 1e-4


def parse_tsv(text: str):
    """(scalars, tables) of the CLI's TSV rendering."""
    scalars, tables = {}, {}
    name = None
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# "):
            name = line[2:]
            tables[name] = None
        elif name is None:
            key, val = line.split("\t", 1)
            scalars[key] = val
        elif tables[name] is None:
            tables[name] = (line.split("\t"), [])
        else:
            tables[name][1].append(line.split("\t"))
    return scalars, tables


def _column(table, col):
    cols, rows = table
    j = cols.index(col)
    return np.array([float(r[j]) for r in rows])


def _compare(means, se, ref, what, se_lower_only=False):
    if len(means) != len(ref["means"]):
        return f"{what}: {len(means)} rows, expected {len(ref['means'])}"
    dev = np.max(np.abs(means - ref["means"]) / ref["se"])
    if not dev <= MEAN_TOL:
        return f"{what}: adjusted mean off by {dev:.3g} standard errors"
    rel = se / ref["se"] - 1.0
    bad = np.min(rel) < -SE_RTOL if se_lower_only else np.max(np.abs(rel)) > SE_RTOL
    if bad or not np.all(np.isfinite(se)):
        return f"{what}: standard error off by a relative {np.max(np.abs(rel)):.3g}"
    return None


def check_output(kind: str, code: int, text: str | None, ref: dict) -> str | None:
    """Failure reason, or None when the fit passes."""
    if code != 0:
        return f"exit code {code}"
    if not text:
        return "empty output"
    try:
        scalars, tables = parse_tsv(text)
        (table,) = tables.values()
        if kind == "compare":
            for what in ("fixed", "mixed", "bivariate"):
                err = _compare(
                    _column(table, f"{what}_adj_mean"),
                    _column(table, f"{what}_std_err"),
                    ref[what], what, se_lower_only=what == "bivariate",
                )
                if err:
                    return err
            return None
        err = _compare(_column(table, "adj_mean"), _column(table, "std_err"), ref, kind)
        if err or kind != "mvc":
            return err
        loglik = float(scalars["loglik"])
    except (ValueError, KeyError) as exc:
        return f"unreadable output: {exc!r}"
    if not loglik >= ref["loglik"] - LOGLIK_TOL:
        return f"log-likelihood {loglik:.10g} below the reference {ref['loglik']:.10g}"
    return None
