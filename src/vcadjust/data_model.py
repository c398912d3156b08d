"""Experimental records, design declarations, and the stacked model layout.

A :class:`Dataset` is long-format: one record per experimental cell, with
factor labels, an optional response, and optional covariates.  Missingness
is all-or-none per record — a cell either has its response and every
covariate, or none of them.  :func:`complete_records` selects the records
every fit reads: the complete ones, in one canonical order, refusing a
treatment that has none.  :func:`build_stacked` turns a dataset plus a
:class:`DesignSpec` into the stacked vector/matrix layout used by the
general fitting engine: all responses first, then covariate 1, and so on
(variable-major), cell c being the c-th complete record in canonical order.

:func:`group_codes` is the package's one map from factor labels to integer
codes: every order of treatments, blocks and random-term levels is the sorted
labels of the groups present in the records it codes, so declared ``levels``
only reject undeclared values and never change a code.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ValidationError

RECIPES = (
    "rcb",
    "incomplete_block",
    "split_plot",
    "blocked_split_plot",
    "latin_square",
    "custom",
)

# (n treatment factors, n blocking factors) each recipe requires; None = any
_RECIPE_FACTOR_COUNTS = {
    "rcb": (None, 1),
    "incomplete_block": (None, 1),
    "split_plot": (2, 1),
    "blocked_split_plot": (2, 2),
    "latin_square": (1, 2),
    "custom": (None, None),
}


@dataclass(frozen=True)
class DesignSpec:
    """Declaration of the design: factor roles, covariates, and recipe.

    ``treatment_factors`` are fixed; ``blocking_factors`` are random.  Factor
    order carries the recipe roles: for ``split_plot`` the treatment factors
    are (wholeplot, splitplot) and the blocking factor is the wholeplot
    replicate; for ``blocked_split_plot`` blocking is (block, replicate);
    for ``latin_square`` blocking is (row, column).
    """

    response: str
    treatment_factors: tuple[str, ...]
    blocking_factors: tuple[str, ...]
    covariates: tuple[str, ...] = ()
    recipe: str = "custom"
    treatments_affect_covariates: bool = False
    levels: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        for key in ("treatment_factors", "blocking_factors", "covariates"):
            object.__setattr__(self, key, _names(repr(key), getattr(self, key)))
        if not isinstance(self.levels, dict):
            raise ValidationError(f"levels must map factor names to lists, got {self.levels!r}")
        levels = {k: _names(f"levels entry {k!r}", v) for k, v in self.levels.items()}
        object.__setattr__(self, "levels", levels)
        if self.recipe not in RECIPES:
            raise ValidationError(
                f"unknown recipe {self.recipe!r}; expected one of {RECIPES}"
            )
        names = self.factor_names + (self.response,) + self.covariates
        if len(set(names)) != len(names):
            raise ValidationError("factor/response/covariate names must be unique")
        n_t, n_b = _RECIPE_FACTOR_COUNTS[self.recipe]
        if n_t is not None and len(self.treatment_factors) != n_t:
            raise ValidationError(
                f"recipe {self.recipe!r} needs {n_t} treatment factors, "
                f"got {len(self.treatment_factors)}"
            )
        if n_b is not None and len(self.blocking_factors) != n_b:
            raise ValidationError(
                f"recipe {self.recipe!r} needs {n_b} blocking factors, "
                f"got {len(self.blocking_factors)}"
            )
        if not self.treatment_factors:
            raise ValidationError("at least one treatment factor is required")
        stray = [k for k in self.levels if k not in self.factor_names]
        if stray:
            raise ValidationError(
                f"levels key {stray[0]!r} names no treatment or blocking factor"
            )

    @property
    def factor_names(self) -> tuple[str, ...]:
        return self.treatment_factors + self.blocking_factors

    @property
    def m(self) -> int:
        return len(self.covariates)


def _names(what: str, value) -> tuple[str, ...]:
    """``value`` as a tuple of strings; anything else is refused, a bare
    string included (``tuple`` would split it into characters)."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
        raise ValidationError(f"{what} must be a list of strings, got {value!r}")
    return tuple(value)


def load_design_spec(source) -> DesignSpec:
    """Read a design declaration from a JSON key-value tree.

    Keys: ``response`` (string), ``treatment_factors``, ``blocking_factors``,
    ``covariates`` (lists of strings), ``recipe`` (one of the recipe names),
    ``treatments_affect_covariates`` (bool), ``levels`` (optional map from
    treatment or blocking factor name to its declared levels, which only
    reject undeclared values).
    """
    if isinstance(source, str) and ("\n" in source or source.lstrip().startswith("{")):
        tree = json.loads(source)
    elif isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            tree = json.load(fh)
    elif isinstance(source, dict):
        tree = source
    else:
        tree = json.load(source)
    if not isinstance(tree, dict):
        raise ValidationError("design spec must be a JSON object")
    known = {
        "response",
        "treatment_factors",
        "blocking_factors",
        "covariates",
        "recipe",
        "treatments_affect_covariates",
        "levels",
    }
    unknown = set(tree) - known
    if unknown:
        raise ValidationError(f"unknown design-spec keys: {sorted(unknown)}")
    try:
        return DesignSpec(
            response=tree["response"],
            treatment_factors=tree.get("treatment_factors", ()),
            blocking_factors=tree.get("blocking_factors", ()),
            covariates=tree.get("covariates", ()),
            recipe=tree.get("recipe", "custom"),
            treatments_affect_covariates=bool(
                tree.get("treatments_affect_covariates", False)
            ),
            levels=tree.get("levels", {}),
        )
    except KeyError as exc:
        raise ValidationError(f"design spec missing required key {exc}") from exc


@dataclass(frozen=True)
class Dataset:
    """Long-format experimental records.

    ``factors[name]`` holds one label per record; ``response`` and the
    columns of ``covariates`` are floats with NaN for missing.  Missingness
    must be all-or-none within a record.
    """

    factors: dict[str, np.ndarray]
    response: np.ndarray
    covariates: np.ndarray  # (n_records, m)
    covariate_names: tuple[str, ...]
    levels: dict[str, tuple[str, ...]]

    def __post_init__(self):
        facs = {k: np.asarray(v, dtype=object) for k, v in self.factors.items()}
        object.__setattr__(self, "factors", facs)
        y = np.asarray(self.response, dtype=float)
        Z = np.asarray(self.covariates, dtype=float)
        if Z.ndim == 1:
            Z = Z.reshape(-1, 1) if Z.size else Z.reshape(len(y), 0)
        object.__setattr__(self, "response", y)
        object.__setattr__(self, "covariates", Z)
        object.__setattr__(self, "covariate_names", tuple(self.covariate_names))
        object.__setattr__(
            self, "levels", {k: tuple(v) for k, v in dict(self.levels).items()}
        )
        n = len(y)
        if Z.shape[0] != n or any(len(v) != n for v in facs.values()):
            raise ValidationError("column lengths disagree")
        if Z.shape[1] != len(self.covariate_names):
            raise ValidationError("covariate names do not match covariate columns")
        present = np.column_stack([~np.isnan(y)] + [~np.isnan(Z[:, j]) for j in range(Z.shape[1])])
        partial = np.where(present.any(axis=1) & ~present.all(axis=1))[0]
        if partial.size:
            raise ValidationError(
                f"record {partial[0] + 1}: response and covariates must be "
                "missing together (all-or-none per cell)"
            )
        for name, vals in facs.items():
            declared = self.levels.get(name)
            if declared is None:
                continue
            bad = [v for v in vals if v not in declared]
            if bad:
                raise ValidationError(
                    f"factor {name!r}: value {bad[0]!r} is not a declared level"
                )

    @property
    def n_records(self) -> int:
        return len(self.response)

    @property
    def m(self) -> int:
        return self.covariates.shape[1]

    @property
    def complete_mask(self) -> np.ndarray:
        ok = ~np.isnan(self.response)
        for j in range(self.m):
            ok &= ~np.isnan(self.covariates[:, j])
        return ok

    def subset(self, mask: np.ndarray) -> "Dataset":
        return Dataset(
            factors={k: v[mask] for k, v in self.factors.items()},
            response=self.response[mask],
            covariates=self.covariates[mask],
            covariate_names=self.covariate_names,
            levels=self.levels,
        )


def load_dataset(source, schema: DesignSpec) -> Dataset:
    """Parse delimited text (comma or tab, sniffed from the header row).

    Empty fields mark missing values, and every other response or covariate
    field must be a finite number; a record must blank its response and
    every covariate together.  Rows are reported 1-based (excluding the
    header) in error messages.
    """
    if isinstance(source, (str, Path)) and "\n" not in str(source):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    elif isinstance(source, str):
        text = source
    else:
        text = source.read()
    lines = text.splitlines()
    if not lines:
        raise ValidationError("empty data file")
    delim = "\t" if "\t" in lines[0] else ","
    reader = csv.reader(io.StringIO(text), delimiter=delim)
    header = [h.strip() for h in next(reader)]
    needed = list(schema.factor_names) + [schema.response] + list(schema.covariates)
    missing = [c for c in needed if c not in header]
    if missing:
        raise ValidationError(f"data file is missing columns: {missing}")
    col = {name: header.index(name) for name in needed}

    # records with their 1-based row numbers; blank lines are skipped but counted
    rows = [(k, row) for k, row in enumerate(reader, start=1) if "".join(row).strip()]
    # the error reported is the first in reading order, so fields are read
    # only up to the first short row
    cut = next((i for i, (_, row) in enumerate(rows) if len(row) < len(header)), len(rows))
    columns = {name: [row[col[name]].strip() for _, row in rows[:cut]] for name in needed}
    errors = []  # (record index, position of the check within the record, message)
    if cut < len(rows):
        errors.append((cut, -1, f"row {rows[cut][0]}: expected {len(header)} fields"))
    for j, name in enumerate(schema.factor_names):
        if "" in columns[name]:
            i = columns[name].index("")
            errors.append((i, j, f"row {rows[i][0]}: factor {name!r} is empty"))
    values = []
    for j, name in enumerate([schema.response] + list(schema.covariates)):
        vals, bad = _floats(columns[name])
        values.append(vals)
        if bad is not None:
            i, kind = bad
            errors.append((i, len(needed) + j, f"row {rows[i][0]}: {kind} value "
                                                 f"{columns[name][i]!r} in column {name!r}"))
    first = min(errors, default=(len(rows), 0, ""))
    present = ~np.isnan(np.column_stack([v[: first[0]] for v in values]))
    partial = np.flatnonzero(present.any(axis=1) & ~present.all(axis=1))
    if partial.size:
        raise ValidationError(
            f"row {rows[partial[0]][0]}: partially missing cell (response and covariates "
            "must be blank together)"
        )
    if errors:
        raise ValidationError(first[2])

    return Dataset(
        factors={name: columns[name] for name in schema.factor_names},
        response=values[0],
        covariates=np.column_stack(values[1:]) if schema.m else np.empty((len(rows), 0)),
        covariate_names=schema.covariates,
        levels={k: v for k, v in schema.levels.items()},
    )


def _floats(fields: list[str]) -> tuple[np.ndarray, tuple[int, str] | None]:
    """Floats of stripped fields, NaN for an empty one, and the index and
    kind (``non-numeric`` or ``non-finite``) of the first other field that
    is not a finite number (None when there is none); the values stop
    before that field.  Only an empty field is missing: ``nan``, ``inf``
    and an overflowing ``1e999`` are refused."""
    out = []
    for i, v in enumerate(fields):
        try:
            x = float(v) if v else math.nan
        except ValueError:
            return np.array(out, dtype=float), (i, "non-numeric")
        if v and not math.isfinite(x):
            return np.array(out, dtype=float), (i, "non-finite")
        out.append(x)
    return np.array(out, dtype=float), None


def group_codes(ds: Dataset, grouping: tuple[str, ...]) -> tuple[list[str], np.ndarray]:
    """Sorted labels of the groups of ``grouping`` present in ``ds`` (levels
    joined by ``:``) and each record's dense integer group code; ``()`` puts
    every record in one group.  Raises when two groups join to one label."""
    cols = [ds.factors[f] for f in grouping]
    joined = [":".join(v) for v in zip(*cols)] if cols else [""] * ds.n_records
    labels = sorted(set(joined))
    if cols and len(set(zip(*cols))) > len(labels):
        raise ValidationError(f"two groups of {', '.join(grouping)} have one ':'-joined label")
    index = {lab: i for i, lab in enumerate(labels)}
    return labels, np.array([index[v] for v in joined], dtype=np.intp)


def incidence(codes: np.ndarray, n_levels: int) -> np.ndarray:
    """0/1 incidence matrix from integer level codes."""
    W = np.zeros((len(codes), n_levels))
    W[np.arange(len(codes)), codes] = 1.0
    return W


def complete_records(
    ds: Dataset, treatment_factors: tuple[str, ...]
) -> tuple[Dataset, list[str], np.ndarray]:
    """The complete records of ``ds`` sorted by treatment label, then by the
    labels of every other factor in column order, whatever the row order of
    the input; the sorted treatment labels; each record's treatment code.

    Raises when no record is complete, then when a treatment has records
    but no complete one (its mean is inestimable).
    """
    mask = ds.complete_mask
    if not mask.any():
        raise ValidationError("no complete cells")
    labels, codes = group_codes(ds, treatment_factors)
    lost = np.flatnonzero(np.bincount(codes[mask], minlength=len(labels)) == 0)
    if lost.size:
        raise ValidationError(
            f"treatment {labels[lost[0]]!r} has no complete cells; its mean is inestimable"
        )
    others = [group_codes(ds, (f,))[1] for f in ds.factors if f not in treatment_factors]
    # lexsort's last key sorts first; only complete records are kept
    order = np.lexsort(others[::-1] + [codes])
    order = order[mask[order]]
    return ds.subset(order), labels, codes[order]


@dataclass(frozen=True)
class StackedData:
    """Variable-major stacked layout of the complete cells.

    ``z`` has length ``n_obs * (m+1)``; position ``v * n_obs + c`` holds
    variable ``v`` of complete cell ``c``, the c-th record of
    :func:`complete_records` (canonical order).  ``X`` carries treatment-mean
    columns acting on the response block and one grand-mean column per
    covariate (plus treatment columns on covariate blocks when treatments
    affect the covariates).

    Every random term is a Kronecker product ``c (x) Z`` whose incidence Z
    is fixed by one integer code per complete cell: blocking factor i has
    ``c = I_{m+1}`` and codes ``block_codes[i]`` over ``block_levels[i]``
    levels; random treatment term j acts on the response block only
    (``c = e_0``), or on every variable when treatments affect the
    covariates (``c = 1``).  Every code comes from :func:`group_codes` over
    the complete cells, so a level without complete cells has no code, and
    treatments and levels are in sorted label order.
    """

    z: np.ndarray
    X: np.ndarray
    col_names: tuple[str, ...]
    treatments: tuple[str, ...]
    treat_cols: np.ndarray  # response-block treatment-mean column indices
    cov_mean_cols: dict[str, int]  # covariate name -> grand-mean column
    block_codes: tuple[np.ndarray, ...]  # level of each complete cell
    block_levels: tuple[int, ...]
    treatment_random_codes: tuple[np.ndarray, ...]
    treatment_random_levels: tuple[int, ...]
    treatments_affect_covariates: bool
    n_obs: int
    m: int

    @property
    def n_stacked(self) -> int:
        return self.n_obs * (self.m + 1)


def build_stacked(
    ds: Dataset,
    spec: DesignSpec,
    random_treatment_terms: Sequence[tuple[str, ...]] = (),
) -> StackedData:
    """Assemble the stacked vector, fixed design, and random-term codes.

    ``random_treatment_terms`` lists factor-name tuples whose crossed levels
    enter as random treatment-associated factors; their incidence acts on
    the response block only unless treatments affect the covariates.
    """
    m = spec.m
    if ds.m != m:
        raise ValidationError("dataset covariate count does not match design")
    sub, labels, codes = complete_records(ds, spec.treatment_factors)
    n = sub.n_records
    t = len(labels)

    # fixed-effects design, variable-major blocks: treatment means on the
    # response block, then per covariate its treatment means or grand mean
    names = [f"mean:{spec.response}:{lab}" for lab in labels]
    cov_mean_cols: dict[str, int] = {}
    X = np.zeros(((m + 1) * n, t + m * (t if spec.treatments_affect_covariates else 1)))
    rows = np.arange(n)
    X[rows, codes] = 1.0
    for j, cov in enumerate(spec.covariates):
        on = rows + (j + 1) * n
        if spec.treatments_affect_covariates:
            # grand covariate mean reported as the average of its cell means
            X[on, len(names) + codes] = 1.0
            names += [f"mean:{cov}:{lab}" for lab in labels]
        else:
            cov_mean_cols[cov] = len(names)
            X[on, len(names)] = 1.0
            names.append(f"mean:{cov}")
    # X has full column rank: its indicator columns have disjoint, non-empty supports

    # stacked observation vector
    z = np.concatenate([sub.response] + [sub.covariates[:, j] for j in range(m)])

    blocks = [group_codes(sub, (fac,)) for fac in spec.blocking_factors]
    # random treatment-associated terms: codes of the crossed levels present
    terms = [group_codes(sub, term) for term in random_treatment_terms]

    return StackedData(
        z=z,
        X=X,
        col_names=tuple(names),
        treatments=tuple(labels),
        treat_cols=np.arange(t),
        cov_mean_cols=cov_mean_cols,
        block_codes=tuple(c for _, c in blocks),
        block_levels=tuple(len(lv) for lv, _ in blocks),
        treatment_random_codes=tuple(c for _, c in terms),
        treatment_random_levels=tuple(len(lv) for lv, _ in terms),
        treatments_affect_covariates=spec.treatments_affect_covariates,
        n_obs=n,
        m=m,
    )
