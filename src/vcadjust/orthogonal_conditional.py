"""Stratum regressions and conditional fits for orthogonal blocking designs.

When the design is orthogonal with respect to its random blocking factors,
conditioning the response on the covariates yields a univariate mixed
model whose extra regressors are stratum means of the covariates (block
means, wholeplot means, row and column means).  Each shipped recipe knows
which means to append and which random factors to keep;
:func:`orthogonality` tests the hypothesis on the count tables of the
layout.

:func:`fit_orthogonal_conditional` is the package's one conditional-LMM
builder: every univariate mixed fit (the naive single-slope model, the
two-slope block model and the recipes) is this function with a different
regressor list, and returns one :class:`OrthogonalConditionalFit` (the
block models a subclass with block-model names).  It and
:func:`orthogonality` read the complete records of
:func:`.data_model.complete_records`, cell c being the c-th complete record
in canonical order, and every grouping is coded by
:func:`.data_model.group_codes` over them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import Dataset, DesignSpec, complete_records, group_codes, incidence
from .errors import SingularityError, ValidationError
from .lmm import LmmFit, LmmSpec, fit_lmm


@dataclass(frozen=True)
class DesignRecipe:
    """Resolved factor roles for one of the shipped orthogonal designs.

    ``mean_groupings`` are the factor tuples whose group means enter the
    conditional model as regressors; ``random_groupings`` name the random
    factors (each the crossing of the listed factors), against which
    :func:`orthogonality` tests the treatment terms.
    """

    name: str
    treatment_factors: tuple[str, ...]
    mean_groupings: tuple[tuple[str, ...], ...]
    random_groupings: tuple[tuple[str, tuple[str, ...]], ...]


def recipe_for(spec: DesignSpec) -> DesignRecipe:
    """Build the recipe for ``spec`` from its declared factor roles."""
    tf, bf = spec.treatment_factors, spec.blocking_factors
    if spec.recipe in ("rcb", "incomplete_block"):
        return _block_recipe(spec)
    if spec.recipe == "split_plot":
        wp_trt, _sp_trt = tf
        rep = bf[0]
        wholeplot = (wp_trt, rep)
        return DesignRecipe(
            name="split_plot",
            treatment_factors=tf,
            mean_groupings=(wholeplot,),
            random_groupings=(("wholeplot", wholeplot),),
        )
    if spec.recipe == "blocked_split_plot":
        wp_trt, sp_trt = tf
        block, rep = bf
        wholeplot = (block, wp_trt, rep)
        return DesignRecipe(
            name="blocked_split_plot",
            treatment_factors=tf,
            mean_groupings=((block,), wholeplot),
            random_groupings=(
                (block, (block,)),
                (f"{block}*{wp_trt}", (block, wp_trt)),
                ("wholeplot", wholeplot),
                (f"{block}*{sp_trt}", (block, sp_trt)),
                (f"{block}*{wp_trt}*{sp_trt}", (block, wp_trt, sp_trt)),
            ),
        )
    if spec.recipe == "latin_square":
        row, col = bf
        return DesignRecipe(
            name="latin_square",
            treatment_factors=tf,
            mean_groupings=((row,), (col,)),
            random_groupings=((row, (row,)), (col, (col,))),
        )
    raise ValidationError(
        f"recipe {spec.recipe!r} has no orthogonal-conditional expansion"
    )


def _block_recipe(spec: DesignSpec, block_means: bool = True) -> DesignRecipe:
    """Random blocks from the first blocking factor; ``block_means=False``
    leaves out the block-mean regressor (the single-slope model)."""
    block = spec.blocking_factors[0]
    return DesignRecipe(
        name=spec.recipe,
        treatment_factors=spec.treatment_factors,
        mean_groupings=((block,),) if block_means else (),
        random_groupings=((block, (block,)),),
    )


def _table(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Count table ``N_FG`` of two groupings' codes."""
    shape = (f.max() + 1, g.max() + 1)
    return np.bincount(f * shape[1] + g, minlength=shape[0] * shape[1]).reshape(shape)


def _classes(N: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class of every row and column of the count table ``N``: the classes
    of ``F ∧ G`` are the connected components of its occupied cells, each
    labelled by its first row."""
    rows, cols = np.nonzero(N)
    row_class = np.arange(N.shape[0])
    while True:
        col_class = np.full(N.shape[1], N.shape[0])
        np.minimum.at(col_class, cols, row_class[rows])
        joined = row_class.copy()
        np.minimum.at(joined, rows, col_class[cols])
        if np.array_equal(joined, row_class):
            return row_class, col_class
        row_class = joined


def _deviation(N: np.ndarray) -> float:
    """Worst ``|n_fg n_h - n_f n_g| / (n_f n_g)`` over the cells (f, g) of a
    class h of ``F ∧ G``; 0 exactly when F and G have proportional
    frequencies within every class, that is, when they are orthogonal."""
    row_class, col_class = _classes(N)
    n_f, n_g = N.sum(axis=1), N.sum(axis=0)
    n_h = np.bincount(row_class, weights=n_f).astype(N.dtype)[row_class]
    expected = np.outer(n_f, n_g)
    gap = np.abs(N * n_h[:, None] - expected)
    inside = row_class[:, None] == col_class[None, :]
    return float(np.max(gap[inside] / expected[inside]))


def orthogonality(recipe: DesignRecipe, ds: Dataset) -> list[tuple[str, str, float]]:
    """Test the theorem's hypothesis: every treatment term orthogonal to every
    random grouping, and the random groupings to one another.

    The treatment terms are the treatment factors and, when there are two or
    more, their combination.  Returns ``(term, grouping, deviation)`` for
    each pair, in order: the treatment terms against the random groupings,
    then each pair of random groupings.  The deviation (:func:`_deviation`)
    is computed on the count table of the complete records and is 0
    exactly when the pair is orthogonal; the test is exact on counts.
    Orthogonality is sufficient for the conditional route, not necessary.
    """
    tf = recipe.treatment_factors
    sub = complete_records(ds, tf)[0]
    terms = [(f, (f,)) for f in tf] + ([("*".join(tf), tf)] if len(tf) > 1 else [])
    randoms = list(recipe.random_groupings)
    pairs = [(a, b) for a in terms for b in randoms]
    pairs += [(a, b) for i, a in enumerate(randoms) for b in randoms[i + 1:]]
    code = {g: group_codes(sub, g)[1] for _name, g in terms + randoms}
    return [(a, b, _deviation(_table(code[fa], code[fb])))
            for (a, fa), (b, fb) in pairs]


@dataclass
class OrthogonalConditionalFit:
    """Conditional mixed fit of an orthogonal recipe with adjusted means;
    the log-likelihood, method and variance components read ``lmm_fit``."""

    treatments: tuple[str, ...]
    adjusted_means: np.ndarray
    adjusted_se: np.ndarray
    slopes: dict[str, float]
    lmm_fit: LmmFit
    dropped_regressors: tuple[str, ...]

    @property
    def loglik(self) -> float:
        return self.lmm_fit.loglik

    @property
    def method(self) -> str:
        return self.lmm_fit.method

    @property
    def var_comps(self) -> dict[str, float]:
        return self.lmm_fit.var_comps


def _check_blocks(bcodes: np.ndarray, codes: np.ndarray):
    """Equal block sizes and a connected treatment/block graph."""
    sizes = np.bincount(bcodes)
    if sizes.min() != sizes.max():
        raise ValidationError(
            "blocks have unequal sizes; route this layout to the general engine"
        )
    # the treatment x block table must form one class
    if _classes(_table(codes, bcodes))[0].any():
        raise SingularityError(
            "design is disconnected; treatment effects are inestimable"
        )


def _stratum_means(recipe: DesignRecipe, sub: Dataset, group: dict) -> list:
    """The recipe's stratum-mean regressors on the complete records ``sub``
    as (name, parent covariate index, column); ``group`` maps each mean
    grouping to its codes.  Groups of unequal size are refused: such a
    layout is not orthogonal and belongs to the general engine."""
    out = []
    for grouping in recipe.mean_groupings:
        inside = group[grouping]
        sizes = np.bincount(inside)
        if sizes.min() != sizes.max():
            raise ValidationError(
                f"grouping {grouping} has ragged cell counts; "
                "route this layout to the general engine"
            )
        for j, cov in enumerate(sub.covariate_names):
            sums = np.bincount(inside, weights=sub.covariates[:, j])
            out.append((f"mean({cov}|{','.join(grouping)})", j, (sums / sizes)[inside]))
    return out


def fit_orthogonal_conditional(
    recipe: DesignRecipe,
    ds: Dataset,
    method: str = "ml",
    tol: float = 1e-10,
    max_iter: int = 500,
) -> OrthogonalConditionalFit:
    """Fit the recipe's conditional model and adjust the treatment means.

    The fixed part is the full treatment-combination cell means plus one
    slope per covariate column (original and appended stratum means); the
    random part is the recipe's factor list.  Constant regressor columns
    (for instance an identically-zero covariate, or a covariate whose
    block means are all equal) are dropped, pinning their slopes at zero.
    Means are evaluated with every covariate column at the grand mean of
    its parent covariate.  A recipe whose only random grouping is a single
    factor (random blocks) must have equal block sizes and a connected
    design.  ``tol`` and ``max_iter`` go to :func:`fit_lmm`.
    """
    sub, labels, codes = complete_records(ds, recipe.treatment_factors)
    random_groupings = [g for _name, g in recipe.random_groupings]
    group = {g: group_codes(sub, g)[1] for g in {*recipe.mean_groupings, *random_groupings}}
    if len(random_groupings) == 1 and len(random_groupings[0]) == 1:  # random blocks
        _check_blocks(group[random_groupings[0]], codes)
    columns = [(cov, j, sub.covariates[:, j]) for j, cov in enumerate(sub.covariate_names)]
    columns += _stratum_means(recipe, sub, group)
    grand = [sub.covariates[:, j].mean() for j in range(sub.m)]

    keep, dropped = [], []
    for name, j, col in columns:
        if np.var(col) <= 1e-12 * max(1.0, float(np.mean(col**2))):
            dropped.append(name)
        else:
            keep.append((name, j, col))

    t = len(labels)
    X = np.column_stack([incidence(codes, t)] + [col for *_, col in keep])
    names = tuple(name for name, _ in recipe.random_groupings)
    lmm_spec = LmmSpec(y=sub.response, X=X, random=tuple(group[g] for g in random_groupings),
                       names=names)
    fit = fit_lmm(lmm_spec, method=method, tol=tol, max_iter=max_iter)

    # each column is evaluated at the grand mean of its parent covariate
    coef = np.zeros((t, X.shape[1]))
    coef[:, :t] = np.eye(t)
    for pos, (_name, j, _col) in enumerate(keep):
        coef[:, t + pos] = grand[j]
    adj_cov = coef @ fit.beta_cov @ coef.T
    slopes = {name: float(fit.beta_hat[t + pos]) for pos, (name, *_) in enumerate(keep)}
    slopes.update(dict.fromkeys(dropped, 0.0))
    return OrthogonalConditionalFit(
        treatments=tuple(labels),
        adjusted_means=coef @ fit.beta_hat,
        adjusted_se=np.sqrt(np.clip(np.diag(adj_cov), 0.0, None)),
        slopes=slopes,
        lmm_fit=fit,
        dropped_regressors=tuple(dropped),
    )
