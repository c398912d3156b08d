"""Covariate-adjusted treatment means for designed experiments.

Estimates treatment means adjusted for random covariates in blocked
designs, under a joint variance-components model for response and
covariates.  Ships the classical fixed-blocks and naive mixed estimators,
the closed-form joint fit for complete blocks, conditional fits for the
standard orthogonal designs, and an EM engine for unbalanced data.
"""

from .bivariate_rcb import (
    BivariateParams,
    BlockConditionalFit,
    ConditionalParams,
    JointRcbFit,
    conditional_from_bivariate,
    fit_bivariate_rcb_ml,
    fit_conditional_ibd,
    fit_mixed_rcb,
    fit_naive_block_mixed,
)
from .data_model import (
    Dataset,
    DesignSpec,
    StackedData,
    build_stacked,
    load_dataset,
    load_design_spec,
)
from .errors import SingularityError, ValidationError, VcadjustError
from .lmm import LmmFit, LmmSpec, contrast, fit_lmm
from .mvc_em import (
    AdjustedMeansResult,
    MultivariateModel,
    MVCFit,
    MVCParams,
    adjusted_means_mvc,
    fit_em,
    make_model,
    observed_loglik,
)
from .orthogonal_conditional import (
    DesignRecipe,
    fit_orthogonal_conditional,
    orthogonality,
    recipe_for,
)
from .rcb_classical import FixedFitRCB, fit_fixed_rcb, gamma_mixed
from .simulate import BiasStudyResult, SimConfig, bias_study, gen_bivariate_rcb

__version__ = "0.1.0"

__all__ = [
    "AdjustedMeansResult",
    "BiasStudyResult",
    "BivariateParams",
    "BlockConditionalFit",
    "ConditionalParams",
    "Dataset",
    "DesignRecipe",
    "DesignSpec",
    "FixedFitRCB",
    "JointRcbFit",
    "LmmFit",
    "LmmSpec",
    "MultivariateModel",
    "MVCFit",
    "MVCParams",
    "SimConfig",
    "SingularityError",
    "StackedData",
    "ValidationError",
    "VcadjustError",
    "adjusted_means_mvc",
    "bias_study",
    "build_stacked",
    "conditional_from_bivariate",
    "contrast",
    "fit_bivariate_rcb_ml",
    "fit_conditional_ibd",
    "fit_em",
    "fit_fixed_rcb",
    "fit_lmm",
    "fit_mixed_rcb",
    "fit_naive_block_mixed",
    "fit_orthogonal_conditional",
    "gamma_mixed",
    "gen_bivariate_rcb",
    "load_dataset",
    "load_design_spec",
    "make_model",
    "observed_loglik",
    "orthogonality",
    "recipe_for",
]
