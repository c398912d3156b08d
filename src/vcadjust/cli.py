"""Batch command-line surface.

Subcommands: ``fit`` (parameter estimates and log-likelihood), ``adjust``
(adjusted-means table), ``compare`` (fixed/mixed/bivariate side by side on
a complete RCB), ``contrast`` (a treatment contrast with its standard
error), ``check-design`` (is the design orthogonal with respect to its
random groupings, as the conditional route assumes), and ``simulate``
(data generation and the bias study).  Exit codes: 0 success,
2 input/validation error, 3 non-convergence, 4 singularity; every failure
prints one machine-parseable line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from operator import attrgetter
from types import SimpleNamespace

import numpy as np

from .bivariate_rcb import (
    fit_bivariate_rcb_ml,
    fit_conditional_ibd,
    fit_mixed_rcb,
    fit_naive_block_mixed,
)
from .data_model import build_stacked, complete_records, load_dataset, load_design_spec
from .errors import SingularityError, ValidationError
from .lmm import contrast as lmm_contrast
from .mvc_em import adjusted_means_mvc, fit_em, make_model
from .orthogonal_conditional import fit_orthogonal_conditional, orthogonality, recipe_for
from .rcb_classical import fit_fixed_rcb, rcb_cells
from .simulate import BivariateParams, SimConfig, bias_study, gen_bivariate_rcb

MODELS = ("fixed", "mixed", "bivariate", "orthogonal", "mvc")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONCONVERGENCE = 3
EXIT_SINGULAR = 4


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".10g")
    return str(x)


def _jval(x):
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(format(float(x), ".10g"))
    return str(x)


@dataclass
class Artifact:
    """Scalar section plus named tables, rendered to TSV or JSON."""

    scalars: dict
    tables: dict  # name -> (columns, rows)

    def render(self, fmt: str) -> str:
        if fmt == "json":
            payload = {"params": {k: _jval(v) for k, v in self.scalars.items()}}
            for name, (cols, rows) in self.tables.items():
                payload[name] = {
                    "columns": list(cols),
                    "rows": [[_jval(v) for v in row] for row in rows],
                }
            return json.dumps(payload, indent=2) + "\n"
        lines = []
        for k, v in self.scalars.items():
            lines.append(f"{k}\t{_fmt(v)}")
        for name, (cols, rows) in self.tables.items():
            lines.append("")
            lines.append(f"# {name}")
            lines.append("\t".join(cols))
            for row in rows:
                lines.append("\t".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"


def _write(text: str, args):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(artifact: Artifact, args):
    _write(artifact.render(args.format), args)


def _load(args):
    spec = load_design_spec(args.design)
    ds = load_dataset(args.data, spec)
    return ds, spec


def _is_complete_rcb(ds, spec) -> bool:
    """One covariate, one blocking factor, every treatment once in every block."""
    if spec.recipe != "rcb" or spec.m != 1 or len(spec.blocking_factors) != 1:
        return False
    return bool(np.all(rcb_cells(ds, spec)[-1] == 1))


def _check_iter_flags(args):
    """Refuse a ``--max-iter`` below 1 and a negative or non-finite ``--tol``."""
    max_iter, tol = getattr(args, "max_iter", None), getattr(args, "tol", None)
    if max_iter is not None and max_iter < 1:
        raise ValidationError(f"--max-iter must be at least 1; got {max_iter}")
    if tol is not None and not (np.isfinite(tol) and tol >= 0):
        raise ValidationError(f"--tol must be a finite number of at least 0; got {tol}")


def _iter_options(args) -> dict:
    """``--tol``/``--max-iter`` when given; each fitter keeps its own defaults."""
    opts = {"tol": args.tol, "max_iter": args.max_iter}
    return {k: val for k, val in opts.items() if val is not None}


def _fields(**paths):
    """Scalar fields after ``method``: output name -> dotted fit attribute."""
    getters = {name: attrgetter(path) for name, path in paths.items()}
    return lambda f, args: {
        "method": args.method, **{name: get(f) for name, get in getters.items()}
    }


def _fixed_scalars(f, args) -> dict:
    return {"gamma_ols": f.gamma_ols, "sigma_e2": f.sigma_e2_hat, "loglik": f.loglik}


def _orthogonal_scalars(f, args) -> dict:
    return {
        "method": args.method,
        "loglik": f.loglik,
        **{f"slope[{name}]": val for name, val in f.slopes.items()},
        **{f"varcomp[{name}]": val for name, val in f.var_comps.items()},
        "converged": f.lmm_fit.converged,
    }


def _fit_mvc(ds, spec, args):
    if args.method == "reml":
        raise ValidationError("reml unsupported for mvc")
    stacked = build_stacked(ds, spec)
    fit = fit_em(make_model(stacked), **_iter_options(args))
    res = adjusted_means_mvc(fit)
    return SimpleNamespace(
        fit=fit, stacked=stacked, evaluated_at=res.evaluated_at,
        treatments=res.treatments, adjusted_means=res.means, adjusted_se=res.se,
    )


def _mvc_scalars(f, args) -> dict:
    out = {"method": args.method, "loglik": f.fit.loglik,
           "iterations": f.fit.iterations, "converged": f.fit.converged}
    # cov_mean_cols preserves covariate declaration order, matching
    # the order of the evaluated-at vector
    for j, name in enumerate(f.stacked.cov_mean_cols):
        out[f"mu_z[{name}]"] = f.evaluated_at[j]
    for i, S in enumerate(f.fit.params.Sigmas):
        for j in range(S.shape[0]):
            for k in range(j, S.shape[0]):
                out[f"Sigma{i}[{j},{k}]"] = S[j, k]
    return out


_MEANS = (("adj_mean", "adjusted_means"), ("std_err", "adjusted_se"))
_EFFECT = _MEANS + (("effect", "effects"),)
_EFFECTS = (
    ("adj_mean", "adjusted_means"), ("adj_se", "adjusted_se"),
    ("effect", "effects"), ("effect_se", "effect_se"),
)
_BLOCK = dict(sigma_e2="sigma_e2", sigma_b2="sigma_b2", loglik="loglik",
              converged="lmm_fit.converged")

# model -> (fitter(ds, spec, args), scalar fields after "model" (fit, args),
# treatment-table columns after "treatment" as (header, fit attribute)).
# A "<model>_rcb" row replaces its model's row on a complete RCB for the
# methods in _RCB_METHODS; "mixed_rcb" runs the fit of "mixed" and only
# prints other fields.  A false "converged" field exits 3.
_MODELS = {
    "fixed": (lambda ds, spec, args: fit_fixed_rcb(ds, spec), _fixed_scalars, _EFFECT),
    "mixed_rcb": (
        lambda ds, spec, args: fit_mixed_rcb(ds, spec, args.method, **_iter_options(args)),
        _fields(gamma_mixed="gamma_e", sigma_e2="sigma_e2", sigma_b2="sigma_b2",
                rho="rho", loglik="loglik", converged="lmm_fit.converged"),
        _EFFECT,
    ),
    "mixed": (
        lambda ds, spec, args: fit_naive_block_mixed(
            ds, spec, args.method, **_iter_options(args)),
        _fields(gamma="gamma_e", **_BLOCK),
        _EFFECTS,
    ),
    "bivariate_rcb": (
        lambda ds, spec, args: fit_bivariate_rcb_ml(ds, spec),
        _fields(gamma_e="gamma_e_hat", gamma_be="gamma_be_hat", gamma_b="gamma_b",
                sigma_e2="sigma_e2", sigma_b2="sigma_b2", mu_z="zbar",
                loglik="loglik", sigma_b_psd="params.sigma_b_psd"),
        _MEANS,
    ),
    "bivariate": (
        lambda ds, spec, args: fit_conditional_ibd(
            ds, spec, args.method, **_iter_options(args)),
        _fields(gamma_e="gamma_e", gamma_b="gamma_b", **_BLOCK),
        _EFFECTS,
    ),
    "orthogonal": (
        lambda ds, spec, args: fit_orthogonal_conditional(
            recipe_for(spec), ds, args.method, **_iter_options(args)),
        _orthogonal_scalars,
        _MEANS,
    ),
    "mvc": (_fit_mvc, _mvc_scalars, _MEANS),
}
_RCB_METHODS = {"mixed": ("ml", "reml"), "bivariate": ("ml",)}


def _fit_artifact(args, ds, spec) -> tuple[Artifact, int]:
    key = args.model
    if args.method in _RCB_METHODS.get(key, ()) and _is_complete_rcb(ds, spec):
        key += "_rcb"
    fitter, scalar_fields, columns = _MODELS[key]
    f = fitter(ds, spec, args)
    scalars = {"model": args.model, **scalar_fields(f, args)}
    cols = ["treatment"] + [name for name, _ in columns]
    values = [getattr(f, attr) for _, attr in columns]
    rows = [[lab] + [col[i] for col in values] for i, lab in enumerate(f.treatments)]
    code = EXIT_OK if scalars.get("converged", True) else EXIT_NONCONVERGENCE
    return Artifact(scalars, {"treatments": (cols, rows)}), code


def _cmd_fit(args) -> int:
    ds, spec = _load(args)
    artifact, code = _fit_artifact(args, ds, spec)
    _emit(artifact, args)
    return code


def _cmd_adjust(args) -> int:
    ds, spec = _load(args)
    artifact, code = _fit_artifact(args, ds, spec)
    # every model's table starts with treatment, adjusted mean, standard error
    rows = [row[:3] for row in artifact.tables["treatments"][1]]
    table = (["treatment", "adj_mean", "std_err"], rows)
    scalars = {"model": args.model, "method": args.method}
    _emit(Artifact(scalars, {"adjusted_means": table}), args)
    return code


def _cmd_compare(args) -> int:
    ds, spec = _load(args)
    if not _is_complete_rcb(ds, spec):
        raise ValidationError(
            "compare needs a complete randomized-blocks layout with one covariate"
        )
    fits = {
        "fixed": fit_fixed_rcb(ds, spec),
        "mixed": fit_mixed_rcb(ds, spec, args.method, **_iter_options(args)),
        "bivariate": fit_bivariate_rcb_ml(ds, spec),
    }
    fx, mx = fits["fixed"], fits["mixed"]
    scalars = {
        "gamma_ols": fx.gamma_ols,
        "gamma_mixed": mx.gamma_e,
        "gamma_be": fits["bivariate"].gamma_be_hat,
        "sigma_e2_mixed": mx.sigma_e2,
        "sigma_b2_mixed": mx.sigma_b2,
        "rho_mixed": mx.rho,
        "method": args.method,
    }
    cols = ["treatment"]
    for name in fits:
        cols += [f"{name}_adj_mean", f"{name}_std_err"]
    values = [col for f in fits.values() for col in (f.adjusted_means, f.adjusted_se)]
    rows = [[lab] + [col[i] for col in values] for i, lab in enumerate(fx.treatments)]
    _emit(Artifact(scalars, {"comparison": (cols, rows)}), args)
    return EXIT_OK if mx.lmm_fit.converged else EXIT_NONCONVERGENCE


def _cmd_check_design(args) -> int:
    ds, spec = _load(args)
    recipe = recipe_for(spec)
    pairs = orthogonality(recipe, ds)
    passed = all(dev == 0 for *_, dev in pairs)
    scalars = {"recipe": recipe.name, "orthogonal": "pass" if passed else "fail"}
    rows = [[term, grouping, dev == 0, dev] for term, grouping, dev in pairs]
    table = (["term", "grouping", "orthogonal", "deviation"], rows)
    _emit(Artifact(scalars, {"pairs": table}), args)
    if passed:
        return EXIT_OK
    _diag(EXIT_INPUT, "input", "the design is not orthogonal with respect to its random groupings")
    return EXIT_INPUT


def _parse_coeffs(text: str, labels) -> np.ndarray:
    out = np.zeros(len(labels))
    index, seen = {lab: i for i, lab in enumerate(labels)}, set()
    for part in text.split(","):
        if "=" not in part:
            raise ValidationError(f"bad contrast term {part!r}; use LABEL=COEF")
        lab, val = part.split("=", 1)
        lab = lab.strip()
        if lab not in index:
            raise ValidationError(f"unknown treatment {lab!r} in contrast")
        if lab in seen:
            raise ValidationError(f"treatment {lab!r} appears twice in contrast")
        seen.add(lab)
        try:
            out[index[lab]] = float(val)
        except ValueError:
            raise ValidationError(f"non-numeric coefficient {val!r}") from None
        if not np.isfinite(out[index[lab]]):
            raise ValidationError(f"--coeffs takes finite coefficients; got {val!r} for {lab!r}")
    return out


def _cmd_contrast(args) -> int:
    if not args.coeffs:
        raise ValidationError("--coeffs is required for contrast")
    ds, spec = _load(args)
    c = _parse_coeffs(args.coeffs, complete_records(ds, spec.treatment_factors)[1])
    fitter = fit_naive_block_mixed if args.model == "mixed" else fit_conditional_ibd
    f = fitter(ds, spec, args.method, **_iter_options(args))
    full = np.zeros(len(f.lmm_fit.beta_hat))
    full[: len(c)] = c
    est, se = lmm_contrast(f.lmm_fit, full)
    scalars = {"model": args.model, "method": args.method, "contrast": args.coeffs,
               "estimate": est, "std_err": se}
    _emit(Artifact(scalars, {}), args)
    return EXIT_OK if f.lmm_fit.converged else EXIT_NONCONVERGENCE


def _sym2(flag: str, text: str) -> np.ndarray:
    """Symmetric 2x2 matrix from a flag's ``yy,yz,zz`` entries."""
    try:
        v = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    if len(v) != 3:
        raise ValidationError(f"{flag} takes three numbers yy,yz,zz; got {len(v)}")
    if not np.isfinite(v).all():
        raise ValidationError(f"{flag} takes finite numbers; got {text!r}")
    return np.array([[v[0], v[1]], [v[1], v[2]]])


def _cmd_simulate(args) -> int:
    Sigma_B, Sigma_E = _sym2("--sigma-b", args.sigma_b), _sym2("--sigma-e", args.sigma_e)
    for flag, value in (("--mu-y", args.mu_y), ("--mu-z", args.mu_z)):
        if not np.isfinite(value):
            raise ValidationError(f"{flag} must be a finite number; got {value}")
    bias = args.study == "bias"
    least = 2 if bias else 1  # the study needs within-block contrasts and a Monte Carlo SE
    # generate draws one replicate unless told otherwise; the study has no default
    replicates = 1 if args.replicates is None and not bias else args.replicates
    for flag, value in (("--t", args.t), ("--b", args.b), ("--replicates", replicates)):
        if value is None or value < least:
            raise ValidationError(
                f"{'the bias study' if bias else 'simulate'} needs {flag} of at least "
                f"{least}; " + ("none was given" if value is None else f"got {value}"))
    if not bias and not 0 <= args.rep < replicates:
        raise ValidationError(
            f"--rep {args.rep} is not one of the {replicates} replicates (0-based)")
    params = BivariateParams(
        mu_y=np.full(args.t, args.mu_y), mu_z=args.mu_z, Sigma_B=Sigma_B, Sigma_E=Sigma_E
    )
    cfg = SimConfig(t=args.t, b=args.b, params=params, replicates=replicates,
                    seed=args.seed, condition_on_z=bias)
    if bias:
        res = bias_study(cfg)
        scalars = {"replicates": res.replicates, "gamma_e": res.gamma_e,
                   "gamma_be": res.gamma_be, "rho": res.rho,
                   "mixing_value": res.mixing_value}
        cols = ["estimator", "target", "mc_mean", "mc_se", "bias", "flag"]
        rows = [[getattr(r, c) for c in cols] for r in res.rows]
        _emit(Artifact(scalars, {"study": (cols, rows)}), args)
        return EXIT_OK
    ds = gen_bivariate_rcb(cfg)[args.rep]
    records = zip(ds.factors["treatment"], ds.factors["block"], ds.response,
                  ds.covariates[:, 0])
    lines = ["treatment,block,y,z"] + [
        f"{trt},{blk},{_fmt(float(y))},{_fmt(float(z))}" for trt, blk, y, z in records
    ]
    _write("\n".join(lines) + "\n", args)
    return EXIT_OK


_COMMANDS = {
    "fit": _cmd_fit,
    "adjust": _cmd_adjust,
    "compare": _cmd_compare,
    "check-design": _cmd_check_design,
    "contrast": _cmd_contrast,
    "simulate": _cmd_simulate,
}


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command line; returns the process exit code."""
    try:
        _check_iter_flags(args)
        code = _COMMANDS[args.command](args)
        if code == EXIT_NONCONVERGENCE:
            # every iterative fit ends in Newton steps, capped by --max-iter
            _diag(code, "non-convergence", "the fit stopped before converging; raise --max-iter")
        return code
    except (ValidationError, OSError) as exc:  # OSError: a missing or unreadable file
        _diag(EXIT_INPUT, "input", exc)
        return EXIT_INPUT
    except SingularityError as exc:
        _diag(EXIT_SINGULAR, "singularity", exc)
        return EXIT_SINGULAR


def _diag(code: int, kind: str, detail: Exception | str):
    msg = str(detail).replace("\n", " ")
    sys.stderr.write(f'vcadjust: code={code} kind={kind} msg="{msg}"\n')


@functools.cache  # built on the first call, not at import; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vcadjust",
        description="Covariate-adjusted treatment means for designed experiments.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, data=True, iterative=True):
        if data:
            p.add_argument("--data", required=True, help="delimited data file")
            p.add_argument("--design", required=True, help="JSON design spec")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", default="tsv", choices=["tsv", "json"])
        if iterative:
            p.add_argument("--tol", type=float, default=None)
            p.add_argument("--max-iter", type=int, default=None)

    for name in ("fit", "adjust"):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--model", default="bivariate", choices=MODELS)
        p.add_argument("--method", default="ml", choices=["ml", "reml"])

    p = sub.add_parser("compare")
    common(p)
    p.add_argument("--method", default="ml", choices=["ml", "reml"])

    p = sub.add_parser("check-design")
    common(p, iterative=False)

    p = sub.add_parser("contrast")
    common(p)
    p.add_argument("--model", default="bivariate", choices=["mixed", "bivariate"])
    p.add_argument("--method", default="reml", choices=["ml", "reml"])
    p.add_argument("--coeffs", required=True, help="e.g. 'A=1,B=-1'")

    p = sub.add_parser("simulate")
    common(p, data=False, iterative=False)
    p.add_argument("--study", default="generate", choices=["generate", "bias"])
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--replicates", type=int, default=None)  # generate: 1; bias: required
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rep", type=int, default=0)
    p.add_argument("--mu-y", type=float, default=0.0)
    p.add_argument("--mu-z", type=float, default=0.0)
    p.add_argument("--sigma-b", default="1,0,1", help="block cov: yy,yz,zz")
    p.add_argument("--sigma-e", default="1,0.5,1", help="residual cov: yy,yz,zz")
    return ap


def main(argv=None) -> int:
    return run(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
