"""Batch command-line surface.

Subcommands: ``fit`` (parameter estimates and log-likelihood), ``adjust``
(adjusted-means table), ``compare`` (fixed/mixed/bivariate side by side on
a complete RCB), ``contrast`` (a treatment contrast with its standard
error), ``check-design`` (projector-partition and layout validation), and
``simulate`` (data generation and the bias study).  Exit codes: 0 success,
2 input/validation error, 3 non-convergence, 4 singularity; every failure
prints one machine-parseable line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field
from operator import attrgetter
from types import SimpleNamespace

import numpy as np

from .bivariate_rcb import (
    adjusted_means_bivariate,
    fit_bivariate_rcb_ml,
    fit_conditional_ibd,
    fit_mixed_rcb,
    fit_naive_block_mixed,
)
from .data_model import build_stacked, load_dataset, load_design_spec
from .design_algebra import validate_partition
from .errors import ConvergenceError, SingularityError, ValidationError
from .lmm import contrast as lmm_contrast
from .mvc_em import adjusted_means_mvc, fit_em, make_model
from .orthogonal_conditional import (
    fit_orthogonal_conditional,
    recipe_for,
    recipe_partition,
)
from .rcb_classical import fit_fixed_rcb, rcb_cells
from .simulate import BivariateParams, SimConfig, bias_study, gen_bivariate_rcb

MODELS = ("fixed", "mixed", "bivariate", "orthogonal", "mvc")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONCONVERGENCE = 3
EXIT_SINGULAR = 4


@dataclass
class RunRequest:
    command: str
    model: str = "bivariate"
    method: str = "ml"
    data_path: str | None = None
    design_path: str | None = None
    output_path: str | None = None
    format: str = "tsv"
    tol: float | None = None
    max_iter: int | None = None
    coeffs: str | None = None
    sim: dict = field(default_factory=dict)


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


def _write(text: str, req: RunRequest):
    if req.output_path:
        with open(req.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(artifact: Artifact, req: RunRequest):
    _write(artifact.render(req.format), req)


def _load(req: RunRequest):
    if not req.design_path or not req.data_path:
        raise ValidationError("both --data and --design are required")
    spec = load_design_spec(req.design_path)
    ds = load_dataset(req.data_path, spec)
    return ds, spec


def _is_complete_rcb(ds, spec) -> bool:
    """One covariate, one blocking factor, every treatment once in every block."""
    if spec.recipe != "rcb" or spec.m != 1 or len(spec.blocking_factors) != 1:
        return False
    return bool(np.all(rcb_cells(ds, spec)[-1] == 1))


def _iter_options(req: RunRequest) -> dict:
    """``--tol``/``--max-iter`` when given; each fitter keeps its own defaults."""
    opts = {"tol": req.tol, "max_iter": req.max_iter}
    return {k: val for k, val in opts.items() if val is not None}


def _fields(**paths):
    """Scalar fields after ``method``: output name -> dotted fit attribute."""
    getters = {name: attrgetter(path) for name, path in paths.items()}
    return lambda f, req: {
        "method": req.method, **{name: get(f) for name, get in getters.items()}
    }


def _fixed_scalars(f, req) -> dict:
    return {"gamma_ols": f.gamma_ols, "sigma_e2": f.sigma_e2_hat, "loglik": f.loglik}


def _orthogonal_scalars(f, req) -> dict:
    return {
        "method": req.method,
        "loglik": f.loglik,
        **{f"slope[{name}]": val for name, val in f.slopes.items()},
        **{f"varcomp[{name}]": val for name, val in f.var_comps.items()},
        "converged": f.lmm_fit.converged,
    }


def _fit_bivariate_ml(ds, spec, req):
    fit, params, cond = fit_bivariate_rcb_ml(ds, spec)
    means, se = adjusted_means_bivariate(fit)
    return SimpleNamespace(
        fit=fit, params=params, cond=cond, treatments=fit.treatments,
        adjusted_means=means, adjusted_se=se,
    )


def _fit_mvc(ds, spec, req):
    if req.method == "reml":
        raise ValidationError("reml unsupported for mvc")
    stacked = build_stacked(ds, spec)
    fit = fit_em(make_model(stacked), **_iter_options(req))
    res = adjusted_means_mvc(fit)
    return SimpleNamespace(
        fit=fit, stacked=stacked, evaluated_at=res.evaluated_at,
        treatments=res.treatments, adjusted_means=res.means, adjusted_se=res.se,
    )


def _mvc_scalars(f, req) -> dict:
    out = {"method": req.method, "loglik": f.fit.loglik,
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

# model -> (fitter(ds, spec, req), scalar fields after "model" (fit, req),
# treatment-table columns after "treatment" as (header, fit attribute)).
# A "<model>_rcb" row replaces its model's row on a complete RCB for the
# methods in _RCB_METHODS; "mixed_rcb" runs the fit of "mixed" and only
# prints other fields.  A false "converged" field exits 3.
_MODELS = {
    "fixed": (lambda ds, spec, req: fit_fixed_rcb(ds, spec), _fixed_scalars, _EFFECT),
    "mixed_rcb": (
        lambda ds, spec, req: fit_mixed_rcb(ds, spec, req.method, **_iter_options(req)),
        _fields(gamma_mixed="gamma_e", sigma_e2="sigma_e2", sigma_b2="sigma_b2",
                rho="rho", loglik="loglik", converged="lmm_fit.converged"),
        _EFFECT,
    ),
    "mixed": (
        lambda ds, spec, req: fit_naive_block_mixed(
            ds, spec, req.method, **_iter_options(req)),
        _fields(gamma="gamma_e", **_BLOCK),
        _EFFECTS,
    ),
    "bivariate_rcb": (
        _fit_bivariate_ml,
        _fields(gamma_e="fit.gamma_e_hat", gamma_be="fit.gamma_be_hat",
                gamma_b="cond.gamma_b", sigma_e2="cond.sigma_e2",
                sigma_b2="cond.sigma_b2", mu_z="fit.zbar",
                loglik="fit.loglik", sigma_b_psd="params.sigma_b_psd"),
        _MEANS,
    ),
    "bivariate": (
        lambda ds, spec, req: fit_conditional_ibd(
            ds, spec, req.method, **_iter_options(req)),
        _fields(gamma_e="gamma_e", gamma_b="gamma_b", **_BLOCK),
        _EFFECTS,
    ),
    "orthogonal": (
        lambda ds, spec, req: fit_orthogonal_conditional(
            recipe_for(spec), ds, req.method, **_iter_options(req)),
        _orthogonal_scalars,
        _MEANS,
    ),
    "mvc": (_fit_mvc, _mvc_scalars, _MEANS),
}
_RCB_METHODS = {"mixed": ("ml", "reml"), "bivariate": ("ml",)}


def _fit_artifact(req: RunRequest, ds, spec) -> tuple[Artifact, int]:
    if req.model not in MODELS:
        raise ValidationError(f"unknown model {req.model!r}; expected one of {MODELS}")
    key = req.model
    if req.method in _RCB_METHODS.get(key, ()) and _is_complete_rcb(ds, spec):
        key += "_rcb"
    fitter, scalar_fields, columns = _MODELS[key]
    f = fitter(ds, spec, req)
    scalars = {"model": req.model, **scalar_fields(f, req)}
    cols = ["treatment"] + [name for name, _ in columns]
    rows = [
        [lab] + [getattr(f, attr)[i] for _, attr in columns]
        for i, lab in enumerate(f.treatments)
    ]
    code = EXIT_OK if scalars.get("converged", True) else EXIT_NONCONVERGENCE
    return Artifact(scalars, {"treatments": (cols, rows)}), code


def _cmd_fit(req: RunRequest) -> int:
    ds, spec = _load(req)
    artifact, code = _fit_artifact(req, ds, spec)
    _emit(artifact, req)
    return code


def _cmd_adjust(req: RunRequest) -> int:
    ds, spec = _load(req)
    artifact, code = _fit_artifact(req, ds, spec)
    # every model's table starts with treatment, adjusted mean, standard error
    rows = [row[:3] for row in artifact.tables["treatments"][1]]
    table = (["treatment", "adj_mean", "std_err"], rows)
    scalars = {"model": req.model, "method": req.method}
    _emit(Artifact(scalars, {"adjusted_means": table}), req)
    return code


def _cmd_compare(req: RunRequest) -> int:
    ds, spec = _load(req)
    if not _is_complete_rcb(ds, spec):
        raise ValidationError(
            "compare needs a complete randomized-blocks layout with one covariate"
        )
    fits = {
        "fixed": fit_fixed_rcb(ds, spec),
        "mixed": fit_mixed_rcb(ds, spec, req.method, **_iter_options(req)),
        "bivariate": _fit_bivariate_ml(ds, spec, req),
    }
    fx, mx = fits["fixed"], fits["mixed"]
    scalars = {
        "gamma_ols": fx.gamma_ols,
        "gamma_mixed": mx.gamma_e,
        "gamma_be": fits["bivariate"].fit.gamma_be_hat,
        "sigma_e2_mixed": mx.sigma_e2,
        "sigma_b2_mixed": mx.sigma_b2,
        "rho_mixed": mx.rho,
        "method": req.method,
    }
    cols = ["treatment"]
    for name in fits:
        cols += [f"{name}_adj_mean", f"{name}_std_err"]
    rows = [
        [lab] + [v for f in fits.values() for v in (f.adjusted_means[i], f.adjusted_se[i])]
        for i, lab in enumerate(fx.treatments)
    ]
    _emit(Artifact(scalars, {"comparison": (cols, rows)}), req)
    return EXIT_OK if mx.lmm_fit.converged else EXIT_NONCONVERGENCE


def _cmd_check_design(req: RunRequest) -> int:
    ds, spec = _load(req)
    recipe = recipe_for(spec)
    part = recipe_partition(recipe, ds)
    report = validate_partition(part, tol=req.tol if req.tol is not None else 1e-10)
    scalars = {
        "recipe": recipe.name,
        "partition": "pass" if report.passed else "fail",
        "dim": part.dim,
        "strata": part.n_strata,
        "idempotency": report.idempotency,
        "orthogonality": report.orthogonality,
        "completeness": report.completeness,
        "grand_mean": report.grand_mean,
    }
    _emit(Artifact(scalars, {}), req)
    return EXIT_OK if report.passed else EXIT_INPUT


def _parse_coeffs(text: str, labels) -> np.ndarray:
    out = np.zeros(len(labels))
    index = {lab: i for i, lab in enumerate(labels)}
    for part in text.split(","):
        if "=" not in part:
            raise ValidationError(f"bad contrast term {part!r}; use LABEL=COEF")
        lab, val = part.split("=", 1)
        lab = lab.strip()
        if lab not in index:
            raise ValidationError(f"unknown treatment {lab!r} in contrast")
        try:
            out[index[lab]] = float(val)
        except ValueError:
            raise ValidationError(f"non-numeric coefficient {val!r}") from None
    return out


def _cmd_contrast(req: RunRequest) -> int:
    if not req.coeffs:
        raise ValidationError("--coeffs is required for contrast")
    ds, spec = _load(req)
    fitters = {"mixed": fit_naive_block_mixed, "bivariate": fit_conditional_ibd}
    if req.model not in fitters:
        raise ValidationError("contrast supports models 'mixed' and 'bivariate'")
    f = fitters[req.model](ds, spec, req.method, **_iter_options(req))
    c = _parse_coeffs(req.coeffs, f.treatments)
    full = np.zeros(len(f.lmm_fit.beta_hat))
    full[: len(c)] = c
    est, se = lmm_contrast(f.lmm_fit, full)
    scalars = {"model": req.model, "method": req.method, "contrast": req.coeffs,
               "estimate": est, "std_err": se}
    _emit(Artifact(scalars, {}), req)
    return EXIT_OK if f.lmm_fit.converged else EXIT_NONCONVERGENCE


def _sym2(v) -> np.ndarray:
    """Symmetric 2x2 matrix from its (yy, yz, zz) entries."""
    return np.array([[v[0], v[1]], [v[1], v[2]]])


def _cmd_simulate(req: RunRequest) -> int:
    sim = req.sim
    params = BivariateParams(
        mu_y=np.full(sim["t"], sim.get("mu_y", 0.0)),
        mu_z=sim.get("mu_z", 0.0),
        Sigma_B=_sym2(sim["sigma_b"]),
        Sigma_E=_sym2(sim["sigma_e"]),
    )
    cfg = SimConfig(
        t=sim["t"],
        b=sim["b"],
        params=params,
        replicates=sim.get("replicates", 1),
        seed=sim.get("seed", 0),
        condition_on_z=sim.get("study") == "bias",
    )
    if sim.get("study") == "bias":
        res = bias_study(cfg)
        scalars = {"replicates": res.replicates, "gamma_e": res.gamma_e,
                   "gamma_be": res.gamma_be, "rho": res.rho,
                   "mixing_value": res.mixing_value}
        cols = ["estimator", "target", "mc_mean", "mc_se", "bias", "flag"]
        rows = [[getattr(r, c) for c in cols] for r in res.rows]
        _emit(Artifact(scalars, {"study": (cols, rows)}), req)
        return EXIT_OK
    ds = gen_bivariate_rcb(cfg)[sim.get("rep", 0)]
    records = zip(ds.factors["treatment"], ds.factors["block"], ds.response,
                  ds.covariates[:, 0])
    lines = ["treatment,block,y,z"] + [
        f"{trt},{blk},{_fmt(float(y))},{_fmt(float(z))}" for trt, blk, y, z in records
    ]
    _write("\n".join(lines) + "\n", req)
    return EXIT_OK


_COMMANDS = {
    "fit": _cmd_fit,
    "adjust": _cmd_adjust,
    "compare": _cmd_compare,
    "check-design": _cmd_check_design,
    "contrast": _cmd_contrast,
    "simulate": _cmd_simulate,
}


def run(request: RunRequest) -> int:
    """Execute one request; returns the process exit code."""
    handler = _COMMANDS.get(request.command)
    try:
        if handler is None:
            raise ValidationError(f"unknown command {request.command!r}")
        if request.format not in ("tsv", "json"):
            raise ValidationError(f"unknown format {request.format!r}")
        if request.method not in ("ml", "reml"):
            raise ValidationError(f"unknown method {request.method!r}")
        code = handler(request)
        if code == EXIT_NONCONVERGENCE:
            # for mvc, --tol only ends the EM start early: it cannot turn a
            # max_iter or stall exit into a converged fit
            _diag(code, "non-convergence", "the fit stopped before converging; " + (
                "raise --max-iter (--tol only ends the EM start early)"
                if request.model == "mvc" else "raise --max-iter or loosen --tol"))
        return code
    except (ValidationError, FileNotFoundError) as exc:
        _diag(EXIT_INPUT, "input", exc)
        return EXIT_INPUT
    except SingularityError as exc:
        _diag(EXIT_SINGULAR, "singularity", exc)
        return EXIT_SINGULAR
    except ConvergenceError as exc:
        _diag(EXIT_NONCONVERGENCE, "non-convergence", exc)
        return EXIT_NONCONVERGENCE


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

    def common(p, data=True):
        if data:
            p.add_argument("--data", required=True, help="delimited data file")
            p.add_argument("--design", required=True, help="JSON design spec")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", default="tsv", choices=["tsv", "json"])
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
    common(p)

    p = sub.add_parser("contrast")
    common(p)
    p.add_argument("--model", default="bivariate", choices=["mixed", "bivariate"])
    p.add_argument("--method", default="reml", choices=["ml", "reml"])
    p.add_argument("--coeffs", required=True, help="e.g. 'A=1,B=-1'")

    p = sub.add_parser("simulate")
    common(p, data=False)
    p.add_argument("--study", default="generate", choices=["generate", "bias"])
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rep", type=int, default=0)
    p.add_argument("--mu-y", type=float, default=0.0)
    p.add_argument("--mu-z", type=float, default=0.0)
    p.add_argument("--sigma-b", default="1,0,1", help="block cov: yy,yz,zz")
    p.add_argument("--sigma-e", default="1,0.5,1", help="residual cov: yy,yz,zz")
    return ap


def _request_from_args(args) -> RunRequest:
    req = RunRequest(
        command=args.command,
        model=getattr(args, "model", "bivariate"),
        method=getattr(args, "method", "ml"),
        data_path=getattr(args, "data", None),
        design_path=getattr(args, "design", None),
        output_path=args.out,
        format=args.format,
        tol=args.tol,
        max_iter=args.max_iter,
        coeffs=getattr(args, "coeffs", None),
    )
    if args.command == "simulate":
        names = ("study", "t", "b", "replicates", "seed", "rep", "mu_y", "mu_z")
        req.sim = {name: getattr(args, name) for name in names}
        for name in ("sigma_b", "sigma_e"):
            req.sim[name] = [float(v) for v in getattr(args, name).split(",")]
    return req


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        req = _request_from_args(args)
    except (ValueError, ValidationError) as exc:
        _diag(EXIT_INPUT, "input", exc)
        return EXIT_INPUT
    return run(req)


if __name__ == "__main__":
    sys.exit(main())
