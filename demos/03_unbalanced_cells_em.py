"""Unbalanced data: whole cells missing, fitted by the EM engine.

Two cells (both response and covariate) are deleted from a complete
blocks experiment.  The joint model no longer factorizes, so the general
EM engine fits it.  The covariate mean is now estimated, not averaged:
its ML estimate moves away from the raw mean because the missingness is
unbalanced across treatments, and the treatments with fewer observed
blocks get visibly larger standard errors.
"""

import numpy as np

import vcadjust as v
from vcadjust.mvc_em import make_model

params = v.BivariateParams(
    mu_y=np.array([250.0, 262.0, 274.0, 249.0, 281.0, 240.0]),
    mu_z=8.0,
    Sigma_B=np.array([[420.0, 18.0], [18.0, 1.1]]),
    Sigma_E=np.array([[190.0, 5.5], [5.5, 0.35]]),
)
cfg = v.SimConfig(t=6, b=6, params=params, replicates=1, seed=99)
ds = v.gen_bivariate_rcb(cfg)[0]
spec = cfg.design_spec

# blank the first two treatments in block 1, response and covariate together
y = ds.response.copy()
Z = ds.covariates.copy()
gone = ((ds.factors["treatment"] == "T01") | (ds.factors["treatment"] == "T02")) & (
    ds.factors["block"] == "B01"
)
y[gone] = np.nan
Z[gone] = np.nan
ds_unbal = v.Dataset(
    factors=dict(ds.factors),
    response=y,
    covariates=Z,
    covariate_names=ds.covariate_names,
    levels={},
)

stacked = v.build_stacked(ds_unbal, spec)
print("complete cells: %d of %d" % (stacked.n_obs, ds.n_records))

fit = v.fit_em(make_model(stacked), tol=1e-10, max_iter=20000)
print("EM start and Newton steps converged in %d iterations; loglik %.4f"
      % (fit.iterations, fit.loglik))
print("loglik path is monotone: min step %.2e" % np.min(np.diff(fit.loglik_trace)))
print()

res = v.adjusted_means_mvc(fit)
raw_zbar = np.nanmean(Z)
print("estimated covariate mean %.4f vs raw average %.4f" % (res.evaluated_at[0], raw_zbar))
print()
print("%-10s %12s %10s" % ("treatment", "adj. mean", "std.err"))
for i, lab in enumerate(res.treatments):
    marker = "  <- 5 blocks only" if lab in ("T01", "T02") else ""
    print("%-10s %12.2f %10.2f%s" % (lab, res.means[i], res.se[i], marker))
