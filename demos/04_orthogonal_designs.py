"""Covariate adjustment in split-plot and Latin square layouts.

Each orthogonal design conditions the response on the covariate through
stratum means: the split-plot model gains a wholeplot-mean regressor, the
Latin square gains row-mean and column-mean regressors.  Each layout is
first checked for the hypothesis of the conditional route: every treatment
term orthogonal to every random grouping, tested on the count tables.
"""

import numpy as np

import vcadjust as v

rng = np.random.default_rng(11)

# ---- split plot: 2 wholeplot treatments x 4 replicates x 3 split plots ----
Sigma_W = np.array([[2.0, 0.8], [0.8, 1.0]])
Sigma_E = np.array([[1.0, 0.3], [0.3, 0.5]])
wt, rep, sp, ys, zs = [], [], [], [], []
for i in range(2):
    for j in range(4):
        W = rng.multivariate_normal(np.zeros(2), Sigma_W)
        for k in range(3):
            E = rng.multivariate_normal(np.zeros(2), Sigma_E)
            ys.append(10.0 + 2.0 * i + 1.5 * k + W[0] + E[0])
            zs.append(5.0 + W[1] + E[1])
            wt.append(f"A{i + 1}")
            rep.append(f"R{j + 1}")
            sp.append(f"S{k + 1}")
split_ds = v.Dataset(
    factors={
        "wp_trt": np.array(wt, dtype=object),
        "wp_rep": np.array(rep, dtype=object),
        "sp_trt": np.array(sp, dtype=object),
    },
    response=np.array(ys),
    covariates=np.array(zs).reshape(-1, 1),
    covariate_names=("z",),
    levels={},
)
split_spec = v.DesignSpec(
    response="y",
    treatment_factors=("wp_trt", "sp_trt"),
    blocking_factors=("wp_rep",),
    covariates=("z",),
    recipe="split_plot",
)


def print_orthogonality(title, recipe, ds):
    print("%s: is each pair orthogonal (deviation 0)?" % title)
    print("%-14s %-10s %-10s %s" % ("term", "grouping", "orthogonal", "deviation"))
    for term, grouping, dev in v.orthogonality(recipe, ds):
        print("%-14s %-10s %-10s %g" % (term, grouping, dev == 0, dev))


recipe = v.recipe_for(split_spec)
print_orthogonality("split plot", recipe, split_ds)

fit = v.fit_orthogonal_conditional(recipe, split_ds, method="ml")
print("slopes:", {k: round(val, 3) for k, val in fit.slopes.items()})
print("%-8s %10s %8s" % ("cell", "adj.mean", "se"))
for i, lab in enumerate(fit.treatments):
    print("%-8s %10.2f %8.2f" % (lab, fit.adjusted_means[i], fit.adjusted_se[i]))
print()

# ---- latin square: 4 x 4, treatment k in cell (i, i+j mod 4) ----
Sigma_R = np.array([[1.5, 0.5], [0.5, 0.8]])
Sigma_C = np.array([[1.0, 0.4], [0.4, 0.6]])
R = rng.multivariate_normal(np.zeros(2), Sigma_R, size=4)
C = rng.multivariate_normal(np.zeros(2), Sigma_C, size=4)
rows, cols, trts, ys, zs = [], [], [], [], []
for i in range(4):
    for j in range(4):
        k = (i + j) % 4
        E = rng.multivariate_normal(np.zeros(2), np.array([[0.8, 0.2], [0.2, 0.4]]))
        ys.append(10.0 + 1.2 * k + R[i, 0] + C[j, 0] + E[0])
        zs.append(5.0 + R[i, 1] + C[j, 1] + E[1])
        rows.append(f"r{i + 1}")
        cols.append(f"c{j + 1}")
        trts.append(f"T{k + 1}")
latin_ds = v.Dataset(
    factors={
        "trt": np.array(trts, dtype=object),
        "row": np.array(rows, dtype=object),
        "col": np.array(cols, dtype=object),
    },
    response=np.array(ys),
    covariates=np.array(zs).reshape(-1, 1),
    covariate_names=("z",),
    levels={},
)
latin_spec = v.DesignSpec(
    response="y",
    treatment_factors=("trt",),
    blocking_factors=("row", "col"),
    covariates=("z",),
    recipe="latin_square",
)
recipe = v.recipe_for(latin_spec)
print_orthogonality("latin square", recipe, latin_ds)
fit = v.fit_orthogonal_conditional(recipe, latin_ds, method="ml")
print("slopes:", {k: round(val, 3) for k, val in fit.slopes.items()})
print("%-8s %10s %8s" % ("trt", "adj.mean", "se"))
for i, lab in enumerate(fit.treatments):
    print("%-8s %10.2f %8.2f" % (lab, fit.adjusted_means[i], fit.adjusted_se[i]))
