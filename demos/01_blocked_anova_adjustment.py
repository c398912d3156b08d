"""Covariate-adjusted treatment means on a complete-blocks experiment.

Simulates a randomized complete blocks trial where the covariate varies
both within and between blocks, then runs the three estimators side by
side: fixed blocks, the naive single-slope mixed model (the random-blocks
fit without the block-mean regressor, whose one slope is ``gamma_e`` of
its ``BlockConditionalFit``), and the joint (two-slope)
variance-components fit.  The fixed fit's slope is the within-block
regression and the joint fit adds the block-mean regression; the naive
mixed fit blends the two into one slope, which shifts its means.  The
fixed and joint fits agree on the means while their standard errors
differ by the block-sampling term.
"""

import numpy as np

import vcadjust as v

params = v.BivariateParams(
    mu_y=np.array([250.0, 262.0, 274.0, 249.0, 281.0, 240.0]),
    mu_z=8.0,
    Sigma_B=np.array([[420.0, 18.0], [18.0, 1.1]]),  # blocks move y and z together
    Sigma_E=np.array([[190.0, 5.5], [5.5, 0.35]]),
)
cfg = v.SimConfig(t=6, b=4, params=params, replicates=1, seed=2024)
ds = v.gen_bivariate_rcb(cfg)[0]
spec = cfg.design_spec

truth = v.conditional_from_bivariate(params, 6)
print("generating slopes: cell-level %.2f, block-mean %.2f" % (truth.gamma_e, truth.gamma_be))
print()

fixed = v.fit_fixed_rcb(ds, spec)
mixed = v.fit_mixed_rcb(ds, spec, method="ml")
joint, joint_params, joint_cond = v.fit_bivariate_rcb_ml(ds, spec)
jmeans, jse = v.adjusted_means_bivariate(joint)

print("fitted slopes:")
print("  within-block (fixed blocks; the joint fit's cell level)  %8.3f" % fixed.gamma_ols)
print("  block-mean (joint fit)                                   %8.3f" % joint.gamma_be_hat)
print("  naive mixed (the two blended into one slope)             %8.3f" % mixed.gamma_e)
print()

print("%-10s %22s %22s %22s" % ("treatment", "fixed (mean, se)", "naive mixed", "joint"))
for i, lab in enumerate(fixed.treatments):
    print(
        "%-10s %13.2f %8.2f %13.2f %8.2f %13.2f %8.2f"
        % (
            lab,
            fixed.adjusted_means[i],
            fixed.adjusted_se[i],
            mixed.adjusted_means[i],
            mixed.adjusted_se[i],
            jmeans[i],
            jse[i],
        )
    )
print()
print("joint means equal the fixed-blocks means (max diff %.2e)," % np.max(np.abs(jmeans - fixed.adjusted_means)))
print("but their variance adds the block-sampling term sigma_b^2/b = %.2f" % (joint.sigma_b2 / joint.b))
