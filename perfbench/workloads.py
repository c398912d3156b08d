"""Seeded inputs for the three benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and returns a list of
:class:`Case` objects.  A case holds the CSV text and design JSON that the
CLI reads, the CLI arguments that fit it, and the arrays the reference
computation in :mod:`oracle` needs.  Nothing here imports ``vcadjust``: the
program sees only the files.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# field-trial covariances of demos/03 (response, covariate)
FIELD_SIGMA_B = np.array([[420.0, 18.0], [18.0, 1.1]])
FIELD_SIGMA_E = np.array([[190.0, 5.5], [5.5, 0.35]])
FIELD_MU_Y = np.array([250.0, 262.0, 274.0, 249.0, 281.0, 240.0])
FIELD_MU_Z = 8.0

# EM fits run through ``fit``: its output carries the log-likelihood that
# the output check compares, next to the adjusted-means table
MVC_COMMAND = ("fit", "--model", "mvc")


@dataclass
class Case:
    """One CLI invocation with its inputs and reference data."""

    name: str
    command: list[str]  # CLI words before --data/--design/--out
    design: dict
    csv_text: str
    oracle: dict = field(repr=False)  # input of oracle.reference()


def _num(x: float) -> str:
    return repr(float(x))


def _csv(header: list[str], rows: list[list[str]]) -> str:
    return "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"


def _labels(prefix: str, k: int) -> list[str]:
    width = len(str(k))
    return [f"{prefix}{i + 1:0{width}d}" for i in range(k)]


def _rcb_pairs(rng, mu_y, mu_z, b, Sigma_B, Sigma_E):
    """(t, b) arrays of responses and covariates of a complete RCB."""
    t = len(mu_y)
    B = rng.multivariate_normal(np.zeros(2), Sigma_B, size=b)
    E = rng.multivariate_normal(np.zeros(2), Sigma_E, size=(t, b))
    mu_z = np.broadcast_to(np.asarray(mu_z, dtype=float), (t,))
    Y = mu_y[:, None] + B[None, :, 0] + E[:, :, 0]
    Z = mu_z[:, None] + B[None, :, 1] + E[:, :, 1]
    return Y, Z


def _mvc_case(name, Y, Z, blank, tau_z):
    """RCB-layout EM case; ``blank`` is a set of (treatment, block) cells."""
    t, b = Y.shape
    trt, blk = _labels("T", t), _labels("B", b)
    rows, keep = [], []
    for j in range(b):
        for i in range(t):
            if (i, j) in blank:
                rows.append([trt[i], blk[j], "", ""])
            else:
                rows.append([trt[i], blk[j], _num(Y[i, j]), _num(Z[i, j])])
                keep.append((i, j))
    ii = np.array([k[0] for k in keep])
    jj = np.array([k[1] for k in keep])
    design = {
        "response": "y",
        "treatment_factors": ["treatment"],
        "blocking_factors": ["block"],
        "covariates": ["z"],
        "recipe": "rcb",
        "treatments_affect_covariates": bool(tau_z),
    }
    oracle = {
        "kind": "mvc",
        "y": Y[ii, jj],
        "z": Z[ii, jj],
        "treat": ii,
        "block": jj,
        "t": t,
        "b": b,
        "tau_z": bool(tau_z),
    }
    return Case(name, list(MVC_COMMAND), design, _csv(["treatment", "block", "y", "z"], rows), oracle)


def _blank_cells(rng, t, b, k):
    cells = set()
    while len(cells) < k:
        cells.add((int(rng.integers(t)), int(rng.integers(b))))
    return cells


def em_large_case(rng, b: int = 60) -> Case:
    """t=6 RCB at the field-trial covariances with one whole cell blanked."""
    Y, Z = _rcb_pairs(rng, FIELD_MU_Y, FIELD_MU_Z, b, FIELD_SIGMA_B, FIELD_SIGMA_E)
    return _mvc_case(f"em_large_b{b}", Y, Z, _blank_cells(rng, 6, b, 1), False)


def _shuffle_records(case: Case, rng) -> Case:
    header, *rows = case.csv_text.splitlines()
    case.csv_text = "\n".join([header] + [rows[i] for i in rng.permutation(len(rows))]) + "\n"
    return case


EM_LARGE_POOL = 3  # datasets fitted in turn; a run cycles through them
EM_LARGE_STREAM = 20261017  # fixed: every run fits the same datasets


def em_large(rng) -> list[Case]:
    """The same few datasets in every run, in a seed-dependent order.

    EM iteration counts at b=60 range from about 30 to over 100 between
    draws, and a run holds only about ten fits, so a pool drawn per seed
    would move the timings by 20% from seed to seed.  A small fixed pool,
    cycled, keeps every run's mix of datasets the same.  The seed sets the
    order of the fits and the order of the records in each file.
    """
    fixed = np.random.default_rng(EM_LARGE_STREAM)
    pool = [em_large_case(fixed) for _ in range(EM_LARGE_POOL)]
    return [_shuffle_records(pool[i], rng) for i in rng.permutation(len(pool))]


EM_SMALL_STREAM = 20261018  # fixed: every run fits the same trials
EM_SMALL_FIELD = 24  # plain trials at the field-trial covariances
EM_SMALL_NOBLOCK = 6  # plain trials with no block effect at all
EM_SMALL_TAU = 6  # treatments-affect-covariates trials, t=3, b=10


def em_small_pool(fixed) -> list[list[Case]]:
    """The trials of one batch, grouped by generating regime.

    Plain trials draw t in [3, 6], b in [6, 12] and 0 to 2 blanked cells;
    the no-block regime puts most block-covariance MLEs on the PSD boundary.
    """
    field, noblock, tau = [], [], []
    for k in range(EM_SMALL_FIELD + EM_SMALL_NOBLOCK):
        t, b = int(fixed.integers(3, 7)), int(fixed.integers(6, 13))
        regime = "field" if k < EM_SMALL_FIELD else "noblock"
        Sigma_B = FIELD_SIGMA_B if regime == "field" else np.zeros((2, 2))
        Y, Z = _rcb_pairs(fixed, FIELD_MU_Y[:t], FIELD_MU_Z, b, Sigma_B, FIELD_SIGMA_E)
        blank = _blank_cells(fixed, t, b, int(fixed.integers(0, 3)))
        case = _mvc_case(f"{regime}{k:02d}_t{t}b{b}m{len(blank)}", Y, Z, blank, False)
        (field if regime == "field" else noblock).append(case)
    mu_z = FIELD_MU_Z + np.array([-0.5, 0.0, 0.5])
    for k in range(EM_SMALL_TAU):
        Y, Z = _rcb_pairs(fixed, FIELD_MU_Y[:3], mu_z, 10, FIELD_SIGMA_B, FIELD_SIGMA_E)
        blank = _blank_cells(fixed, 3, 10, int(fixed.integers(0, 3)))
        tau.append(_mvc_case(f"tauz{k:02d}_t3b10m{len(blank)}", Y, Z, blank, True))
    return [field, noblock, tau]


def em_small_batch(rng) -> list[Case]:
    """The same trials in every run; the seed shuffles them within regimes.

    Each regime keeps fixed, evenly spread slots in the batch, so any
    prefix of it, such as the part a run reaches in its last pass, holds
    the regimes in the same proportions.
    """
    groups = em_small_pool(np.random.default_rng(EM_SMALL_STREAM))
    total = sum(len(g) for g in groups)
    slots = sorted(
        ((i + 0.5) * total / len(g), r, i) for r, g in enumerate(groups) for i in range(len(g))
    )
    shuffled = [[g[i] for i in rng.permutation(len(g))] for g in groups]
    return [_shuffle_records(shuffled[r][i], rng) for _, r, i in slots]


# ------------------------------------------------------------ LMM designs


def _lmm_case(name, command, factors, y, z, design, X, random, coef, method):
    header = list(factors) + ["y", "z"]
    cols = [factors[f] for f in factors]
    rows = [[c[i] for c in cols] + [_num(y[i]), _num(z[i])] for i in range(len(y))]
    oracle = {"kind": "lmm", "y": y, "X": X, "random": random, "coef": coef, "method": method}
    return Case(name, command, design, _csv(header, rows), oracle)


def _codes(labels):
    uniq = sorted(set(labels))
    index = {u: i for i, u in enumerate(uniq)}
    return np.array([index[v] for v in labels]), len(uniq)


def _onehot(labels):
    codes, k = _codes(labels)
    W = np.zeros((len(codes), k))
    W[np.arange(len(codes)), codes] = 1.0
    return W


def _group_mean(z, labels):
    codes, k = _codes(labels)
    return (np.bincount(codes, weights=z, minlength=k) / np.bincount(codes, minlength=k))[codes]


def _conditional_lmm(y, z, trt_labels, mean_groups, random_groups):
    """X, random incidences and adjusted-means coefficients of a recipe fit:
    cell means, the covariate, and its stratum means at the grand mean."""
    T = _onehot(trt_labels)
    t = T.shape[1]
    regs = [z] + [_group_mean(z, g) for g in mean_groups]
    X = np.column_stack([T] + regs)
    coef = np.column_stack([np.eye(t)] + [np.full(t, z.mean())] * len(regs))
    return X, [_onehot(g) for g in random_groups], coef


def split_plot_case(rng, a=2, r=100, s=3) -> Case:
    Sigma_W = np.array([[2.0, 0.8], [0.8, 1.0]])
    Sigma_E = np.array([[1.0, 0.3], [0.3, 0.5]])
    wp, rep, sp = _labels("A", a), _labels("R", r), _labels("S", s)
    f = {"wp_trt": [], "wp_rep": [], "sp_trt": []}
    y, z = [], []
    for i in range(a):
        for j in range(r):
            W = rng.multivariate_normal(np.zeros(2), Sigma_W)
            for k in range(s):
                E = rng.multivariate_normal(np.zeros(2), Sigma_E)
                y.append(10.0 + 2.0 * i + 1.5 * k + 0.5 * i * k + W[0] + E[0])
                z.append(5.0 + W[1] + E[1])
                f["wp_trt"].append(wp[i])
                f["wp_rep"].append(rep[j])
                f["sp_trt"].append(sp[k])
    y, z = np.array(y), np.array(z)
    trt = [f"{u}:{v}" for u, v in zip(f["wp_trt"], f["sp_trt"])]
    wholeplot = [f"{u}:{v}" for u, v in zip(f["wp_trt"], f["wp_rep"])]
    X, random, coef = _conditional_lmm(y, z, trt, [wholeplot], [wholeplot])
    design = {
        "response": "y",
        "treatment_factors": ["wp_trt", "sp_trt"],
        "blocking_factors": ["wp_rep"],
        "covariates": ["z"],
        "recipe": "split_plot",
    }
    return _lmm_case(
        f"split_plot_{a}x{r}x{s}", ["adjust", "--model", "orthogonal", "--method", "reml"],
        f, y, z, design, X, random, coef, "reml",
    )


def latin_square_case(rng, k=16) -> Case:
    Sigma_R = np.array([[1.5, 0.5], [0.5, 0.8]])
    Sigma_C = np.array([[1.0, 0.4], [0.4, 0.6]])
    Sigma_E = np.array([[0.8, 0.2], [0.2, 0.4]])
    R = rng.multivariate_normal(np.zeros(2), Sigma_R, size=k)
    C = rng.multivariate_normal(np.zeros(2), Sigma_C, size=k)
    rows, cols, trts = _labels("r", k), _labels("c", k), _labels("T", k)
    f = {"trt": [], "row": [], "col": []}
    y, z = [], []
    for i in range(k):
        for j in range(k):
            E = rng.multivariate_normal(np.zeros(2), Sigma_E)
            tr = (i + j) % k
            y.append(10.0 + 1.2 * tr + R[i, 0] + C[j, 0] + E[0])
            z.append(5.0 + R[i, 1] + C[j, 1] + E[1])
            f["trt"].append(trts[tr])
            f["row"].append(rows[i])
            f["col"].append(cols[j])
    y, z = np.array(y), np.array(z)
    X, random, coef = _conditional_lmm(
        y, z, f["trt"], [f["row"], f["col"]], [f["row"], f["col"]]
    )
    design = {
        "response": "y",
        "treatment_factors": ["trt"],
        "blocking_factors": ["row", "col"],
        "covariates": ["z"],
        "recipe": "latin_square",
    }
    return _lmm_case(
        f"latin_square_{k}x{k}", ["adjust", "--model", "orthogonal", "--method", "reml"],
        f, y, z, design, X, random, coef, "reml",
    )


def _block_layout_case(rng, name, command, blocks, t, method, recipe, mixed_ml=False):
    """Field-trial pairs on an arbitrary block layout (list of treatment lists)."""
    trts = _labels("T", t)
    blk = _labels("B", len(blocks))
    mu_y = FIELD_MU_Y[np.arange(t) % len(FIELD_MU_Y)] + 3.0 * (np.arange(t) // len(FIELD_MU_Y))
    B = rng.multivariate_normal(np.zeros(2), FIELD_SIGMA_B, size=len(blocks))
    f = {"treatment": [], "block": []}
    y, z, ti, bj = [], [], [], []
    for j, members in enumerate(blocks):
        for i in members:
            E = rng.multivariate_normal(np.zeros(2), FIELD_SIGMA_E)
            y.append(mu_y[i] + B[j, 0] + E[0])
            z.append(FIELD_MU_Z + B[j, 1] + E[1])
            f["treatment"].append(trts[i])
            f["block"].append(blk[j])
            ti.append(i)
            bj.append(j)
    y, z = np.array(y), np.array(z)
    X, random, coef = _conditional_lmm(y, z, f["treatment"], [f["block"]], [f["block"]])
    design = {
        "response": "y",
        "treatment_factors": ["treatment"],
        "blocking_factors": ["block"],
        "covariates": ["z"],
        "recipe": recipe,
    }
    case = _lmm_case(name, command, f, y, z, design, X, random, coef, method)
    if mixed_ml:
        # compare: fixed blocks, single-slope mixed (ML) and the joint ML fit
        T = _onehot(f["treatment"])
        case.oracle = {
            "kind": "compare",
            "y": y, "z": z, "treat": np.array(ti), "block": np.array(bj),
            "t": t, "b": len(blocks), "tau_z": False,
            "mixed": {
                "kind": "lmm", "y": y, "X": np.column_stack([T, z]),
                "random": random, "method": "ml",
                "coef": np.column_stack([np.eye(t), np.full(t, z.mean())]),
            },
        }
    return case


def lmm_designs(rng) -> list[Case]:
    """Orthogonal-recipe REML fits, an incomplete-block REML fit and a compare."""
    ibd = [[(j + d) % 10 for d in (0, 1, 3, 7)] for j in range(60)]
    return [
        split_plot_case(rng),
        latin_square_case(rng),
        _block_layout_case(
            rng, "rcb_6x100", ["adjust", "--model", "orthogonal", "--method", "reml"],
            [list(range(6))] * 100, 6, "reml", "rcb",
        ),
        _block_layout_case(
            rng, "ibd_10x60k4", ["adjust", "--model", "bivariate", "--method", "reml"],
            ibd, 10, "reml", "incomplete_block",
        ),
        _block_layout_case(
            rng, "compare_6x60", ["compare", "--method", "ml"], [list(range(6))] * 60, 6, "ml", "rcb",
            mixed_ml=True,
        ),
    ]


WORKLOADS = {"em_large": em_large, "em_small_batch": em_small_batch, "lmm_designs": lmm_designs}
