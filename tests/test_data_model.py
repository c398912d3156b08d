import json
import re

import numpy as np
import pytest

import vcadjust as v
from vcadjust.data_model import group_codes
from vcadjust.errors import ValidationError

from oracle_utils import C_list, D_list, W_list, obs_index, position


def _rcb_csv(t=6, b=4, missing=()):
    """Complete RCB file text; `missing` holds (treatment, block) pairs to blank."""
    rng = np.random.default_rng(0)
    lines = ["treatment,block,yield,prev"]
    for i in range(t):
        for j in range(b):
            trt, blk = chr(ord("A") + i), str(j + 1)
            if (trt, blk) in missing:
                lines.append(f"{trt},{blk},,")
            else:
                y = 250 + 10 * i + 5 * j + rng.normal()
                z = 8 + 0.5 * j + rng.normal() * 0.3
                lines.append(f"{trt},{blk},{y:.4f},{z:.4f}")
    return "\n".join(lines) + "\n"


SPEC = v.DesignSpec(
    response="yield",
    treatment_factors=("treatment",),
    blocking_factors=("block",),
    covariates=("prev",),
    recipe="rcb",
)


class TestLoadDataset:
    def test_complete_rcb_shape(self):
        ds = v.load_dataset(_rcb_csv(), SPEC)
        assert ds.n_records == 24
        assert int(ds.complete_mask.sum()) == 24
        assert ds.m == 1

    def test_missing_cells_counted(self):
        ds = v.load_dataset(_rcb_csv(missing=(("A", "1"), ("B", "1"))), SPEC)
        assert ds.n_records == 24
        assert int(ds.complete_mask.sum()) == 22

    def test_partial_missing_rejected_with_row(self):
        text = _rcb_csv()
        lines = text.splitlines()
        parts = lines[3].split(",")
        parts[3] = ""  # keep response, blank covariate
        lines[3] = ",".join(parts)
        with pytest.raises(ValidationError, match="row 3"):
            v.load_dataset("\n".join(lines) + "\n", SPEC)

    def test_non_numeric_rejected(self):
        # "np.float64(17.0)" is what f"{x!r}" writes for a numpy-2 float64
        # scalar; the loader must keep rejecting it.  Only an empty field is
        # missing: nan, the infinities and an overflowing literal are refused
        for token, kind in (("oops", "non-numeric"), ("np.float64(17.0)", "non-numeric"),
                            ("nan", "non-finite"), ("inf", "non-finite"),
                            ("-inf", "non-finite"), ("1e999", "non-finite")):
            bad = _rcb_csv().splitlines()
            parts = bad[1].split(",")
            parts[2] = token
            bad[1] = ",".join(parts)
            with pytest.raises(ValidationError, match=f"^row 1: {kind} value '{re.escape(token)}'"):
                v.load_dataset("\n".join(bad) + "\n", SPEC)

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["A,1,2,x", "B,1,2,", "A,"], "row 3: non-numeric value 'x' in column 'prev'"),
            (["B,1,2,", "A,1,2,x", "A,"], "row 3: partially missing cell"),
            ([" ,1,2,3", "A,1,2,x", "A,"], "row 3: factor 'treatment' is empty"),
            (["A,", "A,1,2,x", ",1,2,3"], "row 3: expected 4 fields"),
            (["A,1,2,3", "A,1,x,", "A,"], "row 4: non-numeric value 'x' in column 'yield'"),
            (["A,1,2,inf", "B,1,2,", "A,"], "row 3: non-finite value 'inf' in column 'prev'"),
            (["B,1,2,", "A,1,2,-inf", "A,"], "row 3: partially missing cell"),
            (["A,1,2,3", "A,1,nan,", "A,"], "row 4: non-finite value 'nan' in column 'yield'"),
            (["A,1,1e999,x", "A,"], "row 3: non-finite value '1e999' in column 'yield'"),
        ],
    )
    def test_first_error_in_row_order_counts_blank_lines(self, rows, message):
        """The error reported is the first one reading row by row, and within
        a row field by field; row numbers count blank lines."""
        text = "\n".join(["treatment,block,yield,prev", "A,1,2,3", ""] + rows) + "\n"
        with pytest.raises(ValidationError, match=f"^{message}"):
            v.load_dataset(text, SPEC)

    def test_unknown_level_rejected(self):
        spec = v.DesignSpec(
            response="yield",
            treatment_factors=("treatment",),
            blocking_factors=("block",),
            covariates=("prev",),
            recipe="rcb",
            levels={"treatment": ("A", "B")},
        )
        with pytest.raises(ValidationError, match="declared level"):
            v.load_dataset(_rcb_csv(t=3), spec)

    def test_tab_delimiter_sniffed(self):
        text = _rcb_csv().replace(",", "\t")
        ds = v.load_dataset(text, SPEC)
        assert ds.n_records == 24

    def test_missing_column_rejected(self):
        with pytest.raises(ValidationError, match="missing columns"):
            v.load_dataset("treatment,block,yield\nA,1,2\n", SPEC)


class TestGroupCodes:
    @staticmethod
    def _ds(a, b):
        n = len(a)
        return v.Dataset(factors={"A": a, "B": b}, response=np.zeros(n),
                         covariates=np.zeros((n, 0)), covariate_names=(), levels={})

    def test_groups_joining_to_one_label_rejected(self):
        # (1:2, 3) and (1, 2:3) would both read as group 1:2:3
        with pytest.raises(ValidationError, match="A, B"):
            group_codes(self._ds(["1:2", "1"], ["3", "2:3"]), ("A", "B"))

    def test_distinct_labels_with_colons_keep_their_codes(self):
        ds = self._ds(["x", "1:2", "1:2", "x"], ["3", "4", "3", "3"])
        labels, codes = group_codes(ds, ("A", "B"))
        assert labels == ["1:2:3", "1:2:4", "x:3"]
        assert codes.tolist() == [2, 1, 0, 2]


class TestDesignSpecFile:
    def test_round_trip(self, tmp_path):
        tree = {
            "response": "yield",
            "treatment_factors": ["treatment"],
            "blocking_factors": ["block"],
            "covariates": ["prev"],
            "recipe": "rcb",
        }
        path = tmp_path / "design.json"
        path.write_text(json.dumps(tree))
        spec = v.load_design_spec(path)
        assert spec.recipe == "rcb"
        assert spec.m == 1

    def test_one_line_json_text_is_parsed_not_opened(self):
        tree = {"response": "yield", "treatment_factors": ["treatment"],
                "blocking_factors": ["block"], "covariates": ["prev"], "recipe": "rcb"}
        for text in (json.dumps(tree), "  " + json.dumps(tree)):
            spec = v.load_design_spec(text)
            assert spec.recipe == "rcb" and spec.covariates == ("prev",)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown design-spec"):
            v.load_design_spec({"response": "y", "treatment_factors": ["t"], "oops": 1})

    def test_bad_recipe_rejected(self):
        with pytest.raises(ValidationError, match="recipe"):
            v.DesignSpec(
                response="y",
                treatment_factors=("t",),
                blocking_factors=("b",),
                recipe="nope",
            )

    def test_recipe_factor_counts_enforced(self):
        with pytest.raises(ValidationError, match="blocking"):
            v.DesignSpec(
                response="y",
                treatment_factors=("t",),
                blocking_factors=("r", "c"),
                recipe="rcb",
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError, match="unique"):
            v.DesignSpec(
                response="y",
                treatment_factors=("t",),
                blocking_factors=("t",),
                recipe="rcb",
            )


class TestBuildStacked:
    def test_complete_rcb_layout(self):
        ds = v.load_dataset(_rcb_csv(), SPEC)
        sd = v.build_stacked(ds, SPEC)
        assert sd.z.shape == (48,)
        assert sd.X.shape == (48, 7)
        assert np.linalg.matrix_rank(sd.X) == 7
        assert len(sd.treatments) == 6 and sd.block_levels == (4,)
        # response block holds the treatment columns, covariate block the mean
        assert np.allclose(sd.X[:24, :6].sum(axis=1), 1.0)
        assert np.allclose(sd.X[24:, :6], 0.0)
        assert np.allclose(sd.X[24:, 6], 1.0)

    def test_unbalanced_drops_cells(self):
        ds = v.load_dataset(_rcb_csv(missing=(("A", "1"), ("B", "1"))), SPEC)
        sd = v.build_stacked(ds, SPEC)
        assert sd.z.shape == (44,)
        assert sd.n_obs == 22

    def test_m0_degenerates_to_univariate(self):
        spec = v.DesignSpec(
            response="yield",
            treatment_factors=("treatment",),
            blocking_factors=("block",),
            covariates=(),
            recipe="rcb",
        )
        text = "\n".join(
            line.rsplit(",", 1)[0] for line in _rcb_csv().splitlines()
        )
        ds = v.load_dataset(text, spec)
        sd = v.build_stacked(ds, spec)
        assert sd.m == 0
        assert sd.z.shape == (24,)
        assert sd.X.shape == (24, 6)

    def test_obs_index_round_trip(self):
        ds = v.load_dataset(_rcb_csv(), SPEC)
        sd = v.build_stacked(ds, SPEC)
        for pos in range(sd.n_stacked):
            rec, var = obs_index(sd, pos)
            assert position(sd, rec, var) == pos

    def test_record_reordering_permutes_rows_only(self):
        ds = v.load_dataset(_rcb_csv(), SPEC)
        rng = np.random.default_rng(9)
        perm = rng.permutation(ds.n_records)
        ds2 = v.Dataset(
            factors={k: val[perm] for k, val in ds.factors.items()},
            response=ds.response[perm],
            covariates=ds.covariates[perm],
            covariate_names=ds.covariate_names,
            levels={},
        )
        sd1 = v.build_stacked(ds, SPEC)
        sd2 = v.build_stacked(ds2, SPEC)
        assert sd1.col_names == sd2.col_names
        # both read the complete records in one canonical order
        assert np.array_equal(sd2.z, sd1.z)
        assert np.array_equal(sd2.X, sd1.X)
        for c1, c2 in zip(sd1.block_codes, sd2.block_codes, strict=True):
            assert np.array_equal(c2, c1)

    def test_blocking_incidence_replicated_per_variable(self):
        ds = v.load_dataset(_rcb_csv(), SPEC)
        sd = v.build_stacked(ds, SPEC)
        W = W_list(sd)[0]
        assert np.allclose(D_list(sd)[0], np.kron(np.eye(2), W))
        # per-level replication counts for complete data
        assert np.allclose(W.T @ np.ones(24), 6.0)

    def test_inestimable_treatment_rejected(self):
        missing = tuple(("A", str(j + 1)) for j in range(4))
        ds = v.load_dataset(_rcb_csv(missing=missing), SPEC)
        with pytest.raises(ValidationError, match="inestimable"):
            v.build_stacked(ds, SPEC)

    def test_treatments_affect_covariates_columns(self):
        spec = v.DesignSpec(
            response="yield",
            treatment_factors=("treatment",),
            blocking_factors=("block",),
            covariates=("prev",),
            recipe="rcb",
            treatments_affect_covariates=True,
        )
        ds = v.load_dataset(_rcb_csv(), spec)
        sd = v.build_stacked(ds, spec)
        assert sd.X.shape == (48, 12)
        assert not sd.cov_mean_cols
        # covariate block now carries treatment means
        assert np.allclose(sd.X[24:, 6:].sum(axis=1), 1.0)

    def test_random_treatment_term_zero_on_covariate_block(self):
        ds = v.load_dataset(_rcb_csv(), SPEC)
        sd = v.build_stacked(ds, SPEC, random_treatment_terms=[("treatment", "block")])
        assert len(C_list(sd)) == 1
        C = C_list(sd)[0]
        assert C.shape == (48, 24)
        assert np.allclose(C[24:], 0.0)
        assert np.allclose(C[:24].sum(axis=1), 1.0)
