import json
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

import vcadjust as v
from vcadjust.cli import MODELS, main

from conftest import interior_bivariate_params


GOLDEN = Path(__file__).parent / "fixtures" / "golden_cli"


def _write_rcb(tmp_path, seed=1, t=6, b=8, missing=()):
    cfg = v.SimConfig(
        t=t, b=b, params=interior_bivariate_params(t), replicates=1, seed=seed
    )
    ds = v.gen_bivariate_rcb(cfg)[0]
    lines = ["treatment,block,y,z"]
    for i in range(ds.n_records):
        trt = ds.factors["treatment"][i]
        blk = ds.factors["block"][i]
        if (trt, blk) in missing:
            lines.append(f"{trt},{blk},,")
        else:
            lines.append(
                f"{trt},{blk},{float(ds.response[i])!r},{float(ds.covariates[i, 0])!r}"
            )
    data = tmp_path / "data.csv"
    data.write_text("\n".join(lines) + "\n")
    design = tmp_path / "design.json"
    design.write_text(
        json.dumps(
            {
                "response": "y",
                "treatment_factors": ["treatment"],
                "blocking_factors": ["block"],
                "covariates": ["z"],
                "recipe": "rcb",
            }
        )
    )
    return data, design


class TestCompare:
    def test_three_model_table(self, tmp_path, capsys):
        data, design = _write_rcb(tmp_path)
        code = main(["compare", "--data", str(data), "--design", str(design)])
        out = capsys.readouterr().out
        assert code == 0
        assert "gamma_ols" in out and "gamma_mixed" in out and "gamma_be" in out
        header = [l for l in out.splitlines() if l.startswith("treatment\t")][0]
        assert header.split("\t") == [
            "treatment",
            "fixed_adj_mean",
            "fixed_std_err",
            "mixed_adj_mean",
            "mixed_std_err",
            "bivariate_adj_mean",
            "bivariate_std_err",
        ]
        rows = out.splitlines()[out.splitlines().index(header) + 1 :]
        assert len([r for r in rows if r.strip()]) == 6

    def test_output_deterministic(self, tmp_path):
        data, design = _write_rcb(tmp_path)
        out1, out2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert main(["compare", "--data", str(data), "--design", str(design), "--out", str(out1)]) == 0
        assert main(["compare", "--data", str(data), "--design", str(design), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestFormats:
    def test_json_and_tsv_agree_to_ten_digits(self, tmp_path):
        data, design = _write_rcb(tmp_path)
        tsv_p, json_p = tmp_path / "fit.tsv", tmp_path / "fit.json"
        args = ["fit", "--model", "bivariate", "--data", str(data), "--design", str(design)]
        assert main(args + ["--out", str(tsv_p)]) == 0
        assert main(args + ["--out", str(json_p), "--format", "json"]) == 0
        payload = json.loads(json_p.read_text())
        tsv_scalars = {}
        table_rows = []
        lines = tsv_p.read_text().splitlines()
        for ln in lines:
            if ln.startswith("#") or not ln.strip():
                continue
            parts = ln.split("\t")
            if len(parts) == 2:
                tsv_scalars[parts[0]] = parts[1]
            elif parts[0] != "treatment":
                table_rows.append(parts)
        for key, val in payload["params"].items():
            if isinstance(val, float):
                assert np.isclose(float(tsv_scalars[key]), val, rtol=1e-10)
        for jrow, trow in zip(payload["treatments"]["rows"], table_rows):
            for jval, tval in zip(jrow[1:], trow[1:]):
                assert np.isclose(float(tval), float(jval), rtol=1e-10)


class TestAdjustAndFit:
    def test_adjust_writes_three_columns(self, tmp_path, capsys):
        data, design = _write_rcb(tmp_path)
        code = main(
            ["adjust", "--model", "fixed", "--data", str(data), "--design", str(design)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "treatment\tadj_mean\tstd_err" in out

    def test_fit_mvc_on_unbalanced(self, tmp_path, capsys):
        data, design = _write_rcb(tmp_path, missing=(("T01", "B01"), ("T02", "B01")))
        code = main(
            [
                "fit",
                "--model",
                "mvc",
                "--data",
                str(data),
                "--design",
                str(design),
                "--tol",
                "1e-9",
                "--max-iter",
                "20000",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "mu_z[z]" in out
        assert "Sigma0[0,1]" in out

    def test_fit_mvc_two_covariates(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        t, b = 3, 6
        lines = ["treatment,block,y,z1,z2"]
        B = rng.multivariate_normal(np.zeros(3), np.diag([4.0, 1.0, 0.8]), size=b)
        for i in range(t):
            for j in range(b):
                E = rng.multivariate_normal(np.zeros(3), 0.5 * np.eye(3))
                z1 = 5.0 + B[j, 1] + E[1]
                z2 = -2.0 + B[j, 2] + E[2]
                y = 10.0 + 2 * i + B[j, 0] + E[0] + 0.7 * z1 - 0.4 * z2
                lines.append(f"T{i},B{j},{float(y)!r},{float(z1)!r},{float(z2)!r}")
        data = tmp_path / "two.csv"
        data.write_text("\n".join(lines) + "\n")
        design = tmp_path / "two.json"
        design.write_text(
            json.dumps(
                {
                    "response": "y",
                    "treatment_factors": ["treatment"],
                    "blocking_factors": ["block"],
                    "covariates": ["z1", "z2"],
                    "recipe": "rcb",
                }
            )
        )
        code = main(
            [
                "adjust",
                "--model",
                "mvc",
                "--data",
                str(data),
                "--design",
                str(design),
                "--max-iter",
                "30000",
            ]
        )
        out, err = capsys.readouterr()
        assert code == 0, err
        rows = [l for l in out.splitlines() if l.startswith("T")]
        assert len(rows) == 3

    def test_fit_orthogonal_model(self, tmp_path, capsys):
        data, design = _write_rcb(tmp_path)
        code = main(
            ["fit", "--model", "orthogonal", "--data", str(data), "--design", str(design)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "slope[z]" in out

    @pytest.mark.parametrize("method", ["ml", "reml"])
    def test_mixed_prints_one_fit_on_either_rcb_route(self, method, tmp_path, capsys):
        # recipe rcb takes the complete-RCB fields, custom the block-layout
        # ones; both print the one single-slope fit
        golden = Path(__file__).parent / "fixtures" / "golden_cli"
        printed = {}
        for recipe in ("rcb", "custom"):
            design = json.loads((golden / "rcb.json").read_text())
            design["recipe"] = recipe
            path = tmp_path / f"{recipe}.json"
            path.write_text(json.dumps(design))
            args = ["fit", "--model", "mixed", "--method", method,
                    "--data", str(golden / "rcb.csv"), "--design", str(path)]
            assert main(args) == 0
            out = capsys.readouterr().out
            head, table = out.split("\n\n# treatments\n")
            rows = [line.split("\t") for line in table.splitlines()]
            printed[recipe] = (dict(line.split("\t") for line in head.splitlines()),
                               {name: col for name, *col in zip(*rows)})
        (rcb, rcb_cols), (custom, custom_cols) = printed["rcb"], printed["custom"]
        assert "rho" in rcb and "rho" not in custom
        assert rcb["gamma_mixed"] == custom["gamma"]
        for name in ("sigma_e2", "sigma_b2", "loglik"):
            assert rcb[name] == custom[name]
        for rcb_name, custom_name in (("treatment", "treatment"), ("adj_mean", "adj_mean"),
                                      ("std_err", "adj_se"), ("effect", "effect")):
            assert rcb_cols[rcb_name] == custom_cols[custom_name]

    def test_lmm_max_iter_reaches_the_optimizer(self, tmp_path, capsys):
        data, design = _write_rcb(tmp_path)
        files = ["--data", str(data), "--design", str(design)]
        assert main(["fit", "--model", "orthogonal"] + files) == 0
        capsys.readouterr()
        # an exit 3 prints its output and one diagnostic line on stderr
        for model, max_iter in (("orthogonal", "1"), ("mvc", "3")):
            assert main(["fit", "--model", model, "--max-iter", max_iter] + files) == 3
            out, err = capsys.readouterr()
            assert "converged\tfalse" in out
            assert err.startswith("vcadjust: code=3 kind=non-convergence msg=")
            assert err.count("\n") == 1

    def test_nonconvergence_advice_is_per_model(self, tmp_path, capsys):
        # for mvc, --tol only ends the EM start early: it cannot turn a
        # max_iter exit into a converged fit, so the advice does not name it
        data, design = _write_rcb(tmp_path)
        files = ["--data", str(data), "--design", str(design)]
        assert main(["fit", "--model", "mvc", "--max-iter", "3"] + files) == 3
        err = capsys.readouterr().err
        assert err.startswith("vcadjust: code=3 kind=non-convergence msg=")
        assert "raise --max-iter" in err and "loosen --tol" not in err
        assert main(["fit", "--model", "orthogonal", "--max-iter", "1"] + files) == 3
        assert capsys.readouterr().err.endswith(
            'msg="the fit stopped before converging; raise --max-iter"\n')

    @pytest.mark.parametrize("command", [
        ["fit", "--model", "orthogonal"], ["fit", "--model", "mvc"], ["fit", "--model", "fixed"],
        ["adjust", "--model", "mixed"], ["compare"], ["contrast", "--coeffs", "T1=1,T2=-1"],
    ])
    @pytest.mark.parametrize("flag", [
        ["--max-iter", "-3"], ["--max-iter", "0"], ["--tol", "-1"], ["--tol", "nan"],
    ])
    def test_iteration_limits_are_refused(self, command, flag, tmp_path, capsys):
        """Every command that takes --max-iter and --tol refuses a cap below 1
        and a tolerance that is negative or not finite, naming the flag."""
        data, design = _write_rcb(tmp_path)
        code = main(command + flag + ["--data", str(data), "--design", str(design)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith(f'vcadjust: code=2 kind=input msg="{flag[0]} must be ')
        assert err.endswith(f'; got {float(flag[1]) if flag[0] == "--tol" else flag[1]}"\n')

    def test_zero_tol_is_accepted(self, tmp_path, capsys):
        data, design = _write_rcb(tmp_path)
        files = ["--data", str(data), "--design", str(design)]
        assert main(["fit", "--model", "orthogonal", "--tol", "0"] + files) == 0
        assert main(["fit", "--model", "mvc", "--tol", "0", "--max-iter", "10"] + files) == 3
        assert "raise --max-iter" in capsys.readouterr().err

    def test_equal_block_means_name_the_conditional_route(self, tmp_path, capsys):
        golden = Path(__file__).parent / "fixtures" / "golden_cli"
        rows = [line.split(",") for line in (golden / "rcb.csv").read_text().split()]
        z = np.array([float(r[3]) for r in rows[1:]])
        blocks = np.array([r[1] for r in rows[1:]])
        for blk in set(blocks):
            z[blocks == blk] += 5.0 - z[blocks == blk].mean()
        lines = [",".join(rows[0])] + [
            ",".join(r[:3] + [repr(float(v))]) for r, v in zip(rows[1:], z)
        ]
        data = tmp_path / "data.csv"
        data.write_text("\n".join(lines) + "\n")
        files = ["--data", str(data), "--design", str(golden / "rcb.json")]
        for cmd in (["fit", "--model", "bivariate"], ["compare"]):
            assert main(cmd + files) == 4
            err = capsys.readouterr().err
            assert 'kind=singularity msg="block-mean covariate carries no variation' in err
            assert "block-stratum covariate variance estimate is 0" in err
            assert "likelihood is unbounded" in err
            assert "--model orthogonal" in err and "--model bivariate --method reml" in err
        # the conditional routes it names fit the same file
        for cmd in (["fit", "--model", "orthogonal"],
                    ["fit", "--model", "bivariate", "--method", "reml"]):
            assert main(cmd + files) == 0

    def test_mvc_reml_rejected(self, tmp_path, capsys):
        data, design = _write_rcb(tmp_path)
        code = main(
            [
                "fit",
                "--model",
                "mvc",
                "--method",
                "reml",
                "--data",
                str(data),
                "--design",
                str(design),
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "reml unsupported for mvc" in err
        assert "code=2" in err and "kind=input" in err

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        data, design = _write_rcb(tmp_path)
        code = main(
            [
                "fit",
                "--model",
                "mvc",
                "--data",
                str(data),
                "--design",
                str(design),
                "--max-iter",
                "1",
                "--tol",
                "1e-14",
            ]
        )
        assert code == 3

    def test_fixed_fit_without_residual_df_is_singular(self, tmp_path, capsys):
        # a complete 2 x 2 RCB leaves (t-1)(b-1) - 1 = 0 df after the slope
        data, design = _write_rcb(tmp_path, t=2, b=2)
        for model in (["fixed"], ["bivariate", "--method", "ml"]):
            argv = ["fit", "--model", *model, "--data", str(data), "--design", str(design)]
            assert main(argv) == 4
            out, err = capsys.readouterr()
            assert out == "" and "code=4 kind=singularity" in err

    def test_singularity_exit_code(self, tmp_path, capsys):
        data, design = _write_rcb(tmp_path)
        # constant covariate: the fixed-blocks regression is singular
        lines = data.read_text().splitlines()
        fixed = [lines[0]] + [",".join(l.split(",")[:3] + ["5.0"]) for l in lines[1:] if l]
        data.write_text("\n".join(fixed) + "\n")
        code = main(
            ["fit", "--model", "fixed", "--data", str(data), "--design", str(design)]
        )
        err = capsys.readouterr().err
        assert code == 4
        assert "kind=singularity" in err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        _, design = _write_rcb(tmp_path)
        code = main(
            ["fit", "--data", str(tmp_path / "nope.csv"), "--design", str(design)]
        )
        assert code == 2


class TestDesignSpecInput:
    def _fit(self, tmp_path, capsys, **changes):
        data, design = _write_rcb(tmp_path)
        design.write_text(json.dumps({**json.loads(design.read_text()), **changes}))
        code = main(["fit", "--model", "mixed", "--data", str(data), "--design", str(design)])
        err = capsys.readouterr().err
        assert code == 2 and "kind=input" in err
        return err

    def test_levels_key_naming_no_factor_rejected(self, tmp_path, capsys):
        err = self._fit(tmp_path, capsys, levels={"blok": ["B01", "B02"]})
        assert "levels key 'blok' names no treatment or blocking factor" in err

    @pytest.mark.parametrize(
        "changes, key",
        [
            ({"treatment_factors": "treatment"}, "'treatment_factors'"),
            ({"blocking_factors": "block"}, "'blocking_factors'"),
            ({"covariates": "z"}, "'covariates'"),
            ({"levels": {"block": "B01"}}, "levels entry 'block'"),
            ({"covariates": 5}, "'covariates'"),
        ],
    )
    def test_anything_but_a_list_of_strings_rejected(self, changes, key, tmp_path, capsys):
        err = self._fit(tmp_path, capsys, **changes)
        assert f"{key} must be a list of strings, got" in err

    def test_levels_not_a_map_rejected(self, tmp_path, capsys):
        err = self._fit(tmp_path, capsys, levels=["block"])
        assert "levels must map factor names to lists" in err


class TestRowOrder:
    @pytest.mark.parametrize("layout", ["rcb", "bib"])
    def test_output_independent_of_record_order(self, layout, tmp_path, capsys):
        golden = Path(__file__).parent / "fixtures" / "golden_cli"
        design = golden / f"{layout}.json"
        header, *rows = (golden / f"{layout}.csv").read_text().splitlines()
        np.random.default_rng(7).shuffle(rows)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("\n".join([header] + rows) + "\n")
        for model in (
            ["--model", "orthogonal"],
            ["--model", "bivariate", "--method", "reml"],
            ["--model", "mixed"],
        ):
            outs = []
            for data in (golden / f"{layout}.csv", shuffled):
                args = ["adjust", *model, "--data", str(data), "--design", str(design)]
                assert main(args) == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1], model


class TestCheckDesign:
    def test_valid_rcb_passes(self, tmp_path, capsys):
        data, design = _write_rcb(tmp_path)
        code = main(["check-design", "--data", str(data), "--design", str(design)])
        out = capsys.readouterr().out
        assert code == 0
        assert "orthogonal\tpass" in out

    def test_non_orthogonal_design_fails_with_one_stderr_line(self, capsys):
        code = main(["check-design", "--data", str(GOLDEN / "bib.csv"),
                     "--design", str(GOLDEN / "bib.json")])
        out, err = capsys.readouterr()
        assert code == 2 and "orthogonal\tfail" in out
        assert err == ('vcadjust: code=2 kind=input msg="the design is not orthogonal '
                       'with respect to its random groupings"\n')

    def test_tolerance_is_a_usage_error(self, tmp_path, capsys):
        # the verdict is exact on counts, so check-design takes no --tol
        data, design = _write_rcb(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["check-design", "--data", str(data), "--design", str(design), "--tol", "1e-3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1e-3" in capsys.readouterr().err

    def test_no_complete_cells_is_an_input_error(self, tmp_path, capsys):
        data, design = _write_rcb(tmp_path, t=2, b=2)
        blank = [l.split(",")[:2] for l in data.read_text().splitlines()[1:]]
        data.write_text("treatment,block,y,z\n" + "".join(f"{t},{b},,\n" for t, b in blank))
        code = main(["check-design", "--data", str(data), "--design", str(design)])
        err = capsys.readouterr().err
        assert code == 2
        assert 'code=2 kind=input msg="no complete cells"' in err


def _blank_golden_rcb(tmp_path, blank) -> Path:
    """The golden ``rcb`` with every record whose treatment is in ``blank``
    left without its response and covariate."""
    header, *rows = (GOLDEN / "rcb.csv").read_text().splitlines()
    rows = [",".join(r.split(",")[:2]) + ",," if r.split(",")[0] in blank else r
            for r in rows]
    data = tmp_path / "blanked.csv"
    data.write_text("\n".join([header] + rows) + "\n")
    return data


DATA_COMMANDS = [
    *([cmd, "--model", model] for cmd in ("fit", "adjust") for model in MODELS),
    ["compare"],
    ["contrast", "--model", "mixed", "--coeffs", "T1=1,T2=-1"],
    ["contrast", "--model", "bivariate", "--coeffs", "T1=1,T2=-1"],
    ["check-design"],
]


class TestCompleteRecords:
    """Every data command reads one set of complete records and refuses a
    treatment that has records but no complete cell."""

    @pytest.mark.parametrize("argv", DATA_COMMANDS, ids=" ".join)
    def test_lost_treatment_is_an_input_error(self, argv, tmp_path, capsys):
        data = _blank_golden_rcb(tmp_path, {"T3"})
        code = main(argv + ["--data", str(data), "--design", str(GOLDEN / "rcb.json")])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == ("vcadjust: code=2 kind=input msg=\"treatment 'T3' has no complete "
                       "cells; its mean is inestimable\"\n")

    @pytest.mark.parametrize("argv", DATA_COMMANDS, ids=" ".join)
    def test_all_blank_file_has_no_complete_cells(self, argv, tmp_path, capsys):
        data = _blank_golden_rcb(tmp_path, {"T1", "T2", "T3", "T4", "T5"})
        code = main(argv + ["--data", str(data), "--design", str(GOLDEN / "rcb.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == 'vcadjust: code=2 kind=input msg="no complete cells"\n'


class TestContrast:
    def test_contrast_estimate_and_se(self, tmp_path, capsys):
        data, design = _write_rcb(tmp_path)
        code = main(
            [
                "contrast",
                "--model",
                "bivariate",
                "--method",
                "reml",
                "--coeffs",
                "T01=1,T02=-1",
                "--data",
                str(data),
                "--design",
                str(design),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "estimate\t" in out and "std_err\t" in out

    def test_unknown_label_rejected(self, tmp_path, capsys):
        data, design = _write_rcb(tmp_path)
        code = main(
            [
                "contrast",
                "--coeffs",
                "NOPE=1",
                "--data",
                str(data),
                "--design",
                str(design),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("coeffs", ["T01=nan,T02=-1", "T01=inf", "T01=1,T02=-inf"])
    def test_non_finite_coefficient_names_the_flag(self, coeffs, tmp_path, capsys):
        data, design = _write_rcb(tmp_path)
        code = main(["contrast", "--model", "mixed", "--coeffs", coeffs, "--data", str(data),
                     "--design", str(design)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith('vcadjust: code=2 kind=input msg="--coeffs takes finite coefficients')

    def test_repeated_label_rejected(self, tmp_path, capsys):
        data, design = _write_rcb(tmp_path)
        code = main(["contrast", "--coeffs", "T01=1,T01=-1", "--data", str(data),
                     "--design", str(design)])
        assert code == 2
        assert "'T01' appears twice" in capsys.readouterr().err


class TestSimulateCommand:
    def test_generate_writes_csv(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(
            [
                "simulate",
                "--study",
                "generate",
                "--t",
                "3",
                "--b",
                "4",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "treatment,block,y,z"
        assert len(lines) == 13

    def test_bias_study_table(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--study",
                "bias",
                "--t",
                "4",
                "--b",
                "4",
                "--replicates",
                "200",
                "--seed",
                "2",
                "--sigma-b",
                "4,2,1",
                "--sigma-e",
                "2,0.5,1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "estimator\ttarget\tmc_mean\tmc_se\tbias\tflag" in out
        assert "gamma_mixed_vs_gamma_e" in out

    @pytest.mark.parametrize("extra, flag", [
        (["--sigma-b", "1,0"], "--sigma-b"),
        (["--sigma-b", "1,0,1,5"], "--sigma-b"),
        (["--sigma-e", "1,0.5"], "--sigma-e"),
        (["--rep", "5"], "--rep"),
        (["--study", "bias", "--b", "1"], "--b"),
        (["--t", "0"], "--t"),
        (["--b", "0"], "--b"),
        (["--study", "bias", "--t", "1", "--replicates", "5"], "--t"),
        (["--study", "bias", "--replicates", "1"], "--replicates"),
        (["--sigma-b", "nan,0,1"], "--sigma-b"),
        (["--sigma-e", "inf,0,1"], "--sigma-e"),
        (["--sigma-e", "1,1e999,1"], "--sigma-e"),
        (["--mu-y", "nan"], "--mu-y"),
        (["--mu-z", "inf"], "--mu-z"),
        (["--mu-z=-inf"], "--mu-z"),
    ])
    def test_bad_request_names_its_flag(self, extra, flag, capsys):
        code = main(["simulate", "--t", "3", "--b", "4", *extra])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("vcadjust: code=2 kind=input msg=") and err.count("\n") == 1
        assert flag in err

    def test_bias_study_without_replicates_names_the_flag(self, capsys):
        # generate draws one replicate by default; the study has no default
        code = main(["simulate", "--study", "bias", "--t", "3", "--b", "3"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == ("vcadjust: code=2 kind=input msg=\"the bias study needs --replicates "
                       "of at least 2; none was given\"\n")

    def test_iteration_options_are_usage_errors(self, capsys):
        # simulate runs no iterative fit, so it takes no --tol or --max-iter
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--t", "2", "--b", "2", "--tol", "5", "--max-iter", "-3"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --tol 5 --max-iter -3" in err

    def test_non_numeric_covariance_entry(self, capsys):
        code = main(["simulate", "--t", "3", "--b", "4", "--sigma-b", "a,b,c"])
        assert code == 2
        assert capsys.readouterr().err == (
            "vcadjust: code=2 kind=input msg=\"could not convert string to float: 'a'\"\n")


@pytest.mark.skipif(shutil.which("vcadjust") is None, reason="entry point not installed")
def test_console_entry_point(tmp_path):
    data, design = _write_rcb(tmp_path)
    proc = subprocess.run(
        ["vcadjust", "adjust", "--model", "fixed", "--data", str(data), "--design", str(design)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "adjusted_means" in proc.stdout
