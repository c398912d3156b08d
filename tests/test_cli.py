import json
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

import vcadjust as v
from vcadjust.cli import main

from conftest import interior_bivariate_params


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
        assert "partition\tpass" in out


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
