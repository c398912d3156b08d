"""Benchmark of the vcadjust CLI: one workload, one seed, one run.

Usage::

    python3 perfbench/run.py --workload em_large --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  The runner pins BLAS to one thread,
generates the workload's inputs from the seed, computes their reference
values, times the cold import of the CLI, and then starts a fresh worker
process that calls ``vcadjust.cli.main`` in a closed loop (one client, one
fit at a time) for the given number of seconds.  Every fit's exit code and
output file are checked against the references after the timed phase.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the worker runs half the time
untraced and half traced and the line carries the per-layer metrics.  The
line before it records the environment and the details behind the metrics.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBES = 5  # timed cold imports per run, after one untimed import
RUN_LIMIT_S = 170.0  # a run must end well inside three minutes
TAIL_MIN_FITS = 20  # fewer fits leave no percentile above the median with 10 beyond


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--blas-threads", default="1",
        help="BLAS threads for every process of the run, or 'default' to leave them unset",
    )
    return ap.parse_args(argv)


def _cold_import_s(root: Path, env: dict) -> float:
    """Median wall time of a fresh interpreter importing the CLI."""
    cmd = [sys.executable, "-c", "import vcadjust.cli"]
    times = []
    for k in range(IMPORT_PROBES + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=root, env=env, check=True, timeout=60)
        if k:  # the first import also compiles the bytecode cache
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _tail(fits):
    """(slowest input's median time, 10-beyond percentile, its percentile).

    The bounded tail is the median fit time of the slowest input.  A run
    cycles a fixed batch of inputs in whole passes, so its fit times are a
    few clusters, one per input; the highest percentile with 10 samples
    beyond it sits in a different cluster whenever the number of passes
    changes, which a faster program changes.  That percentile is still
    reported, with its rank, when the run holds ``TAIL_MIN_FITS`` fits.
    """
    by_job = {}
    for f in fits:
        by_job.setdefault(f["job"], []).append(f["seconds"])
    slowest = max(statistics.median(v) for v in by_job.values())
    s = sorted(f["seconds"] for f in fits)
    n = len(s)
    if n < TAIL_MIN_FITS:
        return slowest, None, None
    return slowest, s[n - 11], 100.0 * (n - 10) / n


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    if args.blas_threads != "default":
        for key in BLAS_ENV:
            os.environ[key] = args.blas_threads
    here = Path(__file__).resolve().parent
    root = here.parent
    src = root / "src"
    if not (src / "vcadjust" / "cli.py").is_file():
        print(f"perfbench: no package sources at {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(here))
    import numpy as np  # after the BLAS pin

    import check
    import oracle
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    t_start = time.perf_counter()
    run_dir = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "in").mkdir(parents=True)
    (run_dir / "out").mkdir()

    # inputs and references: set-up, not timed
    key = list(workloads.WORKLOADS).index(args.workload)
    seed = args.seed & 0xFFFFFFFFFFFFFFFF
    cases = workloads.WORKLOADS[args.workload](np.random.default_rng([seed, key]))
    jobs = []
    for k, case in enumerate(cases):
        data, design = run_dir / "in" / f"{k:03d}.csv", run_dir / "in" / f"{k:03d}.json"
        data.write_text(case.csv_text)
        design.write_text(json.dumps(case.design))
        jobs.append(case.command + ["--data", str(data), "--design", str(design)])
    refs = [oracle.reference(case.oracle) for case in cases]
    sweep = []
    if args.trace and args.workload == "em_large":
        rng = np.random.default_rng([seed, key, 1])
        for b in tracing.SWEEP_BLOCKS:
            case = workloads.em_large_case(rng, b)
            data, design = run_dir / "in" / f"sweep-b{b}.csv", run_dir / "in" / f"sweep-b{b}.json"
            data.write_text(case.csv_text)
            design.write_text(json.dumps(case.design))
            # a fixed number of iterations: tol 0 never declares convergence
            sweep.append([b, case.command + ["--data", str(data), "--design", str(design),
                                             "--max-iter", "10", "--tol", "0"]])

    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    setup_s = _cold_import_s(root, env)

    if args.trace:
        half = args.seconds / 2
        phases = [{"name": "untraced", "seconds": half, "traced": False},
                  {"name": "traced", "seconds": half, "traced": True}]
    else:
        phases = [{"name": "timed", "seconds": args.seconds, "traced": False}]
    plan = {"src": str(src), "out_dir": str(run_dir / "out"), "jobs": jobs, "phases": phases, "sweep": sweep}
    (run_dir / "plan.json").write_text(json.dumps(plan))
    result_path = run_dir / "worker.json"
    with open(run_dir / "worker.log", "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(here / "worker.py"), str(run_dir / "plan.json"), str(result_path)],
                cwd=root, env=env, stdout=log, stderr=log,
                timeout=max(RUN_LIMIT_S - (time.perf_counter() - t_start), 1.0),
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
            print("perfbench: worker ran past the time limit", file=sys.stderr)
            return 1
    if proc.returncode != 0:
        print(f"perfbench: worker failed, see {run_dir / 'worker.log'}", file=sys.stderr)
        return 1
    res = json.loads(result_path.read_text())

    # output checks: outside every timed span
    failures: dict[str, int] = {}
    failed_inputs: set[str] = set()
    silent_wrong = 0
    per_phase = {}
    for name, phase in res["phases"].items():
        ok = 0
        for fit in phase["fits"]:
            out = Path(fit["out"])
            text = out.read_text() if out.is_file() else None
            reason = fit["error"] or check.check_output(
                cases[fit["job"]].oracle["kind"], fit["code"], text, refs[fit["job"]]
            )
            fit["ok"] = reason is None
            ok += fit["ok"]
            if reason is not None:
                kind = reason if fit["code"] != 0 else re.sub(r"-?\d[\d.e+-]*", "#", reason)
                failures[kind] = failures.get(kind, 0) + 1
                failed_inputs.add(cases[fit["job"]].name)
                silent_wrong += fit["code"] == 0
        per_phase[name] = ok
    all_fits = [f for phase in res["phases"].values() for f in phase["fits"]]
    attempted, failed = len(all_fits), sum(not f["ok"] for f in all_fits)

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "cases": len(cases), "env": res["env"], "fail_frac": failed / attempted,
        "failures": failures, "failed_inputs": sorted(failed_inputs), "absent": res["absent"],
    }
    if args.trace:
        untraced, traced = res["phases"]["untraced"], res["phases"]["traced"]

        def mean_by_job(fits):
            by = {}
            for f in fits:
                by.setdefault(f["job"], []).append(f["seconds"])
            return {j: statistics.fmean(v) for j, v in by.items()}

        mu, mt = mean_by_job(untraced["fits"]), mean_by_job(traced["fits"])
        common = sorted(set(mu) & set(mt))
        overhead = sum(mt[j] for j in common) / sum(mu[j] for j in common) - 1.0
        metrics = tracing.layer_metrics(
            res["spans"], [f["id"] for f in traced["fits"]],
            {int(b): s["id"] for b, s in res["sweep"].items()}, overhead, res["absent"],
        )
        info["traced_fits"] = len(traced["fits"])
    else:
        timed = res["phases"]["timed"]
        times = [f["seconds"] for f in timed["fits"]]
        tail, tail_10, tail_pct = _tail(timed["fits"])
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "fits_per_s": _metric(per_phase["timed"] / timed["wall_s"], "1/s"),
            "fit_s_p50": _metric(statistics.median(times), "s"),
            "fit_s_tail": _metric(tail, "s"),
            "ok_frac": _metric(per_phase["timed"] / len(times), "ratio"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
        }
        info.update({"fits": len(times), "fit_s_10beyond": tail_10, "fit_s_10beyond_pct": tail_pct,
                     "wall_s": timed["wall_s"]})
    (run_dir / "result.json").write_text(json.dumps({"info": info, "metrics": metrics}, indent=1))
    shutil.rmtree(run_dir / "in")
    shutil.rmtree(run_dir / "out")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": silent_wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
