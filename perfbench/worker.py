"""Timed closed loop of CLI fits in one fresh process.

Usage: ``python3 perfbench/worker.py PLAN.json RESULT.json``.  The plan names
the package sources, the CLI jobs and the phases to run.  Each phase calls
``vcadjust.cli.main`` on the jobs in turn, one fit at a time, in whole passes
over the jobs until its time is up; the next fit starts only after the
previous one returned.  A traced
phase records spans (see :mod:`tracing`); the plan may add one traced
size-sweep fit per block count.  The result file holds every fit's exit
code and wall time, the spans, and this process's peak resident set size.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _closed_loop(cli, tracer, jobs, seconds, phase, out_dir):
    """Fit the jobs in turn, in whole passes, until ``seconds`` have passed.

    Ending on a pass boundary keeps every run's mix of inputs the same: the
    inputs of a batch differ in cost by up to a factor of 100.
    """
    fits = []
    start = time.perf_counter()
    i = 0
    while i % len(jobs) or time.perf_counter() - start < seconds:
        job = i % len(jobs)
        out = str(out_dir / f"{phase}-{i:05d}.tsv")
        tracer.fit_id = f"{phase}:{i}"
        error = None
        t0 = time.perf_counter()
        try:
            code = tracer.call("cli.main", cli.main, jobs[job] + ["--out", out])
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 - a crash is a failed fit, not a failed run
            code, error = -1, repr(exc)
        fits.append({"id": tracer.fit_id, "job": job, "code": code, "seconds": time.perf_counter() - t0,
                     "out": out, "error": error})
        i += 1
    return {"fits": fits, "wall_s": time.perf_counter() - start}


def _environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS", "default"),
        "nproc": os.cpu_count(),
    }


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    sys.path.insert(0, plan["src"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from vcadjust import cli

    from tracing import Tracer, install

    out_dir = Path(plan["out_dir"])
    tracer = Tracer()
    phases = {}
    for phase in plan["phases"]:
        if phase["traced"] and not tracer.enabled:
            install(tracer)
            tracer.enabled = True
        phases[phase["name"]] = _closed_loop(cli, tracer, plan["jobs"], phase["seconds"], phase["name"], out_dir)
    sweep = {}
    for b, argv in plan.get("sweep", []):
        tracer.fit_id = f"sweep:{b}"
        code = tracer.call("cli.main", cli.main, argv + ["--out", str(out_dir / f"sweep-b{b}.tsv")])
        sweep[b] = {"id": tracer.fit_id, "code": code}
    result = {
        "phases": phases,
        "sweep": sweep,
        "spans": tracer.spans,
        "absent": tracer.absent,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(),
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
