"""Every span the benchmark tracer records still has a site to wrap.

``perfbench/tracing.py`` wraps package functions where their callers look
them up (``TRACED``) and the package's ``optimize.minimize`` where
``vcadjust.lmm`` looks it up (``MINIMIZE_SITE``).  A span none of whose sites exists is left out of the
per-layer metrics, so a refactor that moves or renames such a name would
silently drop metrics.  This resolves every site with ``getattr``, as
``tracing.install`` does, without installing anything.  ``install`` imports
each traced module without a guard, so a module that is gone would end
every traced run before its result line: each must import.  A site that exists but is not looked up when it is
called (a function reference bound at import, say) records no span, so
the last test installs the tracer in-process and runs the CLI.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(site: str) -> bool:
    """Whether a dotted ``module.attr[.attr...]`` site exists."""
    parts = site.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return False
        return True
    return False


def test_every_traced_span_has_a_site():
    tracing = _tracing()
    sites = [f"{m}.{a}" for m, a, _ in tracing.TRACED] + [tracing.MINIMIZE_SITE]
    absent = [site for site in sites if not _resolves(site)]
    assert tracing.absent_spans(absent) == set(), absent
    # the per-layer metrics then all survive: none needs a missing span
    missing = tracing.absent_spans(absent)
    assert all(not missing.intersection(needs) for _, needs in tracing.PER_LAYER.values())


def test_every_traced_module_imports():
    tracing = _tracing()
    # install also imports the module that holds MINIMIZE_SITE's "optimize"
    modules = {m for m, _, _ in tracing.TRACED} | {tracing.MINIMIZE_SITE.rsplit(".", 2)[0]}
    for name in sorted(modules):
        importlib.import_module(name)


GOLDEN = Path(__file__).resolve().parent / "fixtures" / "golden_cli"
SPAN_RUNS = (
    ["compare"],
    ["fit", "--model", "orthogonal"],
    ["fit", "--model", "bivariate", "--method", "reml"],
    ["fit", "--model", "mvc"],
)


def test_every_traced_span_fires(tmp_path):
    tracing = _tracing()
    from vcadjust import cli, lmm

    sites = [importlib.import_module(m) for m, _, _ in tracing.TRACED]
    saved = [(mod, attr, getattr(mod, attr))
             for mod, (_, attr, _) in zip(sites, tracing.TRACED) if hasattr(mod, attr)]
    saved.append((lmm, "optimize", lmm.optimize))
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        tracer.enabled = True
        data = ["--data", str(GOLDEN / "rcb.csv"), "--design", str(GOLDEN / "rcb.json")]
        for argv in SPAN_RUNS:
            assert cli.main(argv + data + ["--out", str(tmp_path / "out.tsv")]) == 0, argv
    finally:
        for mod, attr, value in saved:
            setattr(mod, attr, value)
    recorded = {span["name"] for span in tracer.spans}
    expected = {span for _, _, span in tracing.TRACED} | {"lmm.minimize"}
    assert expected - tracing.absent_spans(tracer.absent) - recorded == set()
