"""The benchmark tracer's per-layer counters still read the package's results.

``perfbench/tracing.py`` takes counts (EM iterations, clip events, objective
evaluations) from the results of the functions it wraps; a result that no
longer has the field marks its span ``uncounted`` and the metric silently
reads 0.  This installs the tracer, runs one ``mvc`` fit and one
``orthogonal`` adjustment through the CLI in-process, and checks that
every counted span carries its counts.  Every wrapped attribute is
restored afterwards.
"""

import importlib
from pathlib import Path

from vcadjust import cli

from test_perfbench_sites import _tracing

GOLDEN_DIR = Path(__file__).parent / "fixtures" / "golden_cli"


def test_every_counted_span_carries_its_counts(monkeypatch, tmp_path, capsys):
    tracing = _tracing()
    for module_name, attr, _span in tracing.TRACED:
        module = importlib.import_module(module_name)
        if hasattr(module, attr):  # install() records a missing one as absent
            monkeypatch.setattr(module, attr, getattr(module, attr))
    lmm = importlib.import_module("vcadjust.lmm")
    monkeypatch.setattr(lmm, "optimize", lmm.optimize)

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.enabled = True
    data, design = GOLDEN_DIR / "rcb.csv", GOLDEN_DIR / "rcb.json"
    for k, words in enumerate((["fit", "--model", "mvc"], ["adjust", "--model", "orthogonal"])):
        tracer.fit_id = k
        args = words + ["--data", str(data), "--design", str(design), "--out", str(tmp_path / f"{k}.tsv")]
        assert cli.main(args) == 0
    capsys.readouterr()

    assert tracing.absent_spans(tracer.absent) == set()
    base = {"name", "parent", "fit", "start", "end"}
    for name in tracing.COUNTERS:
        spans = [s for s in tracer.spans if s["name"] == name]
        assert spans, f"no {name} span"
        for s in spans:
            assert "uncounted" not in s, name
            assert set(s) - base, f"{name} span without counts"
    metrics = tracing.layer_metrics(tracer.spans, [0, 1], {}, 0.0, tracer.absent)
    assert set(metrics) == set(tracing.PER_LAYER)
    for name in ("mvc_em.iterations", "lmm.objective_evals", "lmm.optimizer_iters"):
        assert metrics[name]["value"] > 0, name
