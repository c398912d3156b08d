"""Spans around the package's public functions, installed from outside.

:func:`install` replaces each traced name at the site where its caller looks
it up (``vcadjust.cli.fit_em``, ``vcadjust.mvc_em.e_step``, ...) with a
wrapper that records a span: name, start, end, parent span and fit id.
Spans stay in memory; the worker writes them once when it exits.  A name
that a later version of the package no longer has is reported as absent,
and the metrics that need it are left out instead of reported as zero.

:func:`layer_metrics` turns the spans of a traced phase into the per-layer
metrics, each per fit: totals of inclusive or self time (span minus its
child spans), and counts taken from the wrapped functions' results.
"""

from __future__ import annotations

import importlib
import time

# (module, attribute, span name); the span name is the module-level layer
TRACED = (
    ("vcadjust.cli", "load_design_spec", "data_model.load_design_spec"),
    ("vcadjust.cli", "load_dataset", "data_model.load_dataset"),
    ("vcadjust.cli", "build_stacked", "data_model.build_stacked"),
    ("vcadjust.cli", "fit_em", "mvc_em.fit_em"),
    ("vcadjust.cli", "adjusted_means_mvc", "mvc_em.adjusted_means_mvc"),
    ("vcadjust.cli", "fit_orthogonal_conditional", "orthogonal_conditional.fit_orthogonal_conditional"),
    ("vcadjust.cli", "fit_conditional_ibd", "bivariate_rcb.fit_conditional_ibd"),
    ("vcadjust.cli", "fit_bivariate_rcb_ml", "bivariate_rcb.fit_bivariate_rcb_ml"),
    ("vcadjust.cli", "fit_fixed_rcb", "rcb_classical.fit_fixed_rcb"),
    ("vcadjust.cli", "fit_mixed_rcb", "rcb_classical.fit_mixed_rcb"),
    ("vcadjust.mvc_em", "e_step", "mvc_em.e_step"),
    ("vcadjust.mvc_em", "m_step", "mvc_em.m_step"),
    ("vcadjust.orthogonal_conditional", "fit_lmm", "lmm.fit_lmm"),
    ("vcadjust.bivariate_rcb", "fit_lmm", "lmm.fit_lmm"),
    ("vcadjust.rcb_classical", "fit_lmm", "lmm.fit_lmm"),
)
MINIMIZE_SITE = "vcadjust.lmm.optimize.minimize"


def _fit_em_counts(fit):
    return {"iterations": int(fit.iterations), "max_iter_hit": int(not fit.converged)}


def _m_step_counts(result):
    _params, events = result
    return {"clip_events": sum(1 for e in events if e.startswith("clipped"))}


def _minimize_counts(res):
    return {"nfev": int(res.nfev), "nit": int(res.nit)}


COUNTERS = {
    "mvc_em.fit_em": _fit_em_counts,
    "mvc_em.m_step": _m_step_counts,
    "lmm.minimize": _minimize_counts,
}


class Tracer:
    """In-memory span recorder; one open-span stack, one thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.fit_id = None
        self.absent: list[str] = []
        self.enabled = False

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = {
            "name": name,
            "parent": self.stack[-1] if self.stack else None,
            "fit": self.fit_id,
            "start": time.perf_counter(),
        }
        idx = len(self.spans)
        self.spans.append(span)
        self.stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self.stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            try:
                span.update(counter(result))
            except (AttributeError, TypeError, ValueError):
                span["uncounted"] = True  # result no longer has the field
        return result

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced


class _OptimizeView:
    """Stands in for ``scipy.optimize`` inside ``vcadjust.lmm`` only."""

    def __init__(self, module, minimize):
        self._module = module
        self.minimize = minimize

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(tracer: Tracer) -> None:
    """Wrap every traced name that exists; record the missing ones."""
    for module_name, attr, span in TRACED:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            tracer.absent.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.wrap(span, fn))
    lmm = importlib.import_module("vcadjust.lmm")
    opt = getattr(lmm, "optimize", None)
    if opt is None or not hasattr(opt, "minimize"):
        tracer.absent.append(MINIMIZE_SITE)
    else:
        lmm.optimize = _OptimizeView(opt, tracer.wrap("lmm.minimize", opt.minimize))


# ------------------------------------------------------------------ metrics

# metric -> (unit, span names it needs); every one is better when lower
PER_LAYER = {
    "mvc_em.solve_s": ("s", ("mvc_em.fit_em", "mvc_em.e_step", "mvc_em.m_step")),
    "mvc_em.e_step_s": ("s", ("mvc_em.e_step",)),
    "mvc_em.m_step_s": ("s", ("mvc_em.m_step",)),
    "mvc_em.iter_ms": ("ms", ("mvc_em.fit_em",)),
    "mvc_em.iterations": ("count", ("mvc_em.fit_em",)),
    "mvc_em.max_iter_hits": ("count", ("mvc_em.fit_em",)),
    "mvc_em.clip_events": ("count", ("mvc_em.m_step",)),
    "mvc_em.adjusted_means_s": ("s", ("mvc_em.adjusted_means_mvc",)),
    "mvc_em.iter_ms.b10": ("ms", ("mvc_em.fit_em",)),
    "mvc_em.iter_ms.b30": ("ms", ("mvc_em.fit_em",)),
    "mvc_em.iter_ms.b60": ("ms", ("mvc_em.fit_em",)),
    "mvc_em.iter_ms.b100": ("ms", ("mvc_em.fit_em",)),
    "data_model.build_stacked_s": ("s", ("data_model.build_stacked",)),
    "data_model.load_s": ("s", ("data_model.load_design_spec", "data_model.load_dataset")),
    "lmm.fit_s": ("s", ("lmm.fit_lmm",)),
    "lmm.optimizer_s": ("s", ("lmm.minimize",)),
    "lmm.objective_evals": ("count", ("lmm.minimize",)),
    "lmm.optimizer_iters": ("count", ("lmm.minimize",)),
    "lmm.eval_ms": ("ms", ("lmm.minimize",)),
    "lmm.self_s": ("s", ("lmm.fit_lmm", "lmm.minimize")),
    "orthogonal_conditional.self_s": ("s", ("orthogonal_conditional.fit_orthogonal_conditional", "lmm.fit_lmm")),
    "bivariate_rcb.self_s": ("s", ("bivariate_rcb.fit_conditional_ibd", "bivariate_rcb.fit_bivariate_rcb_ml", "lmm.fit_lmm")),
    "rcb_classical.self_s": ("s", ("rcb_classical.fit_fixed_rcb", "rcb_classical.fit_mixed_rcb", "lmm.fit_lmm")),
    "cli.self_s": ("s", ()),
    "trace.overhead_frac": ("ratio", ()),
}
SWEEP_BLOCKS = (10, 30, 60, 100)


def absent_spans(absent_sites: list[str]) -> set[str]:
    """Span names none of whose sites could be wrapped."""
    sites = [(f"{m}.{a}", span) for m, a, span in TRACED] + [(MINIMIZE_SITE, "lmm.minimize")]
    installed = {span for site, span in sites if site not in absent_sites}
    return {span for _, span in sites} - installed


def _self_times(spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def layer_metrics(spans, fit_ids, sweep_ids, overhead, absent):
    """Per-fit layer metrics over the spans of ``fit_ids``; sweep per b."""
    self_t = _self_times(spans)
    incl, own, count = {}, {}, {}
    fits = set(fit_ids)
    for s, st in zip(spans, self_t):
        if s["fit"] not in fits:
            continue
        name = s["name"]
        incl[name] = incl.get(name, 0.0) + s["end"] - s["start"]
        own[name] = own.get(name, 0.0) + st
        for key in ("iterations", "max_iter_hit", "clip_events", "nfev", "nit"):
            if key in s:
                count[key] = count.get(key, 0) + s[key]
    n = max(len(fits), 1)
    optimizer_s = incl.get("lmm.minimize", 0.0)
    nfev = count.get("nfev", 0)
    values = {
        "mvc_em.solve_s": own.get("mvc_em.fit_em", 0.0) / n,
        "mvc_em.e_step_s": incl.get("mvc_em.e_step", 0.0) / n,
        "mvc_em.m_step_s": incl.get("mvc_em.m_step", 0.0) / n,
        "mvc_em.iter_ms": 1e3 * incl.get("mvc_em.fit_em", 0.0) / max(count.get("iterations", 0), 1),
        "mvc_em.iterations": count.get("iterations", 0) / n,
        "mvc_em.max_iter_hits": count.get("max_iter_hit", 0) / n,
        "mvc_em.clip_events": count.get("clip_events", 0) / n,
        "mvc_em.adjusted_means_s": incl.get("mvc_em.adjusted_means_mvc", 0.0) / n,
        "data_model.build_stacked_s": incl.get("data_model.build_stacked", 0.0) / n,
        "data_model.load_s": (
            incl.get("data_model.load_design_spec", 0.0) + incl.get("data_model.load_dataset", 0.0)
        ) / n,
        "lmm.fit_s": incl.get("lmm.fit_lmm", 0.0) / n,
        "lmm.optimizer_s": optimizer_s / n,
        "lmm.objective_evals": nfev / n,
        "lmm.optimizer_iters": count.get("nit", 0) / n,
        "lmm.eval_ms": 1e3 * optimizer_s / nfev if nfev else 0.0,
        "lmm.self_s": own.get("lmm.fit_lmm", 0.0) / n,
        "orthogonal_conditional.self_s": own.get("orthogonal_conditional.fit_orthogonal_conditional", 0.0) / n,
        "bivariate_rcb.self_s": (
            own.get("bivariate_rcb.fit_conditional_ibd", 0.0) + own.get("bivariate_rcb.fit_bivariate_rcb_ml", 0.0)
        ) / n,
        "rcb_classical.self_s": (
            own.get("rcb_classical.fit_fixed_rcb", 0.0) + own.get("rcb_classical.fit_mixed_rcb", 0.0)
        ) / n,
        "cli.self_s": own.get("cli.main", 0.0) / n,
        "trace.overhead_frac": overhead,
    }
    for b in SWEEP_BLOCKS:
        em = [s for s in spans if s["fit"] == sweep_ids.get(b) and s["name"] == "mvc_em.fit_em"]
        iters = sum(s.get("iterations", 0) for s in em)
        values[f"mvc_em.iter_ms.b{b}"] = (
            1e3 * sum(s["end"] - s["start"] for s in em) / iters if iters else 0.0
        )
    missing = absent_spans(absent)
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, (unit, needs) in PER_LAYER.items()
        if not missing.intersection(needs)
    }
