"""What the traced run wraps in the package, and the per-layer metrics it reads.

The layers are the package's modules.  Every public function is wrapped at
each module-level name it is bound to (``adaptive`` imports the estimators by
name, ``coloring`` imports ``warm_start`` and ``stream`` by name), and the two
sampling methods are wrapped on their classes.  ``cli`` is not wrapped: no
workload runs it.
"""
from __future__ import annotations

import importlib
import statistics
from typing import Dict, List, Sequence

from spans import Patches, Span, SpanRecorder, public_functions, self_times

PACKAGE = "dynamite"
LAYERS = ("chains", "estimators", "adaptive", "coloring", "spectral", "planted", "rng")
PATH = ("chains", "TransitionKernel.path")
VALUES = ("chains", "ScalarFunction.values")
KERNEL_KINDS = ("cycle", "glauber")  # kernel-name prefixes; a trace chain keeps its base's prefix

# name -> unit, for ``--trace 1``.  BENCHMARK.json's per_layer list matches this.
LAYER_UNITS = {
    "chains.path.calls": "count",
    "chains.path.self_s": "s",
    "chains.path.steps": "count",
    "chains.path.ns_per_step.cycle": "ns",
    "chains.path.ns_per_step.glauber": "ns",
    "chains.path.bytes_out": "B",
    "chains.path.tail_only_frac": "ratio",
    "chains.values.calls": "count",
    "chains.values.self_s": "s",
    "chains.values.ns_per_eval": "ns",
    "estimators.calls": "count",
    "estimators.self_s": "s",
    "estimators.samples_scanned": "count",
    "estimators.rescan_ratio": "ratio",
    "adaptive.runs": "count",
    "adaptive.self_s": "s",
    "adaptive.iterations": "count",
    "adaptive.radius_met_frac": "ratio",
    "adaptive.warmup_frac": "ratio",
    "coloring.self_s": "s",
    "coloring.phases": "count",
    "coloring.ergodicity_floor_s": "s",
    "coloring.trace_length_mean": "steps",
    "spectral.summarize_s": "s",
    "planted.generate_s": "s",
    "rng.stream.calls": "count",
    "rng.stream_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _path_hook(recorder: SpanRecorder, args, kwargs, result) -> dict:
    rng = _arg(args, kwargs, 3, "rng")
    return {
        "kernel": args[0].name,
        "steps": int(_arg(args, kwargs, 2, "length")),
        "bytes": int(getattr(result, "nbytes", 0)),
        "warmup": id(rng) in recorder.marked,
    }


def _values_hook(recorder, args, kwargs, result) -> dict:
    return {"evals": len(_arg(args, kwargs, 1, "states"))}


def _scan_hook(recorder, args, kwargs, result) -> dict:
    return {"pairs": int(_arg(args, kwargs, 0, "paired").m)}


def _stream_hook_for(warmup_label):
    def hook(recorder: SpanRecorder, args, kwargs, result) -> dict:
        label = args[1] if len(args) > 1 else None
        if label == warmup_label:
            recorder.mark(result)  # paths drawn from this generator keep only their last state
        return {"label": label}

    return hook


def targets() -> List[tuple]:
    """``(owner, attribute, layer, hook)`` for every binding the traced run wraps.

    A layer module or sampling method the package no longer has is skipped, so
    its metrics read 0 instead of the traced run failing.
    """
    layer_modules = {}
    for name in LAYERS:
        try:
            layer_modules[name] = importlib.import_module(f"{PACKAGE}.{name}")
        except ModuleNotFoundError:
            continue
    hooks = {
        "stream": _stream_hook_for(getattr(layer_modules.get("rng"), "WARMUP", None)),
        "empirical_mean": _scan_hook,
        "two_chain_variance": _scan_hook,
    }
    out = []
    for module in (importlib.import_module(PACKAGE), *layer_modules.values()):
        for name, fn in public_functions(module, PACKAGE):
            out.append((module, name, fn.__module__.rsplit(".", 1)[-1], hooks.get(fn.__name__)))
    chains = layer_modules.get("chains")
    for cls, method, hook in (("TransitionKernel", "path", _path_hook), ("ScalarFunction", "values", _values_hook)):
        owner = getattr(chains, cls, None)
        if owner is not None and method in vars(owner):
            out.append((owner, method, "chains", hook))
    return out


class TracedRun:
    """Traces a second build of the inputs, then wraps each traced round on request."""

    def __init__(self, build_inputs):
        self.targets = targets()
        self.setup = SpanRecorder()
        self.body = SpanRecorder()
        with Patches(self.setup, self.targets):
            build_inputs()

    def round(self) -> Patches:
        return Patches(self.body, self.targets)

    def metrics(self, rounds) -> Dict[str, float]:
        return layer_metrics(self.body.spans, self.setup.spans, rounds)

    def to_json(self) -> dict:
        return {"setup": [s.to_json() for s in self.setup.spans], "body": [s.to_json() for s in self.body.spans]}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Sequence[Span], setup_spans: Sequence[Span], rounds) -> Dict[str, float]:
    """Per-layer figures per traced round; ratios are taken over the whole run.

    ``rounds`` holds every round of the traced run; traced rounds give the
    span figures and the reports, untraced ones the base for the overhead.
    """
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    per = 1.0 / len(traced)
    own = self_times(spans)
    key = [(s.layer, s.name) for s in spans]
    has_same_child = {s.parent for s in spans if s.parent is not None and key[s.parent] == (s.layer, s.name)}

    def select(which):
        return [i for i, k in enumerate(key) if k == which]

    def layer_self(layer):
        return sum(t for t, s in zip(own, spans) if s.layer == layer)

    def attr(i, name, default=0):  # a call that raised has no attributes
        return spans[i].attrs.get(name, default)

    paths = select(PATH)
    leaves = [i for i in paths if i not in has_same_child]
    leaf_steps = sum(attr(i, "steps") for i in leaves)
    warmup_steps = sum(attr(i, "steps") for i in leaves if attr(i, "warmup", False))
    m: Dict[str, float] = {
        "chains.path.calls": len(paths) * per,
        "chains.path.self_s": sum(own[i] for i in paths) * per,
        "chains.path.steps": leaf_steps * per,
        "chains.path.bytes_out": sum(attr(i, "bytes") for i in leaves) * per,
        "chains.path.tail_only_frac": _ratio(warmup_steps, leaf_steps),
    }
    for kind in KERNEL_KINDS:
        of_kind = [i for i in paths if attr(i, "kernel", "").startswith(kind)]
        steps = sum(attr(i, "steps") for i in of_kind if i not in has_same_child)
        m[f"chains.path.ns_per_step.{kind}"] = _ratio(sum(own[i] for i in of_kind) * 1e9, steps)

    values = select(VALUES)
    evals = sum(attr(i, "evals") for i in values if i not in has_same_child)
    m["chains.values.calls"] = len(values) * per
    m["chains.values.self_s"] = sum(own[i] for i in values) * per
    m["chains.values.ns_per_eval"] = _ratio(sum(own[i] for i in values) * 1e9, evals)

    reports = [rep for r in traced for o in r.outcomes for rep in o.reports]
    final_m = sum(rep.iterations[-1].m for rep in reports if rep.iterations)
    scanned = sum(s.attrs.get("pairs", 0) for s in spans if s.layer == "estimators")
    m["estimators.calls"] = sum(1 for s in spans if s.layer == "estimators") * per
    m["estimators.self_s"] = layer_self("estimators") * per
    m["estimators.samples_scanned"] = scanned * per
    # two scans (mean, variance) per iteration; a streaming update would read 1.0
    m["estimators.rescan_ratio"] = _ratio(scanned, 2 * final_m)

    m["adaptive.runs"] = len(reports) * per
    m["adaptive.self_s"] = layer_self("adaptive") * per
    m["adaptive.iterations"] = sum(len(rep.iterations) for rep in reports) * per
    m["adaptive.radius_met_frac"] = _ratio(sum(rep.termination == "radius-met" for rep in reports), len(reports))
    m["adaptive.warmup_frac"] = _ratio(sum(rep.warmup_steps for rep in reports),
                                       sum(rep.total_base_steps for rep in reports))

    counted = [rep for r in traced for o in r.outcomes if o.phases for rep in o.reports]
    m["coloring.self_s"] = layer_self("coloring") * per
    m["coloring.phases"] = sum(o.phases for r in traced for o in r.outcomes) * per
    m["coloring.ergodicity_floor_s"] = sum(spans[i].duration for i in select(("coloring", "ergodicity_floor"))) * per
    m["coloring.trace_length_mean"] = _ratio(sum(rep.trace_length for rep in counted), len(counted))

    m["spectral.summarize_s"] = sum(s.duration for s in setup_spans if (s.layer, s.name) == ("spectral", "summarize"))
    m["planted.generate_s"] = sum(s.duration for s in setup_spans if (s.layer, s.name) == ("planted", "generate"))

    streams = select(("rng", "stream"))
    m["rng.stream.calls"] = len(streams) * per
    m["rng.stream_s"] = sum(spans[i].duration for i in streams) * per

    base = statistics.median(r.wall for r in untraced)
    m["trace.overhead_s"] = statistics.median(r.wall for r in traced) - base
    m["trace.overhead_frac"] = _ratio(m["trace.overhead_s"], base)
    if set(m) != set(LAYER_UNITS):
        raise RuntimeError(f"per-layer metrics out of step with LAYER_UNITS: {sorted(set(m) ^ set(LAYER_UNITS))}")
    return m
