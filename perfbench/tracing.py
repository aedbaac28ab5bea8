"""Span tracing of berncomp's layers, applied from outside the package.

`Tracer.install()` replaces the public functions listed in TARGETS with
wrappers in every `berncomp` namespace that holds them (a name imported with
`from .classes import lipschitz_ball_sup` is a separate reference and is
replaced too); `Tracer.restore()` puts every original back.  Each wrapped call
appends one span `[layer, parent, start, end, attrs]` to an in-memory list;
`summarize()` turns the spans of one run into per-layer calls, self times and
counts.  A layer's self time is its span time minus the time of its direct
child spans, so the self times of all spans add up to the time of the
top-level spans.

Functions not listed here are not wrapped; their time counts in the self
time of whichever listed function (or the runner) called them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# Point counts that get their own per-call timing bucket.
LINE_BUCKETS = (16, 64, 256)
ALLPAIRS_BUCKETS = (16, 24, 32)
RKHS_BUCKETS = (128,)

LAYERS = (
    "classes.lipschitz_line",
    "classes.lipschitz_allpairs",
    "simplex",
    "classes.rkhs",
    "complexity.bernoulli",
    "complexity.gaussian",
    "complexity.composite",
    "complexity.increment_ratio",
    "core.metric_space",
    "core.norms",
    "chaining.admissible",
    "chaining.gamma2",
    "chaining.entropy",
    "chaining.truncation",
    "tails.series",
    "tails.integral",
    "tails.sampler",
    "svgplot",
)


def _points_shape(points):
    pts = np.asarray(points)
    return pts.shape[0], (1 if pts.ndim == 1 else pts.shape[1])


def _lipschitz(args, kwargs, result):
    n, k = _points_shape(args[0] if args else kwargs["points"])
    method = args[4] if len(args) > 4 else kwargs.get("method", "auto")
    line = method == "line" or (method == "auto" and k == 1)
    layer = "classes.lipschitz_line" if line else "classes.lipschitz_allpairs"
    return layer, {"points": n}


def _simplex(args, kwargs, result):
    return "simplex", {"points": len(args[0] if args else kwargs["c"])}


def _rkhs(args, kwargs, result):
    # args = (self, points, c_or_C); sup has one row, sup_batch one per row of C.
    n, k = _points_shape(args[1] if len(args) > 1 else kwargs["points"])
    rows = int(np.size(result))
    # computed, not measured: c'Gc costs 2 n^2 per row, the Gram build about
    # (3k + 2) n^2 (differences, squares, sums, scaling and exp)
    flops = 2.0 * rows * n * n + (3 * k + 2) * n * n
    return "classes.rkhs", {"points": n, "rows": rows, "flops": flops}


def _estimate(layer):
    def classify(args, kwargs, result):
        T = args[0] if args else kwargs["T"]
        return layer, {"sign_rows": result.samples * T.n_elements,
                       "exact": int(result.method == "exact-enumeration")}
    return classify


def _fixed(layer):
    def classify(args, kwargs, result):
        return layer, None
    return classify


# (module, class or None, attribute, classifier)
TARGETS = (
    ("berncomp.classes", None, "lipschitz_ball_sup", _lipschitz),
    ("berncomp.classes", None, "simplex_maximize", _simplex),
    ("berncomp.classes", "GaussianRkhsBall", "sup", _rkhs),
    ("berncomp.classes", "GaussianRkhsBall", "sup_batch", _rkhs),
    ("berncomp.complexity", None, "bernoulli_complexity", _estimate("complexity.bernoulli")),
    ("berncomp.complexity", None, "gaussian_complexity", _estimate("complexity.gaussian")),
    ("berncomp.complexity", None, "composite_bernoulli_complexity",
     _fixed("complexity.composite")),
    ("berncomp.complexity", None, "increment_ratio", _fixed("complexity.increment_ratio")),
    ("berncomp.core", None, "metric_space_from_pointset", _fixed("core.metric_space")),
    ("berncomp.core", None, "norm_pq", _fixed("core.norms")),
    ("berncomp.core", None, "diameter2", _fixed("core.norms")),
    ("berncomp.chaining", None, "build_admissible_sequence", _fixed("chaining.admissible")),
    ("berncomp.chaining", "AdmissibleSequence", "validate", _fixed("chaining.admissible")),
    ("berncomp.chaining", None, "gamma2_upper", _fixed("chaining.gamma2")),
    ("berncomp.chaining", None, "covering_number", _fixed("chaining.entropy")),
    ("berncomp.chaining", None, "entropy_number", _fixed("chaining.entropy")),
    ("berncomp.chaining", None, "entropy_profile", _fixed("chaining.entropy")),
    ("berncomp.chaining", None, "truncation_objective", _fixed("chaining.truncation")),
    ("berncomp.chaining", None, "min_truncation_objective", _fixed("chaining.truncation")),
    ("berncomp.tails", None, "log_tail_series", _fixed("tails.series")),
    ("berncomp.tails", None, "tail_series", _fixed("tails.series")),
    ("berncomp.tails", None, "tail_series_capped", _fixed("tails.series")),
    ("berncomp.tails", None, "tail_crossing_point", _fixed("tails.series")),
    ("berncomp.tails", None, "uncenter_tail", _fixed("tails.series")),
    ("berncomp.tails", None, "tail_integral", _fixed("tails.integral")),
    ("berncomp.tails", None, "expectation_bound_from_tail", _fixed("tails.integral")),
    ("berncomp.tails", None, "sample_from_capped_tail", _fixed("tails.sampler")),
    ("berncomp.svgplot", None, "write_plot", _fixed("svgplot")),
)

WRAPPED_MARK = "__perfbench_traced__"


def _berncomp_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "berncomp" or name.startswith("berncomp."))]


class Tracer:
    """Wraps the TARGETS while installed and collects their spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._patches = []  # (owner, attribute, original), in patch order

    def _wrap(self, fn, classify):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = ["unclassified", stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            span[0], span[4] = classify(args, kwargs, result)
            return result

        setattr(traced, WRAPPED_MARK, True)
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}  # id(original) -> (original, wrapper)
        for module_name, class_name, attr, classify in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = vars(owner)[attr]
            wrapper = self._wrap(original, classify)
            wrappers[id(original)] = (original, wrapper)
            if class_name is not None:
                self._patch(owner, attr, wrapper)
        for module in _berncomp_modules():
            for name, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, name, hit[1])

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def summarize(spans, wall_s: float) -> dict:
    """Per-layer totals of one traced run.

    Returns {"layers": {layer: {...}}, "runner_self_s": wall_s minus the
    time inside top-level spans}.  Each layer entry has calls,
    self_s, points, rows, flops, sign_rows, exact and per-bucket lists of
    inclusive per-call seconds.
    """
    child = [0.0] * len(spans)
    for layer, parent, start, end, attrs in spans:
        if parent >= 0:
            child[parent] += end - start
    layers = {}
    top = 0.0
    for (layer, parent, start, end, attrs), inner in zip(spans, child):
        dur = end - start
        if parent < 0:
            top += dur
        entry = layers.setdefault(layer, {
            "calls": 0, "self_s": 0.0, "points": 0, "rows": 0, "flops": 0.0,
            "sign_rows": 0, "exact": 0, "buckets": {},
        })
        entry["calls"] += 1
        entry["self_s"] += dur - inner
        if attrs:
            for key in ("points", "rows", "flops", "sign_rows", "exact"):
                entry[key] += attrs.get(key, 0)
            if "points" in attrs:
                entry["buckets"].setdefault(str(attrs["points"]), []).append(dur)
    return {"layers": layers, "runner_self_s": wall_s - top}
