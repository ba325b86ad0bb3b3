"""Spans around zetasurf's public functions, recorded from outside the package.

`install` wraps every function named in a zetasurf module's `__all__` (and
`cli.main`) and rebinds the wrapper wherever a package module holds a
reference to the original, so calls between modules are traced too.  The
integrand handed to `log_quadrature` is wrapped as `sumtools.integrand`.
A name that no longer exists is skipped.

Spans are kept in memory while `recording` is set, on the main thread only
(the GFF worker threads call private functions).  `summary` reduces them to
per-function and per-layer figures; a layer is the module a function is
defined in.  Self time is a span's duration minus the time its child spans
cover, so the self times of all spans add up to the root spans' durations.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import threading
import time

PACKAGE = "zetasurf"
EXTRA_FUNCTIONS = {"zetasurf.cli": ("main",)}
# calls whose arguments are remembered, to count repeats of the same input
KEYED = ("zeta.zeta_det", "heat.heat_integral")
# a GFF call that draws samples is keyed by the Philox stream it reads
STREAM_ARGS = ("model", "lam_max", "n", "seed")
# the integrand is theta-evaluation work, so it is a layer of its own
INTEGRAND = "sumtools.integrand"

_NAME, _START, _END, _PARENT, _KEY, _POINTS, _PANELS = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.recording = False
        self._thread = threading.get_ident()

    def wrap(self, name: str, fn, key_of=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording or threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, None, 0, 0]
            if key_of is not None:
                span[_KEY] = key_of(args, kwargs)
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = time.perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(span, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def root(self, name: str):
        """Time a block, and record it as a root span when recording.

        Yields a list that holds the block's [start, end] clock reads once it
        ends.  The span takes the same two reads, so the self times of a
        recorded round add up to end - start unless a span escapes the root.
        """
        times = [time.perf_counter(), 0.0]
        index = -1
        if self.recording:
            index = len(self.spans)
            self.spans.append([name, times[0], 0.0, -1, None, 0, 0])
            self.stack.append(index)
        try:
            yield times
        finally:
            times[1] = time.perf_counter()
            if index >= 0:
                self.spans[index][_END] = times[1]
                self.stack.pop()


def _bound_key(fn):
    sig = inspect.signature(fn)

    def key_of(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return (fn.__name__,) + tuple(bound.arguments.values())

    return key_of


def _stream_key(fn):
    sig = inspect.signature(fn)
    if not all(p in sig.parameters for p in STREAM_ARGS):
        return None

    def key_of(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return ("stream",) + tuple(bound.arguments[p] for p in STREAM_ARGS)

    return key_of


def _count_points(span, args, result):
    span[_POINTS] += int(getattr(args[0], "size", 1)) if args else 0


def _quadrature_wrapper(tracer: Tracer, fn):
    """log_quadrature with its integrand traced and its panels counted."""

    def after(span, args, result):
        span[_PANELS] += len(getattr(result, "panels", ()))

    traced = tracer.wrap("sumtools.log_quadrature", fn, after=after)

    @functools.wraps(fn)
    def with_integrand(integrand, *args, **kwargs):
        if tracer.recording:
            integrand = tracer.wrap(INTEGRAND, integrand, after=_count_points)
        return traced(integrand, *args, **kwargs)

    return with_integrand


def install(tracer: Tracer) -> list[str]:
    """Wrap zetasurf's public functions in every loaded package module.

    Returns the span names installed.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    wrappers: dict[int, object] = {}
    names = []
    for module in modules:
        wanted = list(getattr(module, "__all__", ())) + list(EXTRA_FUNCTIONS.get(module.__name__, ()))
        layer = module.__name__.rsplit(".", 1)[-1]
        for attr in wanted:
            fn = getattr(module, attr, None)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if name == "sumtools.log_quadrature":
                wrapper = _quadrature_wrapper(tracer, fn)
                names.append(INTEGRAND)
            elif name == "bessel.k0":
                wrapper = tracer.wrap(name, fn, after=_count_points)
            elif name in KEYED:
                wrapper = tracer.wrap(name, fn, key_of=_bound_key(fn))
            elif layer == "gff" and _stream_key(fn) is not None:
                wrapper = tracer.wrap(name, fn, key_of=_stream_key(fn))
            else:
                wrapper = tracer.wrap(name, fn)
            wrappers[id(fn)] = wrapper
            names.append(name)
    for module in modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])
    return names


def layer_of(name: str) -> str:
    return name if name == INTEGRAND else name.split(".", 1)[0]


def summary(spans: list[list]) -> dict:
    """Per-name and per-layer totals of one traced round.

    names[n] = {calls, busy_s, self_s, points, panels, repeats, max_passes,
    samples}: repeats counts calls whose key was seen before, max_passes the
    most calls on one key, samples the n of calls keyed by a GFF stream.
    layers[l] = {self_s, busy_s}; busy counts only spans with no ancestor in
    the same name (or layer), so nested calls are not counted twice.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[_PARENT] >= 0:
            child_time[span[_PARENT]] += span[_END] - span[_START]

    def has_ancestor(i, same):
        parent = spans[i][_PARENT]
        while parent >= 0:
            if same(spans[parent]):
                return True
            parent = spans[parent][_PARENT]
        return False

    names: dict[str, dict] = {}
    layers: dict[str, dict] = {}
    seen: dict[tuple, int] = {}
    for i, span in enumerate(spans):
        name = span[_NAME]
        layer = layer_of(name)
        duration = span[_END] - span[_START]
        own = duration - child_time[i]
        rec = names.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                      "points": 0, "panels": 0, "repeats": 0,
                                      "max_passes": 0, "samples": 0})
        rec["calls"] += 1
        rec["self_s"] += own
        rec["points"] += span[_POINTS]
        rec["panels"] += span[_PANELS]
        if not has_ancestor(i, lambda s: s[_NAME] == name):
            rec["busy_s"] += duration
        key = span[_KEY]
        if key is not None:
            seen[key] = seen.get(key, 0) + 1
            if seen[key] > 1:
                rec["repeats"] += 1
            rec["max_passes"] = max(rec["max_passes"], seen[key])
            if key[0] == "stream":
                rec["samples"] += key[3]
        lay = layers.setdefault(layer, {"self_s": 0.0, "busy_s": 0.0})
        lay["self_s"] += own
        if not has_ancestor(i, lambda s: layer_of(s[_NAME]) == layer):
            lay["busy_s"] += duration
    return {"names": names, "layers": layers}
