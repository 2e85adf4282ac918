"""In-memory call spans around the public functions of blinkwild's modules.

The benchmark installs a ``Tracer`` around each traced operation: every
public function defined in one of ``LAYERS`` is replaced, in every module
that refers to it, by a wrapper that records a span (name, start, end,
parent, thread). Spans stay in memory; the caller writes them out when the
run ends. Nothing here imports blinkwild, so the arithmetic can be tested
on hand-built spans.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import threading
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "dataset", "features", "tracker", "pipeline", "mslstm",
          "evaluation")
OP_NAME = "op"          # the span the benchmark opens around one operation

# functions whose sequence count is read from their input shapes; nested
# calls inside one of them (predict -> forward) are not counted again
SEQUENCE_ENTRIES = ("mslstm.predict", "mslstm.forward",
                    "mslstm.loss_and_grads")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str             # "<layer>.<function>"
    start: float          # seconds, perf_counter clock
    end: float
    thread: int
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _shape_sequences(arr) -> int:
    shape = getattr(arr, "shape", None)
    if shape is None:
        return 1
    return 1 if len(shape) <= 2 else int(shape[0])


def _counts(name: str, args, result) -> dict:
    """Work counters read at a span boundary from arguments and results."""
    if name == "pipeline.track_eyes":
        return {"reloc": sum(len(s.reloc_indices) for s in result.values())}
    if name == "pipeline.temporal_nms":
        return {"nms_in": len(args[0]), "nms_out": len(result)}
    if name in SEQUENCE_ENTRIES:
        return {"sequences": _shape_sequences(args[1])}
    return {}


class Tracer:
    """Wraps public functions of the given modules while installed.

    A span opened on a thread with no open span of its own (a pool worker)
    takes as parent the innermost open span of the thread that installed
    the tracer, which is the thread that submitted the work.
    """

    def __init__(self, layers: dict[str, object], others=()):
        """``layers`` maps a layer name to its module; the public functions
        defined there are traced. Attributes of the layer modules and of
        ``others`` that refer to them are redirected too, so calls through
        ``from x import f`` names are traced as well."""
        self.layers = layers
        self.others = tuple(others)
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.defined: set[str] = set()  # span names wrapped at last install

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        owner = self._owner_stack
        return owner[-1] if owner else None

    def span(self, name: str):
        """Context manager recording one span named ``name``."""
        return _SpanContext(self, name)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                result = fn(*args, **kwargs)
                span.counts = _counts(name, args, result)
            return result

        return traced

    def install(self) -> set[str]:
        """Wrap the layers' public functions; returns the span names."""
        self._local.stack = self._owner_stack
        wrapped = {}
        for layer, module in self.layers.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    wrapped[id(obj)] = (name, self._wrap(name, obj))
        for module in (*self.layers.values(), *self.others):
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapped[id(obj)][1])
        self.defined = {name for name, _ in wrapped.values()}
        return self.defined

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.counts: dict = {}

    def __enter__(self):
        stack = self.tracer._stack()
        self.id = next(self.tracer._ids)
        self.parent = self.tracer._parent(stack)
        stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(Span(self.id, self.parent, self.name,
                                      self.start, end, threading.get_ident(),
                                      self.counts))
        return False


# ---------------------------------------------------------------------------
# arithmetic over finished spans


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children_of(spans) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            out.setdefault(s.parent, []).append(s)
    return out


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Children that overlap each other (pool threads) are counted once.
    """
    kids = children_of(spans)
    return {s.id: (s.end - s.start)
            - covered([(c.start, c.end) for c in kids.get(s.id, [])],
                      s.start, s.end)
            for s in spans}


def _ancestor_names(spans) -> dict[int, set[str]]:
    by_id = {s.id: s for s in spans}
    out = {}
    for s in spans:
        names = set()
        p = s.parent
        while p is not None and p in by_id:
            names.add(by_id[p].name)
            p = by_id[p].parent
        out[s.id] = names
    return out


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# per-layer metric -> program functions it is read from; a metric whose
# functions the program no longer defines is left out of the result
METRIC_SOURCES = {
    "tracker.kcf_update_calls_per_item": ("tracker.kcf_update",),
    "tracker.kcf_update_p50_us": ("tracker.kcf_update",),
    "tracker.kcf_init_calls_per_item": ("tracker.kcf_init",),
    "tracker.kcf_init_p50_us": ("tracker.kcf_init",),
    "pipeline.track_eyes_calls_per_item": ("pipeline.track_eyes",),
    "pipeline.reloc_ratio": ("pipeline.track_eyes", "tracker.kcf_update"),
    "pipeline.nms_keep_ratio": ("pipeline.temporal_nms",),
    "mslstm.sequences_per_item": SEQUENCE_ENTRIES,
    "mslstm.predict_calls_per_item": ("mslstm.predict",),
    "mslstm.loss_and_grads_p50_ms": ("mslstm.loss_and_grads",),
    "features.lbp_calls_per_item": ("features.uniform_lbp",),
    "dataset.read_pgm_calls_per_item": ("dataset.read_pgm",),
}


def layer_metrics(spans, items: float, defined: set[str],
                  scale: dict[int, float] | None = None) -> dict[str, float]:
    """Per-layer metrics over the spans of traced operations.

    ``items`` is the number of workload items those operations processed;
    ``defined`` the span names the tracer wrapped. ``scale`` maps an op span
    id to the factor applied to every duration inside that op (the
    machine-speed normalization); default 1. Ratios and medians with
    nothing to count are 0, as in blinkwild's own metrics.
    """
    scale = scale or {}
    by_id = {s.id: s for s in spans}
    kids = children_of(spans)

    factor = {}
    for s in spans:
        op = s
        while op is not None and op.name != OP_NAME:
            op = by_id.get(op.parent)
        factor[s.id] = scale.get(op.id, 1.0) if op is not None else 1.0
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return by_name.get(name, [])

    def per_item(name):
        return _ratio(len(calls(name)), items)

    def p50(name, unit):
        return _p50([(s.end - s.start) * factor[s.id] * unit
                     for s in calls(name)])

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in calls(name))

    out: dict[str, float] = {}
    defined_layers = {name.split(".", 1)[0] for name in defined}
    for layer in LAYERS:
        if layer in defined_layers:
            total = sum(selfs[s.id] * factor[s.id] for s in spans
                        if s.layer == layer)
            out[f"{layer}.self_ms_per_item"] = _ratio(total * 1e3, items)

    ancestors = _ancestor_names(spans)
    sequences = sum(s.counts.get("sequences", 0)
                    for name in SEQUENCE_ENTRIES for s in calls(name)
                    if not ancestors[s.id] & set(SEQUENCE_ENTRIES))
    values = {
        "tracker.kcf_update_calls_per_item": per_item("tracker.kcf_update"),
        "tracker.kcf_update_p50_us": p50("tracker.kcf_update", 1e6),
        "tracker.kcf_init_calls_per_item": per_item("tracker.kcf_init"),
        "tracker.kcf_init_p50_us": p50("tracker.kcf_init", 1e6),
        "pipeline.track_eyes_calls_per_item": per_item("pipeline.track_eyes"),
        "pipeline.reloc_ratio": _ratio(count("pipeline.track_eyes", "reloc"),
                                       len(calls("tracker.kcf_update"))),
        "pipeline.nms_keep_ratio": _ratio(
            count("pipeline.temporal_nms", "nms_out"),
            count("pipeline.temporal_nms", "nms_in")),
        "mslstm.sequences_per_item": _ratio(sequences, items),
        "mslstm.predict_calls_per_item": per_item("mslstm.predict"),
        "mslstm.loss_and_grads_p50_ms": p50("mslstm.loss_and_grads", 1e3),
        "features.lbp_calls_per_item": per_item("features.uniform_lbp"),
        "dataset.read_pgm_calls_per_item": per_item("dataset.read_pgm"),
    }
    for metric, value in values.items():
        if any(name in defined for name in METRIC_SOURCES[metric]):
            out[metric] = value

    ops = calls(OP_NAME)
    inside = sum(covered([(c.start, c.end) for c in kids.get(op.id, [])
                          if c.layer in LAYERS], op.start, op.end)
                 for op in ops)
    out["trace.coverage"] = _ratio(inside,
                                   sum(op.end - op.start for op in ops))
    return out


def absent(defined: set[str]) -> list[str]:
    """Per-layer metrics whose source functions the program lacks."""
    return sorted(m for m, needs in METRIC_SOURCES.items()
                  if not any(name in defined for name in needs))


def to_jsonable(spans) -> list[dict]:
    return [{"id": s.id, "parent": s.parent, "name": s.name,
             "start": s.start, "end": s.end, "thread": s.thread,
             **({"counts": s.counts} if s.counts else {})} for s in spans]
