"""Span tracing around the public entry point of each layer.

The tracer patches a fixed list of public calls (:data:`TARGETS`) from
the benchmark's own files; the program itself carries no tracing code.
Each call made while the tracer is installed becomes one span: which
target, which thread, start, end, the time covered by its child spans,
the id of the operation (tick or recording segment) it served, and an
optional work count (samples, windows, queries, sessions or bytes).
Parents are tracked per thread, because the network service runs its
event loop on a thread of its own.  Spans are kept in memory and
written out once, when the run ends.

Self time is a span's duration minus the time its child spans cover;
a layer's ``share`` is its self time over the time of the traced
operations.  Hot
inner helpers (``_carry_save_add``, ``_reduce_plane``) are deliberately
left unwrapped: they run thousands of times per tick, and their cost is
already inside the ``hdc.bitsliced`` entry points that call them.

A method target is wrapped on its class and on every subclass that
overrides it, so an engine subclass (``packed-native``'s encoder, its
grouped kernel) is traced like the class it specialises.  Calls made
in a forked shard worker run straight through: the tracer only records
in the process that installed it.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable


def _rows(index: int) -> Callable:
    """Work count: leading dimension of positional argument ``index``."""
    def count(args, result) -> int:
        shape = getattr(args[index], "shape", None)
        return int(shape[0]) if shape else 0
    return count


def _result_rows(args, result) -> int:
    return int(result.shape[0])


def _mapping_len(args, result) -> int:
    return len(args[1])


def _nbytes(args, result) -> int:
    return int(args[1].nbytes)


def _result_len(args, result) -> int:
    return len(result)


def _body_len(args, result) -> int:
    return len(args[1])


@dataclass(frozen=True)
class Target:
    """One patched call.

    Attributes:
        layer: Layer the call belongs to (a dotted repo module name).
        module: Module whose attribute is replaced — the place the
            program looks the callable up, which for imported
            functions is the importing module.
        attr: ``"function"`` or ``"Class.method"`` inside ``module``.
        count: Optional ``(args, result) -> int`` work count.
        span: False for count-only hooks (no span, only the count):
            used for coroutine functions, whose call only builds the
            coroutine.
        opaque: True when the span's self time is not work of a named
            layer — an operation's entry call, whose self time is
            whatever the named calls below it leave out, or the client's
            wait for the reply, which the service thread's spans name.  :func:`coverage` counts only what
            such a span's children and other threads' spans cover.
    """

    layer: str
    module: str
    attr: str
    count: Callable | None = None
    span: bool = True
    opaque: bool = False

    @property
    def name(self) -> str:
        return f"{self.layer}:{self.attr}"


_BITSLICED = ("bitsliced_counts", "planes_add", "planes_greater_than")

#: Every call the tracer wraps, grouped by layer.
TARGETS: tuple[Target, ...] = (
    Target("lbp", "repro.core.symbolizers", "LBPSymbolizer.codes"),
    Target("hdc.spatial", "repro.hdc.spatial_packed",
           "PackedSpatialEncoder.encode_packed", _rows(1)),
    Target("hdc.spatial", "repro.hdc.spatial", "SpatialEncoder.encode",
           _rows(1)),
    *(
        Target("hdc.bitsliced", module, fn)
        for module, names in (
            ("repro.hdc.spatial_packed",
             ("bitsliced_counts", "planes_greater_than")),
            ("repro.hdc.temporal_packed", _BITSLICED),
            ("repro.hdc.associative", _BITSLICED),
            ("repro.hdc.native",
             ("native_bitsliced_counts", "native_bundle_exceeds",
              "planes_add", "planes_greater_than")),
        )
        for fn in names
    ),
    Target("hdc.temporal", "repro.hdc.temporal", "WindowBundler.feed",
           _result_rows),
    Target("hdc.associative", "repro.hdc.associative",
           "AssociativeMemory.classify_packed", _rows(1)),
    Target("hdc.associative", "repro.core.sessions",
           "grouped_classify_packed", _rows(0)),
    Target("hdc.associative", "repro.hdc.engine",
           "_EngineBase.grouped_kernel", _rows(0)),
    Target("core.postprocess", "repro.core.postprocess",
           "AlarmStateMachine.update"),
    Target("core.streaming", "repro.core.streaming",
           "StreamingLaelaps.encode_chunk"),
    Target("core.streaming", "repro.core.streaming",
           "StreamingLaelaps.emit_events"),
    Target("core.sessions", "repro.core.sessions",
           "StreamSessionManager.push_many", _mapping_len),
    Target("serve.gateway", "repro.serve.gateway",
           "ShardedStreamGateway.push_many", opaque=True),
    Target("serve.gateway", "repro.serve.gateway",
           "ShardedStreamGateway.checkpoint"),
    Target("serve.gateway", "repro.serve.gateway",
           "ShardedStreamGateway.ping_workers"),
    *(
        Target("serve.worker", "repro.serve.worker", f"{cls}.{method}")
        for cls in ("InlineShardWorker", "ProcessShardWorker")
        for method in ("dispatch", "collect")
    ),
    *(
        Target("serve.service", "repro.serve.service", fn)
        for fn in ("encode_value", "decode_value", "events_to_wire",
                   "events_from_wire")
    ),
    Target("serve.service", "repro.serve.service", "_frame", _result_len),
    Target("serve.service", "repro.serve.service",
           "LaelapsService._execute", _body_len, span=False),
    Target("serve.client", "repro.serve.service", "ServiceClient.push_many",
           opaque=True),
    Target("serve.client", "repro.serve.service", "ServiceClient.call"),
    Target("serve.client", "repro.serve.service",
           "ServiceClient._recv_exact", opaque=True),
    Target("serve.metrics", "repro.serve.service", "gateway_metrics"),
    Target("core.persistence", "repro.serve.worker", "save_sessions"),
    Target("evaluation.runner", "repro.evaluation.runner",
           "predict_windows", _nbytes, opaque=True),
    Target("evaluation.runner", "repro.evaluation.runner",
           "predict_windows_streamed", _nbytes, opaque=True),
    Target("core.detector", "repro.core.detector", "LaelapsDetector.fit"),
)


def _places(target: Target) -> list[tuple[object, str]]:
    """Where ``target`` is looked up: its attribute and, for a method,
    every override of it in a subclass of its class."""
    owner = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    places = [(owner, name)]
    if isinstance(owner, type):
        pending, seen = list(owner.__subclasses__()), set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            if name in cls.__dict__:
                places.append((cls, name))
            pending.extend(cls.__subclasses__())
    return places


# Span record layout (a list, so the hot path allocates one object).
_TARGET, _THREAD, _START, _END, _CHILD, _OP, _COUNT, _PARENT = range(8)


class Tracer:
    """Records spans around :data:`TARGETS` while installed.

    Use as ``with tracer:`` or call :meth:`install`/:meth:`uninstall`.
    :attr:`op` is the id stamped on new spans; the workload loop sets
    it to the index of the operation in flight.
    """

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.spans: list[list] = []
        #: Count-only hooks: target index -> (calls, summed count).
        self.counts: dict[int, list[int]] = {}
        self.op: int | None = None
        self._local = threading.local()
        self._pid = os.getpid()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        # Every module first, so each subclass exists before its base
        # class is searched for overrides.
        for target in self.targets:
            importlib.import_module(target.module)
        wrapped: set[tuple[int, str]] = set()
        for index, target in enumerate(self.targets):
            for owner, name in _places(target):
                if (id(owner), name) in wrapped:
                    continue
                wrapped.add((id(owner), name))
                raw = owner.__dict__[name]
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapper = (
                    self._span_wrapper(index, target, fn)
                    if target.span
                    else self._count_wrapper(index, target, fn)
                )
                setattr(owner, name,
                        staticmethod(wrapper) if is_static else wrapper)
                self._saved.append((owner, name, raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)

    def _span_wrapper(self, index: int, target: Target, fn: Callable):
        local = self._local
        spans = self.spans
        pid = self._pid
        count = target.count
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            if parent is not None and parent[_TARGET] == index:
                return fn(*args, **kwargs)  # an override calling super()
            record = [index, threading.get_ident(), 0.0, 0.0, 0.0, self.op,
                      0, parent[_TARGET] if parent is not None else None]
            stack.append(record)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record[_START] = start
                record[_END] = end
                if parent is not None:
                    parent[_CHILD] += end - start
                spans.append(record)
            if count is not None:
                record[_COUNT] = count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, index: int, target: Target, fn: Callable):
        counts = self.counts
        pid = self._pid
        count = target.count

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if os.getpid() == pid:
                entry = counts.setdefault(index, [0, 0])
                entry[0] += 1
                entry[1] += count(args, result)
            return result

        counted.__wrapped__ = fn
        return counted

    def write(self, path: str | os.PathLike) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        origin = min((s[_START] for s in self.spans), default=0.0)
        threads: dict[int, int] = {}
        with open(path, "w") as out:
            for record in sorted(self.spans, key=lambda s: s[_START]):
                parent = record[_PARENT]
                out.write(json.dumps({
                    "name": self.targets[record[_TARGET]].name,
                    "thread": threads.setdefault(record[_THREAD], len(threads)),
                    "start_s": round(record[_START] - origin, 7),
                    "end_s": round(record[_END] - origin, 7),
                    "child_s": round(record[_CHILD], 7),
                    "op": record[_OP],
                    "count": record[_COUNT],
                    "parent": (self.targets[parent].name
                               if parent is not None else None),
                }) + "\n")


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

#: Every per-layer metric of ``BENCHMARK.json``, in order, with its unit.
#:
#: The layer map — which end-to-end metric a layer should move, the
#: workloads where it does the most work, and where it does little (the
#: no-change control):
#:
#: ================= ============================= ================ ===========
#: layer             should move                   most work        little
#: ================= ============================= ================ ===========
#: lbp               windows_per_s                 offline-* (<=2%) serve-wire
#: hdc.spatial       windows_per_s; op_p50_ms      offline-*        serve-wire
#: hdc.bitsliced     windows_per_s (grouping cuts  serve-fleet      offline-paper
#:                   calls)
#: hdc.temporal      windows_per_s                 offline-*        serve-*
#: hdc.associative   nothing (<0.1%): the control  -                -
#:                   for sweep work
#: core.postprocess  windows_per_s; op_p50_ms      serve-fleet      offline-*
#: core.streaming    windows_per_s; op_p50_ms      serve-fleet      offline-paper
#: core.sessions     windows_per_s; op_p50_ms      serve-fleet      offline-*
#: serve.gateway     op_p50_ms; checkpoint_s       serve-*          offline-*
#: serve.worker      windows_per_s; op_p50_ms      serve-wire       serve-fleet
#: serve.service     op_p50_ms; healthz_p50_ms     serve-wire       all others
#: serve.client      op_p50_ms                     serve-wire       all others
#: serve.metrics     healthz_p50_ms                serve-wire       all others
#: core.persistence  checkpoint_s; windows_per_s   serve-wire       all others
#: evaluation.runner windows_per_s; peak_mb        offline-highchan offline-paper
#: core.detector     setup_s                       all              -
#: ================= ============================= ================ ===========
#:
#: ``op_p50_ms``, ``checkpoint_s`` and ``healthz_p50_ms`` are printed,
#: not gated; on a serving workload one closed-loop caller makes
#: ``windows_per_s`` the windows per tick over the mean tick, so a
#: faster tick moves it too.
PER_LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("lbp.calls", "count"), ("lbp.self_s", "s"), ("lbp.share", "ratio"),
    ("hdc.spatial.calls", "count"), ("hdc.spatial.samples", "count"),
    ("hdc.spatial.self_s", "s"), ("hdc.spatial.share", "ratio"),
    ("hdc.spatial.total_share", "ratio"),
    ("hdc.bitsliced.calls", "count"), ("hdc.bitsliced.self_s", "s"),
    ("hdc.bitsliced.calls_per_tick", "count"),
    ("hdc.temporal.calls", "count"), ("hdc.temporal.windows", "count"),
    ("hdc.temporal.self_s", "s"),
    ("hdc.associative.calls", "count"), ("hdc.associative.queries", "count"),
    ("hdc.associative.self_s", "s"), ("hdc.associative.share", "ratio"),
    ("core.postprocess.calls", "count"), ("core.postprocess.self_s", "s"),
    ("core.streaming.calls", "count"), ("core.streaming.self_s", "s"),
    ("core.sessions.calls", "count"),
    ("core.sessions.sessions_per_call", "count"),
    ("core.sessions.self_s", "s"),
    ("serve.gateway.calls", "count"), ("serve.gateway.self_s", "s"),
    ("serve.worker.self_s", "s"), ("serve.worker.wait_s", "s"),
    ("serve.service.codec_s", "s"), ("serve.service.bytes_in", "bytes"),
    ("serve.service.bytes_out", "bytes"),
    ("serve.service.healthz_wait_s", "s"),
    ("serve.client.wait_s", "s"),
    ("serve.metrics.calls", "count"), ("serve.metrics.self_s", "s"),
    ("core.persistence.bytes", "bytes"), ("core.persistence.write_s", "s"),
    ("evaluation.runner.self_s", "s"), ("evaluation.runner.read_bytes", "bytes"),
    ("core.detector.fit_s", "s"),
    ("trace.coverage", "ratio"), ("trace.overhead_frac", "ratio"),
)


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    #: Inclusive time of the outermost spans of this layer.
    total_s: float = 0.0
    count: int = 0


def layer_stats(tracer: Tracer) -> dict[str, LayerStats]:
    """Per-layer calls, self time, inclusive time and work counts."""
    stats: dict[str, LayerStats] = {}
    targets = tracer.targets
    for record in tracer.spans:
        layer = targets[record[_TARGET]].layer
        entry = stats.setdefault(layer, LayerStats())
        duration = record[_END] - record[_START]
        entry.calls += 1
        entry.self_s += duration - record[_CHILD]
        entry.count += record[_COUNT]
        parent = record[_PARENT]
        if parent is None or targets[parent].layer != layer:
            entry.total_s += duration
    for index, (calls, total) in tracer.counts.items():
        entry = stats.setdefault(targets[index].name, LayerStats())
        entry.calls += calls
        entry.count += total
    return stats


def target_totals(tracer: Tracer, attr: str) -> tuple[float, int]:
    """Summed self time and work count of one target's spans."""
    indices = {i for i, t in enumerate(tracer.targets) if t.attr == attr}
    self_s, count = 0.0, 0
    for record in tracer.spans:
        if record[_TARGET] in indices:
            self_s += record[_END] - record[_START] - record[_CHILD]
            count += record[_COUNT]
    return self_s, count


def _union(intervals) -> list[tuple[float, float]]:
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def coverage(tracer: Tracer, ops: list[tuple[float, float]]) -> float:
    """Share of the traced operations' time that named layers cover.

    ``ops`` are the ``(start, end)`` intervals of the traced operations.
    Covered is the union, over every thread, of the spans that are not
    :attr:`Target.opaque`: the operation's entry call contributes only
    through its child spans, and the client's wait for the reply only
    through the service thread's spans.  What stays uncovered is work
    no named layer holds: on ``serve-wire``, the service's read and
    JSON parse of each request.  Spans are clipped to the operations,
    so work a background thread did between them does not count.
    """
    targets = tracer.targets
    spans = _union((r[_START], r[_END]) for r in tracer.spans
                   if not targets[r[_TARGET]].opaque)
    covered = 0.0
    for op_start, op_end in ops:
        for start, end in spans:
            covered += max(0.0, min(end, op_end) - max(start, op_start))
    total = sum(end - start for start, end in ops)
    return covered / total if total > 0 else 0.0


def per_layer_metrics(
    tracer: Tracer,
    *,
    ops: list[tuple[float, float]],
    extra: dict[str, float],
) -> dict[str, float]:
    """Every :data:`PER_LAYER_METRICS` value of the traced operations.

    ``ops`` are their ``(start, end)`` intervals.
    ``extra`` supplies what the workload measures itself rather than
    through spans (persistence bytes and write time, the healthz wait,
    the fit time of set-up and the tracing overhead); a layer the
    workload never reaches reports 0.
    """
    stats = layer_stats(tracer)
    wall = sum(end - start for start, end in ops)
    n_ops = len(ops)

    def get(layer: str) -> LayerStats:
        return stats.get(layer, LayerStats())

    out: dict[str, float] = {}
    for layer in ("lbp", "hdc.spatial", "hdc.bitsliced", "hdc.temporal",
                  "hdc.associative", "core.postprocess", "core.streaming",
                  "core.sessions", "serve.gateway", "serve.metrics"):
        entry = get(layer)
        out[f"{layer}.calls"] = entry.calls
        out[f"{layer}.self_s"] = entry.self_s
        out[f"{layer}.share"] = entry.self_s / wall
    out["hdc.spatial.samples"] = get("hdc.spatial").count
    out["hdc.spatial.total_share"] = get("hdc.spatial").total_s / wall
    out["hdc.bitsliced.calls_per_tick"] = (
        get("hdc.bitsliced").calls / n_ops if n_ops else 0.0
    )
    out["hdc.temporal.windows"] = get("hdc.temporal").count
    out["hdc.associative.queries"] = get("hdc.associative").count
    sessions = get("core.sessions")
    out["core.sessions.sessions_per_call"] = (
        sessions.count / sessions.calls if sessions.calls else 0.0
    )
    # A process worker's collect is time blocked on the child: wait,
    # not work of the worker layer itself.
    out["serve.worker.wait_s"], _ = target_totals(
        tracer, "ProcessShardWorker.collect")
    out["serve.worker.self_s"] = (
        get("serve.worker").self_s - out["serve.worker.wait_s"]
    )
    out["serve.service.codec_s"] = get("serve.service").self_s
    out["serve.service.bytes_in"] = get("serve.service:LaelapsService._execute").count
    out["serve.service.bytes_out"] = target_totals(tracer, "_frame")[1]
    out["serve.client.wait_s"], _ = target_totals(
        tracer, "ServiceClient._recv_exact")
    runner = get("evaluation.runner")
    out["evaluation.runner.self_s"] = runner.self_s
    out["evaluation.runner.read_bytes"] = runner.count
    out["trace.coverage"] = coverage(tracer, ops)
    for name in ("serve.service.healthz_wait_s", "core.persistence.bytes",
                 "core.persistence.write_s", "core.detector.fit_s",
                 "trace.overhead_frac"):
        out[name] = extra.get(name, 0.0)
    return {name: float(out[name]) for name, _ in PER_LAYER_METRICS}
