"""Spans recorded from the benchmark's side of each layer boundary.

Nothing here edits the program.  Spans are taken around public calls only:

* ``CompilationService.job_key``, wrapped on the service instance;
* a :class:`TracedCache` proxy passed to the service as ``cache=``;
* a :class:`TracedExecutor` handed to the service as its executor, whose
  runner compiles with a :class:`StageHook` passed through ``hooks=``
  and times ``result_to_dict`` (the encode step of a worker);
* the decode name the service calls (``repro.service.service.
  result_from_dict``) and the canonical JSON encoder the disk store calls
  (``repro.service.shardcache.canonical_json``), rebound for the run.

Spans live in memory; worker processes ship theirs back inside the raw
result, and :meth:`Tracer.write` stores the lot once at exit in the
``repro.obs.trace`` event format.  ``perf_counter`` is CLOCK_MONOTONIC on
Linux, so spans from forked workers share the parent's time base.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.service.executor import execute_payload

#: Raw-result key carrying a worker's spans back to the parent.
SPANS_KEY = "perfbench_spans"

PIPELINE_STAGES = (
    "synthesize", "group", "simplify", "order", "emit",
    "rebase", "optimize", "consolidate", "route",
)

_span_ids = itertools.count(1)


class Span:
    __slots__ = ("name", "span_id", "parent_id", "start", "end", "pid", "attrs")

    def __init__(self, name: str, parent_id: Optional[str], attrs: Dict[str, Any]):
        self.name = name
        self.span_id = f"{os.getpid()}-{next(_span_ids)}"
        self.parent_id = parent_id
        self.start = time.perf_counter()
        self.end = self.start
        self.pid = os.getpid()
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        span = cls.__new__(cls)
        for name in cls.__slots__:
            setattr(span, name, data[name])
        return span


class Tracer:
    """An in-memory span recorder with an on/off switch.

    While ``enabled`` is false every instrumented call goes straight
    through, so one run can alternate traced and untraced batches over
    the same services and measure the tracing overhead.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self.trace_id = f"perfbench-{os.getpid()}-{time.time_ns():x}"

    def start(self, name: str, **attrs: Any) -> Span:
        span = Span(name, self._stack[-1].span_id if self._stack else None, attrs)
        self._stack.append(span)
        return span

    def finish(self, span: Span, **attrs: Any) -> None:
        span.end = time.perf_counter()
        span.attrs.update(attrs)
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        span = self.start(name, **attrs)
        try:
            yield span
        finally:
            self.finish(span)

    def adopt(self, events: Iterable[Dict[str, Any]], parent: Span) -> None:
        """Take spans recorded in a worker; its root spans hang off ``parent``."""
        for event in events:
            span = Span.from_dict(event)
            if span.parent_id is None:
                span.parent_id = parent.span_id
            self.spans.append(span)

    def write(self, path: str) -> None:
        """All spans as JSON lines in the ``repro.obs.trace`` event format."""
        wall_offset = time.time() - time.perf_counter()
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps({
                    "type": "span",
                    "name": span.name,
                    "trace_id": self.trace_id,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "start": span.start + wall_offset,
                    "duration": span.duration,
                    "status": "ok",
                    "pid": span.pid,
                    "thread": threading.get_ident(),
                    "attrs": span.attrs,
                }, sort_keys=True, default=str) + "\n")


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """span_id -> duration minus the part of it its children cover.

    Children may overlap one another (two pool workers under one executor
    run), so the covered part is the union of the clipped child intervals.
    """
    children: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append(span)
    return {
        span.span_id: span.duration - covered_length(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children[span.span_id]
        )
        for span in spans
    }


# ----------------------------------------------------------------------
# Pipeline hook and the traced worker runner
# ----------------------------------------------------------------------
def stage_ir(name: str, context: Any) -> Optional[int]:
    """IR size after a stage: groups for grouping and ordering, 2Q
    Cliffords for simplify, gates of the circuit the stage produced."""
    if name in ("group", "order"):
        return len(context.groups)
    if name == "simplify":
        return sum(getattr(group, "clifford_count", 0) for group in context.groups)
    circuit = {
        "synthesize": context.native,
        "emit": context.native,
        "rebase": context.logical_cx,
        "optimize": context.logical_cx,
        "consolidate": context.logical,
        "route": context.final_circuit,
    }.get(name)
    return None if circuit is None else len(circuit)


class StageHook:
    """A ``repro.pipeline.PipelineHook`` opening one span per stage."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._open: Optional[Span] = None

    def before_stage(self, stage: Any, context: Any) -> None:
        self._open = self.tracer.start(f"pipeline.{stage.name}")

    def after_stage(self, stage: Any, context: Any, elapsed: float) -> None:
        if self._open is not None:
            self.tracer.finish(self._open, ir=stage_ir(stage.name, context))
            self._open = None


def traced_runner(payload: Dict[str, Any]) -> Dict[str, Any]:
    """``execute_payload`` as the service prepares it, with stage and encode
    spans; runs inline or in a pool worker."""
    from repro.serialize.results import result_to_dict, terms_from_dict
    from repro.service.registry import CompilerOptions

    tracer = Tracer(enabled=True)
    root = tracer.start("service.executor.worker", job=payload.get("name"))
    try:
        terms = terms_from_dict(payload["program"])
        compiler = CompilerOptions.from_dict(payload["options"]).build()
        result = compiler.compile(terms, hooks=[StageHook(tracer)])
        with tracer.span("serialize.encode"):
            encoded = result_to_dict(result)
        raw: Dict[str, Any] = {"index": payload.get("index"), "status": "ok",
                               "result": encoded}
    except Exception:
        raw = {"index": payload.get("index"), "status": "error",
               "error": traceback.format_exc()}
    tracer.finish(root)
    raw["elapsed"] = root.duration
    raw[SPANS_KEY] = [span.as_dict() for span in tracer.spans]
    return raw


# ----------------------------------------------------------------------
# Instruments handed to the service
# ----------------------------------------------------------------------
class TracedExecutor:
    """Executor object for ``CompilationService(executor=...)``: one span
    per ``run`` and the workers' spans adopted underneath it."""

    def __init__(self, inner: Any, tracer: Tracer, workers: int = 1):
        self.inner = inner
        self.tracer = tracer
        self.workers = workers

    def run(self, payloads: Sequence[Dict[str, Any]], progress: Optional[Callable] = None,
            runner: Callable = execute_payload, cancel: Any = None) -> List[Dict[str, Any]]:
        if not self.tracer.enabled:
            return self.inner.run(payloads, progress=progress, runner=runner, cancel=cancel)
        with self.tracer.span("service.executor.run", workers=self.workers) as run_span:
            assert run_span is not None

            def on_done(position: int, raw: Dict[str, Any]) -> None:
                self.tracer.adopt(raw.pop(SPANS_KEY, ()), parent=run_span)
                run_span.attrs["retries"] = (
                    run_span.attrs.get("retries", 0) + max(0, raw.get("attempts", 1) - 1)
                )
                if progress is not None:
                    progress(position, raw)

            return self.inner.run(payloads, progress=on_done, runner=traced_runner,
                                  cancel=cancel)

    def close(self) -> None:
        closer = getattr(self.inner, "close", None)
        if callable(closer):
            closer()


class TracedCache:
    """``CacheStore`` proxy timing ``get`` and ``put``."""

    def __init__(self, inner: Any, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        with self.tracer.span("service.cache.get") as span:
            value = self.inner.get(key)
            if span is not None:
                span.attrs["hit"] = value is not None
        return value

    def put(self, key: str, value: Dict[str, Any]) -> None:
        with self.tracer.span("service.cache.put"):
            self.inner.put(key, value)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)


def trace_job_key(service: Any, tracer: Tracer) -> None:
    original = service.job_key

    def job_key(job: Any) -> str:
        with tracer.span("service.cache.key"):
            return original(job)

    service.job_key = job_key


@contextmanager
def traced_serializers(tracer: Tracer) -> Iterator[None]:
    """Rebind the decode and JSON-encode names the service and the disk
    store call, for the life of the block."""
    import repro.service.service as service_module
    import repro.service.shardcache as shardcache_module

    decode = service_module.result_from_dict
    encode_json = shardcache_module.canonical_json

    def result_from_dict(data: Dict[str, Any]) -> Any:
        with tracer.span("serialize.decode") as span:
            result = decode(data)
            if span is not None:
                span.attrs["gates"] = len(result.circuit) + len(result.logical_circuit)
        return result

    def canonical_json(payload: Any) -> str:
        with tracer.span("serialize.json") as span:
            text = encode_json(payload)
            if span is not None:
                span.attrs["bytes"] = len(text)
        return text

    service_module.result_from_dict = result_from_dict
    shardcache_module.canonical_json = canonical_json
    try:
        yield
    finally:
        service_module.result_from_dict = decode
        shardcache_module.canonical_json = encode_json


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(spans: Sequence[Span], batches: int, pool: bool) -> Dict[str, Tuple[float, str]]:
    """Per-batch layer figures from the spans of ``batches`` traced batches.

    Times are self times.  The executor figures describe the process pool
    and read 0 on the serial workloads.
    """
    own = self_times(spans)
    per = 1.0 / max(1, batches)

    def self_s(name: str) -> float:
        return per * sum(own[s.span_id] for s in spans if s.name == name)

    def named(name: str) -> List[Span]:
        return [s for s in spans if s.name == name]

    def attr_sum(name: str, attr: str) -> float:
        return sum(s.attrs.get(attr) or 0 for s in named(name))

    gets = named("service.cache.get")
    metrics: Dict[str, Tuple[float, str]] = {
        "service.cache.key_s": (self_s("service.cache.key"), "s/batch"),
        "service.cache.get_s": (self_s("service.cache.get"), "s/batch"),
        "service.cache.get_count": (per * len(gets), "count/batch"),
        "service.cache.hit_ratio": (
            sum(1 for s in gets if s.attrs.get("hit")) / len(gets) if gets else 0.0, "ratio"),
        "service.cache.put_s": (self_s("service.cache.put"), "s/batch"),
        "service.cache.put_count": (per * len(named("service.cache.put")), "count/batch"),
        "service.cache.put_bytes": (per * attr_sum("serialize.json", "bytes"), "bytes/batch"),
        "serialize.decode_s": (self_s("serialize.decode"), "s/batch"),
        "serialize.gates_decoded": (per * attr_sum("serialize.decode", "gates"), "count/batch"),
        "serialize.encode_s": (self_s("serialize.encode"), "s/batch"),
        "serialize.json_s": (self_s("serialize.json"), "s/batch"),
    }
    runs = named("service.executor.run")
    run_s = per * sum(s.duration for s in runs) if pool else 0.0
    busy_s = per * sum(s.duration for s in named("service.executor.worker")) if pool else 0.0
    workers = max([s.attrs.get("workers", 1) for s in runs] or [1])
    metrics.update({
        "service.executor.run_s": (run_s, "s/batch"),
        "service.executor.busy_s": (busy_s, "s/batch"),
        "service.executor.overhead_s": (run_s - busy_s / workers if pool else 0.0, "s/batch"),
        "service.executor.busy_ratio": (
            busy_s / (run_s * workers) if pool and run_s > 0 else 0.0, "ratio"),
        "service.executor.retries": (
            per * sum(s.attrs.get("retries", 0) for s in runs) if pool else 0.0, "count/batch"),
    })
    for stage in PIPELINE_STAGES:
        metrics[f"pipeline.{stage}_s"] = (self_s(f"pipeline.{stage}"), "s/batch")
        metrics[f"pipeline.{stage}_ir"] = (
            per * attr_sum(f"pipeline.{stage}", "ir"), "count/batch")
    batch_spans = named("batch")
    batch_wall = sum(s.duration for s in batch_spans)
    unattributed = sum(own[s.span_id] for s in batch_spans)
    metrics["service.unattributed_s"] = (per * unattributed, "s/batch")
    metrics["trace.attributed_ratio"] = (
        1.0 - unattributed / batch_wall if batch_wall > 0 else 0.0, "ratio")
    return metrics
