"""Traced-run harness: spans around the public calls into each layer.

Only a traced run (``--trace 1``) installs these wrappers; untraced runs
measure the program untouched.  A wrapper opens a span on entry and closes
it on exit.  Spans nest on a per-thread stack, so a layer's *self* time is
its span's duration minus the time its child spans cover.  Counts are
recorded at the same boundaries (calls, candidates tested, groups
finalized), so ratios are measured where the work happens.  Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter_ns


class Tracer:
    """Per-layer self-time ledger fed by wrapped public calls."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        # One ledger per thread (no shared read-modify-write); merged on export.
        self._threads: Dict[int, "_ThreadLedger"] = {}
        self._pass_ns: Dict[int, int] = defaultdict(int)
        self._restore: List[tuple] = []
        self._remembered: Dict[int, object] = {}

    # -- spans ------------------------------------------------------------ #
    def _ledger(self) -> "_ThreadLedger":
        ledger = getattr(self._local, "ledger", None)
        if ledger is None:
            ledger = self._local.ledger = _ThreadLedger()
            with self._lock:
                self._threads[threading.get_ident()] = ledger
        return ledger

    @property
    def counters(self) -> Dict[str, float]:
        """The calling thread's counters."""
        return self._ledger().counters

    def top(self) -> Optional[str]:
        stack = self._ledger().stack
        return stack[-1][0] if stack else None

    def enter(self, layer: str) -> list:
        stack = self._ledger().stack
        frame = [layer, _clock(), 0, len(stack)]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> int:
        end = _clock()
        ledger = self._ledger()
        stack = ledger.stack
        stack.pop()
        layer, start, child_ns, depth = frame
        duration = end - start
        ledger.self_ns[layer] += duration - child_ns
        ledger.calls[layer] += 1
        if stack:
            stack[-1][2] += duration
        self.spans.append((layer, start, end, depth, threading.get_ident()))
        if ledger.first is None:
            ledger.first = start
        ledger.last = end
        return duration

    def span(self, layer: str):
        """Context manager form, for bench-side spans such as pacing waits."""
        return _Span(self, layer)

    def pass_wall(self, seconds: float) -> None:
        """Record the wall time of a pass driven on the calling thread."""
        self._pass_ns[threading.get_ident()] += int(seconds * 1e9)

    # -- wrapping --------------------------------------------------------- #
    def wrap(
        self,
        owner,
        name: str,
        layer: str,
        generator: bool = False,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.name`` (module or class attribute) by a spanned call.

        ``after(result, args)`` runs outside the span and records counts.
        Generator functions are spanned per ``next()``, so a lazy sweep's
        time lands on its layer and not on whoever consumes it.
        """
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        tracer = self

        if generator:

            def wrapper(*args, **kwargs):
                inner = original(*args, **kwargs)
                tracer.counters[layer + "#calls"] += 1
                while True:
                    frame = tracer.enter(layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit(frame)
                    yield item

        else:

            def wrapper(*args, **kwargs):
                frame = tracer.enter(layer)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.exit(frame)
                if after is not None:
                    after(result, args)
                return result

        wrapper.__wrapped__ = original
        setattr(owner, name, wrapper)
        self._restore.append((owner, name, original))

    def count_calls(self, owner, name: str, counter: Callable[[object, tuple], None]) -> None:
        """Wrap a hot helper with a counter only (no span, no clock)."""
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            counter(result, args)
            return result

        setattr(owner, name, wrapper)
        self._restore.append((owner, name, original))

    def remember(self, item) -> None:
        """Keep an object the run created (read for its counters at the end)."""
        self._remembered[id(item)] = item

    def remembered(self) -> List[object]:
        return list(self._remembered.values())

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- results ---------------------------------------------------------- #
    def wall_ns(self) -> int:
        """Traced wall time: each driven pass, plus the span-covered window
        of every other thread that recorded spans."""
        total = sum(self._pass_ns.values())
        for ident, ledger in self._threads.items():
            if ident not in self._pass_ns and ledger.first is not None:
                total += ledger.last - ledger.first
        return total

    def probability_cache(self) -> tuple:
        from repro.lineage import ProbabilityComputer

        computers = [c for c in self.remembered() if isinstance(c, ProbabilityComputer)]
        return (
            sum(c.cache_hits for c in computers),
            sum(c.cache_misses for c in computers),
        )

    def export(self) -> dict:
        """Plain-JSON ledger (self times, calls, counters, wall), all threads."""
        merged = merge_ledgers(
            [
                {"self_ns": t.self_ns, "calls": t.calls, "counters": t.counters}
                for t in list(self._threads.values())
            ]
        )
        hits, misses = self.probability_cache()
        merged["counters"]["lineage.probability.cache_hits"] = hits
        merged["counters"]["lineage.probability.cache_misses"] = misses
        merged["wall_ns"] = self.wall_ns()
        return merged

    def write_spans(self, path: Path) -> None:
        """Write every recorded span once, as JSON lines."""
        with open(path, "w") as out:
            for layer, start, end, depth, ident in self.spans:
                out.write(
                    json.dumps(
                        {"name": layer, "t0": start, "t1": end, "depth": depth, "thread": ident}
                    )
                )
                out.write("\n")


class _ThreadLedger:
    """Span stack and totals of one thread."""

    def __init__(self) -> None:
        self.stack: list = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self.first: Optional[int] = None
        self.last: Optional[int] = None


class _Span:
    def __init__(self, tracer: Tracer, layer: str) -> None:
        self._tracer = tracer
        self._layer = layer
        self._frame = None

    def __enter__(self):
        self._frame = self._tracer.enter(self._layer)
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer.exit(self._frame)


def merge_ledgers(ledgers: List[dict]) -> dict:
    """Sum exported ledgers; ``peak`` counters merge by maximum."""
    merged = {"self_ns": defaultdict(int), "calls": defaultdict(int),
              "counters": defaultdict(float)}
    wall = 0
    for ledger in ledgers:
        for key in ("self_ns", "calls", "counters"):
            for name, value in ledger.get(key, {}).items():
                if ".peak_" in name:
                    merged[key][name] = max(merged[key][name], value)
                else:
                    merged[key][name] += value
        wall += ledger.get("wall_ns", 0)
    result = {key: dict(value) for key, value in merged.items()}
    result["wall_ns"] = wall
    return result


# --------------------------------------------------------------------------- #
# layer wiring
# --------------------------------------------------------------------------- #
def install_stream_layers(tracer: Tracer) -> None:
    """Wrap the stream, core-sweep and lineage calls of a continuous join."""
    from repro.stream.incremental import IncrementalWindowMaintainer
    from repro.stream.operators import ContinuousJoinBase
    from repro.temporal import Interval

    def groups_out(result, args) -> None:
        tracer.counters["stream.advance.groups"] += len(result)
        stats = args[0].stats
        counters = tracer.counters
        counters["stream.state.peak_open"] = max(
            counters["stream.state.peak_open"], stats.peak_open_positives
        )
        counters["stream.state.peak_negatives"] = max(
            counters["stream.state.peak_negatives"], stats.peak_indexed_negatives
        )

    for name in ("add_positive", "add_negative", "remove_positive", "remove_negative"):
        tracer.wrap(IncrementalWindowMaintainer, name, "stream.probe")
    for name in ("advance_left", "advance_right", "close"):
        tracer.wrap(IncrementalWindowMaintainer, name, "stream.advance", after=groups_out)
    for name in ("forward_group_tuples", "reverse_group_tuples"):
        tracer.wrap("repro.stream.operators", name, "stream.emit", generator=True)
        tracer.wrap("repro.dataflow.operators", name, "stream.emit", generator=True)
    for name in ("window_to_tuple", "window_to_positive_tuple"):
        tracer.wrap("repro.stream.operators", name, "lineage.build")
    tracer.wrap(ContinuousJoinBase, "process", "stream.operator", after=_count_events(tracer))
    tracer.wrap(ContinuousJoinBase, "close", "stream.operator")
    _install_probability(tracer)
    _install_candidates(tracer, Interval)
    tracer.wrap("repro.stream.query", "merge_tagged", "stream.merge", generator=True)


def _count_events(tracer: Tracer):
    from repro.stream.elements import StreamEvent

    def after(_result, args) -> None:
        if isinstance(args[1].element, StreamEvent):
            tracer.counters["stream.events"] += 1

    return after


def _install_probability(tracer: Tracer) -> None:
    from repro.lineage import ProbabilityComputer

    tracer.wrap(
        ProbabilityComputer, "probability", "lineage.probability",
        after=lambda _result, args: tracer.remember(args[0]),
    )


def _install_candidates(tracer: Tracer, interval_cls) -> None:
    """Count interval tests made inside the probe and overlap-join layers."""

    def counter(result, _args) -> None:
        layer = tracer.top()
        if layer == "stream.probe" or layer == "core.overlap":
            tracer.counters[layer + ".candidates"] += 1
            if result is not None:
                tracer.counters[layer + ".hits"] += 1

    tracer.count_calls(interval_cls, "intersect", counter)


def install_batch_layers(tracer: Tracer) -> None:
    """Wrap the engine planning, overlap join, sweep and lineage calls."""
    from repro.engine import Planner
    from repro.temporal import Interval

    def overlap_inputs(_result, args) -> None:
        tracer.counters["core.tuples"] += len(args[0]) + len(args[1])

    tracer.wrap("repro.engine.executor", "parse_query", "engine.plan")
    tracer.wrap(Planner, "plan", "engine.plan")
    tracer.wrap("repro.core.joins", "overlap_join", "core.overlap", after=overlap_inputs)
    tracer.wrap("repro.core.joins", "lawan", "core.sweep")
    for name in ("window_to_tuple", "window_to_positive_tuple"):
        tracer.wrap("repro.core.joins", name, "lineage.build")
    _install_probability(tracer)
    _install_candidates(tracer, Interval)


def install_driver_layers(tracer: Tracer) -> None:
    """Wrap the sockets driver: source merge, routing, frame writes, drain.

    Only driver-side classes are wrapped: socket workers are forked from
    this process and inherit the patches, but never call these.
    """
    import pickle

    from repro.runtime.sockets import SocketSession, _DriverSocketPutter

    def frame_bytes(_result, args) -> None:
        _putter, _target, batch = args
        frame = ("batch", "0" * 32, batch)  # the driver's frame; key is 32 hex
        tracer.counters["runtime.codec.bytes"] += 4 + len(
            pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
        )

    tracer.wrap(SocketSession, "send", "runtime.route")
    tracer.wrap(_DriverSocketPutter, "put", "runtime.route", after=frame_bytes)
    tracer.wrap(SocketSession, "finish", "runtime.finish")
    tracer.wrap("repro.stream.query", "merge_tagged", "stream.merge", generator=True)


def install_serve_layers(tracer: Tracer) -> None:
    """Wrap the dataflow join and serving calls inside the server process."""
    from repro.dataflow.operators import RevisionJoin
    from repro.serve.registry import ServingSubscription

    def lines(result, _args) -> None:
        if result is not None:
            tracer.counters["serve.read.lines"] += 1

    def remember_join(_result, args) -> None:
        tracer.remember(args[0])
        tracer.counters["events"] += 1

    install_stream_layers(tracer)
    tracer.wrap("repro.dataflow.executor", "merge_edges", "stream.merge", generator=True)
    tracer.wrap(RevisionJoin, "process", "dataflow.join", after=remember_join)
    tracer.wrap(RevisionJoin, "close", "dataflow.join")
    tracer.wrap(ServingSubscription, "read", "serve.read", after=lines)
    for name in ("element_payload", "tuples_payload"):
        tracer.wrap("repro.serve.server", name, "serve.encode")


# --------------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------------- #
#: Every per-layer metric a traced run reports, with its unit.  A layer the
#: workload never enters reads 0 (no calls were made).
PER_LAYER_UNITS = {
    "stream.merge.ns_per_event": "ns/event",
    "stream.probe.ns_per_event": "ns/event",
    "stream.probe.candidates_per_event": "count/event",
    "stream.probe.hit_ratio": "ratio",
    "stream.advance.ns_per_event": "ns/event",
    "stream.advance.groups_per_call": "count/call",
    "stream.state.peak_open": "count",
    "stream.state.peak_negatives": "count",
    "stream.emit.ns_per_group": "ns/group",
    "stream.operator.ns_per_event": "ns/event",
    "core.overlap.ns_per_tuple": "ns/tuple",
    "core.overlap.candidates_per_tuple": "count/tuple",
    "core.overlap.hit_ratio": "ratio",
    "core.sweep.ns_per_tuple": "ns/tuple",
    "lineage.build.ns_per_output": "ns/output",
    "lineage.probability.ns_per_output": "ns/output",
    "lineage.probability.cache_hit_ratio": "ratio",
    "runtime.route.ns_per_event": "ns/event",
    "runtime.codec.bytes_per_event": "B/event",
    "runtime.backpressure_blocks": "count",
    "runtime.worker.busy_ratio": "ratio",
    "runtime.worker.load_skew": "ratio",
    "runtime.worker.queue_wait_p50_ms": "ms",
    "runtime.finish.ms": "ms/run",
    "runtime.gen_lag_p99_ms": "ms",
    "dataflow.join.ns_per_element": "ns/element",
    "dataflow.revision.retract_ratio": "ratio",
    "serve.read.ns_per_line": "ns/line",
    "serve.encode.ns_per_line": "ns/line",
    "serve.hub.publish_blocks": "count",
    "serve.hub.ring_high_watermark": "count",
    "serve.client.recv_ns_per_line": "ns/line",
    "serve.server.cpu_us_per_event": "us/event",
    "engine.plan.ms": "ms/query",
    "trace.unattributed_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(ledger: dict) -> Dict[str, float]:
    """Per-layer metrics computable from one exported ledger.

    Only layers that were entered appear; the caller fills the rest.
    """
    self_ns = ledger["self_ns"]
    calls = ledger["calls"]
    counters = ledger["counters"]
    events = counters.get("events", 0)
    core_tuples = counters.get("core.tuples", 0)
    out: Dict[str, float] = {}

    def per(layer: str, name: str, denominator: float, scale: float = 1.0) -> None:
        if calls.get(layer) and denominator:
            out[name] = self_ns.get(layer, 0) / denominator * scale

    per("stream.merge", "stream.merge.ns_per_event", events)
    per("stream.probe", "stream.probe.ns_per_event", events)
    per("stream.advance", "stream.advance.ns_per_event", events)
    per("stream.operator", "stream.operator.ns_per_event", events)
    per("stream.emit", "stream.emit.ns_per_group", counters.get("stream.emit#calls", 0))
    per("core.overlap", "core.overlap.ns_per_tuple", core_tuples)
    per("core.sweep", "core.sweep.ns_per_tuple", core_tuples)
    per("lineage.build", "lineage.build.ns_per_output", calls.get("lineage.build", 0))
    per("lineage.probability", "lineage.probability.ns_per_output",
        calls.get("lineage.probability", 0))
    per("runtime.route", "runtime.route.ns_per_event", events)
    per("runtime.finish", "runtime.finish.ms", calls.get("runtime.finish", 0), 1e-6)
    per("dataflow.join", "dataflow.join.ns_per_element", calls.get("dataflow.join", 0))
    per("serve.read", "serve.read.ns_per_line", counters.get("serve.read.lines", 0))
    per("serve.encode", "serve.encode.ns_per_line", calls.get("serve.encode", 0))
    per("engine.plan", "engine.plan.ms", counters.get("engine.queries", 0), 1e-6)
    if calls.get("stream.probe") and events:
        candidates = counters.get("stream.probe.candidates", 0)
        out["stream.probe.candidates_per_event"] = candidates / events
        out["stream.probe.hit_ratio"] = _ratio(counters.get("stream.probe.hits", 0), candidates)
    if calls.get("stream.advance"):
        out["stream.advance.groups_per_call"] = (
            counters.get("stream.advance.groups", 0) / calls["stream.advance"]
        )
        out["stream.state.peak_open"] = counters.get("stream.state.peak_open", 0)
        out["stream.state.peak_negatives"] = counters.get("stream.state.peak_negatives", 0)
    if calls.get("core.overlap") and core_tuples:
        candidates = counters.get("core.overlap.candidates", 0)
        out["core.overlap.candidates_per_tuple"] = candidates / core_tuples
        out["core.overlap.hit_ratio"] = _ratio(counters.get("core.overlap.hits", 0), candidates)
    hits = counters.get("lineage.probability.cache_hits", 0)
    misses = counters.get("lineage.probability.cache_misses", 0)
    if hits + misses:
        out["lineage.probability.cache_hit_ratio"] = hits / (hits + misses)
    if counters.get("runtime.codec.bytes") and events:
        out["runtime.codec.bytes_per_event"] = counters["runtime.codec.bytes"] / events
    wall = ledger.get("wall_ns", 0)
    if wall:
        out["trace.unattributed_share"] = 1.0 - sum(self_ns.values()) / wall
    return out


def complete(metrics: Dict[str, float]) -> Dict[str, dict]:
    """Every per-layer metric with its unit; layers not entered read 0."""
    return {
        name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }
