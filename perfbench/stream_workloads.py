"""The two continuous-join workloads: ``wide-window`` and ``sharded-live``.

``wide-window`` replays a Meteo-like pair in a closed loop, inline, with a
disorder bound wider than every key's time span: nothing finalizes before
the streams close, so each key's open state grows to the whole stream and
the linear per-key probe in ``add_positive``/``add_negative`` does most of
the work (it tests about a hundred intervals per overlap found).

``sharded-live`` offers a full outer join to two socket workers in an open
loop at a fixed rate below the seed's capacity, with a narrow disorder and
a watermark every 8 events: state stays small and the time goes to routing,
frames, frequent finalize/evict scans, window sweeps, lineage and
probability.  The open loop makes latency measure the system, not a
backlog.

Both generate several input pairs from the run's seed and rotate through
them, one per measured run, covering every pair at least once: latency
tails depend on the data drawn (the longest intervals wait longest for the
watermark), and averaging over several draws keeps one seed's draw from
setting a run's figures.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field, replace
from typing import List, Optional

from common import (
    Ledger,
    Outcome,
    canonical_digest,
    children_peak_rss_mb,
    dataset_seed,
    end_to_end,
    median,
    peak_rss_mb,
    percentile,
    timed_setups,
    work_dir,
)
from tracer import Tracer, install_driver_layers, install_stream_layers, layer_metrics

ON = (("Metric", "Metric"),)


#: wide-window: input pairs, tuples per side, distinct keys, disorder (>
#: every key's span), watermark period.  10 keys instead of the Meteo
#: generator's 40 keep about 200 tuples per key and side, so each event still
#: tests about a hundred intervals for under one overlap, in a quarter of the
#: working set: with 8000 tuples over 40 keys, the probe's CPU time followed
#: the host's cache load and spread 0.18 over six seeds where this spread
#: 0.12, run alternately.
WIDE_DATASETS = 6
WIDE_SIZE = 2000
WIDE_KEYS = 10
WIDE_DISORDER = 16384
WIDE_WATERMARK_EVERY = 512

#: sharded-live: input pairs, tuples per side, disorder, watermark period,
#: partitions and the offered rate.  The rate is fixed here, well below
#: what the sockets transport sustains on a 2-CPU host, and never derived
#: at run time.
LIVE_DATASETS = 6
LIVE_SIZE = 1000
LIVE_DISORDER = 8
LIVE_WATERMARK_EVERY = 8
LIVE_PARTITIONS = 2
LIVE_RATE = 1000.0


class _Inputs:
    """One generated relation pair with its replay settings and catalog."""

    def __init__(
        self, size: int, disorder: int, watermark_every: int, seed: int, keys: int = 0
    ) -> None:
        """``keys``, when given, replaces the Meteo generator's number of
        distinct metrics; otherwise the pair is ``meteo_pair``'s."""
        from repro.datasets import ReplayConfig
        from repro.datasets.generators import generate_pair
        from repro.datasets.meteo import meteo_config

        self.seed = seed
        left, right = meteo_config(size, seed=seed), meteo_config(size, seed=seed + 1)
        if keys:
            left, right = replace(left, distinct_keys=keys), replace(right, distinct_keys=keys)
        self.left, self.right = generate_pair(
            left, right, positive_name="meteo_r", negative_name="meteo_s"
        )
        self.left_replay = ReplayConfig(
            disorder=disorder, watermark_every=watermark_every, seed=seed
        )
        self.right_replay = replace(self.left_replay, seed=seed + 1)
        self.pacer: Optional[Pacer] = None
        self.catalog = None

    @property
    def events(self) -> int:
        return len(self.left) + len(self.right)


def _catalog(inputs: _Inputs, pacer=None):
    from repro.datasets import stream_def
    from repro.engine import Catalog

    catalog = Catalog()
    left = stream_def(inputs.left, inputs.left_replay, name="r")
    right = stream_def(inputs.right, inputs.right_replay, name="s")
    if pacer is not None:
        left = pacer.paced(left, 0, inputs.left_replay)
        right = pacer.paced(right, 1, inputs.right_replay)
    catalog.register_stream("r", left)
    catalog.register_stream("s", right)
    return catalog


def _referee_digest(inputs: _Inputs, kind: str, with_probability: bool) -> str:
    """Digest of the batch join over the same inputs (the referee)."""
    from repro import equi_join_on, tp_full_outer_join, tp_left_outer_join

    join = {"left_outer": tp_left_outer_join, "full_outer": tp_full_outer_join}[kind]
    theta = equi_join_on(inputs.left.schema, inputs.right.schema, list(ON))
    reference = join(inputs.left, inputs.right, theta, compute_probabilities=with_probability)
    return canonical_digest(reference.tuples, with_probability)


@dataclass
class _Run:
    """What one measured run leaves behind once its output is digested."""

    dataset: int
    seconds: float
    events: int
    latencies: List[float]
    digest: str
    late_dropped: int
    wall: float
    lags: List[float] = field(default_factory=list)
    worker: dict = field(default_factory=dict)


def _measure(
    run_once, count: int, seconds: float, with_probability: bool, at_least: int = 0
) -> List[Optional[_Run]]:
    """Call ``run_once(dataset)`` until the measured time reaches ``seconds``
    and at least ``at_least`` runs (by default ``count``: every dataset
    once) were made.

    Datasets rotate ``0, 1, ..., count - 1, 0, ...``.  ``run_once`` returns
    ``(result, seconds, wall, lags, scale)``, or ``None`` on failure:
    ``seconds`` is the run's time on the metrics' time base, ``wall`` its
    wall-clock time and ``scale`` the factor that puts the program's
    wall-clock emit latencies on that base.  Each result is
    reduced to a :class:`_Run` (its output digested) right away, outside the
    timed region, and the garbage collected there, so neither memory nor
    collector work grows with the number of runs.
    """
    runs: List[Optional[_Run]] = []
    spent = 0.0
    at_least = at_least or count
    while len(runs) < at_least or spent < seconds:
        dataset = len(runs) % count
        started = time.perf_counter()
        value = run_once(dataset)
        spent += time.perf_counter() - started
        if value is None:
            runs.append(None)
            continue
        result, elapsed, wall, lags, scale = value
        runs.append(
            _Run(
                dataset=dataset,
                seconds=elapsed,
                events=result.events_processed,
                latencies=[scale * latency for latency in result.emit_latencies],
                digest=canonical_digest(result.relation.tuples, with_probability),
                late_dropped=result.late_dropped,
                wall=wall,
                lags=lags,
                worker=_worker_readings(result),
            )
        )
        del result, value
        gc.collect()
    return runs


def _gate(ledger: Ledger, runs, references: List[str], label: str) -> List[_Run]:
    """Compare every settled output with its dataset's referee.

    Returns the correct runs; when none is, every completed run, so that a
    wrong program still gets its figures printed beside ``correct: false``.
    """
    good = []
    for run in runs:
        if run is None:
            continue  # already counted as failed
        if run.late_dropped:
            ledger.record(False, f"{label}: {run.late_dropped} events dropped as late")
        elif run.digest != references[run.dataset]:
            ledger.record(False, f"{label}: settled output differs from the batch referee")
        else:
            ledger.record(True)
            good.append(run)
    completed = [run for run in runs if run is not None]
    if not completed:
        raise RuntimeError(f"{label}: no run completed")
    return good or completed


def _references(datasets: List[_Inputs], runs, kind: str, with_probability: bool):
    """Referee digests of the datasets some run used (others stay empty)."""
    used = {run.dataset for run in runs if run is not None}
    return [
        _referee_digest(inputs, kind, with_probability) if index in used else ""
        for index, inputs in enumerate(datasets)
    ]


def _summary(ledger: Ledger, good: List[_Run], setup_s: float, peak: float, notes) -> Outcome:
    """End-to-end metrics: per-run rate and latency percentiles, combined
    over the input sets."""
    notes.append("run rates (ev/s): " + " ".join(f"{r.events / r.seconds:.0f}" for r in good))
    rates = [(run.dataset, run.events / run.seconds) for run in good]
    latency_runs = [(run.dataset, run.latencies) for run in good]
    return end_to_end(ledger, rates, latency_runs, setup_s, peak, notes)


def _traced_metrics(tracer: Tracer, untraced, traced) -> dict:
    """Layer metrics of the traced runs, with the tracing overhead."""
    done = [run for run in traced if run is not None]
    for run in done:
        tracer.pass_wall(run.wall)
        tracer.counters["events"] += run.events
    metrics = layer_metrics(tracer.export())
    metrics["trace.overhead_ratio"] = median(run.seconds for run in done) / median(
        run.seconds for run in untraced if run is not None
    )
    return metrics


# --------------------------------------------------------------------------- #
# wide-window
# --------------------------------------------------------------------------- #
def wide_window(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro import ExecutionOptions
    from repro.stream import StreamQuery

    def setup(index: int) -> _Inputs:
        inputs = _Inputs(
            WIDE_SIZE, WIDE_DISORDER, WIDE_WATERMARK_EVERY, dataset_seed(seed, index), WIDE_KEYS
        )
        inputs.catalog = _catalog(inputs)
        return inputs

    datasets, setup_s = timed_setups(setup, WIDE_DATASETS)
    ledger = Ledger()
    options = ExecutionOptions()

    def run_once(index: int):
        inputs = datasets[index]
        query = StreamQuery(inputs.catalog, "left_outer", "r", "s", ON, config=options)
        started, cpu_started = time.perf_counter(), time.thread_time()
        result = ledger.guarded(lambda: query.run(merge_seed=inputs.seed))
        cpu = time.thread_time() - cpu_started
        wall = time.perf_counter() - started
        if result is None:
            return None
        # The inline run is this one thread and never waits, so wall time
        # beyond its CPU time is time the host gave the CPU to others
        # (steal, other tenants).  Rate and latencies are counted on the
        # thread's CPU time, which the host's load does not stretch.
        return result, cpu, wall, [], cpu / wall

    if trace:
        untraced = _measure(run_once, WIDE_DATASETS, seconds / 2, False, at_least=1)
        tracer = Tracer()
        install_stream_layers(tracer)
        try:
            traced = _measure(run_once, WIDE_DATASETS, seconds / 2, False, at_least=1)
        finally:
            tracer.uninstall()
        tracer.write_spans(work_dir() / "wide-window.spans.jsonl")
        runs = untraced + traced
    else:
        runs = _measure(run_once, WIDE_DATASETS, seconds, False)
    peak = peak_rss_mb()
    references = _references(datasets, runs, "left_outer", with_probability=False)
    good = _gate(ledger, runs, references, "wide-window")
    if trace:
        return Outcome(ledger, _traced_metrics(tracer, untraced, traced), {}, [])
    notes = [f"runs: {len(runs)}, events per run: {datasets[0].events}"]
    return _summary(ledger, good, setup_s, peak, notes)


# --------------------------------------------------------------------------- #
# sharded-live: open-loop generator
# --------------------------------------------------------------------------- #
class Pacer:
    """Open-loop schedule: event k of the merged order is due at t0 + k/rate.

    The merged order is computed with the public ``merge_tagged`` and the
    run's merge seed, exactly as the query will merge the two sources, so
    the offered rate is the fixed rate.  Each source's tuple iterator sleeps
    until its next tuple is due; the program sees only the generated tuples.
    """

    def __init__(self, inputs: _Inputs, rate: float) -> None:
        from repro.datasets import arrival_order
        from repro.stream import StreamSource
        from repro.stream.elements import LEFT, StreamEvent
        from repro.stream.source import merge_tagged

        self.rate = rate
        self.tracer: Optional[Tracer] = None
        configs = (inputs.left_replay, inputs.right_replay)
        self.orders = [
            arrival_order(relation, config.disorder, config.seed)
            for relation, config in zip((inputs.left, inputs.right), configs)
        ]
        sources = [
            StreamSource(order, lateness=config.effective_lateness(),
                         watermark_every=config.watermark_every)
            for order, config in zip(self.orders, configs)
        ]
        self.positions: List[List[int]] = [[], []]
        position = 0
        for tagged in merge_tagged(sources[0], sources[1], seed=inputs.seed):
            if isinstance(tagged.element, StreamEvent):
                self.positions[0 if tagged.side == LEFT else 1].append(position)
                position += 1
        self.reset()

    def reset(self) -> None:
        self.t0: Optional[float] = None
        self.lags: List[float] = []

    def _due_tuples(self, side: int):
        clock = time.perf_counter
        period = 1.0 / self.rate
        for tp_tuple, position in zip(self.orders[side], self.positions[side]):
            now = clock()
            if self.t0 is None:
                self.t0 = now
            due = self.t0 + position * period
            if due > now:
                if self.tracer is not None:
                    with self.tracer.span("gen.wait"):
                        time.sleep(due - now)
                else:
                    time.sleep(due - now)
                now = clock()
            self.lags.append(now - due)
            yield tp_tuple

    def paced(self, definition, side: int, config):
        """``definition`` with its replay drawn from this schedule."""
        from repro.stream import StreamSource

        def replay():
            return StreamSource(
                self._due_tuples(side),
                lateness=config.effective_lateness(),
                watermark_every=config.watermark_every,
                name=definition.name,
            )

        return replace(definition, replay=replay)


def sharded_live(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro import ExecutionOptions
    from repro.stream import StreamQuery

    def setup(index: int) -> _Inputs:
        inputs = _Inputs(
            LIVE_SIZE, LIVE_DISORDER, LIVE_WATERMARK_EVERY, dataset_seed(seed, index)
        )
        inputs.pacer = Pacer(inputs, LIVE_RATE)
        inputs.catalog = _catalog(inputs, inputs.pacer)
        return inputs

    datasets, setup_s = timed_setups(setup, LIVE_DATASETS)
    ledger = Ledger()
    options = ExecutionOptions(
        transport="sockets",
        partitions=LIVE_PARTITIONS,
        materialize_probabilities=True,
    )

    def run_once(index: int, run_options=options):
        inputs = datasets[index]
        pacer = inputs.pacer
        pacer.reset()
        query = StreamQuery(inputs.catalog, "full_outer", "r", "s", ON, config=run_options)
        result = ledger.guarded(lambda: query.run(merge_seed=inputs.seed))
        finished = time.perf_counter()
        if result is None:
            return None
        if result.workers != "sockets":
            ledger.record(False, f"ran on {result.workers}, not sockets")
            return None
        # Measured from the first generated input to the last settled tuple
        # (run() returns after the final drain); worker start-up comes before
        # the first input is pulled and is not part of it.  Open loop: the
        # run waits for due events, so wall time is its time base.
        elapsed = finished - pacer.t0
        return result, elapsed, elapsed, list(pacer.lags), 1.0

    if trace:
        return _sharded_live_traced(seconds, datasets, options, run_once, ledger)
    runs = _measure(run_once, LIVE_DATASETS, seconds, True)
    peak = children_peak_rss_mb()
    references = _references(datasets, runs, "full_outer", with_probability=True)
    good = _gate(ledger, runs, references, "sharded-live")
    lags = [lag for run in good for lag in run.lags]
    notes = [
        f"runs: {len(runs)}, events per run: {datasets[0].events}, "
        f"offered rate: {LIVE_RATE:.0f} ev/s",
        f"gen_lag_p99_ms: {1000.0 * percentile(lags, 0.99):.3f} (samples: {len(lags)})",
    ]
    return _summary(ledger, good, setup_s, peak, notes)


def _sharded_live_traced(seconds, datasets, options, run_once, ledger):
    """Driver-side layers and worker readings from a traced sockets pass;
    worker-internal layers from an inline single-partition pass of the same
    job (the single-threaded baseline)."""
    from repro import ExecutionOptions
    from repro.stream import StreamQuery

    untraced = _measure(run_once, LIVE_DATASETS, seconds / 3, True, at_least=1)
    driver = Tracer()
    for inputs in datasets:
        inputs.pacer.tracer = driver
    install_driver_layers(driver)
    observed = replace(options, metrics=True, trace=True)
    try:
        traced = _measure(
            lambda index: run_once(index, observed), LIVE_DATASETS, seconds / 3, True, at_least=1
        )
    finally:
        driver.uninstall()
        for inputs in datasets:
            inputs.pacer.tracer = None
    inline_catalogs = [_catalog(inputs) for inputs in datasets]
    inline_options = ExecutionOptions(materialize_probabilities=True)

    def inline_once(index: int):
        query = StreamQuery(
            inline_catalogs[index], "full_outer", "r", "s", ON, config=inline_options
        )
        started = time.perf_counter()
        result = ledger.guarded(lambda: query.run(merge_seed=datasets[index].seed))
        if result is None:
            return None
        elapsed = time.perf_counter() - started
        return result, elapsed, elapsed, [], 1.0

    inline = Tracer()
    install_stream_layers(inline)
    try:
        inline_runs = _measure(inline_once, LIVE_DATASETS, seconds / 3, True, at_least=1)
    finally:
        inline.uninstall()
    driver.write_spans(work_dir() / "sharded-live-driver.spans.jsonl")
    inline.write_spans(work_dir() / "sharded-live-inline.spans.jsonl")
    references = _references(datasets, untraced + traced + inline_runs, "full_outer", True)
    _gate(ledger, untraced + traced, references, "sharded-live")
    _gate(ledger, inline_runs, references, "sharded-live inline pass")

    metrics = _traced_metrics(driver, untraced, traced)
    driver_ledger = driver.export()
    for run in inline_runs:
        if run is not None:
            inline.pass_wall(run.wall)
            inline.counters["events"] += run.events
    inline_ledger = inline.export()
    metrics.update(layer_metrics(inline_ledger))
    attributed = sum(driver_ledger["self_ns"].values()) + sum(inline_ledger["self_ns"].values())
    metrics["trace.unattributed_share"] = 1.0 - attributed / (
        driver_ledger["wall_ns"] + inline_ledger["wall_ns"]
    )
    lags = [lag for run in untraced if run is not None for lag in run.lags]
    if lags:
        metrics["runtime.gen_lag_p99_ms"] = 1000.0 * percentile(lags, 0.99)
    metrics.update(_worker_metrics([run.worker for run in traced if run is not None]))
    return Outcome(ledger, metrics, {}, [])


def _worker_readings(result) -> dict:
    """Worker-internal readings from the program's metrics()/trace() APIs
    (empty unless the run was instrumented)."""
    readings = {"busy": 0.0, "idle": 0.0, "skew": None, "waits": [],
                "blocks": result.backpressure_blocks}
    aggregate = result.metrics()
    if aggregate is not None:
        for snapshot in aggregate.snapshots():
            gauges = snapshot.get("gauges", {})
            readings["busy"] += float(gauges.get("busy_seconds", 0.0))
            readings["idle"] += float(gauges.get("idle_seconds", 0.0))
        readings["skew"] = float(aggregate.load_skew()["skew"])
    spans = result.trace()
    if spans is not None:
        readings["waits"] = [
            1000.0 * (span["t1"] - span["t0"])
            for span in spans.spans()
            if span.get("name") == "queue_wait"
        ]
    return readings


def _worker_metrics(readings: List[dict]) -> dict:
    busy = sum(reading["busy"] for reading in readings)
    idle = sum(reading["idle"] for reading in readings)
    skews = [reading["skew"] for reading in readings if reading["skew"] is not None]
    waits = [wait for reading in readings for wait in reading["waits"]]
    metrics = {"runtime.backpressure_blocks": float(sum(r["blocks"] for r in readings))}
    if busy + idle:
        metrics["runtime.worker.busy_ratio"] = busy / (busy + idle)
    if skews:
        metrics["runtime.worker.load_skew"] = median(skews)
    if waits:
        metrics["runtime.worker.queue_wait_p50_ms"] = percentile(waits, 0.50)
    return metrics
