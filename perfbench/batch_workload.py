"""The ``batch-webkit`` workload: the paper's batch path through the engine.

Stored WebKit-like relations (Zipf-skewed file keys, long-tailed intervals)
are joined with ``Engine.execute_sql`` as TP LEFT OUTER and TP ANTI joins,
probabilities included.  It is the only workload where ``engine`` parsing
and planning and the batch ``core.overlap_join`` (hash partition, then a
start-sorted merge per key) run, and the no-change control for changes to
the streaming layers.  ``DATASETS`` relation pairs generated from the seed
are stored in one engine.  Closed loop; one cycle runs the LEFT OUTER and
the ANTI query on every stored pair, so every cycle covers the same data
mix.
"""

from __future__ import annotations

import gc
import time
from typing import List, Tuple

from common import (
    Ledger,
    Outcome,
    canonical_digest,
    dataset_seed,
    end_to_end,
    median,
    peak_rss_mb,
    timed_setups,
    work_dir,
)
from tracer import Tracer, install_batch_layers, layer_metrics

#: Tuples per relation, and relation pairs per run.
SIZE = 1000
DATASETS = 8

QUERIES = (
    ("left_outer", "SELECT * FROM r{i} TP LEFT OUTER JOIN s{i} ON r{i}.File = s{i}.File"),
    ("anti", "SELECT * FROM r{i} TP ANTI JOIN s{i} ON r{i}.File = s{i}.File"),
)


def batch_webkit(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro import equi_join_on, tp_anti_join, tp_left_outer_join
    from repro.datasets import webkit_pair
    from repro.engine import Engine

    engine = Engine()

    def setup(index: int):
        left, right = webkit_pair(SIZE, seed=dataset_seed(seed, index))
        engine.register(f"r{index}", left, replace=True)
        engine.register(f"s{index}", right, replace=True)
        return left, right

    pairs, setup_s = timed_setups(setup, DATASETS)
    ledger = Ledger()
    # (pair, kind) -> digests of the results the engine returned.
    digests = {}

    def run_for(budget: float) -> Tuple[List[List[float]], List[float]]:
        """Run cycles until the timed queries took ``budget`` seconds of
        wall time.

        A cycle runs the LEFT OUTER and the ANTI query on every stored pair
        and yields one latency per query, so every cycle covers the same
        data mix.  A query runs on this one thread and never waits, so its
        latency is counted as the thread's CPU time: wall time beyond it is
        time the host gave the CPU to others (steal, other tenants).
        Returns the cycles' latencies and each cycle's wall time.  Each
        result is reduced to its digest outside the timed region, and the
        garbage collected there, so memory and collector work do not grow
        with the cycle count.
        """
        cycles: List[List[float]] = []
        walls: List[float] = []
        spent = 0.0
        while spent < budget:
            latencies = []
            wall = 0.0
            failed = False
            for index in range(DATASETS):
                for kind, sql in QUERIES:
                    query = sql.format(i=index)
                    started, cpu_started = time.perf_counter(), time.thread_time()
                    result = ledger.guarded(lambda: engine.execute_sql(query))
                    latencies.append(time.thread_time() - cpu_started)
                    wall += time.perf_counter() - started
                    if result is None:
                        failed = True
                        continue
                    digests.setdefault((index, kind), []).append(
                        canonical_digest(result.tuples, True)
                    )
                    del result
                    gc.collect()
            if not failed:
                cycles.append(latencies)
                walls.append(wall)
            spent += wall
        return cycles, walls

    def check() -> None:
        """Gate every result against the referee on the same pair."""
        joins = {"left_outer": tp_left_outer_join, "anti": tp_anti_join}
        for (index, kind), results in digests.items():
            left, right = pairs[index]
            theta = equi_join_on(left.schema, right.schema, [("File", "File")])
            reference = canonical_digest(joins[kind](left, right, theta).tuples, True)
            for digest in results:
                ledger.record(
                    digest == reference, f"{kind}: engine result differs from the batch referee"
                )
        digests.clear()

    if trace:
        untraced, _ = run_for(seconds / 2)
        tracer = Tracer()
        install_batch_layers(tracer)
        try:
            traced, traced_walls = run_for(seconds / 2)
        finally:
            tracer.uninstall()
        tracer.write_spans(work_dir() / "batch-webkit.spans.jsonl")
        check()
        for wall in traced_walls:
            tracer.pass_wall(wall)
        tracer.counters["engine.queries"] = DATASETS * len(QUERIES) * len(traced)
        metrics = layer_metrics(tracer.export())
        metrics["trace.overhead_ratio"] = median(map(sum, traced)) / median(map(sum, untraced))
        return Outcome(ledger, metrics, {}, [])
    cycles, _ = run_for(seconds)
    peak = peak_rss_mb()
    check()
    if not cycles:
        raise RuntimeError("no batch-webkit cycle completed")
    tuples_per_cycle = DATASETS * len(QUERIES) * 2 * SIZE
    notes = [f"cycles: {len(cycles)}, input tuples per cycle: {tuples_per_cycle}; "
             "latency samples: per query of the mix, its median over the cycles"]
    # Each query of the fixed mix has one latency: its median over the
    # cycles, so a host stall in one cycle does not set the tail; p90 and
    # p99 are then taken over the mix (p99 is its slowest query).
    per_query = [median(latencies) for latencies in zip(*cycles)]
    return end_to_end(
        ledger,
        [(0, tuples_per_cycle / median(map(sum, cycles)))],
        [(0, per_query)],
        setup_s,
        peak,
        notes,
    )
