"""Columnar vs object hot path: throughput and parity.

The columnar layout (``ExecutionOptions(layout="columnar")``) re-lays the
window-maintainer state as per-key struct-of-arrays numpy columns.  This
benchmark answers the two questions that decide whether it earns its
keep:

* **throughput** — the same continuous TP left outer join (the
  ``bench_stream_throughput`` workload, scaled up to the large
  bounded-lateness state the columnar sweeps are built for) under both
  layouts; the headline ``columnar_speedup`` is the events/s ratio.
* **parity** — no number is reported unless the two layouts' settled
  outputs are tuple-for-tuple identical (lineage-canonical, and with
  *bitwise-equal* probabilities in the materialized parity run), and the
  object run equals the batch re-run ground truth.

The object layout probes a start-sorted per-key index, so large open
state no longer slows it; against it the columnar layout is at best even
(the default sizes here) and loses at small windows, where per-event numpy
overhead dominates — see the "Columnar hot path" section of the README
for the measured table.  Without numpy installed
the columnar run degrades to the object layout; this benchmark then skips
the speedup gate (``skipped_reason``) instead of reporting a fake 1.0x.

Run with::

    python benchmarks/bench_columnar.py              # default (large) sizes
    python benchmarks/bench_columnar.py --smoke      # CI-sized
"""

from __future__ import annotations

import argparse
import sys
import warnings
from typing import List, Sequence

from conftest import bench_payload_base

from repro.columnar import HAS_NUMPY, maintainer_class
from repro.core import tp_left_outer_join
from repro.datasets import ReplayConfig, meteo_pair, stream_def
from repro.engine import Catalog
from repro.harness.reporting import write_bench_file
from repro.lineage import canonical
from repro.options import ExecutionOptions
from repro.relation import EquiJoinCondition, TPRelation
from repro.stream import StreamQuery


def exact_rows(relation: TPRelation) -> List[str]:
    """Settled output as a repr-sorted multiset, probabilities unrounded.

    ``repr`` (not tuple ordering) because outer-join facts mix ``None``
    with strings; bitwise probability equality rides the float repr.
    """
    return sorted(
        repr((t.fact, t.start, t.end, str(canonical(t.lineage)), t.probability))
        for t in relation
    )


def run_layout(
    size: int,
    disorder: int,
    watermark_every: int,
    layout: str,
    seed: int,
    materialize: bool = False,
):
    """One measured continuous-join run under one layout."""
    positive, negative = meteo_pair(size, seed=seed)
    catalog = Catalog()
    catalog.register_stream(
        "r",
        stream_def(
            positive,
            ReplayConfig(disorder=disorder, watermark_every=watermark_every, seed=seed),
        ),
    )
    catalog.register_stream(
        "s",
        stream_def(
            negative,
            ReplayConfig(
                disorder=disorder, watermark_every=watermark_every, seed=seed + 1
            ),
        ),
    )
    query = StreamQuery(
        catalog,
        "left_outer",
        "r",
        "s",
        [("Metric", "Metric")],
        config=ExecutionOptions(
            layout=layout, materialize_probabilities=materialize
        ),
    )
    result = query.run(merge_seed=seed)
    record = {
        "layout": layout,
        "size": size,
        "disorder": disorder,
        "watermark_every": watermark_every,
        "events": result.events_processed,
        "outputs": result.outputs_emitted,
        "stream_seconds": round(result.elapsed_seconds, 6),
        "events_per_second": round(result.events_per_second, 1),
    }
    return record, result.relation


def batch_ground_truth(size: int, seed: int) -> set:
    """Lineage-canonical rows of the batch re-run (the referee's referee)."""
    positive, negative = meteo_pair(size, seed=seed)
    theta = EquiJoinCondition(positive.schema, negative.schema, (("Metric", "Metric"),))
    batch = tp_left_outer_join(positive, negative, theta, compute_probabilities=False)
    return {(t.fact, t.start, t.end, str(canonical(t.lineage))) for t in batch}


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", type=int, default=24000)
    parser.add_argument("--disorder", type=int, default=16384)
    parser.add_argument("--watermark-every", type=int, default=512)
    parser.add_argument(
        "--parity-size",
        type=int,
        default=1200,
        help="size of the materialized (bitwise-probability) parity run",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized run (small state)"
    )
    parser.add_argument("--json-dir", default="bench_results")
    arguments = parser.parse_args(argv)

    size, disorder, watermark_every = (
        (4000, 2048, 256)
        if arguments.smoke
        else (arguments.size, arguments.disorder, arguments.watermark_every)
    )
    parity_size = min(arguments.parity_size, size)
    seed = arguments.seed

    if HAS_NUMPY:
        # numpy loads with the first columnar maintainer.  Pay that one-off
        # import before the timed runs so it is not charged to the layout.
        maintainer_class("columnar")

    records: List[dict] = []
    metrics: dict = {}
    skipped_reason = None

    object_record, object_relation = run_layout(
        size, disorder, watermark_every, "object", seed
    )
    records.append(object_record)
    print(report_line(object_record))

    if HAS_NUMPY:
        columnar_record, columnar_relation = run_layout(
            size, disorder, watermark_every, "columnar", seed
        )
        records.append(columnar_record)
        print(report_line(columnar_record))
        if exact_rows(columnar_relation) != exact_rows(object_relation):
            raise AssertionError(
                "columnar settled output diverged from the object layout"
            )
        speedup = (
            columnar_record["events_per_second"] / object_record["events_per_second"]
        )
        metrics["columnar_speedup"] = round(speedup, 4)
        metrics["columnar_events_per_second"] = columnar_record["events_per_second"]
        print(f"columnar speedup {speedup:.2f}x  (settled outputs identical)")

        # Materialized parity: probabilities computed inline under both
        # layouts must be *bitwise* equal, and the object run must equal
        # the batch re-run ground truth.
        parity, relations = {}, {}
        for layout in ("object", "columnar"):
            record, relation = run_layout(
                parity_size, 256, 64, layout, seed, materialize=True
            )
            parity[layout] = exact_rows(relation)
            relations[layout] = relation
            parity_outputs = record["outputs"]
        if parity["columnar"] != parity["object"]:
            raise AssertionError(
                "materialized probabilities diverged between layouts"
            )
        settled = {
            (t.fact, t.start, t.end, str(canonical(t.lineage)))
            for t in relations["object"]
        }
        if settled != batch_ground_truth(parity_size, seed):
            raise AssertionError("stream output diverged from the batch re-run")
        metrics["parity_outputs"] = parity_outputs
        print(
            f"parity run (size={parity_size}): bitwise-identical probabilities, "
            "batch ground truth matched"
        )
    else:
        skipped_reason = "numpy not installed: columnar degrades to object layout"
        print(f"SKIP columnar speedup gate: {skipped_reason}")

    metrics[f"s{size}_events"] = object_record["events"]
    metrics[f"s{size}_outputs"] = object_record["outputs"]
    metrics["object_events_per_second"] = object_record["events_per_second"]

    if arguments.json_dir:
        payload = bench_payload_base(
            "columnar",
            "Columnar hot path: layout speedup and parity gates",
            seed=seed,
            metrics=metrics,
            measurements=records,
        )
        payload["skipped_reason"] = skipped_reason
        path = write_bench_file("columnar", payload, arguments.json_dir)
        print(f"wrote {path}")
    return 0


def report_line(record: dict) -> str:
    return (
        f"layout={record['layout']:>8}  size={record['size']:>6}  "
        f"disorder={record['disorder']:>5}  wm={record['watermark_every']:>4}  "
        f"{record['events_per_second']:>10.0f} ev/s  "
        f"stream={record['stream_seconds'] * 1000:.1f}ms"
    )


if __name__ == "__main__":
    with warnings.catch_warnings():
        # A numpy-less run *intentionally* degrades; the skip is reported
        # through skipped_reason rather than a warning on stderr.
        warnings.simplefilter("ignore", RuntimeWarning)
        sys.exit(main())
