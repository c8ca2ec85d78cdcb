"""The repository benchmark: one command, four workloads, one JSON line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload wide-window --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the program untouched and prints the end-to-end
metrics; ``--trace 1`` installs span wrappers around the public calls into
each layer and prints the per-layer metrics instead.  Every run is gated on
correctness against the batch referee, and the last line of standard output
is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads (see ``perfbench/README.md`` for why each exists):

* ``wide-window`` — inline meteo left outer join, disorder wider than
  every key's span: the linear per-key probe dominates;
* ``sharded-live`` — open-loop meteo full outer join on two socket
  workers at a fixed rate, with probabilities;
* ``serve-fanout`` — a 2-node early-emit dataflow served over NDJSON/TCP
  from its own process, open loop at a fixed rate, to two subscribers,
  one of them a late joiner;
* ``batch-webkit`` — ``Engine.execute_sql`` TP LEFT OUTER and ANTI joins
  over stored WebKit-like relations, with probabilities.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import import_program, log  # noqa: E402

WORKLOADS = ("wide-window", "sharded-live", "serve-fanout", "batch-webkit")


def _workload(name: str):
    if name == "wide-window":
        from stream_workloads import wide_window

        return wide_window
    if name == "sharded-live":
        from stream_workloads import sharded_live

        return sharded_live
    if name == "serve-fanout":
        from serve_workload import serve_fanout

        return serve_fanout
    from batch_workload import batch_webkit

    return batch_webkit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if arguments.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        import_program()
    except ImportError as error:
        log(f"perfbench: cannot import the program under test: {error}")
        return 2

    from tracer import complete

    outcome = _workload(arguments.workload)(
        arguments.seed, arguments.seconds, bool(arguments.trace)
    )
    for note in outcome.notes:
        print(f"# {arguments.workload}: {note}")
    for problem in outcome.ledger.problems:
        log(f"perfbench: FAILED operation: {problem}")
    ledger = outcome.ledger
    print(
        f"# {arguments.workload}: error_rate {ledger.failed}/{ledger.attempted}"
        f" = {ledger.failed / ledger.attempted:.4f}"
    )
    if arguments.trace:
        metrics = complete(outcome.metrics)
    else:
        metrics = {
            name: {"value": float(value), "unit": outcome.units[name]}
            for name, value in outcome.metrics.items()
        }
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
