"""Self-test of the benchmark's correctness gate and failure accounting.

Shows that each kind of bad operation is counted as failed, using the same
gate code the workloads use:

* a settled output with one probability perturbed in its last bit;
* a settled output missing one tuple;
* an operation that raises;
* an operation that emits a transport-fallback ``RuntimeWarning``;
* a serve subscriber that ends with a reason other than ``settled``.

Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import replace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import Ledger, import_program  # noqa: E402


def main() -> int:
    import_program()
    from repro import ExecutionOptions
    from repro.stream import StreamQuery

    import stream_workloads as sw
    from common import canonical_digest

    inputs = sw._Inputs(200, 8, 8, seed=5)
    catalog = sw._catalog(inputs)
    options = ExecutionOptions(materialize_probabilities=True)
    result = StreamQuery(catalog, "full_outer", "r", "s", sw.ON, config=options).run(merge_seed=5)
    reference = sw._referee_digest(inputs, "full_outer", with_probability=True)
    tuples = list(result.relation.tuples)
    bumped = replace(tuples[0], probability=math.nextafter(tuples[0].probability, 2.0))
    cases = {
        "unchanged output": (tuples, 0),
        "one probability off by one ulp": ([bumped] + tuples[1:], 1),
        "one tuple missing": (tuples[1:], 1),
    }
    failures = []
    for label, (candidate, expected) in cases.items():
        ledger = Ledger()
        run = sw._Run(dataset=0, seconds=0.0, events=0, latencies=[],
                      digest=canonical_digest(candidate, True), late_dropped=0, wall=0.0)
        sw._gate(ledger, [run], [reference], label)
        if ledger.failed != expected:
            failures.append(f"{label}: counted {ledger.failed} failures, expected {expected}")

    def raises():
        raise RuntimeError("injected")

    def falls_back():
        warnings.warn("'sockets' workers could not start; falling back", RuntimeWarning)
        return object()

    for label, operation in (("exception", raises), ("fallback warning", falls_back)):
        ledger = Ledger()
        if ledger.guarded(operation) is not None or ledger.failed != 1:
            failures.append(f"{label}: not counted as a failed operation")

    ledger = Ledger()
    _count_subscriber(ledger, "detached")
    if ledger.failed != 1:
        failures.append("a subscriber ending 'detached' was not counted as failed")

    for failure in failures:
        print(f"selftest FAILED: {failure}")
    if failures:
        return 1
    print("selftest ok: every perturbed or failed operation was counted")
    return 0


def _count_subscriber(ledger: Ledger, reason: str) -> None:
    """Apply the serve gate's end-reason rule to one subscriber."""
    from serve_workload import subscriber_ok

    ok, problem = subscriber_ok(reason, None, rows=lambda: [], reference=[])
    ledger.record(ok, problem)


if __name__ == "__main__":
    sys.exit(main())
