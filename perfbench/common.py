"""Shared pieces of the benchmark: import path, statistics, gates, output.

Every workload module returns an :class:`Outcome`; :mod:`run` turns it into
the one JSON result line.  The correctness gate lives here so that every
workload counts failures the same way: a run whose settled output differs
from the batch referee, an exception, or a transport fallback warning is one
failed operation.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import sys
import time
import traceback
import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Tuple

#: Root of the checkout the benchmark runs in (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent
#: Working directory for files the benchmark itself writes (gitignored).
WORK = ROOT / ".perfbench_work"

END_TO_END_UNITS = {
    "events_per_s": "1/s",
    "emit_p90_ms": "ms",
    "emit_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_program() -> None:
    """Make the program under test importable from the checkout's ``src``.

    Raises :class:`ImportError` when the checkout does not hold the program,
    which the entry point turns into a non-zero exit without a result.
    """
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise ImportError(f"the program's sources are missing under {source}")
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))
    import repro  # noqa: F401  (fails loudly when the package is broken)


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(share * len(ordered))) - 1))
    return ordered[rank]


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def peak_rss_mb(pid="self") -> float:
    """Peak resident set of a live process (this one by default), in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def children_peak_rss_mb() -> float:
    """Peak resident set of the largest child this process has reaped."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def dataset_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th input set of a run seeded ``seed``.

    Generators use ``s`` and ``s + 1`` (and up to ``s + 2``) per set, so
    sets are spaced apart to keep their draws independent.
    """
    return seed * 1000 + 10 * index


#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 15


def timed_setups(build: Callable[[int], object], count: int):
    """Build ``count`` input sets; returns (the sets, median seconds per set).

    The first build also pays the program's one-time imports and is not
    timed.  ``SETUP_SAMPLES`` builds are timed after it (sets rebuilt beyond
    the first ``count`` are dropped), so that ``setup_s`` is a median steady
    enough to gate work moved into set-up.  A build runs on this thread and
    never waits, so it is timed as the thread's CPU time: wall time would
    add whatever the host's other tenants took.  The garbage is collected
    before each timed build, so that no build pays for its predecessors'.
    """
    built = [build(0)]
    seconds: List[float] = []
    for index in range(1, max(count, SETUP_SAMPLES + 1)):
        gc.collect()
        started = time.thread_time()
        value = build(index % count)
        seconds.append(time.thread_time() - started)
        if index < count:
            built.append(value)
    return built, median(seconds)


# --------------------------------------------------------------------------- #
# correctness
# --------------------------------------------------------------------------- #
def canonical_digest(tuples, with_probability: bool) -> str:
    """Order-independent digest of a settled output.

    Rows are (fact, interval, canonical lineage[, probability]); the
    probability enters as its exact ``repr``, so equal digests mean
    tuple-for-tuple, bitwise-probability equal outputs.
    """
    from repro.dataflow.convergence import identity_rows

    digest = hashlib.sha256()
    for row in identity_rows(tuples, with_probability=with_probability):
        digest.update(repr(row).encode())
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass
class Ledger:
    """Operations attempted and failed by one benchmark run."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def record(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem or "operation failed")

    def guarded(self, operation: Callable[[], object]):
        """Run one operation; an exception or fallback warning fails it.

        Returns the operation's value, or ``None`` when it failed.
        """
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                value = operation()
            except Exception:  # one failed operation, the run goes on
                self.record(False, traceback.format_exc(limit=4))
                return None
        fallbacks = [
            str(warning.message)
            for warning in caught
            if issubclass(warning.category, RuntimeWarning)
        ]
        if fallbacks:
            self.record(False, "runtime warning: " + "; ".join(fallbacks))
            return None
        return value


@dataclass
class Outcome:
    """What one workload run measured."""

    ledger: Ledger
    metrics: Dict[str, float]
    units: Dict[str, str]
    notes: List[str] = field(default_factory=list)


def over_input_sets(values: Iterable[Tuple[int, float]]) -> float:
    """Median over each input set's runs, then the mean over input sets.

    ``values`` holds ``(input set, value)`` per run.  The median keeps one
    run that met a busy host from setting a set's figure; the mean weighs
    every input set drawn from the seed alike, so the figure averages over
    the draws instead of picking one of them.
    """
    groups: Dict[int, List[float]] = defaultdict(list)
    for index, value in values:
        groups[index].append(value)
    return statistics.fmean(median(group) for group in groups.values())


def end_to_end(
    ledger: Ledger,
    rates: List[Tuple[int, float]],
    latency_runs: List[Tuple[int, List[float]]],
    setup_s: float,
    peak_rss_mb: float,
    notes: List[str],
) -> Outcome:
    """The end-to-end metric set every untraced run reports.

    ``rates`` holds ``(input set, events per second)`` and ``latency_runs``
    ``(input set, latency samples in seconds)`` per measured run.  The mean
    and each percentile are taken per run and combined with
    :func:`over_input_sets`; the 90th and 99th percentiles are reported.
    Not the median: where early emits (a few milliseconds) and
    watermark-driven settles (hundreds) each make up about half the
    sample, as on ``serve-fanout``, the median falls on the edge between
    them and swung from 1 to 14 ms between runs.  Not the mean either: a
    few long watermark waits carry it, and over seven seeds it spread 0.17
    where the 90th percentile spread 0.06.
    """
    keys = ("mean", 0.5, 0.9, 0.95, 0.99)
    per_run = []
    for index, samples in latency_runs:
        if samples:
            run = {share: 1000.0 * percentile(samples, share) for share in keys[1:]}
            run["mean"] = 1000.0 * statistics.fmean(samples)
            per_run.append((index, run))
    summary = {key: over_input_sets((index, run[key]) for index, run in per_run) for key in keys}
    notes.append(
        f"latency: {len(per_run)} run(s) of {len({index for index, _ in per_run})} input set(s), "
        f"{sum(len(samples) for _, samples in latency_runs)} samples; ms: "
        + " ".join(
            f"{key if key == 'mean' else f'p{round(key * 100)}'}={value:.3f}"
            for key, value in summary.items()
        )
    )
    metrics = {
        "events_per_s": over_input_sets(rates),
        "emit_p90_ms": summary[0.9],
        "emit_p99_ms": summary[0.99],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return Outcome(ledger, metrics, dict(END_TO_END_UNITS), notes)


def work_dir() -> Path:
    WORK.mkdir(exist_ok=True)
    return WORK


def log(message: str) -> None:
    """Progress line on stderr (stdout carries the result)."""
    print(message, file=sys.stderr, flush=True)
