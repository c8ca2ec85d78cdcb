"""Incremental, watermark-driven maintenance of lineage-aware windows.

The batch pipeline (``overlap join → LAWAU → LAWAN``) computes every window
of a positive tuple from its group of overlapping matches.  The crucial
observation carried over from the paper is that the window set of one
positive tuple ``r`` depends *only* on ``r`` itself and the θ-matching
negative tuples whose intervals overlap ``r.T`` — no other tuple of either
relation matters.  Over an unbounded stream this gives an exact finalization
rule:

    once the combined watermark ``W = min(W_left, W_right)`` satisfies
    ``r.Te ≤ W``, no future event of either stream can overlap ``r.T``
    (every future event starts at or after ``W``), so ``r``'s overlap group
    is complete and its LAWAU/LAWAN windows can be derived once, emitted,
    and never retracted.

:class:`IncrementalWindowMaintainer` keeps, per join key, the *open* positive
tuples (each with its accrued match list) and the negative tuples held for
matching against late-arriving positives.  Both live in a start-sorted
per-key index (:class:`_StartIndex`): a ``starts`` list, a row-aligned list
of ``(arrival, tuple, item)`` rows in (start, arrival) order, and the
key's maximum interval duration ``d``, which only ever grows and so stays an
upper bound after evictions and retractions.  An event over ``[s, e)`` tests
only the rows starting in ``(s − d, e)``, found by bisection
(:func:`repro.core.overlap.candidate_rows`, shared with the batch
sort-merge): a row starting at or before ``s − d`` ends at or before ``s``.
A probe therefore costs ``O(log n + k)`` for ``k`` candidates, and an event
touches only the tuples of its own key that can overlap it — the incremental
counterpart of the paper's no-replication property.  Hits are re-sorted by
arrival, so match lists, the entries an event affects, finalized groups and
checkpoint exports keep per-key arrival order.

Every watermark advance finalizes exactly the positive tuples whose
intervals it passed, replaying the unchanged batch sweeps
(:func:`repro.core.lawan.iter_lawan`) over their completed groups.
Batch/stream equivalence is therefore by construction, and is additionally
asserted by randomized tests.

State is bounded by eviction: finalized positives are dropped immediately,
and a negative tuple is dropped once the *left* watermark passes its end
(no open positive references it through the index any more, and every future
positive starts after it).  Both expiries cut the index prefix that starts
at or before ``W − d`` and test only the band of rows starting in
``(W − d, W)``.

Two extensions serve the retractable dataflow subsystem
(:mod:`repro.dataflow`):

* **Retraction** — :meth:`IncrementalWindowMaintainer.remove_positive` /
  :meth:`remove_negative` unwind an earlier addition exactly, so a node
  consuming a *revision stream* (provisional upstream output that may be
  retracted) keeps state identical to a run that never saw the retracted
  tuple.  The ingestion methods return the open entries they touched, which
  is what early-emission needs to republish affected provisional windows.
* **Per-key probability computers** — when constructed with an event space,
  the maintainer owns one hash-consed
  :class:`~repro.lineage.ProbabilityComputer` per join key, carried across
  *all* windows of a live continuous query.  Repeated windows of the same
  positive tuple then reuse interned sub-expression probabilities end to
  end, and the values stay bitwise-identical to a fresh computation (the
  memo only ever returns a value it previously computed the uncached way).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Dict, Hashable, List, Optional, Tuple

from ..core.overlap import OverlapGroup, OverlapRecord, candidate_rows
from ..lineage import EventSpace, ProbabilityComputer
from ..relation import TPTuple, ThetaCondition
from ..temporal import Interval
from .elements import CLOSED

#: Partition key used when θ is not an equi-join (single partition).
_WHOLE_STREAM: Tuple = ("<all>",)


@dataclass
class MaintainerStats:
    """Counters exposed by the maintainer for monitoring and benchmarks."""

    positives_in: int = 0
    negatives_in: int = 0
    late_positives_dropped: int = 0
    late_negatives_dropped: int = 0
    groups_finalized: int = 0
    negatives_evicted: int = 0
    peak_open_positives: int = 0
    peak_indexed_negatives: int = 0
    positives_retracted: int = 0
    negatives_retracted: int = 0


@dataclass
class OpenPositive:
    """One positive tuple awaiting finalization, with its accrued matches.

    ``serial`` is a maintainer-unique id assigned at ingestion; the dataflow
    layer uses it to key the provisional windows published for this group
    (object identity is unsafe: ids are reused after finalization).
    """

    tuple: TPTuple
    matches: List[OverlapRecord] = field(default_factory=list)
    ingest_clock: float = 0.0
    key: Hashable = None
    serial: int = 0


@dataclass(frozen=True, slots=True)
class FinalizedGroup:
    """A completed overlap group, ready for the LAWAU/LAWAN sweeps.

    ``ingest_clock`` is the wall-clock reading recorded when the positive
    tuple was ingested; operators subtract it from the emission clock to
    report per-tuple emit latency.  ``key`` and ``serial`` identify the
    originating open entry (join key for the per-key probability computer,
    serial for provisional-publication bookkeeping).
    """

    group: OverlapGroup
    ingest_clock: float
    key: Hashable = None
    serial: int = 0


#: Sort key of index rows and probe hits: the arrival sequence number.
_ARRIVAL = itemgetter(0)

#: One index row: ``(arrival, tuple, item)``; the item is the open entry
#: or, for negatives, the tuple itself.
_Row = Tuple[int, TPTuple, Any]


class _StartIndex:
    """One key's rows in (start, arrival) order, probed by bisection.

    ``rows`` is aligned with ``starts``.  Inserting at ``bisect_right`` of
    the start keeps equal starts in arrival order.  ``max_duration`` is the
    longest interval ever inserted; it never shrinks, so it bounds every
    row still present and :func:`candidate_rows` stays sound.
    """

    __slots__ = ("starts", "rows", "max_duration")

    def __init__(self) -> None:
        self.starts: List[int] = []
        self.rows: List[_Row] = []
        self.max_duration = 0

    def insert(self, arrival: int, tp_tuple: TPTuple, item: Any) -> None:
        interval = tp_tuple.interval
        start = interval.start
        at = bisect_right(self.starts, start)
        self.starts.insert(at, start)
        self.rows.insert(at, (arrival, tp_tuple, item))
        duration = interval.end - start
        if duration > self.max_duration:
            self.max_duration = duration

    def candidates(self, interval: Interval) -> List[_Row]:
        """The rows that may overlap ``interval``, in start order."""
        lo, hi = candidate_rows(self.starts, self.max_duration, interval.start, interval.end)
        return self.rows[lo:hi]

    def pop_first(self, tp_tuple: TPTuple) -> Any:
        """Remove the earliest-arrived row whose tuple has ``tp_tuple``'s identity.

        Returns the removed item, or ``None`` when no row matches.
        """
        start = tp_tuple.start
        identity = tp_tuple.key()
        starts, rows = self.starts, self.rows
        for at in range(bisect_left(starts, start), bisect_right(starts, start)):
            if rows[at][1].key() == identity:
                del starts[at]
                return rows.pop(at)[2]
        return None

    def expire(self, horizon: float) -> Tuple[List[_Row], float]:
        """Remove the rows ending at or before ``horizon``.

        Returns them in start order, with a lower bound on the ends of the
        rows that stay (``inf`` when none stay).  Rows before the band of
        :func:`candidate_rows` have all ended and rows after it cannot have,
        so only the band is tested; the rows after it end beyond their
        starts, which bounds them from below.
        """
        starts, rows = self.starts, self.rows
        lo, hi = candidate_rows(starts, self.max_duration, horizon, horizon)
        expired = rows[:lo]
        kept_starts: List[int] = []
        kept_rows: List[_Row] = []
        bound = starts[hi] if hi < len(starts) else float("inf")
        for at in range(lo, hi):
            row = rows[at]
            end = row[1].interval.end
            if end <= horizon:
                expired.append(row)
            else:
                kept_starts.append(starts[at])
                kept_rows.append(row)
                if end < bound:
                    bound = end
        starts[:hi] = kept_starts
        rows[:hi] = kept_rows
        return expired, bound

    def items(self) -> List[Any]:
        """Every item, in arrival order."""
        return [row[2] for row in sorted(self.rows, key=_ARRIVAL)]


def _match_order(record: OverlapRecord) -> tuple:
    # Same ordering as repro.core.overlap._match_order: the sweeps require
    # matches sorted by overlap start (ties: end, then negative-tuple key).
    assert record.s is not None
    return (record.interval.start, record.interval.end, record.s.key())


class IncrementalWindowMaintainer:
    """Per-key overlap state with watermark-driven window finalization."""

    def __init__(self, theta: ThetaCondition, events: Optional[EventSpace] = None) -> None:
        self._theta = theta
        self._partitioned = theta.is_equi
        # Per-key start-sorted indexes; a key is dropped once its index
        # empties, so every index held here has at least one row.
        self._open: Dict[Hashable, _StartIndex] = {}
        self._negatives: Dict[Hashable, _StartIndex] = {}
        self._arrivals = 0
        self._watermark_left: float = float("-inf")
        self._watermark_right: float = float("-inf")
        self._finalized_through: float = float("-inf")
        self.stats = MaintainerStats()
        self._open_count = 0
        self._negative_count = 0
        self._serial = 0
        # Per-key probability computers (requires an event space): the
        # hash-cons intern table of each computer persists across every
        # window of its key for the maintainer's lifetime.
        self._events = events
        self._computers: Dict[Hashable, ProbabilityComputer] = {}
        # Smallest interval end among open positives / indexed negatives:
        # lets watermark advances skip the state scan entirely when nothing
        # can finalize or be evicted yet (the common case with frequent
        # watermarks).  Maintained as a lower bound: tightened on insert,
        # recomputed from the index bands during the scans that do run.
        self._min_open_end: float = float("inf")
        self._min_negative_end: float = float("inf")

    # ------------------------------------------------------------------ #
    # watermark accessors
    # ------------------------------------------------------------------ #
    @property
    def combined_watermark(self) -> float:
        """The join's progress: the minimum of the two source watermarks."""
        return min(self._watermark_left, self._watermark_right)

    @property
    def open_positives(self) -> int:
        """Number of positive tuples currently awaiting finalization."""
        return self._open_count

    @property
    def indexed_negatives(self) -> int:
        """Number of negative tuples currently held for future matching."""
        return self._negative_count

    def min_open_start(self) -> float:
        """Exact smallest interval start among open positives (inf when none).

        The dataflow layer derives a node's *output watermark* from this: any
        future emission or retraction concerns an open positive, and all of a
        positive's windows start at or after the positive's own start.  The
        value is computed exactly (not as a cached bound) because an
        over-estimate would break the downstream watermark contract.  Each
        key's index is start-sorted and never empty, so its first start is
        the key's minimum: the cost is one read per key.
        """
        return min((index.starts[0] for index in self._open.values()), default=float("inf"))

    def computer_for(self, key: Hashable) -> ProbabilityComputer:
        """The persistent per-key probability computer (requires events).

        One hash-consed computer per join key, owned by the maintainer and
        carried across all windows of a live continuous query, so repeated
        windows of the same positive tuple reuse interned sub-expression
        probabilities.
        """
        if self._events is None:
            raise ValueError(
                "maintainer was built without an event space; "
                "pass events= to materialize probabilities"
            )
        computer = self._computers.get(key)
        if computer is None:
            computer = ProbabilityComputer(self._events, hash_cons=True)
            self._computers[key] = computer
        return computer

    def probability_counters(self) -> Dict[str, int]:
        """Summed hash-cons cache telemetry across all per-key computers."""
        totals = {
            "probability_cache_hits": 0,
            "probability_cache_misses": 0,
            "probability_intern_hits": 0,
            "probability_intern_misses": 0,
        }
        for computer in self._computers.values():
            totals["probability_cache_hits"] += computer.cache_hits
            totals["probability_cache_misses"] += computer.cache_misses
            totals["probability_intern_hits"] += computer.intern_hits
            totals["probability_intern_misses"] += computer.intern_misses
        return totals

    # ------------------------------------------------------------------ #
    # event ingestion
    # ------------------------------------------------------------------ #
    def _positive_key(self, tp_tuple: TPTuple) -> Hashable:
        return self._theta.left_key(tp_tuple) if self._partitioned else _WHOLE_STREAM

    def _negative_key(self, tp_tuple: TPTuple) -> Hashable:
        return self._theta.right_key(tp_tuple) if self._partitioned else _WHOLE_STREAM

    def _insert(
        self, indexes: Dict[Hashable, _StartIndex], key: Hashable, tp_tuple: TPTuple, item: Any
    ) -> None:
        index = indexes.get(key)
        if index is None:
            index = indexes[key] = _StartIndex()
        self._arrivals += 1
        index.insert(self._arrivals, tp_tuple, item)

    def add_positive(
        self, tp_tuple: TPTuple, ingest_clock: float = 0.0
    ) -> Optional[OpenPositive]:
        """Ingest one positive-stream tuple, matching it against stored negatives.

        Returns the created open entry, or ``None`` when the tuple arrived
        behind the left watermark and was dropped.
        """
        self.stats.positives_in += 1
        if tp_tuple.start < self._watermark_left:
            self.stats.late_positives_dropped += 1
            return None
        key = self._positive_key(tp_tuple)
        self._serial += 1
        entry = OpenPositive(tp_tuple, ingest_clock=ingest_clock, key=key, serial=self._serial)
        interval = tp_tuple.interval
        index = self._negatives.get(key)
        if index is not None:
            hits = []
            for arrival, negative, _ in index.candidates(interval):
                overlap = interval.intersect(negative.interval)
                if overlap is not None and self._theta.evaluate(tp_tuple, negative):
                    hits.append((arrival, OverlapRecord(tp_tuple, negative, overlap)))
            if hits:
                hits.sort(key=_ARRIVAL)
                entry.matches = [record for _, record in hits]
        self._insert(self._open, key, tp_tuple, entry)
        self._open_count += 1
        if tp_tuple.end < self._min_open_end:
            self._min_open_end = tp_tuple.end
        if self._open_count > self.stats.peak_open_positives:
            self.stats.peak_open_positives = self._open_count
        return entry

    def add_negative(self, tp_tuple: TPTuple) -> List[OpenPositive]:
        """Ingest one negative-stream tuple, extending affected open positives.

        Returns the open entries whose match lists grew (empty when the
        tuple was dropped as late or overlapped nothing) — the groups whose
        provisional windows an early-emitting operator must republish.
        """
        self.stats.negatives_in += 1
        if tp_tuple.start < self._watermark_right:
            self.stats.late_negatives_dropped += 1
            return []
        key = self._negative_key(tp_tuple)
        self._insert(self._negatives, key, tp_tuple, tp_tuple)
        self._negative_count += 1
        if tp_tuple.end < self._min_negative_end:
            self._min_negative_end = tp_tuple.end
        if self._negative_count > self.stats.peak_indexed_negatives:
            self.stats.peak_indexed_negatives = self._negative_count
        index = self._open.get(key)
        if index is None:
            return []
        interval = tp_tuple.interval
        hits = []
        for arrival, positive, entry in index.candidates(interval):
            overlap = positive.interval.intersect(interval)
            if overlap is not None and self._theta.evaluate(positive, tp_tuple):
                entry.matches.append(OverlapRecord(positive, tp_tuple, overlap))
                hits.append((arrival, entry))
        hits.sort(key=_ARRIVAL)
        return [entry for _, entry in hits]

    # ------------------------------------------------------------------ #
    # retraction (revision-stream inputs)
    # ------------------------------------------------------------------ #
    def remove_positive(self, tp_tuple: TPTuple) -> Optional[OpenPositive]:
        """Unwind an earlier :meth:`add_positive`; returns the removed entry.

        The upstream watermark contract guarantees a retractable tuple is
        still open here (its group cannot have been finalized: finalization
        needs the combined watermark past its end, while retraction implies
        the upstream watermark — and therefore our side watermark — has not
        passed its start).  ``None`` means the tuple was never added, which
        callers treat as a contract violation.
        """
        key = self._positive_key(tp_tuple)
        index = self._open.get(key)
        if index is None:
            return None
        entry = index.pop_first(tp_tuple)
        if entry is None:
            return None
        if not index.rows:
            del self._open[key]
        self._open_count -= 1
        self.stats.positives_retracted += 1
        # _min_open_end is a lower bound; removal only raises the true
        # minimum, so the bound stays valid as-is.
        return entry

    def remove_negative(self, tp_tuple: TPTuple) -> List[OpenPositive]:
        """Unwind an earlier :meth:`add_negative`.

        Drops the tuple from the index (when still there — it may have been
        evicted) and strips its overlap records from the open positives of
        its key, returning the entries whose match lists shrank (in arrival
        order) so an early-emitting operator can republish them.  A record
        for the tuple implies an overlap with its interval, so only the open
        positives in that interval's probe window are inspected.
        """
        key = self._negative_key(tp_tuple)
        negatives = self._negatives.get(key)
        if negatives is not None and negatives.pop_first(tp_tuple) is not None:
            if not negatives.rows:
                del self._negatives[key]
            self._negative_count -= 1
        self.stats.negatives_retracted += 1
        index = self._open.get(key)
        if index is None:
            return []
        identity = tp_tuple.key()
        start = tp_tuple.start
        hits = []
        for arrival, positive, entry in index.candidates(tp_tuple.interval):
            if positive.interval.end <= start:
                continue
            kept = [record for record in entry.matches if record.s.key() != identity]
            if len(kept) != len(entry.matches):
                entry.matches[:] = kept
                hits.append((arrival, entry))
        hits.sort(key=_ARRIVAL)
        return [entry for _, entry in hits]

    # ------------------------------------------------------------------ #
    # watermark advancement and finalization
    # ------------------------------------------------------------------ #
    def advance_left(self, watermark: float) -> List[FinalizedGroup]:
        """Advance the positive-side watermark; returns newly finalized groups."""
        if watermark > self._watermark_left:
            self._watermark_left = watermark
            self._evict_negatives()
        return self._finalize()

    def advance_right(self, watermark: float) -> List[FinalizedGroup]:
        """Advance the negative-side watermark; returns newly finalized groups."""
        if watermark > self._watermark_right:
            self._watermark_right = watermark
        return self._finalize()

    def close(self) -> List[FinalizedGroup]:
        """Close both sides, finalizing every remaining open positive."""
        self._watermark_left = CLOSED
        self._watermark_right = CLOSED
        self._evict_negatives()
        return self._finalize()

    def _finalize(self) -> List[FinalizedGroup]:
        """Finalize open positives whose interval end the combined watermark passed."""
        horizon = self.combined_watermark
        if horizon <= self._finalized_through:
            return []
        self._finalized_through = horizon
        if horizon < self._min_open_end:
            # No open positive ends at or before the horizon: nothing to do.
            # (Entries admitted later start at or after the watermark, so
            # they end strictly after it — the bound stays valid.)
            return []
        finalized: List[FinalizedGroup] = []
        emptied: List[Hashable] = []
        min_end: float = float("inf")
        for key, index in self._open.items():
            expired, bound = index.expire(horizon)
            if bound < min_end:
                min_end = bound
            if not index.rows:
                emptied.append(key)
            if not expired:
                continue
            expired.sort(key=_ARRIVAL)
            self.stats.groups_finalized += len(expired)
            self._open_count -= len(expired)
            for _, _, entry in expired:
                entry.matches.sort(key=_match_order)
                finalized.append(
                    FinalizedGroup(
                        OverlapGroup(entry.tuple, entry.matches),
                        entry.ingest_clock,
                        key=entry.key,
                        serial=entry.serial,
                    )
                )
        for key in emptied:
            del self._open[key]
        self._min_open_end = min_end
        return finalized

    # ------------------------------------------------------------------ #
    # checkpoint accessors (layout-independent state export/import)
    # ------------------------------------------------------------------ #
    # The recovery codec (repro.recovery.checkpoint) snapshots and restores
    # maintainer state through these four methods rather than reaching into
    # the storage layout, so the columnar maintainer
    # (repro.columnar.state.ColumnarWindowMaintainer) checkpoints through
    # the same versioned frames and a snapshot taken under one layout
    # restores under the other.
    def open_items(self) -> List[Tuple[Hashable, List[OpenPositive]]]:
        """Open entries grouped per key (arrival order), keys in first-seen order."""
        return [(key, index.items()) for key, index in self._open.items()]

    def negative_items(self) -> List[Tuple[Hashable, List[TPTuple]]]:
        """Indexed negatives grouped per key (arrival order), keys in first-seen order."""
        return [(key, index.items()) for key, index in self._negatives.items()]

    def load_open_entries(self, key: Hashable, entries: List[OpenPositive]) -> None:
        """Checkpoint restore: adopt pre-built open entries for one key.

        ``entries`` come in arrival order and are inserted through the
        index.  Structural load only — counts are updated, but watermarks,
        bounds and stats are restored separately by the checkpoint codec.
        """
        for entry in entries:
            self._insert(self._open, key, entry.tuple, entry)
        self._open_count += len(entries)

    def load_negatives(self, key: Hashable, bucket: List[TPTuple]) -> None:
        """Checkpoint restore: adopt one key's indexed negatives (arrival order)."""
        for negative in bucket:
            self._insert(self._negatives, key, negative, negative)
        self._negative_count += len(bucket)

    def _evict_negatives(self) -> None:
        """Drop negatives no future positive can overlap.

        Every future positive starts at or after the left watermark, so a
        negative ending at or before it can never match again through the
        index (open positives that already matched it hold their own
        references in their match lists).
        """
        horizon = self._watermark_left
        if horizon < self._min_negative_end:
            return
        emptied: List[Hashable] = []
        min_end: float = float("inf")
        for key, index in self._negatives.items():
            evicted, bound = index.expire(horizon)
            if evicted:
                self.stats.negatives_evicted += len(evicted)
                self._negative_count -= len(evicted)
            if bound < min_end:
                min_end = bound
            if not index.rows:
                emptied.append(key)
        for key in emptied:
            del self._negatives[key]
        self._min_negative_end = min_end
