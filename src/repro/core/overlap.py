"""Overlapping-window computation (the conventional outer join step).

The NJ pipeline starts by evaluating the conventional left outer join
``r ⟕_{θo ∧ θ} s`` with the overlap predicate ``θo : r.T ∩ s.T ≠ ∅`` and the
join condition θ on the non-temporal attributes.  Its result contains

* one **overlapping window** per matching pair ``(r, s)`` whose intervals
  overlap, spanning exactly ``r.T ∩ s.T``, and
* one **unmatched window** for every ``r`` tuple that matches *no* ``s``
  tuple at all, spanning ``r``'s full interval

and, crucially, every window is "enhanced with the initial time-interval of
the tuple of r valid over [it]" so the later sweeps can work with it without
going back to the base relation.  In this implementation the enhancement is
the :attr:`Window.source_interval` field, and windows are additionally kept
grouped per originating ``r`` tuple (the paper's grouping by ``Fr`` and the
initial interval), which is what both LAWAU and LAWAN consume.

For equi-join conditions the pairing uses hash partitioning on the join key
followed by a per-partition sort-merge over interval start points; a general
θ merges against the whole negative relation as one partition.  Each ``r``
tuple probes only the rows :func:`candidate_rows` bounds by bisection: rows
starting before ``r.Ts − d`` (``d`` the partition's longest interval) end
before ``r`` starts, and rows starting at or after ``r.Te`` begin after it
ends.  The streaming maintainer (:mod:`repro.stream.incremental`) probes its
per-key state through the same helper.  Either way the produced window stream
per ``r`` tuple is ordered by overlap start, the order required by the sweeps.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from ..relation import TPRelation, TPTuple, ThetaCondition
from ..temporal import Interval
from .windows import Window, WindowClass


@dataclass(frozen=True, slots=True)
class OverlapRecord:
    """One row of the conventional outer join ``r ⟕_{θo ∧ θ} s``.

    ``s`` is ``None`` for the rows padded by the outer join (an ``r`` tuple
    with no overlapping, θ-matching partner), in which case ``interval`` is
    ``r``'s full interval.
    """

    r: TPTuple
    s: Optional[TPTuple]
    interval: Interval

    @property
    def is_unmatched(self) -> bool:
        """Whether this record is an outer-join padded (unmatched) row."""
        return self.s is None

    def to_window(self) -> Window:
        """Render the record as a generalized lineage-aware temporal window."""
        if self.s is None:
            return Window(
                fact_r=self.r.fact,
                fact_s=None,
                interval=self.interval,
                lineage_r=self.r.lineage,
                lineage_s=None,
                window_class=WindowClass.UNMATCHED,
                source_interval=self.r.interval,
            )
        return Window(
            fact_r=self.r.fact,
            fact_s=self.s.fact,
            interval=self.interval,
            lineage_r=self.r.lineage,
            lineage_s=self.s.lineage,
            window_class=WindowClass.OVERLAPPING,
            source_interval=self.r.interval,
        )


@dataclass(slots=True)
class OverlapGroup:
    """All overlap records of one ``r`` tuple, ordered by overlap start.

    ``matches`` is empty exactly when the ``r`` tuple is fully unmatched; in
    that case the conventional outer join emits a single padded record, which
    :meth:`records` reproduces.
    """

    r: TPTuple
    matches: list[OverlapRecord] = field(default_factory=list)

    def records(self) -> list[OverlapRecord]:
        """The outer-join rows for this group (padded row when no matches)."""
        if not self.matches:
            return [OverlapRecord(self.r, None, self.r.interval)]
        return list(self.matches)

    def match_count(self) -> int:
        return len(self.matches)


def overlap_join(
    positive: TPRelation,
    negative: TPRelation,
    theta: ThetaCondition,
) -> list[OverlapGroup]:
    """Compute the conventional outer join ``r ⟕_{θo ∧ θ} s`` grouped by ``r`` tuple.

    Groups preserve the iteration order of ``positive``; matches within a
    group are ordered by overlap start (ties broken by overlap end and the
    negative tuple's fact) — the order LAWAU and LAWAN require.
    """
    groups = [OverlapGroup(r) for r in positive]
    if theta.is_equi:
        _pair_equi(groups, negative, theta)
    else:
        _pair_nested_loop(groups, negative, theta)
    for group in groups:
        group.matches.sort(key=_match_order)
    return groups


def iter_overlap_records(
    positive: TPRelation,
    negative: TPRelation,
    theta: ThetaCondition,
) -> Iterator[OverlapRecord]:
    """Pipelined variant: yield the outer-join rows group by group."""
    for group in overlap_join(positive, negative, theta):
        yield from group.records()


def _match_order(record: OverlapRecord) -> tuple:
    assert record.s is not None
    return (record.interval.start, record.interval.end, record.s.key())


def candidate_rows(
    starts: Sequence[int], max_duration: int, start: int, end: int
) -> tuple[int, int]:
    """Row range ``[lo, hi)`` of a start-sorted list that may overlap ``[start, end)``.

    ``max_duration`` must bound the length of every row.  A row before
    ``lo`` starts at or before ``start − max_duration``, so it ends at or
    before ``start``; a row from ``hi`` on starts at or after ``end``.
    Neither can overlap the probe.  With ``start == end`` the range is the
    band of rows that may or may not have ended by ``start``: every row
    before it has, none after it has.
    """
    return bisect_right(starts, start - max_duration), bisect_left(starts, end)


def _pair_equi(
    groups: list[OverlapGroup], negative: TPRelation, theta: ThetaCondition
) -> None:
    """Hash-partition both inputs on the join key, then merge per partition."""
    partitions: dict[object, list[TPTuple]] = {}
    for s in negative:
        partitions.setdefault(theta.right_key(s), []).append(s)
    merged = {key: _SortedBucket(bucket) for key, bucket in partitions.items()}
    for group in groups:
        bucket = merged.get(theta.left_key(group.r))
        if bucket is not None:
            bucket.merge(group, theta)


def _pair_nested_loop(
    groups: list[OverlapGroup], negative: TPRelation, theta: ThetaCondition
) -> None:
    """General-θ pairing: every ``r`` merges against the whole of ``negative``."""
    bucket = _SortedBucket(list(negative))
    for group in groups:
        bucket.merge(group, theta)


class _SortedBucket:
    """One partition of the negative input, sorted by ``(start, end)``."""

    __slots__ = ("tuples", "starts", "max_duration")

    def __init__(self, tuples: list[TPTuple]) -> None:
        tuples.sort(key=lambda t: (t.start, t.end))
        self.tuples = tuples
        self.starts = [t.start for t in tuples]
        self.max_duration = max((t.end - t.start for t in tuples), default=0)

    def merge(self, group: OverlapGroup, theta: ThetaCondition) -> None:
        """Collect the overlaps of ``group.r`` against this bucket."""
        r = group.r
        lo, hi = candidate_rows(self.starts, self.max_duration, r.start, r.end)
        for s in self.tuples[lo:hi]:
            overlap = r.interval.intersect(s.interval)
            if overlap is None:
                continue
            # For composite equi-keys the hash key already guarantees θ, but
            # a general ThetaCondition may carry extra non-equality
            # conjuncts, so the predicate is still evaluated.
            if theta.evaluate(r, s):
                group.matches.append(OverlapRecord(r, s, overlap))


def overlapping_windows(
    positive: TPRelation,
    negative: TPRelation,
    theta: ThetaCondition,
) -> list[Window]:
    """Only the overlapping windows ``WO(r; s, θ)`` (used by tests and WO-only joins)."""
    windows: list[Window] = []
    for group in overlap_join(positive, negative, theta):
        for record in group.matches:
            windows.append(record.to_window())
    return windows
