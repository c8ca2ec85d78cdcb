"""The start-sorted per-key index of the incremental window maintainer.

:class:`IncrementalWindowMaintainer` probes each key's state by bisection
over interval starts, bounded by the key's maximum interval duration.  These
tests hold it to a linear-scan reference that tests every stored tuple of
the key, as the maintainer did before it had an index: same entries, match
lists, affected lists, finalized groups, exports and stats, in the same
order.  A probe-count test pins the ``O(log n + k)`` cost, and a checkpoint
test shows a restore rebuilds the index from either state layout.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import HAS_NUMPY, maintainer_class
from repro.core.overlap import OverlapGroup, OverlapRecord
from repro.lineage import EventSpace, Var
from repro.recovery.checkpoint import encode_maintainer, restore_maintainer
from repro.relation import EquiJoinCondition, PredicateCondition, Schema, TPTuple
from repro.stream.elements import CLOSED
from repro.stream.incremental import (
    _WHOLE_STREAM,
    FinalizedGroup,
    IncrementalWindowMaintainer,
    MaintainerStats,
    OpenPositive,
    _match_order,
)
from repro.stream.operators import forward_group_tuples
from repro.temporal import Interval

SCHEMA = Schema.of("Key", "Serial")


def _tuple(name: str, key: str, start: int, end: int) -> TPTuple:
    return TPTuple((key, name), Var(name), Interval(start, end), None)


def _theta(kind: str):
    if kind == "equi":
        return EquiJoinCondition(SCHEMA, SCHEMA, (("Key", "Key"),))
    # A non-equi θ keeps every tuple under the single _WHOLE_STREAM key and
    # is evaluated on each overlapping candidate.
    return PredicateCondition(lambda left, right: left[0] <= right[0])


class _LinearReference:
    """Per-key arrival-ordered lists; every probe tests the whole key."""

    def __init__(self, theta) -> None:
        self._theta = theta
        self._open: dict = {}
        self._negatives: dict = {}
        self._left = float("-inf")
        self._right = float("-inf")
        self._through = float("-inf")
        self._serial = 0
        self.stats = MaintainerStats()

    @property
    def open_positives(self) -> int:
        return sum(len(entries) for entries in self._open.values())

    @property
    def indexed_negatives(self) -> int:
        return sum(len(bucket) for bucket in self._negatives.values())

    def min_open_start(self) -> float:
        starts = [e.tuple.start for entries in self._open.values() for e in entries]
        return min(starts, default=float("inf"))

    def _key(self, tp_tuple: TPTuple, left: bool):
        if not self._theta.is_equi:
            return _WHOLE_STREAM
        return self._theta.left_key(tp_tuple) if left else self._theta.right_key(tp_tuple)

    def add_positive(self, tp_tuple, ingest_clock=0.0):
        self.stats.positives_in += 1
        if tp_tuple.start < self._left:
            self.stats.late_positives_dropped += 1
            return None
        key = self._key(tp_tuple, True)
        self._serial += 1
        entry = OpenPositive(tp_tuple, ingest_clock=ingest_clock, key=key, serial=self._serial)
        for negative in self._negatives.get(key, ()):
            overlap = tp_tuple.interval.intersect(negative.interval)
            if overlap is not None and self._theta.evaluate(tp_tuple, negative):
                entry.matches.append(OverlapRecord(tp_tuple, negative, overlap))
        self._open.setdefault(key, []).append(entry)
        self.stats.peak_open_positives = max(self.stats.peak_open_positives, self.open_positives)
        return entry

    def add_negative(self, tp_tuple):
        self.stats.negatives_in += 1
        if tp_tuple.start < self._right:
            self.stats.late_negatives_dropped += 1
            return []
        key = self._key(tp_tuple, False)
        self._negatives.setdefault(key, []).append(tp_tuple)
        self.stats.peak_indexed_negatives = max(
            self.stats.peak_indexed_negatives, self.indexed_negatives
        )
        affected = []
        for entry in self._open.get(key, ()):
            overlap = entry.tuple.interval.intersect(tp_tuple.interval)
            if overlap is not None and self._theta.evaluate(entry.tuple, tp_tuple):
                entry.matches.append(OverlapRecord(entry.tuple, tp_tuple, overlap))
                affected.append(entry)
        return affected

    def remove_positive(self, tp_tuple):
        key = self._key(tp_tuple, True)
        entries = self._open.get(key, [])
        for at, entry in enumerate(entries):
            if entry.tuple.key() == tp_tuple.key():
                del entries[at]
                if not entries:
                    del self._open[key]
                self.stats.positives_retracted += 1
                return entry
        return None

    def remove_negative(self, tp_tuple):
        key = self._key(tp_tuple, False)
        identity = tp_tuple.key()
        bucket = self._negatives.get(key, [])
        for at, negative in enumerate(bucket):
            if negative.key() == identity:
                del bucket[at]
                if not bucket:
                    del self._negatives[key]
                break
        self.stats.negatives_retracted += 1
        affected = []
        for entry in self._open.get(key, ()):
            kept = [record for record in entry.matches if record.s.key() != identity]
            if len(kept) != len(entry.matches):
                entry.matches[:] = kept
                affected.append(entry)
        return affected

    def advance_left(self, watermark):
        if watermark > self._left:
            self._left = watermark
            self._evict()
        return self._finalize()

    def advance_right(self, watermark):
        self._right = max(self._right, watermark)
        return self._finalize()

    def close(self):
        self._left = self._right = CLOSED
        self._evict()
        return self._finalize()

    def _finalize(self):
        horizon = min(self._left, self._right)
        if horizon <= self._through:
            return []
        self._through = horizon
        finalized = []
        for key in list(self._open):
            remaining = []
            for entry in self._open[key]:
                if entry.tuple.end <= horizon:
                    entry.matches.sort(key=_match_order)
                    self.stats.groups_finalized += 1
                    finalized.append(
                        FinalizedGroup(
                            OverlapGroup(entry.tuple, entry.matches),
                            entry.ingest_clock,
                            key=entry.key,
                            serial=entry.serial,
                        )
                    )
                else:
                    remaining.append(entry)
            if remaining:
                self._open[key] = remaining
            else:
                del self._open[key]
        return finalized

    def _evict(self):
        for key in list(self._negatives):
            kept = [n for n in self._negatives[key] if n.end > self._left]
            self.stats.negatives_evicted += len(self._negatives[key]) - len(kept)
            if kept:
                self._negatives[key] = kept
            else:
                del self._negatives[key]

    def open_items(self):
        return [(key, list(entries)) for key, entries in self._open.items()]

    def negative_items(self):
        return [(key, list(bucket)) for key, bucket in self._negatives.items()]


def _records(records):
    return [(record.r.key(), record.s.key(), record.interval) for record in records]


def _entry_view(entry):
    if entry is None:
        return None
    return (entry.tuple.key(), entry.serial, entry.key, _records(entry.matches))


def _group_view(group):
    return (group.group.r.key(), group.serial, group.key, _records(group.group.matches))


def _state_view(maintainer):
    return (
        maintainer.open_positives,
        maintainer.indexed_negatives,
        maintainer.min_open_start(),
        [(key, [_entry_view(e) for e in entries]) for key, entries in maintainer.open_items()],
        [(key, [n.key() for n in bucket]) for key, bucket in maintainer.negative_items()],
    )


def _drive(maintainer, operations):
    """Apply the operations; record every return value and the state after each."""
    trace = []
    for op, *args in operations:
        if op == "add_pos":
            trace.append(_entry_view(maintainer.add_positive(*args)))
        elif op == "rm_pos":
            trace.append(_entry_view(maintainer.remove_positive(*args)))
        elif op in ("add_neg", "rm_neg"):
            method = maintainer.add_negative if op == "add_neg" else maintainer.remove_negative
            trace.append([_entry_view(entry) for entry in method(*args)])
        else:
            groups = getattr(maintainer, op)(*args)
            trace.append([_group_view(group) for group in groups])
        trace.append(_state_view(maintainer))
    return trace, maintainer.stats


@st.composite
def _operations(draw):
    """Random add/remove/advance sequences ending in close.

    Starts come from a narrow range, so equal starts are common; ``dup``
    re-adds an identical copy of an earlier tuple, so retractions hit
    duplicate-start tuples; a long interval is always added after the
    first short ones, so a key's maximum duration grows late.
    """
    keys = draw(st.sampled_from((("a",), ("a", "b"), ("a", "b", "c"))))
    length = draw(st.integers(min_value=4, max_value=60))
    long_at = draw(st.integers(min_value=2, max_value=length))
    operations = []
    added = {"pos": [], "neg": []}
    for step in range(length + 1):
        if step == long_at:
            side = draw(st.sampled_from(("pos", "neg")))
            start = draw(st.integers(min_value=0, max_value=20))
            long_tuple = _tuple(f"L{step}", draw(st.sampled_from(keys)), start, start + 30)
            operations.append((f"add_{side}", long_tuple))
            added[side].append(long_tuple)
            continue
        roll = draw(st.integers(min_value=0, max_value=99))
        side = "pos" if roll % 2 else "neg"
        if roll < 50 or not added[side]:
            start = draw(st.integers(min_value=0, max_value=24))
            end = start + draw(st.integers(min_value=1, max_value=5))
            new = _tuple(f"{side}{step}", draw(st.sampled_from(keys)), start, end)
            operations.append((f"add_{side}", new))
            added[side].append(new)
        elif roll < 60:
            operations.append((f"add_{side}", draw(st.sampled_from(added[side]))))
        elif roll < 78:
            operations.append((f"rm_{side}", draw(st.sampled_from(added[side]))))
        elif roll < 92:
            operations.append(("advance_left", draw(st.integers(min_value=-2, max_value=30))))
        else:
            operations.append(("advance_right", draw(st.integers(min_value=-2, max_value=30))))
    operations.append(("close",))
    return [
        (op[0], op[1], float(i)) if op[0] == "add_pos" else op
        for i, op in enumerate(operations)
    ]


@pytest.mark.parametrize("theta_kind", ("equi", "predicate"))
@settings(max_examples=150, deadline=None)
@given(operations=_operations())
def test_index_matches_the_linear_scan_reference(theta_kind, operations):
    theta = _theta(theta_kind)
    indexed = _drive(IncrementalWindowMaintainer(theta), operations)
    reference = _drive(_LinearReference(theta), operations)
    assert indexed == reference


def _wide_disorder_stream(seed: int, per_side: int = 600, keys: int = 3):
    """Short intervals over a long timeline, delivered in random order."""
    rng = random.Random(seed)
    events = []
    for side in ("pos", "neg"):
        for i in range(per_side):
            start = rng.randrange(0, 3000)
            key = f"k{rng.randrange(keys)}"
            events.append((side, _tuple(f"{side}{i}", key, start, start + rng.randrange(1, 6))))
    rng.shuffle(events)
    return events


def test_probes_test_only_candidates_near_the_event(monkeypatch):
    """The whole stream stays in state (no watermark before close), yet each
    event tests a bounded number of intervals: about the ones it overlaps,
    not every stored tuple of its key."""
    calls = 0
    intersect = Interval.intersect

    def counting(self, other):
        nonlocal calls
        calls += 1
        return intersect(self, other)

    events = _wide_disorder_stream(seed=5)
    maintainer = IncrementalWindowMaintainer(_theta("equi"))
    monkeypatch.setattr(Interval, "intersect", counting)
    for side, tp_tuple in events:
        if side == "pos":
            maintainer.add_positive(tp_tuple)
        else:
            maintainer.add_negative(tp_tuple)
    probes = calls
    monkeypatch.setattr(Interval, "intersect", intersect)
    overlaps = sum(len(group.group.matches) for group in maintainer.close())
    assert overlaps > 0
    assert probes <= 4 * (len(events) + overlaps)


def _window_rows(maintainer, groups):
    """Settled output of finalized groups, probabilities from the maintainer's
    per-key computers (compared bitwise)."""
    rows = []
    for finalized in groups:
        computer = maintainer.computer_for(finalized.key)
        for out in forward_group_tuples("left_outer", finalized.group, 2, 2):
            rows.append(
                (out.fact, out.start, out.end, str(out.lineage), computer.probability(out.lineage))
            )
    return rows


def _restore_scenario():
    """A prefix leaving open positives and indexed negatives of two keys, and
    a suffix whose first negative overlaps a restored open positive and whose
    first positive overlaps a restored negative."""
    prefix = [
        ("add_pos", _tuple("p0", "a", 10, 20)),
        ("add_neg", _tuple("n0", "a", 12, 14)),
        ("add_pos", _tuple("p1", "a", 10, 13)),
        ("add_neg", _tuple("n1", "a", 30, 40)),
        ("add_pos", _tuple("p2", "b", 5, 50)),
        ("add_neg", _tuple("n2", "b", 6, 9)),
        ("advance_left", 4),
        ("advance_right", 4),
    ]
    suffix = [
        ("add_neg", _tuple("n3", "a", 11, 16)),
        ("add_pos", _tuple("p3", "a", 35, 38)),
        ("add_neg", _tuple("n4", "b", 7, 60)),
        ("add_pos", _tuple("p4", "b", 8, 12)),
        ("advance_right", 21),
        ("advance_left", 21),
        ("close",),
    ]
    events = EventSpace({f"{p}{i}": 0.1 + 0.1 * i for p in "pn" for i in range(5)})
    return prefix, suffix, events


def _apply(maintainer, operations, groups):
    results = []
    for op, *args in operations:
        out = getattr(
            maintainer,
            {"add_pos": "add_positive", "add_neg": "add_negative"}.get(op, op),
        )(*args)
        if op in ("advance_left", "advance_right", "close"):
            groups.extend(out)
        results.append(out)
    return results


@pytest.mark.parametrize(
    "layout",
    ("object", pytest.param("columnar", marks=pytest.mark.skipif(not HAS_NUMPY, reason="needs numpy"))),
)
def test_restore_rebuilds_the_index_from_either_layout(layout):
    theta = _theta("equi")
    prefix, suffix, events = _restore_scenario()

    straight = IncrementalWindowMaintainer(theta, events)
    straight_groups = []
    _apply(straight, prefix + suffix, straight_groups)

    original = maintainer_class(layout)(theta, events)
    groups = []
    _apply(original, prefix, groups)
    payload = pickle.loads(pickle.dumps(encode_maintainer(original)))

    restored = IncrementalWindowMaintainer(theta, events)
    restore_maintainer(restored, payload)
    affected, matched = _apply(restored, suffix[:2], groups)
    # The suffix reaches restored state through the rebuilt index.
    assert [entry.tuple.fact[1] for entry in affected] == ["p0", "p1"]
    assert [record.s.fact[1] for record in matched.matches] == ["n1"]
    _apply(restored, suffix[2:], groups)

    assert [_group_view(g) for g in groups] == [_group_view(g) for g in straight_groups]
    assert _window_rows(restored, groups) == _window_rows(straight, straight_groups)
    assert restored.stats == straight.stats
