"""Tests for the overlapping-window computation (conventional outer join step)."""

from __future__ import annotations


from repro import Schema, TPRelation, equi_join_on
from repro.core import WindowClass, overlap_join, overlapping_windows
from repro.relation import PredicateCondition
from repro.temporal import Interval
from tests.conftest import make_random_relations


class TestPaperExample:
    def test_groups_follow_positive_relation_order(
        self, wants_to_visit, hotel_availability, loc_theta
    ):
        groups = overlap_join(wants_to_visit, hotel_availability, loc_theta)
        assert [group.r.fact for group in groups] == [("Ann", "ZAK"), ("Jim", "WEN")]

    def test_matches_are_sorted_by_overlap_start(
        self, wants_to_visit, hotel_availability, loc_theta
    ):
        groups = overlap_join(wants_to_visit, hotel_availability, loc_theta)
        ann = groups[0]
        assert [record.interval for record in ann.matches] == [Interval(4, 6), Interval(5, 8)]

    def test_fully_unmatched_tuple_has_no_matches_but_one_padded_record(
        self, wants_to_visit, hotel_availability, loc_theta
    ):
        groups = overlap_join(wants_to_visit, hotel_availability, loc_theta)
        jim = groups[1]
        assert jim.match_count() == 0
        records = jim.records()
        assert len(records) == 1
        assert records[0].is_unmatched
        assert records[0].interval == Interval(7, 10)

    def test_record_to_window_classes(self, wants_to_visit, hotel_availability, loc_theta):
        groups = overlap_join(wants_to_visit, hotel_availability, loc_theta)
        ann_window = groups[0].matches[0].to_window()
        assert ann_window.window_class is WindowClass.OVERLAPPING
        assert ann_window.source_interval == Interval(2, 8)
        jim_window = groups[1].records()[0].to_window()
        assert jim_window.window_class is WindowClass.UNMATCHED

    def test_overlapping_windows_helper(self, wants_to_visit, hotel_availability, loc_theta):
        windows = overlapping_windows(wants_to_visit, hotel_availability, loc_theta)
        assert {(w.fact_s, w.interval) for w in windows} == {
            (("hotel1", "ZAK"), Interval(4, 6)),
            (("hotel2", "ZAK"), Interval(5, 8)),
        }


class TestPairingStrategies:
    def test_equi_and_nested_loop_produce_identical_windows(self):
        # Both strategies probe bisection windows bounded by the longest
        # interval; an all-pairs comparison is the independent reference.
        general_theta = PredicateCondition(
            lambda left, right: left[0] == right[0], label="same key"
        )
        for seed in range(17, 23):
            positive, negative, equi_theta = make_random_relations(seed)
            from_hash = {
                (w.fact_r, w.fact_s, w.interval)
                for w in overlapping_windows(positive, negative, equi_theta)
            }
            from_loop = {
                (w.fact_r, w.fact_s, w.interval)
                for w in overlapping_windows(positive, negative, general_theta)
            }
            all_pairs = {
                (r.fact, s.fact, r.interval.intersect(s.interval))
                for r in positive
                for s in negative
                if r.fact[0] == s.fact[0] and r.interval.intersect(s.interval)
            }
            assert from_hash == from_loop == all_pairs

    def test_theta_that_never_matches_yields_only_unmatched_groups(self):
        positive, negative, _ = make_random_relations(3)
        never = PredicateCondition(lambda left, right: False, label="never")
        groups = overlap_join(positive, negative, never)
        assert all(group.match_count() == 0 for group in groups)

    def test_adjacent_intervals_do_not_overlap(self):
        left = TPRelation.from_rows(Schema.of("K"), [("k", "l1", 1, 4, 0.5)])
        right = TPRelation.from_rows(Schema.of("K"), [("k", "r1", 4, 7, 0.5)])
        theta = equi_join_on(left.schema, right.schema, [("K", "K")])
        assert overlapping_windows(left, right, theta) == []

    def test_empty_negative_relation(self, wants_to_visit):
        empty = TPRelation(Schema.of("Hotel", "Loc"), events=wants_to_visit.events)
        theta = equi_join_on(wants_to_visit.schema, empty.schema, [("Loc", "Loc")])
        groups = overlap_join(wants_to_visit, empty, theta)
        assert all(group.match_count() == 0 for group in groups)

    def test_empty_positive_relation(self, hotel_availability):
        empty = TPRelation(Schema.of("Name", "Loc"), events=hotel_availability.events)
        theta = equi_join_on(empty.schema, hotel_availability.schema, [("Loc", "Loc")])
        assert overlap_join(empty, hotel_availability, theta) == []
