"""Thresholds, location disambiguation/inference, dates, ranking."""

import logging
from dataclasses import replace

import pytest

from slotfill.postprocess import (
    Answer,
    LocationMaps,
    disambiguate_location,
    effective_threshold,
    infer_locations,
    normalize_date,
    rank_and_truncate,
)
from slotfill.resources import default_location_maps, default_slot_configs

from helpers import DATE_RE

# surface -> expected normalization (None = unparseable); the expected values
# were written by hand from the format rules before wiring up the tests
DATE_ORACLE = [
    ("March 4, 1988", "1988-03-04"),
    ("March 4 , 1988", "1988-03-04"),
    ("4 March 1988", "1988-03-04"),
    ("1988-03-04", "1988-03-04"),
    ("03/04/1988", "1988-03-04"),
    ("3/4/1988", "1988-03-04"),
    ("1988", "1988-XX-XX"),
    ("March 1988", "1988-03-XX"),
    ("Mar 1988", "1988-03-XX"),
    ("Sept 4 1990", "1990-09-04"),
    ("December 31, 1999", "1999-12-31"),
    ("1 January 2000", "2000-01-01"),
    ("February 29, 2004", "2004-02-29"),
    ("July 4 1776", "1776-07-04"),
    ("12/31/1999", "1999-12-31"),
    ("2015-06-30", "2015-06-30"),
    ("May 1945", "1945-05-XX"),
    ("jan 2, 2010", "2010-01-02"),
    ("0450", None),           # year below range
    ("June 99 , 1985", None),  # impossible day
    ("13/01/1999", None),      # impossible month in MM/DD/YYYY
    ("1999-13-01", None),
    ("yesterday", None),
    ("March", None),
    ("4 March", None),
]

# edges of the one date rule, kept out of DATE_ORACLE, whose size the
# acceptance criterion fixes
DATE_EDGES = [
    ("June 0 1999", None),    # day 0
    ("0 May 1999", None),
    ("2000-00-10", None),     # month 0
    ("00/10/2000", None),
    ("May 0999", None),       # year below range
    ("MAY 5 2000", "2000-05-05"),
    ("5 may 2000", "2000-05-05"),
    ("February 30, 2001", None),  # days within 1-31 but off the calendar
    ("April 31 1999", None),
    ("February 29, 2001", None),
    ("2001-02-29", None),
    ("02/30/2001", None),
    ("31 June 2010", None),
    ("2000-02-29", "2000-02-29"),  # a leap day
]


class TestEffectiveThreshold:
    def test_hop1_adds_point_one(self):
        assert effective_threshold(0.30, 1) == pytest.approx(0.40)

    def test_high_precision_adds_point_two(self):
        assert effective_threshold(0.30, 0, 0.2) == pytest.approx(0.50)

    def test_cap_at_one(self):
        assert effective_threshold(0.95, 1, 0.2) == 1.0

    def test_adjustments_additive(self):
        assert effective_threshold(0.30, 1, 0.2) == pytest.approx(0.60)


@pytest.fixture(scope="module")
def maps():
    return default_location_maps()


class TestDisambiguation:
    def test_city(self, maps):
        assert disambiguate_location("Munich", maps) == "city"

    def test_country_precedence_over_state(self, maps):
        # "Georgia" is in both the country and state lists
        assert disambiguate_location("Georgia", maps) == "country"

    def test_unknown(self, maps):
        assert disambiguate_location("Xyzzy", maps) == "unknown"

    def test_case_insensitive(self, maps):
        assert disambiguate_location("mUnIcH", maps) == "city"


def answer(filler, score=0.9, doc_id="d1", slot="per:city_of_birth"):
    return Answer("q1", 0, slot, filler, doc_id, "d1:0", score)


class TestInference:
    def test_city_to_state(self, maps):
        got = infer_locations(answer("Munich"), "stateorprovince", maps)
        assert got.filler == "Bavaria"
        assert got.score == 0.9
        assert got.provenance == "d1:0"

    def test_state_to_country(self, maps):
        got = infer_locations(answer("Bavaria"), "country", maps)
        assert got.filler == "Germany"

    def test_city_to_country(self, maps):
        got = infer_locations(answer("Garching"), "country", maps)
        assert got.filler == "Germany"

    def test_missing_mapping(self, maps):
        assert infer_locations(answer("Xyzzy"), "country", maps) is None

    def test_inconsistent_mapping_rejected(self, caplog):
        with caplog.at_level(logging.WARNING):
            m = LocationMaps(
                city_to_state={"oddtown": "Bavaria"},
                city_to_country={"oddtown": "France"},
                state_to_country={"bavaria": "Germany"},
                cities={"oddtown"}, states={"bavaria"}, countries={"germany", "france"},
            )
        assert "oddtown" not in m.city_to_state
        assert "oddtown" not in m.city_to_country


class TestNormalizeDate:
    @pytest.mark.parametrize("surface,expected", DATE_ORACLE + DATE_EDGES)
    def test_oracle_table(self, surface, expected):
        assert normalize_date(surface) == expected

    def test_emitted_dates_match_format(self):
        for surface, expected in DATE_ORACLE:
            got = normalize_date(surface)
            if got is not None:
                assert DATE_RE.fullmatch(got), got


class TestRankAndTruncate:
    def test_single_valued_keeps_max(self):
        slots = default_slot_configs()
        answers = [answer("Munich", 0.9), answer("Berlin", 0.7), answer("Paris", 0.5)]
        out = rank_and_truncate(answers, slots["per:city_of_birth"])
        assert [a.filler for a in out] == ["Munich"]

    def test_list_valued_top_n(self):
        slots = default_slot_configs()
        answers = [answer("A", 0.9, slot="per:cities_of_residence"),
                   answer("B", 0.8, slot="per:cities_of_residence"),
                   answer("C", 0.7, slot="per:cities_of_residence")]
        cfg = slots["per:cities_of_residence"]
        out = rank_and_truncate(answers, cfg)
        assert [a.filler for a in out] == ["A", "B", "C"][:cfg.top_n]

    def test_tie_broken_by_doc_id(self):
        slots = default_slot_configs()
        answers = [answer("B", 0.8, doc_id="d2"), answer("A", 0.8, doc_id="d1")]
        out = rank_and_truncate(answers, slots["per:city_of_birth"])
        assert out[0].filler == "A"

    def test_duplicate_surface_collapsed_keeping_best(self):
        slots = default_slot_configs()
        cfg = slots["per:cities_of_residence"]
        answers = [answer("A", 0.9, doc_id="d2"), answer("A", 0.6, doc_id="d1"),
                   answer("B", 0.7)]
        out = rank_and_truncate(answers, cfg)
        fillers = [a.filler for a in out]
        assert fillers.count("A") == 1
        assert out[0].score == 0.9

    def test_case_variant_surfaces_collapsed(self):
        cfg = replace(default_slot_configs()["per:cities_of_residence"],
                      top_n=2)
        answers = [answer("PARIS", 0.6), answer("Paris", 0.9),
                   answer("Lyon", 0.5)]
        out = rank_and_truncate(answers, cfg)
        assert [(a.filler, a.score) for a in out] == [("Paris", 0.9),
                                                      ("Lyon", 0.5)]

    def test_scores_non_increasing(self):
        slots = default_slot_configs()
        cfg = slots["per:cities_of_residence"]
        answers = [answer(f"X{i}", s) for i, s in enumerate([0.1, 0.9, 0.5, 0.7])]
        out = rank_and_truncate(answers, cfg)
        scores = [a.score for a in out]
        assert scores == sorted(scores, reverse=True)
