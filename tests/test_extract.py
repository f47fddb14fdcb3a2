"""Entity tagging, candidate generation, impossible-filler filtering."""

import random

import pytest

from slotfill.corpus import make_document
from slotfill.extract import (
    Candidate,
    NESpan,
    candidates_for_slot,
    filter_impossible,
    location_granularity,
    split_contexts,
    tag_entities,
)
from slotfill.mentions import ChainMention, CorefChain, Mention, find_name_mentions
from slotfill.resources import default_gazetteers, default_slot_configs, default_validation


@pytest.fixture(scope="module")
def gaz():
    return default_gazetteers()


@pytest.fixture(scope="module")
def slots():
    return default_slot_configs()


@pytest.fixture(scope="module")
def validation():
    return default_validation()


def sent_of(text):
    return make_document("d1", "news", text).sentences[0]


class TestTagEntities:
    def test_gazetteer_membership(self, gaz):
        spans = tag_entities(sent_of("He moved to Munich yesterday."), gaz)
        assert any(s.ne_type == "GPE" and s.surface == "Munich" for s in spans)

    def test_date_with_comma(self, gaz):
        spans = tag_entities(sent_of("Born on March 4, 1988 in town."), gaz)
        dates = [s for s in spans if s.ne_type == "DATE"]
        assert len(dates) == 1
        assert dates[0].surface == "March 4 , 1988"

    def test_float_number(self, gaz):
        spans = tag_entities(sent_of("It grew 3.5 percent."), gaz)
        nums = [s for s in spans if s.ne_type == "NUMBER"]
        assert len(nums) == 1 and nums[0].surface == "3.5"

    def test_longest_match_wins(self, gaz):
        spans = tag_entities(sent_of("Steve Miller studied at the University of Munich."), gaz)
        orgs = [s for s in spans if s.ne_type == "ORG"]
        assert len(orgs) == 1 and orgs[0].surface == "University of Munich"
        # the inner "Munich" GPE is suppressed by the longer ORG span
        gpes = [s for s in spans if s.ne_type == "GPE"]
        assert gpes == []

    def test_date_shapes(self, gaz):
        for text, expected in [
            ("It was 1988-03-04 exactly.", "1988-03-04"),
            ("It was 03/04/1988 exactly.", "03/04/1988"),
            ("Back in 1988 already.", "1988"),
            ("By 4 March 1988 it ended.", "4 March 1988"),
        ]:
            spans = tag_entities(sent_of(text), gaz)
            dates = [s.surface for s in spans if s.ne_type == "DATE"]
            assert dates == [expected], text

    def test_deterministic(self, gaz):
        s = sent_of("Steve Miller met Maria Gomez in Munich on March 4, 1988.")
        assert tag_entities(s, gaz) == tag_entities(s, gaz)


class TestSplitContexts:
    def test_definitional(self):
        toks = ["a", "b", "E", "c", "d", "F", "g"]
        left, middle, right, ef = split_contexts(toks, (2, 3), (5, 6))
        assert left == ["a", "b"]
        assert middle == ["c", "d"]
        assert right == ["g"]
        assert ef is True

    def test_filler_before_entity(self):
        toks = ["F", "x", "E"]
        left, middle, right, ef = split_contexts(toks, (2, 3), (0, 1))
        assert (left, middle, right) == ([], ["x"], [])
        assert ef is False

    def test_adjacent_spans_empty_middle(self):
        toks = ["E", "F", "z"]
        left, middle, right, ef = split_contexts(toks, (0, 1), (1, 2))
        assert middle == []
        assert right == ["z"]

    def test_overlap_raises(self):
        with pytest.raises(ValueError):
            split_contexts(["a", "b", "c"], (0, 2), (1, 3))

    def test_partition_property_random(self):
        rng = random.Random(8)
        for _ in range(200):
            n = rng.randint(2, 12)
            toks = [f"t{i}" for i in range(n)]
            a = rng.randint(0, n - 2)
            b = rng.randint(a + 1, n - 1)
            c = rng.randint(b, n - 1)
            d = rng.randint(c + 1, n)
            if b > c:
                continue
            left, middle, right, _ = split_contexts(toks, (a, b), (c, d))
            assert len(left) + len(middle) + len(right) + (b - a) + (d - c) == n


class TestCandidatesForSlot:
    def test_gpe_slot(self, gaz, slots):
        doc = make_document("d1", "news", "Steve Miller was born in Munich.")
        ms = find_name_mentions(doc, ["Steve Miller"])
        spans = tag_entities(doc.sentences[0], gaz)
        cands = candidates_for_slot(doc, 0, ms, slots["per:city_of_birth"], spans)
        # the PER span "Steve Miller" is not a GPE filler; only Munich pairs
        assert len(cands) == 1
        c = cands[0]
        assert c.filler.surface == "Munich"
        assert c.middle == ("was", "born", "in")
        assert c.entity_first is True

    def test_string_list_slot(self, gaz, slots):
        doc = make_document("d1", "news", "Maria Gomez worked as a chef.")
        ms = find_name_mentions(doc, ["Maria Gomez"])
        spans = tag_entities(doc.sentences[0], gaz)
        cands = candidates_for_slot(doc, 0, ms, slots["per:title"], spans)
        assert len(cands) == 1
        assert cands[0].filler.surface == "chef"
        assert cands[0].filler.ne_type == "TITLE"

    def test_no_filler_typed_span(self, gaz, slots):
        doc = make_document("d1", "news", "Steve Miller said hello.")
        ms = find_name_mentions(doc, ["Steve Miller"])
        spans = tag_entities(doc.sentences[0], gaz)
        assert candidates_for_slot(doc, 0, ms, slots["per:city_of_birth"], spans) == []

    def test_pronoun_filler_via_chain(self, gaz, slots):
        doc = make_document("d1", "news",
                            "John Smith is here. He went to the University of Munich.")
        chain = CorefChain((
            ChainMention(0, 0, 2, "John Smith", "proper"),
            ChainMention(1, 0, 1, "He", "pronoun"),
        ))
        org_mentions = find_name_mentions(doc, ["University of Munich"])
        spans = tag_entities(doc.sentences[1], gaz)
        cands = candidates_for_slot(doc, 1, org_mentions, slots["org:students"],
                                    spans, chains=[chain])
        assert len(cands) == 1
        assert cands[0].filler.surface == "He"
        assert cands[0].canonical_filler == "John Smith"

    def test_unresolvable_pronoun_dropped(self, gaz, slots):
        doc = make_document("d1", "news",
                            "Things happened. He went to the University of Munich.")
        org_mentions = find_name_mentions(doc, ["University of Munich"])
        spans = tag_entities(doc.sentences[1], gaz)
        cands = candidates_for_slot(doc, 1, org_mentions, slots["org:students"],
                                    spans, chains=[])
        assert cands == []

    def test_order_independent(self, gaz, slots):
        doc = make_document("d1", "news", "Munich greeted Steve Miller and Garching.")
        ms = find_name_mentions(doc, ["Steve Miller"])
        spans = tag_entities(doc.sentences[0], gaz)
        a = candidates_for_slot(doc, 0, ms, slots["per:cities_of_residence"], spans)
        b = candidates_for_slot(doc, 0, list(reversed(ms)),
                                slots["per:cities_of_residence"], spans)
        assert {(c.filler.surface, c.entity_mention.span) for c in a} == \
            {(c.filler.surface, c.entity_mention.span) for c in b}


def make_candidate(entity_surface, filler_surface, filler_type):
    mention = Mention(0, 0, 1, entity_surface, "exact")
    span = NESpan(0, 2, 3, filler_type, filler_surface)
    return Candidate("d1", mention, span, (), ("x",), (), True, filler_surface)


class TestFilterImpossible:
    def test_float_employee_count(self, slots, validation):
        c = make_candidate("Acme", "3.5", "NUMBER")
        assert not filter_impossible(c, slots["org:number_of_employees_members"],
                                     validation)

    def test_age_out_of_range(self, slots, validation):
        c = make_candidate("Steve", "230", "NUMBER")
        assert not filter_impossible(c, slots["per:age"], validation)

    def test_valid_age(self, slots, validation):
        c = make_candidate("Steve", "34", "NUMBER")
        assert filter_impossible(c, slots["per:age"], validation)

    def test_unparseable_date(self, slots, validation):
        c = make_candidate("Steve", "June 99 , 1985", "DATE")
        assert not filter_impossible(c, slots["per:date_of_birth"], validation)

    def test_filler_equal_to_entity(self, slots, validation):
        c = make_candidate("John Smith", "John Smith", "PER")
        c = Candidate("d1",
                      Mention(0, 0, 2, "John Smith", "exact"),
                      NESpan(0, 5, 7, "PER", "john smith"), (), ("and",), (),
                      True, "john smith")
        assert not filter_impossible(c, slots["per:spouse"], validation)


class TestSlotTable:
    def test_classifier_less_is_exactly_seven(self, slots):
        classifier_less = {s for s, c in slots.items() if c.classifier_less}
        assert classifier_less == {
            "per:charges", "per:other_family", "per:religion",
            "org:date_dissolved", "org:number_of_employees_members",
            "org:political_religious_affiliation", "org:shareholders",
        }

    def test_single_valued_have_top1(self, slots):
        for cfg in slots.values():
            if cfg.single_valued:
                assert cfg.top_n == 1

    def test_canonical_slots_resolve(self, slots):
        for cfg in slots.values():
            assert cfg.canonical_slot in slots
            assert slots[cfg.canonical_slot].canonical_slot == cfg.canonical_slot

    def test_location_granularity(self):
        assert location_granularity("per:city_of_birth") == "city"
        assert location_granularity("per:statesorprovinces_of_residence") == "stateorprovince"
        assert location_granularity("org:country_of_headquarters") == "country"
        assert location_granularity("per:location_of_birth") == "any"
        assert location_granularity("per:age") is None
