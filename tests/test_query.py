"""Alias cleaning, edit distance, IR-alias selection, entity linking."""

import random
from collections import Counter

import pytest

from slotfill.query import (
    KBEntry,
    SlotQuery,
    clean_aliases,
    document_matches_entity,
    kb_idf,
    kb_name_candidates,
    levenshtein,
    link_entity,
    load_kb,
    select_ir_alias,
    term_bag,
    tfidf_cosine,
)


def dp_reference_distance(a: str, b: str) -> int:
    """Independent full-matrix DP oracle."""
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[m][n]


class TestCleanAliases:
    def test_org_suffix_expansion(self):
        out = clean_aliases("Apple", [], "ORG")
        assert "Apple Corp" in out
        assert "Apple Co" in out
        assert "Apple Inc" in out

    def test_short_alias_dropped(self):
        assert clean_aliases("Xerox", [("X", "ORG")], "ORG")[:1] != ["X"]
        assert "X" not in clean_aliases("Xerox", [("X", "ORG")], "ORG")

    def test_conflicting_type_dropped(self):
        out = clean_aliases("John Smith", [("Smithville", "GPE")], "PER")
        assert "Smithville" not in out

    def test_untyped_alias_kept(self):
        out = clean_aliases("John Smith", [("Johnny Smith", "")], "PER")
        assert "Johnny Smith" in out

    def test_nickname_expansion_of_first_name(self):
        nicks = {"robert": ["Bob", "Rob"]}
        out = clean_aliases("Robert Smith", [], "PER", nicknames=nicks)
        assert "Bob Smith" in out and "Rob Smith" in out

    def test_deduplication(self):
        out = clean_aliases("Apple", [("Apple Inc", "ORG")], "ORG")
        assert out.count("Apple Inc") == 1


class TestLevenshtein:
    def test_kitten_sitting(self):
        assert levenshtein("kitten", "sitting") == 3
        assert dp_reference_distance("kitten", "sitting") == 3

    def test_identity(self):
        for x in ["", "a", "abc", "same string"]:
            assert levenshtein(x, x) == 0

    def test_empty_side(self):
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3

    def test_matches_dp_oracle_random(self):
        rng = random.Random(5)
        alphabet = "abcde"
        for _ in range(200):
            a = "".join(rng.choices(alphabet, k=rng.randint(0, 12)))
            b = "".join(rng.choices(alphabet, k=rng.randint(0, 12)))
            assert levenshtein(a, b) == dp_reference_distance(a, b)

    def test_metric_laws_random(self):
        rng = random.Random(9)
        alphabet = "abcd"
        for _ in range(300):
            x, y, z = ("".join(rng.choices(alphabet, k=rng.randint(0, 10)))
                       for _ in range(3))
            dxy = levenshtein(x, y)
            assert dxy >= 0
            assert (dxy == 0) == (x == y)
            assert dxy == levenshtein(y, x)
            assert dxy <= levenshtein(x, z) + levenshtein(z, y)


class TestSelectIrAlias:
    def test_picks_lowest_distance(self):
        got = select_ir_alias("Barack Obama", ["Barak Obama", "President Obama"])
        assert got == "Barak Obama"

    def test_empty_list(self):
        assert select_ir_alias("Name", []) is None

    def test_tie_lexicographic(self):
        # both at distance 1 from "abc"
        assert select_ir_alias("abc", ["abd", "abb"]) == "abb"

    def test_name_itself_excluded(self):
        assert select_ir_alias("abc", ["abc"]) is None
        assert select_ir_alias("abc", ["abc", "abd"]) == "abd"

    def test_output_distance_minimal(self):
        aliases = ["alpha", "alphq", "beta", "alpa"]
        best = select_ir_alias("alpha", aliases)
        d_best = levenshtein("alpha", best)
        for a in aliases:
            if a != "alpha":
                assert d_best <= levenshtein("alpha", a)


def make_kb():
    return [
        KBEntry("e_company", "Apple", ["Apple Inc"],
                term_bag("iphone ceo cupertino technology company")),
        KBEntry("e_fruit", "Apple", [],
                term_bag("fruit orchard tree harvest sweet")),
        KBEntry("e_other", "Orange", [], term_bag("telecom operator france")),
    ]


def link(query, kb, context=None):
    """The linked entry's id, from the query name's candidates and the
    KB's idf computed for this one call."""
    target = link_entity(kb_name_candidates(query.entity_name, kb),
                         kb_idf(kb), context)
    return None if target is None else target.entity_id


def gate(context, target, kb, name):
    return document_matches_entity(context, target,
                                   kb_name_candidates(name, kb), kb_idf(kb))


class TestLinkEntity:
    def test_unique_name_match(self):
        q = SlotQuery("q1", "Orange", "ORG", "org:city_of_headquarters")
        assert link(q, make_kb()) == "e_other"

    def test_context_disambiguates(self):
        q = SlotQuery("q1", "Apple", "ORG", "org:city_of_headquarters")
        ctx = term_bag("iphone ceo announcement")
        assert link(q, make_kb(), ctx) == "e_company"
        ctx2 = term_bag("orchard fruit harvest")
        assert link(q, make_kb(), ctx2) == "e_fruit"

    def test_no_match_returns_none(self):
        q = SlotQuery("q1", "Missing Name", "PER", "per:age")
        assert link(q, make_kb()) is None

    def test_cosine_hand_computed(self):
        # two single-term bags sharing one term: cosine reduces to
        # (w^2 * tf_a * tf_b) / (|a| * |b|) over the shared term alone
        idf = {"x": 2.0, "y": 3.0}
        a = Counter({"x": 1, "y": 1})
        b = Counter({"x": 1})
        num = (1 * 2.0) * (1 * 2.0)
        na = ((1 * 2.0) ** 2 + (1 * 3.0) ** 2) ** 0.5
        nb = 2.0
        assert tfidf_cosine(a, b, idf) == pytest.approx(num / (na * nb), abs=1e-12)


class TestDocumentGate:
    def test_single_candidate_default_true(self):
        kb = make_kb()
        target = kb[2]
        assert gate(term_bag("anything"), target, kb, "Orange")

    def test_wrong_referent_dropped(self):
        kb = make_kb()
        target = kb[0]  # the company
        fruit_doc = term_bag("fruit orchard tree sweet harvest")
        assert not gate(fruit_doc, target, kb, "Apple")

    def test_right_referent_kept(self):
        kb = make_kb()
        target = kb[0]
        company_doc = term_bag("cupertino iphone technology")
        assert gate(company_doc, target, kb, "Apple")

    def test_ambiguous_fails_open(self):
        kb = make_kb()
        target = kb[0]
        neutral = term_bag("unrelated words entirely")
        assert gate(neutral, target, kb, "Apple")

    def test_entity_absent_from_kb_always_true(self):
        kb = make_kb()
        target = kb[0]
        assert gate(term_bag("fruit"), target, kb, "Nokia")

    def test_gate_never_adds_documents(self):
        # retained set is a subset of ungated set by construction: the gate is
        # a pure filter, checked here over a batch of random contexts
        kb = make_kb()
        target = kb[0]
        rng = random.Random(2)
        vocab = ["iphone", "fruit", "tree", "ceo", "random", "words"]
        docs = [term_bag(" ".join(rng.choices(vocab, k=5))) for _ in range(20)]
        kept = [d for d in docs if gate(d, target, kb, "Apple")]
        assert len(kept) <= len(docs)


class TestLoadKB:
    def test_bad_record_names_file_and_line(self, tmp_path):
        p = tmp_path / "kb.jsonl"
        p.write_text('{"id": "e1", "name": "Apple", "description": "fruit"}\n'
                     '{"id": "e2", "name": "Orange", "description": "tele\n')
        with pytest.raises(ValueError, match=r"kb\.jsonl: line 2: invalid "
                                             r"JSON \(Unterminated string"):
            load_kb(p)
        p.write_text('{"id": "e1", "description": "fruit"}\n')
        with pytest.raises(ValueError, match=r"kb\.jsonl: line 1: missing "
                                             r"field 'name'$"):
            load_kb(p)

    @pytest.mark.parametrize("field,value,want", [
        ("aliases", '"Apple Inc"', "a list of strings"),
        ("aliases", '["Apple Inc", null]', "a list of strings"),
        ("name", "7", "a string"),
        ("id", "null", "a string"),
        ("description", '["fruit"]', "a string"),
    ])
    def test_bad_value_names_file_line_and_field(self, tmp_path, field,
                                                 value, want):
        good = {"id": '"e1"', "name": '"Apple"', "aliases": "[]",
                "description": '"fruit tree"'}
        bad = {**good, field: value}
        p = tmp_path / "kb.jsonl"
        p.write_text("".join(
            "{" + ", ".join(f'"{k}": {v}' for k, v in rec.items()) + "}\n"
            for rec in (good, bad)))
        with pytest.raises(ValueError, match=(
                rf"kb\.jsonl: line 2: field '{field}' must be {want}, got ")):
            load_kb(p)
