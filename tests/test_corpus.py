"""Ingestion, genre preprocessing, sentence splitting, tokenization."""

import json

import pytest

from slotfill.corpus import (
    ingest_documents,
    make_document,
    normalize_case,
    split_sentences,
    strip_quote_spans,
    tokenize,
)


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


class TestIngest:
    def test_two_line_file(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [
            {"id": "d1", "genre": "news", "text": "Hello world."},
            {"id": "d2", "genre": "forum", "text": "post text"},
        ])
        store = ingest_documents(p)
        assert len(store) == 2
        assert store.get("d1").sentences[0].texts == ("Hello", "world", ".")
        assert store.get("d2").sentences[0].texts == ("post", "text")
        assert store.errors == []

    def test_empty_file(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text("")
        store = ingest_documents(p)
        assert len(store) == 0
        assert store.errors == []

    def test_malformed_line_reported_with_number(self, tmp_path):
        p = tmp_path / "c.jsonl"
        with open(p, "w") as fh:
            fh.write(json.dumps({"id": "d1", "genre": "news", "text": "a"}) + "\n")
            fh.write("{not json\n")
            fh.write(json.dumps({"id": "d3", "genre": "news", "text": "b"}) + "\n")
        store = ingest_documents(p)
        assert len(store) == 2
        assert len(store.errors) == 1
        assert "line 2" in store.errors[0]

    def test_duplicate_id_is_hard_error(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [
            {"id": "d1", "genre": "news", "text": "a"},
            {"id": "d1", "genre": "news", "text": "b"},
        ])
        with pytest.raises(ValueError, match="duplicate"):
            ingest_documents(p)

    def test_wrong_keys_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"id": "d1", "genre": "news", "text": "a", "extra": 1}])
        store = ingest_documents(p)
        assert len(store) == 0
        assert len(store.errors) == 1

    def test_bad_genre_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"id": "d1", "genre": "blog", "text": "a"}])
        store = ingest_documents(p)
        assert len(store) == 0 and len(store.errors) == 1


class TestQuoteStripping:
    def test_single_quote_span(self):
        clean, warnings = strip_quote_spans("A <quote>B</quote> C")
        assert clean == "A  C"
        assert warnings == []

    def test_nested_quotes(self):
        text = "x <quote>a <quote>b</quote> c</quote> y"
        clean, warnings = strip_quote_spans(text)
        assert clean == "x  y"
        assert warnings == []

    def test_unclosed_quote_drops_to_end(self):
        clean, warnings = strip_quote_spans("keep <quote>drop this")
        assert clean == "keep "
        assert len(warnings) == 1

    def test_news_passthrough_byte_identical(self):
        text = "A <quote>B</quote> C."
        doc = make_document("d", "news", text)
        assert [s.texts for s in doc.sentences] == [tuple(tokenize(text))]
        joined = " ".join(w for s in doc.sentences for w in s.texts)
        assert "quote" in joined  # tags survive as plain text in news


class TestCasing:
    def test_mixed_case_lowered(self):
        assert normalize_case("sErVice") == "service"

    def test_all_caps_kept(self):
        assert normalize_case("NASA") == "NASA"

    def test_capitalized_initial_kept(self):
        assert normalize_case("Service") == "Service"

    def test_dotted_acronym_kept(self):
        assert normalize_case("U.S.") == "U.S."

    def test_applied_only_to_forum(self):
        forum = make_document("d", "forum", "the sErVice failed")
        news = make_document("d", "news", "the sErVice failed")
        assert forum.sentences[0].texts[1] == "service"
        assert news.sentences[0].texts[1] == "sErVice"


class TestSentenceSplitting:
    def test_abbreviation_suppressed(self):
        spans = split_sentences("Dr. Smith arrived. He left.")
        assert len(spans) == 2

    def test_empty_text(self):
        assert split_sentences("") == []

    def test_forum_newline_break(self):
        spans = split_sentences("line one\nline two", genre="forum")
        assert len(spans) == 2

    def test_news_newline_not_a_break(self):
        spans = split_sentences("line one\nline two", genre="news")
        assert len(spans) == 1

    def test_question_and_exclamation(self):
        spans = split_sentences("Really? Yes! Fine.")
        assert len(spans) == 3

    def test_spans_cover_non_whitespace(self):
        text = "One two. Three four! Five?"
        spans = split_sentences(text)
        covered = set()
        for s, e in spans:
            covered.update(range(s, e))
        for i, ch in enumerate(text):
            if not ch.isspace():
                assert i in covered


class TestTokenize:
    def test_possessive_and_punct(self):
        assert tokenize("Obama's wife, Jane.") == \
            ["Obama", "'s", "wife", ",", "Jane", "."]

    def test_empty(self):
        assert tokenize("") == []

    def test_hyphenated_kept_whole(self):
        assert tokenize("U.S.-based") == ["U.S.-based"]

    def test_dotted_abbreviation_keeps_final_period(self):
        assert tokenize("the U.S.") == ["the", "U.S."]

    def test_leading_punct(self):
        assert tokenize('("hello")') == ["(", '"', "hello", '"', ")"]


class TestWordTable:
    def test_one_string_per_distinct_word(self, fixtures_dir):
        store = ingest_documents(fixtures_dir / "corpus.jsonl")
        tokens = [t for doc in store for s in doc.sentences
                  for t in s.texts + s.lower]
        assert len({id(t) for t in tokens}) == len(set(tokens)) < len(tokens)


class TestDocumentInvariants:
    def test_news_round_trip(self):
        text = "Dr. Smith arrived. He found Obama's notes,  then left."
        doc = make_document("d", "news", text)
        words = [w for s in doc.sentences for w in s.texts]
        assert "".join(words) == "".join(text.split())

    def test_sentence_indices_dense(self):
        doc = make_document("d", "news", "A b. C d. E f.")
        assert [s.index for s in doc.sentences] == [0, 1, 2]

    def test_quoted_text_absent_from_sentences(self):
        doc = make_document("d", "forum", "keep this <quote>drop that</quote> and this")
        words = [w for s in doc.sentences for w in s.texts]
        assert "drop" not in words and "that" not in words
