"""Inverted index and BM25 retrieval against brute-force oracles."""

import gc
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import slotfill
from slotfill.corpus import DocumentStore
from slotfill.retrieval import (
    BM25_B,
    BM25_K1,
    MAX_DOCS_PER_ENTITY,
    build_index,
    query_and,
    query_or,
    retrieve_for_entity,
    text_terms,
)

from helpers import news_store


def brute_force_docs(texts: dict[str, str], terms: list[str], mode: str) -> set[str]:
    """Linear-scan oracle: which documents contain all/any of the terms."""
    terms = [t.lower() for t in terms]
    hits = set()
    for doc_id, text in texts.items():
        doc_terms = set(text_terms(text))
        ok = all(t in doc_terms for t in terms) if mode == "and" else \
            any(t in doc_terms for t in terms)
        if ok:
            hits.add(doc_id)
    return hits


def term_docs(index, term: str) -> list[tuple[str, int]]:
    """``(doc_id, tf)`` of each document holding ``term``, read from the
    index's columns."""
    t = index.postings.get(term)
    if t is None:
        return []
    lo, hi = index.starts[t], index.starts[t + 1]
    return [(index.doc_ids[d], tf)
            for d, tf in zip(index.docs[lo:hi], index.tfs[lo:hi])]


def doc_ids_for(index, term: str) -> list[str]:
    return [doc_id for doc_id, _ in term_docs(index, term)]


def doc_length(index, doc_id: str) -> int:
    """The summed term frequencies of a document."""
    return sum(tf for term in index.postings
               for d, tf in term_docs(index, term) if d == doc_id)


def random_corpus(rng: random.Random, n_docs: int) -> dict[str, str]:
    vocab = [f"w{i}" for i in range(30)]
    return {
        f"d{i:04d}": " ".join(rng.choices(vocab, k=rng.randint(1, 15)))
        for i in range(n_docs)
    }


class TestBuildIndex:
    def test_two_doc_postings(self):
        store = news_store({"d1": "Barack Obama", "d2": "Obama speech"})
        index = build_index(store)
        assert doc_ids_for(index, "obama") == ["d1", "d2"]
        assert doc_ids_for(index, "barack") == ["d1"]

    def test_empty_store(self):
        index = build_index(DocumentStore())
        assert index.doc_ids == []
        assert index.postings == {}

    def test_punctuation_only_tokens_skipped(self):
        store = news_store({"d1": "hello , world ."})
        index = build_index(store)
        assert "," not in index.postings
        assert doc_length(index, "d1") == 2

    def test_postings_match_brute_force_scan(self):
        rng = random.Random(7)
        texts = random_corpus(rng, 50)
        index = build_index(news_store(texts))
        for term in list(index.postings)[:10]:
            expected = {d for d, t in texts.items() if term in text_terms(t)}
            assert set(doc_ids_for(index, term)) == expected

    def test_build_peak_within_half_again_the_index(self):
        # a build that keeps a count per document peaks near twice the index
        rng = random.Random(13)
        vocab = [f"w{i}" for i in range(3000)]
        weights = [1.0 / (i + 1) for i in range(len(vocab))]
        store = news_store({
            f"d{i:05d}": " ".join(rng.choices(vocab, weights, k=20)) + " ."
            for i in range(3000)})
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            index = build_index(store)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(index.postings) > 1000
        assert peak - base <= 1.5 * (held - base)


class TestQueries:
    def test_and_intersection(self):
        index = build_index(news_store({"d1": "Barack Obama", "d2": "Obama speech"}))
        assert [r.doc_id for r in query_and(index, ["barack", "obama"])] == ["d1"]

    def test_and_missing_term_empty(self):
        index = build_index(news_store({"d1": "Barack Obama"}))
        assert query_and(index, ["barack", "zzz"]) == []

    def test_or_all_terms_absent(self):
        index = build_index(news_store({"d1": "Barack Obama"}))
        assert query_or(index, ["xx", "yy"]) == []

    def test_or_hand_computed_bm25(self):
        # independent arithmetic: N=2, len(d1)=len(d2)=2, avgdl=2
        index = build_index(news_store({"d1": "Barack Obama", "d2": "Obama speech"}))
        res = query_or(index, ["barack", "obama"])
        assert [r.doc_id for r in res] == ["d1", "d2"]

        def idf(df, n=2):
            return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

        norm = BM25_K1 * (1 - BM25_B + BM25_B * 2 / 2)
        tf_part = 1 * (BM25_K1 + 1) / (1 + norm)
        expected_d1 = (idf(1) + idf(2)) * tf_part
        expected_d2 = idf(2) * tf_part
        assert res[0].score == pytest.approx(expected_d1, abs=1e-12)
        assert res[1].score == pytest.approx(expected_d2, abs=1e-12)

    def test_single_term_and_equals_or(self):
        index = build_index(news_store({"d1": "alpha beta", "d2": "beta gamma"}))
        a = [(r.doc_id, r.score) for r in query_and(index, ["beta"])]
        o = [(r.doc_id, r.score) for r in query_or(index, ["beta"])]
        assert a == o

    def test_and_subset_of_or_random(self):
        rng = random.Random(3)
        texts = random_corpus(rng, 80)
        index = build_index(news_store(texts))
        for _ in range(20):
            terms = rng.sample([f"w{i}" for i in range(30)], k=rng.randint(1, 3))
            and_ids = {r.doc_id for r in query_and(index, terms)}
            or_ids = {r.doc_id for r in query_or(index, terms)}
            assert and_ids <= or_ids
            assert and_ids == brute_force_docs(texts, terms, "and")
            assert or_ids == brute_force_docs(texts, terms, "or")

    def test_scores_nonnegative_and_order_invariant(self):
        rng = random.Random(11)
        texts = random_corpus(rng, 40)
        items = list(texts.items())
        index_a = build_index(news_store(dict(items)))
        index_b = build_index(news_store(dict(reversed(items))))
        res_a = query_or(index_a, ["w0", "w1"])
        res_b = query_or(index_b, ["w0", "w1"])
        assert [(r.doc_id, r.score) for r in res_a] == \
            [(r.doc_id, r.score) for r in res_b]
        assert all(r.score >= 0 for r in res_a)


def oracle_ranking(texts: dict[str, str], terms: list[str],
                   mode: str) -> list[tuple[str, float]]:
    """BM25 from the texts alone: tf by counting, avgdl over all docs."""
    terms = [t.lower() for t in terms]
    counts = {d: Counter(text_terms(t)) for d, t in texts.items()}
    n = len(counts)
    avgdl = sum(sum(c.values()) for c in counts.values()) / n if n else 0.0
    out = []
    for doc_id in brute_force_docs(texts, terms, mode):
        dl = sum(counts[doc_id].values())
        score = 0.0
        for term in dict.fromkeys(terms):
            tf = counts[doc_id][term]
            if tf == 0:
                continue
            df = sum(1 for c in counts.values() if term in c)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            norm = BM25_K1 * (1.0 - BM25_B + BM25_B * dl / avgdl) \
                if avgdl else BM25_K1
            score += idf * tf * (BM25_K1 + 1.0) / (tf + norm)
        out.append((doc_id, score))
    return sorted(out, key=lambda p: (-p[1], p[0]))


class TestBM25Oracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_queries_bit_equal_to_counting_oracle(self, seed):
        rng = random.Random(seed)
        texts = random_corpus(rng, rng.randint(1, 120))
        index = build_index(news_store(texts))
        for _ in range(30):
            terms = rng.choices([f"W{i}" for i in range(32)],
                                k=rng.randint(1, 4))
            for query, mode in ((query_and, "and"), (query_or, "or")):
                got = [(r.doc_id, r.score) for r in query(index, terms)]
                assert got == oracle_ranking(texts, terms, mode)

    def test_empty_store(self):
        index = build_index(DocumentStore())
        assert len(index.norms) == 0
        for query, mode in ((query_and, "and"), (query_or, "or")):
            assert query(index, ["w0", "w1"]) == []
            assert oracle_ranking({}, ["w0", "w1"], mode) == []


def oracle_retrieve(texts: dict[str, str], name: str, ir_alias: str | None,
                    entity_type: str) -> list[str]:
    """The three tiers of ``retrieve_for_entity`` from the counting oracle."""
    name_terms = text_terms(name)
    if not name_terms:
        return []
    tiers = [oracle_ranking(texts, name_terms, "and")]
    if ir_alias and text_terms(ir_alias):
        tiers.append(oracle_ranking(texts, text_terms(ir_alias), "and"))
    if entity_type != "GPE":
        tiers.append(oracle_ranking(texts, name_terms, "or"))
    ranked = dict.fromkeys(doc_id for tier in tiers for doc_id, _ in tier)
    return list(ranked)[:MAX_DOCS_PER_ENTITY]


VOCAB = ["alpha", "Beta", "gamma", "delta", "eps"]
PUNCT_TOKENS = [",", ".", "--", "!", "?", ";"]
# documents of words and punctuation-only tokens, empty ones included,
# stored in the order drawn rather than in id order
property_corpora = st.dictionaries(
    st.text(alphabet="dx07", min_size=1, max_size=3),
    st.lists(st.sampled_from(VOCAB + PUNCT_TOKENS), max_size=12).map(" ".join),
    max_size=12)
# repeated terms, other cases, a term no document holds and a
# punctuation-only term
property_terms = st.lists(
    st.sampled_from(VOCAB + ["ALPHA", "beta", "absent", ","]),
    min_size=1, max_size=5)


def exact(pairs) -> list[tuple[str, str]]:
    return [(doc_id, score.hex()) for doc_id, score in pairs]


class TestIndexProperties:
    @given(property_corpora, property_terms)
    def test_queries_bit_equal_to_counting_oracle(self, texts, terms):
        index = build_index(news_store(texts))
        for query, mode in ((query_and, "and"), (query_or, "or")):
            assert exact(query(index, terms)) == \
                exact(oracle_ranking(texts, terms, mode))

    @given(property_corpora, property_terms, property_terms,
           st.sampled_from(["PER", "ORG", "GPE"]))
    def test_retrieve_for_entity_equals_oracle(self, texts, name, alias,
                                               entity_type):
        index = build_index(news_store(texts))
        name, alias = " ".join(name), " ".join(alias)
        assert retrieve_for_entity(index, name, alias, entity_type) == \
            oracle_retrieve(texts, name, alias, entity_type)


# every scored document of 200 four-term OR queries over 300 documents
_SCORES_SCRIPT = """
import hashlib, random
from slotfill.retrieval import build_index, query_or
from helpers import news_store
from test_retrieval import random_corpus
rng = random.Random(5)
index = build_index(news_store(random_corpus(rng, 300)))
digest = hashlib.sha256()
for _ in range(200):
    terms = rng.choices([f"w{i}" for i in range(30)], k=4)
    for r in query_or(index, terms):
        digest.update(f"{r.doc_id} {r.score.hex()}".encode())
print(digest.hexdigest())
"""


def test_scores_independent_of_hash_seed():
    path = os.pathsep.join((str(Path(slotfill.__file__).parents[1]),
                            str(Path(__file__).parent)))
    digests = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        digests.add(subprocess.run(
            [sys.executable, "-c", _SCORES_SCRIPT], env=env, check=True,
            capture_output=True, text=True).stdout)
    assert len(digests) == 1


class TestRetrieveForEntity:
    def test_gpe_uses_and_only(self):
        texts = {"d1": "new york city hall", "d2": "york minster"}
        index = build_index(news_store(texts))
        got = retrieve_for_entity(index, "New York", entity_type="GPE")
        assert got == ["d1"]  # d2 matches OR but not AND

    def test_cap_at_100(self):
        texts = {f"d{i:03d}": "acme corp news" for i in range(150)}
        index = build_index(news_store(texts))
        got = retrieve_for_entity(index, "Acme Corp", entity_type="ORG")
        assert len(got) == 100

    def test_dedup_prefers_and_tier(self):
        texts = {"d1": "barack obama spoke", "d2": "obama replied"}
        index = build_index(news_store(texts))
        got = retrieve_for_entity(index, "Barack Obama", entity_type="PER")
        assert got.count("d1") == 1
        assert set(got) == {"d1", "d2"}
        assert got[0] == "d1"

    def test_alias_tier_included(self):
        texts = {"d1": "barack obama", "d2": "barak obama wrote"}
        index = build_index(news_store(texts))
        got = retrieve_for_entity(index, "Barack Obama", ir_alias="Barak Obama",
                                  entity_type="GPE")
        assert set(got) == {"d1", "d2"}

    def test_no_results(self):
        index = build_index(news_store({"d1": "alpha"}))
        assert retrieve_for_entity(index, "missing name") == []

