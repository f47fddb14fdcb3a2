"""Inverted index and BM25 retrieval against brute-force oracles."""

import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import slotfill
from slotfill.corpus import DocumentStore, make_document
from slotfill.retrieval import (
    BM25_B,
    BM25_K1,
    build_index,
    query_and,
    query_or,
    retrieve_for_entity,
    text_terms,
)


def store_from(texts: dict[str, str]) -> DocumentStore:
    return DocumentStore([make_document(d, "news", t) for d, t in texts.items()])


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


def random_corpus(rng: random.Random, n_docs: int) -> dict[str, str]:
    vocab = [f"w{i}" for i in range(30)]
    return {
        f"d{i:04d}": " ".join(rng.choices(vocab, k=rng.randint(1, 15)))
        for i in range(n_docs)
    }


class TestBuildIndex:
    def test_two_doc_postings(self):
        store = store_from({"d1": "Barack Obama", "d2": "Obama speech"})
        index = build_index(store)
        assert index.doc_ids_for("obama") == ["d1", "d2"]
        assert index.doc_ids_for("barack") == ["d1"]

    def test_empty_store(self):
        index = build_index(DocumentStore())
        assert index.doc_count == 0
        assert index.postings == {}

    def test_punctuation_only_tokens_skipped(self):
        store = store_from({"d1": "hello , world ."})
        index = build_index(store)
        assert "," not in index.postings
        assert index.doc_lengths["d1"] == 2

    def test_postings_match_brute_force_scan(self):
        rng = random.Random(7)
        texts = random_corpus(rng, 50)
        index = build_index(store_from(texts))
        for term in list(index.postings)[:10]:
            expected = {d for d, t in texts.items() if term in text_terms(t)}
            assert set(index.doc_ids_for(term)) == expected


class TestQueries:
    def test_and_intersection(self):
        index = build_index(store_from({"d1": "Barack Obama", "d2": "Obama speech"}))
        assert [r.doc_id for r in query_and(index, ["barack", "obama"])] == ["d1"]

    def test_and_missing_term_empty(self):
        index = build_index(store_from({"d1": "Barack Obama"}))
        assert query_and(index, ["barack", "zzz"]) == []

    def test_or_all_terms_absent(self):
        index = build_index(store_from({"d1": "Barack Obama"}))
        assert query_or(index, ["xx", "yy"]) == []

    def test_or_hand_computed_bm25(self):
        # independent arithmetic: N=2, len(d1)=len(d2)=2, avgdl=2
        index = build_index(store_from({"d1": "Barack Obama", "d2": "Obama speech"}))
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
        index = build_index(store_from({"d1": "alpha beta", "d2": "beta gamma"}))
        a = [(r.doc_id, r.score) for r in query_and(index, ["beta"])]
        o = [(r.doc_id, r.score) for r in query_or(index, ["beta"])]
        assert a == o

    def test_and_subset_of_or_random(self):
        rng = random.Random(3)
        texts = random_corpus(rng, 80)
        index = build_index(store_from(texts))
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
        index_a = build_index(store_from(dict(items)))
        index_b = build_index(store_from(dict(reversed(items))))
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
        index = build_index(store_from(texts))
        for _ in range(30):
            terms = rng.choices([f"W{i}" for i in range(32)],
                                k=rng.randint(1, 4))
            for query, mode in ((query_and, "and"), (query_or, "or")):
                got = [(r.doc_id, r.score) for r in query(index, terms)]
                assert got == oracle_ranking(texts, terms, mode)

    def test_empty_store(self):
        index = build_index(DocumentStore())
        assert index.avg_doc_length == 0.0
        for query, mode in ((query_and, "and"), (query_or, "or")):
            assert query(index, ["w0", "w1"]) == []
            assert oracle_ranking({}, ["w0", "w1"], mode) == []


# every document's score for 200 four-term queries over 300 documents
_SCORES_SCRIPT = """
import hashlib, random
from slotfill.retrieval import bm25_score, build_index
from test_retrieval import random_corpus, store_from
rng = random.Random(5)
index = build_index(store_from(random_corpus(rng, 300)))
digest = hashlib.sha256()
for _ in range(200):
    terms = rng.choices([f"w{i}" for i in range(30)], k=4)
    for doc_id in sorted(index.doc_lengths):
        digest.update(bm25_score(index, terms, doc_id).hex().encode())
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
        index = build_index(store_from(texts))
        got = retrieve_for_entity(index, "New York", entity_type="GPE")
        assert got == ["d1"]  # d2 matches OR but not AND

    def test_cap_at_100(self):
        texts = {f"d{i:03d}": "acme corp news" for i in range(150)}
        index = build_index(store_from(texts))
        got = retrieve_for_entity(index, "Acme Corp", entity_type="ORG")
        assert len(got) == 100

    def test_dedup_prefers_and_tier(self):
        texts = {"d1": "barack obama spoke", "d2": "obama replied"}
        index = build_index(store_from(texts))
        got = retrieve_for_entity(index, "Barack Obama", entity_type="PER")
        assert got.count("d1") == 1
        assert set(got) == {"d1", "d2"}
        assert got[0] == "d1"

    def test_alias_tier_included(self):
        texts = {"d1": "barack obama", "d2": "barak obama wrote"}
        index = build_index(store_from(texts))
        got = retrieve_for_entity(index, "Barack Obama", ir_alias="Barak Obama",
                                  entity_type="GPE")
        assert set(got) == {"d1", "d2"}

    def test_no_results(self):
        index = build_index(store_from({"d1": "alpha"}))
        assert retrieve_for_entity(index, "missing name") == []

