"""Inverted-index document retrieval with BM25 ranking.

Three query forms are supported for an entity: AND over the name terms, AND
over the single IR-alias terms, and OR over the name terms.  Geo-political
entities use only the AND forms.  At most 100 documents are returned per
entity.
"""

from __future__ import annotations

import math
import string
from collections import Counter
from typing import NamedTuple

from .corpus import DocumentStore, tokenize

BM25_K1 = 1.2
BM25_B = 0.75
MAX_DOCS_PER_ENTITY = 100

_PUNCT = string.punctuation


def text_terms(text: str) -> list[str]:
    """Lowercased index terms of a piece of text (punctuation-only dropped)."""
    return [w.lower() for w in tokenize(text) if w.strip(_PUNCT)]


class InvertedIndex:
    def __init__(self):
        # term -> {doc_id: tf}, doc ids inserted in sorted order
        self.postings: dict[str, dict[str, int]] = {}
        self.doc_lengths: dict[str, int] = {}
        self.avg_doc_length = 0.0

    @property
    def doc_count(self) -> int:
        return len(self.doc_lengths)

    def doc_ids_for(self, term: str) -> list[str]:
        return list(self.postings.get(term, ()))


class RetrievalResult(NamedTuple):
    doc_id: str
    score: float


def build_index(store: DocumentStore) -> InvertedIndex:
    """Index every token of every sentence, lowercased; punctuation-only
    tokens are skipped."""
    index = InvertedIndex()
    counts: dict[str, Counter] = {}
    for doc in store:
        c = Counter()
        for sent in doc.sentences:
            c.update(sent.lower)
        counts[doc.id] = c
        index.doc_lengths[doc.id] = c.total()
    for doc_id in sorted(counts):
        for term, tf in counts[doc_id].items():
            index.postings.setdefault(term, {})[doc_id] = tf
    for term in [t for t in index.postings if not t.strip(_PUNCT)]:
        for doc_id, tf in index.postings.pop(term).items():
            index.doc_lengths[doc_id] -= tf
    if index.doc_lengths:
        index.avg_doc_length = (sum(index.doc_lengths.values())
                                / len(index.doc_lengths))
    return index


def bm25_score(index: InvertedIndex, terms: list[str], doc_id: str) -> float:
    """Okapi BM25 with the nonnegative (+1 inside the log) idf variant,
    summed over the distinct terms in query order, so the float sum does not
    depend on the hash seed."""
    n = index.doc_count
    avgdl = index.avg_doc_length
    dl = index.doc_lengths.get(doc_id, 0)
    score = 0.0
    for term in dict.fromkeys(terms):
        posting = index.postings.get(term, {})
        tf = posting.get(doc_id, 0)
        if tf == 0:
            continue
        df = len(posting)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * dl / avgdl) if avgdl else BM25_K1
        score += idf * tf * (BM25_K1 + 1.0) / (tf + norm)
    return score


def _ranked(index: InvertedIndex, doc_ids: set[str],
            terms: list[str]) -> list[RetrievalResult]:
    results = [RetrievalResult(d, bm25_score(index, terms, d)) for d in doc_ids]
    results.sort(key=lambda r: (-r.score, r.doc_id))
    return results


def query_and(index: InvertedIndex, terms: list[str]) -> list[RetrievalResult]:
    """Documents containing ALL terms, BM25-ranked (ties by doc id)."""
    if not terms:
        raise ValueError("terms must be nonempty")
    terms = [t.lower() for t in terms]
    doc_sets = [set(index.doc_ids_for(t)) for t in set(terms)]
    hits = set.intersection(*doc_sets) if doc_sets else set()
    return _ranked(index, hits, terms)


def query_or(index: InvertedIndex, terms: list[str]) -> list[RetrievalResult]:
    """Documents containing ANY term, BM25-ranked (ties by doc id)."""
    if not terms:
        raise ValueError("terms must be nonempty")
    terms = [t.lower() for t in terms]
    hits = set()
    for t in set(terms):
        hits.update(index.doc_ids_for(t))
    return _ranked(index, hits, terms)


def retrieve_for_entity(index: InvertedIndex, name: str,
                        ir_alias: str | None = None,
                        entity_type: str = "PER") -> list[str]:
    """Union of the three query forms (and_name > and_alias > or_name),
    deduplicated and capped at ``MAX_DOCS_PER_ENTITY``.  GPE entities skip
    the OR query."""
    if not name:
        raise ValueError("entity name must be nonempty")
    name_terms = text_terms(name)
    if not name_terms:
        return []

    tiers: list[list[RetrievalResult]] = [query_and(index, name_terms)]
    if ir_alias:
        alias_terms = text_terms(ir_alias)
        if alias_terms:
            tiers.append(query_and(index, alias_terms))
    if entity_type != "GPE":
        tiers.append(query_or(index, name_terms))

    out: list[str] = []
    seen = set()
    for tier in tiers:
        for r in tier:
            if r.doc_id not in seen:
                seen.add(r.doc_id)
                out.append(r.doc_id)
                if len(out) >= MAX_DOCS_PER_ENTITY:
                    return out
    return out

