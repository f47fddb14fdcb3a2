"""Inverted-index document retrieval with BM25 ranking.

Three query forms are supported for an entity: AND over the name terms, AND
over the single IR-alias terms, and OR over the name terms.  Geo-political
entities use only the AND forms.  At most 100 documents are returned per
entity.
"""

from __future__ import annotations

import math
import string
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter
from typing import NamedTuple

from .corpus import DocumentStore, tokenize

BM25_K1 = 1.2
BM25_B = 0.75
MAX_DOCS_PER_ENTITY = 100
# A score is Okapi BM25 with the nonnegative (+1 inside the log) idf,
# accumulated one term at a time over the distinct query terms in query
# order, so the float sum is the same under every hash seed.
_TF_SCALE = BM25_K1 + 1.0
# values of interleaved (doc, tf) rows that ``build_index`` gathers before
# splitting them into its two columns
_SPLIT_EVERY = 4096

_PUNCT = string.punctuation


def text_terms(text: str) -> list[str]:
    """Lowercased index terms of a piece of text (punctuation-only dropped)."""
    return [w.lower() for w in tokenize(text) if w.strip(_PUNCT)]


@dataclass(frozen=True)
class InvertedIndex:
    """Columnar postings.  Documents are numbered in sorted-id order:
    document d is ``doc_ids[d]`` and ``norms[d]`` is its BM25 length norm.
    ``postings`` maps each term to its term number t; t's documents are
    ``docs[starts[t]:starts[t + 1]]``, ascending, and their term
    frequencies sit at the same positions of ``tfs``."""
    doc_ids: list[str]
    norms: array
    postings: dict[str, int]
    starts: array
    docs: array
    tfs: array


class RetrievalResult(NamedTuple):
    doc_id: str
    score: float


def build_index(store: DocumentStore) -> InvertedIndex:
    """Index every token of every sentence, lowercased; punctuation-only
    tokens are skipped.

    One pass over the tokens of the documents in id order builds each
    term's row of interleaved ``(d, tf)`` pairs: a token of the document
    the row ends with adds one to its tf, any other token appends
    ``(d, 1)``.  The rows are then laid end to end in term order, each
    freed as it is copied, and split into ``docs`` and ``tfs`` every
    ``_SPLIT_EVERY`` values, so the build holds little more than the rows
    it frees and pays two slices per batch of terms, not per term."""
    ordered = sorted(store, key=attrgetter("id"))
    lengths = array("I")
    rows: dict[str, array] = {}
    row_of = rows.get
    for d, doc in enumerate(ordered):
        first = array("I", (d, 1))
        length = 0
        for sent in doc.sentences:
            length += len(sent.lower)
            for term in sent.lower:
                row = row_of(term)
                if row is None:
                    rows[term] = first[:]
                elif row[-2] == d:
                    row[-1] += 1
                else:
                    row += first
        lengths.append(length)
    for term in [t for t in rows if not t.strip(_PUNCT)]:
        row = rows.pop(term)
        for d, tf in zip(row[::2], row[1::2]):
            lengths[d] -= tf
    starts = array("I", (n // 2 for n in accumulate(map(len, rows.values()),
                                                    initial=0)))
    # ``rows`` becomes the postings: each row is freed as it is copied, its
    # value replaced by the term number
    postings = rows
    docs, tfs, pairs = array("I"), array("I"), array("I")
    for t, (term, row) in enumerate(rows.items()):
        postings[term] = t
        pairs += row
        if len(pairs) >= _SPLIT_EVERY:
            docs += pairs[::2]
            tfs += pairs[1::2]
            del pairs[:]
    docs += pairs[::2]
    tfs += pairs[1::2]
    avgdl = sum(lengths) / len(lengths) if lengths else 0.0
    norms = array("d", (BM25_K1 * (1.0 - BM25_B + BM25_B * dl / avgdl)
                        if avgdl else BM25_K1 for dl in lengths))
    return InvertedIndex([doc.id for doc in ordered], norms, postings,
                         starts, docs, tfs)


def _idf(index: InvertedIndex, df: int) -> float:
    n = len(index.doc_ids)
    return math.log(1.0 + (n - df + 0.5) / (df + 0.5))


def _ranked(index: InvertedIndex,
            scores: dict[int, float]) -> list[RetrievalResult]:
    """By score, then by doc number, which is doc-id order."""
    order = sorted(scores)
    order.sort(key=scores.__getitem__, reverse=True)
    return [RetrievalResult(index.doc_ids[d], scores[d]) for d in order]


def _spans(index: InvertedIndex,
           terms: list[str]) -> list[tuple[int, int] | None]:
    """The postings span of each distinct lowercased term, in query order
    (None for a term the index lacks)."""
    if not terms:
        raise ValueError("terms must be nonempty")
    spans = []
    for term in dict.fromkeys(t.lower() for t in terms):
        t = index.postings.get(term)
        spans.append(None if t is None
                     else (index.starts[t], index.starts[t + 1]))
    return spans


def query_and(index: InvertedIndex, terms: list[str]) -> list[RetrievalResult]:
    """Documents containing ALL terms, BM25-ranked (ties by doc id)."""
    spans = _spans(index, terms)
    if None in spans:
        return []
    docs, tfs, norms = index.docs, index.tfs, index.norms
    hits = set.intersection(*(set(docs[lo:hi]) for lo, hi in spans))
    scores = dict.fromkeys(hits, 0.0)
    for lo, hi in spans:
        idf = _idf(index, hi - lo)
        for d in hits:
            tf = tfs[bisect_left(docs, d, lo, hi)]
            scores[d] += idf * tf * _TF_SCALE / (tf + norms[d])
    return _ranked(index, scores)


def query_or(index: InvertedIndex, terms: list[str]) -> list[RetrievalResult]:
    """Documents containing ANY term, BM25-ranked (ties by doc id)."""
    norms = index.norms
    scores: dict[int, float] = {}
    get = scores.get
    for span in _spans(index, terms):
        if span is None:
            continue
        lo, hi = span
        idf = _idf(index, hi - lo)
        for d, tf in zip(index.docs[lo:hi], index.tfs[lo:hi]):
            scores[d] = get(d, 0.0) + idf * tf * _TF_SCALE / (tf + norms[d])
    return _ranked(index, scores)


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
