"""Corpus ingestion: genre-specific preprocessing, sentence splitting, tokenization.

Documents arrive as JSON Lines records with exactly the keys ``id``, ``genre``
("news" or "forum") and ``text``.  Forum documents get quote spans removed and
mixed-case tokens normalized; news documents pass through unchanged.  A
document keeps only its id and its sentences' words: the genre and the raw
text shape ingest and are not stored.
"""

from __future__ import annotations

import json
import logging
import re
import string
from dataclasses import dataclass
from pathlib import Path

log = logging.getLogger(__name__)

GENRES = ("news", "forum")

_PUNCT = frozenset(string.punctuation)


def _load_abbreviations() -> tuple[str, ...]:
    path = Path(__file__).parent / "data" / "abbreviations.txt"
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
        return tuple(l.strip() for l in lines if l.strip())
    except OSError:
        return ("Dr.", "Mr.", "Mrs.", "Ms.", "Inc.", "Corp.", "Co.", "U.S.", "St.")


# Lowercased; periods closing these never end a sentence.
ABBREVIATIONS = frozenset(a.lower() for a in _load_abbreviations())

_QUOTE_TAG_RE = re.compile(r"</?quote>")
_CLOSERS = "\"')]}”’"
# a sentence-final mark with its closers, then whitespace (the end of the
# text ends a sentence anyway)
_SENT_END_RE = re.compile(rf"[.!?][{re.escape(_CLOSERS)}]*(?=\s)")
_FORUM_SENT_END_RE = re.compile(rf"\n|{_SENT_END_RE.pattern}")
_POSSESSIVE = frozenset(("'s", "'S"))


@dataclass(frozen=True, slots=True)
class Sentence:
    """One sentence as two parallel columns: token ``texts`` and their
    lowercase forms (``lower[i] is texts[i]`` when the word is lowercase
    already)."""
    index: int
    texts: tuple[str, ...]
    lower: tuple[str, ...]


@dataclass(frozen=True)
class Document:
    id: str
    sentences: tuple[Sentence, ...]


class DocumentStore:
    """Immutable-after-ingestion collection of documents, keyed by id."""

    def __init__(self, documents: list[Document] | None = None,
                 errors: list[str] | None = None):
        self._docs: dict[str, Document] = {}
        self.errors: list[str] = list(errors or [])
        for doc in documents or []:
            self.add(doc)

    def add(self, doc: Document) -> None:
        if doc.id in self._docs:
            raise ValueError(f"duplicate document id: {doc.id!r}")
        self._docs[doc.id] = doc

    def get(self, doc_id: str) -> Document:
        return self._docs[doc_id]

    def __len__(self) -> int:
        return len(self._docs)

    def __iter__(self):
        return iter(self._docs.values())


def strip_quote_spans(text: str) -> tuple[str, list[str]]:
    """Remove ``<quote>...</quote>`` spans (nested pairs included).

    Returns the cleaned text and any warnings.  An unclosed ``<quote>`` drops
    everything from the tag to the end of the text; an orphan ``</quote>`` is
    dropped by itself.
    """
    kept_spans: list[tuple[int, int]] = []
    warnings: list[str] = []
    depth = 0
    segment_start = 0
    for m in _QUOTE_TAG_RE.finditer(text):
        if m.group() == "<quote>":
            if depth == 0:
                kept_spans.append((segment_start, m.start()))
            depth += 1
        else:
            if depth == 0:
                warnings.append(f"orphan </quote> at offset {m.start()}")
                kept_spans.append((segment_start, m.start()))
                segment_start = m.end()
            else:
                depth -= 1
                if depth == 0:
                    segment_start = m.end()
    if depth > 0:
        warnings.append("unclosed <quote> tag; dropped through end of document")
    else:
        kept_spans.append((segment_start, len(text)))
    return "".join(text[start:end] for start, end in kept_spans), warnings


def normalize_case(token_text: str) -> str:
    """Lowercase a token iff it has an uppercase letter past position 0 and is
    not all-uppercase ("sErVice" -> "service"; "NASA", "Service" unchanged)."""
    if token_text.isupper():
        return token_text
    if any(c.isupper() for c in token_text[1:]):
        return token_text.lower()
    return token_text


def split_sentences(text: str, genre: str = "news") -> list[tuple[int, int]]:
    """Split text into sentence spans (character offsets, trimmed to content).

    A sentence ends at ``. ! ?`` (plus trailing closers) followed by
    whitespace, unless the period closes a known abbreviation.  Forum text
    additionally breaks at hard newlines.
    """
    boundaries = [0]
    pattern = _FORUM_SENT_END_RE if genre == "forum" else _SENT_END_RE
    for m in pattern.finditer(text):
        i = m.start()
        if text[i] == "." and _is_abbreviation(text, i):
            continue
        boundaries.append(m.end())
    n = len(text)
    if boundaries[-1] != n:
        boundaries.append(n)

    spans = []
    for start, end in zip(boundaries, boundaries[1:]):
        s, e = _trim(text, start, end)
        if s < e:
            spans.append((s, e))
    return spans


def _is_abbreviation(text: str, period_idx: int) -> bool:
    start = period_idx
    while start > 0 and not text[start - 1].isspace():
        start -= 1
    return text[start:period_idx + 1].lower() in ABBREVIATIONS


def _trim(text: str, start: int, end: int) -> tuple[int, int]:
    while start < end and text[start].isspace():
        start += 1
    while end > start and text[end - 1].isspace():
        end -= 1
    return start, end


def tokenize(text: str) -> list[str]:
    """Split at whitespace, then peel leading and trailing punctuation and
    split a possessive "'s".  Hyphenated words and dotted abbreviations stay
    whole."""
    words: list[str] = []
    for word in text.split():
        if word[0] not in _PUNCT and word[-1] not in _PUNCT \
                and word[-2:] not in _POSSESSIVE:
            # the common case: the whole word is one token
            words.append(word)
            continue
        start, end = 0, len(word)
        while end - start > 1 and word[start] in _PUNCT:
            words.append(word[start])
            start += 1
        while end - start > 1 and word[end - 1] in _PUNCT:
            # keep a final period that closes an internal-dot abbreviation
            if word[end - 1] == "." and "." in word[start:end - 1]:
                break
            end -= 1
        if end - start > 2 and word[end - 2:end] in _POSSESSIVE:
            words += (word[start:end - 2], word[end - 2:end])
        else:
            words.append(word[start:end])
        words.extend(word[end:])
    return words


def make_document(doc_id: str, genre: str, text: str) -> Document:
    """Build a preprocessed, sentence-split, tokenized document."""
    if genre not in GENRES:
        raise ValueError(f"unknown genre {genre!r} for document {doc_id!r}")
    if not doc_id:
        raise ValueError("document id must be nonempty")

    forum = genre == "forum"
    if forum:
        clean, warnings = strip_quote_spans(text)
        for w in warnings:
            log.warning("%s: %s", doc_id, w)
    else:
        clean = text

    sentences = []
    for span_start, span_end in split_sentences(clean, genre):
        # a trimmed span starts with a word, so it has a token
        words = tokenize(clean[span_start:span_end])
        if forum:
            words = [normalize_case(w) for w in words]
        lower = [l if l != w else w for w, l in zip(words, map(str.lower, words))]
        sentences.append(Sentence(len(sentences), tuple(words), tuple(lower)))
    return Document(doc_id, tuple(sentences))


def ingest_documents(path: str | Path) -> DocumentStore:
    """Ingest a JSON Lines corpus file.

    Malformed lines are reported in ``store.errors`` (with line numbers) and
    skipped; a duplicate document id raises.
    """
    store = DocumentStore()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                store.errors.append(f"line {line_no}: invalid JSON ({exc.msg})")
                continue
            problem = _validate_record(record)
            if problem:
                store.errors.append(f"line {line_no}: {problem}")
                continue
            store.add(make_document(record["id"], record["genre"], record["text"]))
    if store.errors:
        for err in store.errors:
            log.warning("%s: %s", path, err)
    return store


def _validate_record(record) -> str | None:
    if not isinstance(record, dict):
        return "record is not an object"
    expected = {"id", "genre", "text"}
    if set(record) != expected:
        return f"record keys {sorted(record)} != {sorted(expected)}"
    if not isinstance(record["id"], str) or not record["id"]:
        return "id must be a nonempty string"
    if record["genre"] not in GENRES:
        return f"genre must be one of {GENRES}"
    if not isinstance(record["text"], str):
        return "text must be a string"
    return None
