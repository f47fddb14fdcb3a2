"""Slow reference for tokenisation: one frozen record per token, with its
character offsets into the original text, built from per-character scans.
Tests use it as the oracle for ``slotfill.corpus.tokenize``,
``strip_quote_spans`` and ``make_document``'s columnar sentences."""

from __future__ import annotations

import re
import string
from dataclasses import dataclass

from slotfill.corpus import ABBREVIATIONS, normalize_case

_PUNCT = set(string.punctuation)
_SENT_END = set(".!?")
_CLOSERS = set("\"')]}”’")
_QUOTE_TAG_RE = re.compile(r"</?quote>")


def strip_quote_spans(text: str) -> tuple[str, list[int], list[str]]:
    """Remove ``<quote>...</quote>`` spans (nested pairs included).

    Returns the cleaned text, a map from cleaned-text index to original index,
    and any warnings.  An unclosed ``<quote>`` drops everything from the tag to
    the end of the text; an orphan ``</quote>`` is dropped by itself.
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

    pieces = []
    char_map: list[int] = []
    for start, end in kept_spans:
        pieces.append(text[start:end])
        char_map.extend(range(start, end))
    return "".join(pieces), char_map, warnings


def split_sentences(text: str, genre: str = "news") -> list[tuple[int, int]]:
    """Sentence spans from a per-character scan: a sentence ends at ``. ! ?``
    (plus trailing closers) followed by whitespace, unless the period closes
    a known abbreviation; forum text also breaks at hard newlines."""
    boundaries = [0]
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if genre == "forum" and ch == "\n":
            boundaries.append(i + 1)
            i += 1
            continue
        if ch in _SENT_END:
            j = i + 1
            while j < n and text[j] in _CLOSERS:
                j += 1
            if j >= n or text[j].isspace():
                if ch == "." and _is_abbreviation(text, i):
                    i += 1
                    continue
                boundaries.append(j)
                i = j
                continue
        i += 1
    if boundaries[-1] != n:
        boundaries.append(n)

    spans = []
    for start, end in zip(boundaries, boundaries[1:]):
        while start < end and text[start].isspace():
            start += 1
        while end > start and text[end - 1].isspace():
            end -= 1
        if start < end:
            spans.append((start, end))
    return spans


def _is_abbreviation(text: str, period_idx: int) -> bool:
    start = period_idx
    while start > 0 and not text[start - 1].isspace():
        start -= 1
    return text[start:period_idx + 1].lower() in ABBREVIATIONS


@dataclass(frozen=True)
class Token:
    text: str
    char_start: int
    char_end: int


def tokenize(sentence_text: str) -> list[Token]:
    """Whitespace-split, then peel leading/trailing punctuation and split
    possessive "'s".  Hyphenated words and dotted abbreviations stay whole.

    Offsets are relative to ``sentence_text``.
    """
    tokens: list[Token] = []
    for m in re.finditer(r"\S+", sentence_text):
        start, end = m.start(), m.end()
        while end - start > 1 and sentence_text[start] in _PUNCT:
            tokens.append(Token(sentence_text[start], start, start + 1))
            start += 1
        trailing: list[Token] = []
        while end - start > 1 and sentence_text[end - 1] in _PUNCT:
            # keep a final period that closes an internal-dot abbreviation
            if (sentence_text[end - 1] == "."
                    and "." in sentence_text[start:end - 1]):
                break
            trailing.append(Token(sentence_text[end - 1], end - 1, end))
            end -= 1
        core = sentence_text[start:end]
        if len(core) > 2 and core[-2:].lower() == "'s":
            tokens.append(Token(core[:-2], start, end - 2))
            tokens.append(Token(core[-2:], end - 2, end))
        elif core:
            tokens.append(Token(core, start, end))
        tokens.extend(reversed(trailing))
    return tokens


def document_tokens(genre: str, text: str) -> list[list[Token]]:
    """The tokens of each nonempty sentence, with offsets into ``text``."""
    if genre == "forum":
        clean, char_map, _ = strip_quote_spans(text)
    else:
        clean, char_map = text, list(range(len(text)))

    sentences = []
    for span_start, span_end in split_sentences(clean, genre):
        toks = []
        for t in tokenize(clean[span_start:span_end]):
            cs = span_start + t.char_start
            ce = span_start + t.char_end
            text_out = normalize_case(t.text) if genre == "forum" else t.text
            toks.append(Token(text_out, char_map[cs], char_map[ce - 1] + 1))
        if toks:
            sentences.append(toks)
    return sentences

