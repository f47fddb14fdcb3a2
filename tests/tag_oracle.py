"""Slow reference for NE tagging: one pass over the tokens per gazetteer
type, trying every width from the type's longest entry down, and the date,
number and URL regexes on every token.  Tests use it as the oracle for
``slotfill.extract.tag_entities``'s one-table pass.

The date rule here is the tagger's older shape rule, kept apart from
``slotfill.postprocess.read_date`` so that a fault in the one grammar the
package reads shows as a difference."""

from __future__ import annotations

import re

from slotfill.corpus import Sentence
from slotfill.extract import _NUMBER_RE, _URL_RE, Gazetteers, NESpan

_YEAR_RE = re.compile(r"^\d{4}$")
_DAY_RE = re.compile(r"^\d{1,2}$")
_ISO_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_SLASH_RE = re.compile(r"^\d{1,2}/\d{1,2}/\d{4}$")

_MONTH_WORDS = {
    "january", "february", "march", "april", "may", "june", "july", "august",
    "september", "october", "november", "december", "jan", "feb", "mar",
    "apr", "jun", "jul", "aug", "sep", "sept", "oct", "nov", "dec",
}


def gazetteer_entries(gazetteers: Gazetteers) -> dict[str, set[tuple[str, ...]]]:
    """Each NE type's entries, gathered from the first-token table."""
    entries: dict[str, set[tuple[str, ...]]] = {}
    for types in gazetteers.by_first.values():
        for ne_type, items in types:
            entries.setdefault(ne_type, set()).update(items)
    return entries


def date_span_length(texts_lower: tuple[str, ...], i: int) -> int:
    """Longest date expression starting at token i (0 when none)."""
    n = len(texts_lower)
    tok = texts_lower[i]
    # Month D , YYYY
    if tok in _MONTH_WORDS and i + 3 < n and _DAY_RE.fullmatch(texts_lower[i + 1]) \
            and texts_lower[i + 2] == "," and _YEAR_RE.fullmatch(texts_lower[i + 3]):
        return 4
    # Month D YYYY
    if tok in _MONTH_WORDS and i + 2 < n and _DAY_RE.fullmatch(texts_lower[i + 1]) \
            and _YEAR_RE.fullmatch(texts_lower[i + 2]):
        return 3
    # D Month YYYY
    if _DAY_RE.fullmatch(tok) and i + 2 < n and texts_lower[i + 1] in _MONTH_WORDS \
            and _YEAR_RE.fullmatch(texts_lower[i + 2]):
        return 3
    # Month YYYY
    if tok in _MONTH_WORDS and i + 1 < n and _YEAR_RE.fullmatch(texts_lower[i + 1]):
        return 2
    if _ISO_RE.fullmatch(tok) or _SLASH_RE.fullmatch(tok):
        return 1
    if _YEAR_RE.fullmatch(tok) and 1000 <= int(tok) <= 2999:
        return 1
    return 0


def tag_entities(sentence: Sentence, gazetteers: Gazetteers) -> list[NESpan]:
    """Tag NE spans: gazetteer longest matches plus DATE/NUMBER/URL regexes;
    overlapping spans resolved longest-first, ties leftmost."""
    texts = sentence.texts
    lower = sentence.lower
    n = len(texts)
    spans: list[NESpan] = []

    for ne_type, items in gazetteer_entries(gazetteers).items():
        max_len = max((len(e) for e in items), default=0)
        for i in range(n):
            for width in range(min(max_len, n - i), 0, -1):
                if lower[i:i + width] in items:
                    spans.append(NESpan(sentence.index, i, i + width, ne_type,
                                        " ".join(texts[i:i + width])))
                    break  # longest match at this start position

    for i in range(n):
        width = date_span_length(lower, i)
        if width:
            spans.append(NESpan(sentence.index, i, i + width, "DATE",
                                " ".join(texts[i:i + width])))
        if _NUMBER_RE.fullmatch(texts[i]):
            spans.append(NESpan(sentence.index, i, i + 1, "NUMBER", texts[i]))
        if _URL_RE.fullmatch(texts[i]):
            spans.append(NESpan(sentence.index, i, i + 1, "URL", texts[i]))

    spans.sort(key=lambda s: (-s.length, s.token_start, s.ne_type))
    chosen: list[NESpan] = []
    taken: set[int] = set()
    for span in spans:
        positions = set(range(span.token_start, span.token_end))
        if positions & taken:
            continue
        taken |= positions
        chosen.append(span)
    chosen.sort(key=lambda s: s.token_start)
    return chosen
