"""Slow reference for NE tagging: one pass over the tokens per gazetteer
type, trying every width from the type's longest entry down, and the date,
number and URL regexes on every token.  Tests use it as the oracle for
``slotfill.extract.tag_entities``'s one-table pass."""

from __future__ import annotations

from slotfill.corpus import Sentence
from slotfill.extract import (
    _NUMBER_RE,
    _URL_RE,
    Gazetteers,
    NESpan,
    _date_span_length,
)


def gazetteer_entries(gazetteers: Gazetteers) -> dict[str, set[tuple[str, ...]]]:
    """Each NE type's entries, gathered from the first-token table."""
    entries: dict[str, set[tuple[str, ...]]] = {}
    for types in gazetteers.by_first.values():
        for ne_type, items in types:
            entries.setdefault(ne_type, set()).update(items)
    return entries


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
        width = _date_span_length(lower, i)
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
