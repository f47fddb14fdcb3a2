"""Candidate extraction: gazetteer/regex entity tagging, pairing filler spans
with entity mentions, impossible-filler filtering, and context splitting.

Named-entity tagging is deliberately simple: longest-match gazetteer lookups
per type, from one table keyed by an entry's first token, plus regex taggers
for dates, numbers and URLs, with overlaps resolved longest-first (ties
leftmost).
"""

from __future__ import annotations

import json
import logging
import re
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from .corpus import Document, Sentence
from .mentions import CorefChain, Mention, PERSON_PRONOUNS, expand_person_fillers
from .postprocess import normalize_date

log = logging.getLogger(__name__)

NE_TYPES = ("PER", "ORG", "GPE", "DATE", "NUMBER", "TITLE", "CHARGE",
            "RELIGION", "URL", "CAUSE_OF_DEATH")

# string-list slots tag through these gazetteer types
STRING_LIST_TYPES = {
    "title": "TITLE",
    "charge": "CHARGE",
    "religion": "RELIGION",
    "cause_of_death": "CAUSE_OF_DEATH",
}

_NUMBER_RE = re.compile(r"^\d{1,3}(,\d{3})+(\.\d+)?$|^\d+(\.\d+)?$")
_URL_RE = re.compile(r"^(https?://|www\.)\S+$")
_YEAR_RE = re.compile(r"^\d{4}$")
_DAY_RE = re.compile(r"^\d{1,2}$")
_ISO_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_SLASH_RE = re.compile(r"^\d{1,2}/\d{1,2}/\d{4}$")

_MONTH_WORDS = {
    "january", "february", "march", "april", "may", "june", "july", "august",
    "september", "october", "november", "december", "jan", "feb", "mar",
    "apr", "jun", "jul", "aug", "sep", "sept", "oct", "nov", "dec",
}


@dataclass(frozen=True)
class NESpan:
    sentence_index: int
    token_start: int
    token_end: int
    ne_type: str
    surface: str

    @property
    def length(self) -> int:
        return self.token_end - self.token_start


@dataclass(frozen=True)
class SlotConfig:
    slot: str
    filler_ne_type: str | None      # exactly one of ne_type / list name is set
    filler_list: str | None
    single_valued: bool
    top_n: int
    threshold: float
    inverse_slot: str | None
    canonical_slot: str
    classifier_less: bool

    @property
    def required_ne_type(self) -> str:
        if self.filler_ne_type:
            return self.filler_ne_type
        return STRING_LIST_TYPES[self.filler_list]


def load_slot_configs(path: str | Path) -> dict[str, SlotConfig]:
    """JSON slot table -> slot name to SlotConfig."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    configs: dict[str, SlotConfig] = {}
    for slot, entry in raw.items():
        kind = entry["filler_kind"]
        ne_type = kind.get("ne_type")
        list_name = kind.get("list")
        if bool(ne_type) == bool(list_name):
            raise ValueError(f"slot {slot}: exactly one of ne_type/list required")
        single = bool(entry["single_valued"])
        top_n = int(entry["top_n"])
        if single and top_n != 1:
            raise ValueError(f"slot {slot}: single-valued slots must have top_n=1")
        configs[slot] = SlotConfig(
            slot=slot,
            filler_ne_type=ne_type,
            filler_list=list_name,
            single_valued=single,
            top_n=top_n,
            threshold=float(entry["threshold"]),
            inverse_slot=entry.get("inverse_slot"),
            canonical_slot=entry["canonical_slot"],
            classifier_less=bool(entry.get("classifier_less", False)),
        )
    return configs


def location_granularity(slot: str) -> str | None:
    """city / stateorprovince / country / any for location slots, else None."""
    name = slot.split(":", 1)[-1]
    if name.startswith(("city_of_", "cities_of_")):
        return "city"
    if name.startswith(("stateorprovince_of_", "statesorprovinces_of_")):
        return "stateorprovince"
    if name.startswith(("country_of_", "countries_of_")):
        return "country"
    if name.startswith("location_of_"):
        return "any"
    return None


class Gazetteers:
    """Longest-match gazetteers over lowercased token tuples.  ``entries``
    maps each NE type to its entries; ``by_first`` is the one lookup table
    the tagger reads: an entry's first token maps to the types that have
    entries starting with it, each with those entries, longest first."""

    def __init__(self, entries: dict[str, set[tuple[str, ...]]]):
        self.entries = entries
        by_first: dict[str, dict[str, list[tuple[str, ...]]]] = {}
        for ne_type, items in entries.items():
            for entry in items:
                by_first.setdefault(entry[0], {}).setdefault(
                    ne_type, []).append(entry)
        self.by_first = {
            first: tuple((ne_type, tuple(sorted(es, key=lambda e: (-len(e), e))))
                         for ne_type, es in types.items())
            for first, types in by_first.items()}

    @classmethod
    def from_dir(cls, directory: str | Path) -> "Gazetteers":
        from .corpus import tokenize
        directory = Path(directory)
        entries: dict[str, set[tuple[str, ...]]] = {}
        names = {"per": "PER", "org": "ORG", "gpe": "GPE", "title": "TITLE",
                 "charge": "CHARGE", "religion": "RELIGION",
                 "cause_of_death": "CAUSE_OF_DEATH"}
        for stem, ne_type in names.items():
            path = directory / f"{stem}.txt"
            items: set[tuple[str, ...]] = set()
            if path.exists():
                with open(path, encoding="utf-8") as fh:
                    for line in fh:
                        line = line.strip()
                        if not line or line.startswith("#"):
                            continue
                        toks = tuple(w.lower() for w in tokenize(line))
                        if toks:
                            items.add(toks)
            entries[ne_type] = items
        return cls(entries)


def _date_span_length(texts_lower: tuple[str, ...], i: int) -> int:
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
    overlapping spans resolved longest-first, ties leftmost.  One pass over
    the tokens looks up each lowered token in the gazetteers' first-token
    table; the regexes run only on tokens that can start their match."""
    texts = sentence.texts
    lower = sentence.lower
    index = sentence.index
    by_first = gazetteers.by_first
    spans: list[NESpan] = []
    for i, word in enumerate(lower):
        for ne_type, entries in by_first.get(word, ()):
            for entry in entries:
                end = i + len(entry)
                if lower[i:end] == entry:
                    spans.append(NESpan(index, i, end, ne_type,
                                        " ".join(texts[i:end])))
                    break  # longest match of this type at this start
        # every date starts with a month word or a digit
        if word in _MONTH_WORDS or word[:1].isdigit():
            width = _date_span_length(lower, i)
            if width:
                spans.append(NESpan(index, i, i + width, "DATE",
                                    " ".join(texts[i:i + width])))
        text = texts[i]
        if text[:1].isdigit() and _NUMBER_RE.fullmatch(text):
            spans.append(NESpan(index, i, i + 1, "NUMBER", text))
        if text.startswith(("http", "www.")) and _URL_RE.fullmatch(text):
            spans.append(NESpan(index, i, i + 1, "URL", text))

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


@dataclass(frozen=True)
class Candidate:
    doc_id: str
    entity_mention: Mention
    filler: NESpan
    left: tuple[str, ...]
    middle: tuple[str, ...]
    right: tuple[str, ...]
    entity_first: bool
    canonical_filler: str


def split_contexts(tokens: Sequence[str], entity_span: tuple[int, int],
                   filler_span: tuple[int, int],
                   ) -> tuple[Sequence[str], Sequence[str], Sequence[str], bool]:
    """Partition tokens into (left, middle, right) around the two spans plus
    the entity-first flag.  Overlapping spans are a caller bug."""
    es, ee = entity_span
    fs, fe = filler_span
    if es < fe and fs < ee:
        raise ValueError(f"overlapping spans {entity_span} / {filler_span}")
    (s1, e1), (s2, e2) = sorted([entity_span, filler_span])
    left = tokens[:s1]
    middle = tokens[e1:s2]
    right = tokens[e2:]
    return left, middle, right, es < fs


def candidates_for_slot(doc: Document, sentence_index: int,
                        entity_mentions: list[Mention], slot_config: SlotConfig,
                        spans: list[NESpan],
                        chains: list[CorefChain] | None = None) -> list[Candidate]:
    """Pair every entity mention in the sentence with every filler span of the
    slot's type.  Person fillers are canonicalized through coreference; a
    pronoun that resolves to a proper name becomes a PER filler too.
    """
    sentence = doc.sentences[sentence_index]
    texts = sentence.texts
    required = slot_config.required_ne_type
    mentions_here = [m for m in entity_mentions if m.sentence_index == sentence_index]
    if not mentions_here:
        return []

    fillers: list[tuple[NESpan, str]] = []
    for span in spans:
        if span.ne_type != required:
            continue
        canonical = span.surface
        if required == "PER":
            resolved = expand_person_fillers(
                doc, chains or [], (sentence_index, span.token_start, span.token_end),
                span.surface, is_pronoun=False)
            if resolved is None:
                continue
            canonical = resolved
        fillers.append((span, canonical))

    if required == "PER" and chains:
        covered = {i for s in spans for i in range(s.token_start, s.token_end)}
        for i, word in enumerate(sentence.lower):
            if word not in PERSON_PRONOUNS or i in covered:
                continue
            text = texts[i]
            resolved = expand_person_fillers(doc, chains, (sentence_index, i, i + 1),
                                             text, is_pronoun=True)
            if resolved is not None:
                fillers.append((NESpan(sentence_index, i, i + 1, "PER", text),
                                resolved))

    out: list[Candidate] = []
    for mention in mentions_here:
        for span, canonical in fillers:
            if mention.token_start < span.token_end \
                    and span.token_start < mention.token_end:
                continue  # overlapping pair: three-way split undefined
            left, middle, right, entity_first = split_contexts(
                texts, (mention.token_start, mention.token_end),
                (span.token_start, span.token_end))
            out.append(Candidate(
                doc_id=doc.id,
                entity_mention=mention,
                filler=span,
                left=tuple(left),
                middle=tuple(middle),
                right=tuple(right),
                entity_first=entity_first,
                canonical_filler=canonical,
            ))
    return out


def load_validation_table(path: str | Path) -> dict[str, dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _parse_number(surface: str) -> float | None:
    try:
        return float(surface.replace(",", ""))
    except ValueError:
        return None


def filter_impossible(candidate: Candidate, slot_config: SlotConfig,
                      validation: dict[str, dict] | None = None) -> bool:
    """True iff the candidate is possible: integer checks and ranges for
    count/age slots, parseable dates for date slots, and filler != entity."""
    if candidate.filler.surface.casefold() == \
            candidate.entity_mention.surface.casefold():
        return False
    required = slot_config.required_ne_type
    rules = (validation or {}).get(slot_config.slot, {})
    if required == "NUMBER":
        value = _parse_number(candidate.filler.surface)
        if value is None:
            return False
        if rules.get("integer") and value != int(value):
            return False
        if "min" in rules and value < rules["min"]:
            return False
        if "max" in rules and value > rules["max"]:
            return False
    if required == "DATE" and normalize_date(candidate.filler.surface) is None:
        return False
    return True
