"""Query expansion via an alias table and a bag-of-words entity-linking gate.

Aliases come from a static table and are cleaned (minimum length, no
cross-type aliases); organizations additionally get "Corp"/"Co"/"Inc" suffix
variants and persons get nickname expansions of their first name.  A single
IR alias (lowest edit distance to the query name) is used for retrieval.
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .resources import STRING, STRINGS, read_jsonl, read_tsv

log = logging.getLogger(__name__)

ENTITY_TYPES = ("PER", "ORG", "GPE")
ORG_SUFFIXES = ("Corp", "Co", "Inc")
MIN_ALIAS_LENGTH = 2
LINK_MARGIN = 0.05

_TERM_RE = re.compile(r"\w+")


@dataclass(frozen=True)
class SlotQuery:
    id: str
    entity_name: str
    entity_type: str
    slot: str
    hop: int = 0
    next_slot: str | None = None  # hop-1 slot of a cold-start query

    def __post_init__(self):
        if self.entity_type not in ENTITY_TYPES:
            raise ValueError(f"unknown entity type {self.entity_type!r}")
        if self.hop not in (0, 1):
            raise ValueError(f"hop must be 0 or 1, got {self.hop}")


@dataclass
class KBEntry:
    entity_id: str
    canonical_name: str
    aliases: list[str]
    description_terms: Counter


def load_alias_table(path: str | Path) -> dict[str, list[tuple[str, str]]]:
    """TSV ``canonical<TAB>alias<TAB>alias_type`` -> raw alias table."""
    table: dict[str, list[tuple[str, str]]] = {}
    for _, (canonical, alias, alias_type) in read_tsv(path, 3):
        table.setdefault(canonical, []).append((alias, alias_type))
    return table


def load_nicknames(path: str | Path) -> dict[str, list[str]]:
    """TSV ``name<TAB>nick`` -> first name (lowercased) to nicknames."""
    nicknames: dict[str, list[str]] = {}
    for _, (name, nick) in read_tsv(path, 2):
        nicknames.setdefault(name.lower(), []).append(nick)
    return nicknames


def clean_aliases(name: str, raw: list[tuple[str, str]], entity_type: str,
                  nicknames: dict[str, list[str]] | None = None) -> list[str]:
    """Apply the cleaning rules and type-specific expansions.

    Drops aliases shorter than MIN_ALIAS_LENGTH and aliases typed with a
    different entity type.  ORG names gain company-suffix variants; PER names
    gain nickname expansions of the first name.
    """
    out: list[str] = []
    seen: set[str] = set()

    def push(alias: str) -> None:
        if alias not in seen:
            seen.add(alias)
            out.append(alias)

    for alias, alias_type in raw:
        if len(alias) < MIN_ALIAS_LENGTH:
            continue
        if alias_type and alias_type in ENTITY_TYPES and alias_type != entity_type:
            continue
        push(alias)

    if entity_type == "ORG":
        for suffix in ORG_SUFFIXES:
            push(f"{name} {suffix}")
    elif entity_type == "PER" and nicknames:
        parts = name.split()
        if parts:
            for nick in nicknames.get(parts[0].lower(), []):
                push(" ".join([nick] + parts[1:]))
    return out


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance (insert/delete/substitute)."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost))
        prev = cur
    return prev[-1]


def select_ir_alias(name: str, aliases: list[str]) -> str | None:
    """The alias closest to the name by edit distance (ties: lexicographically
    smaller), excluding aliases identical to the name."""
    candidates = [a for a in aliases if a != name]
    if not candidates:
        return None
    return min(candidates, key=lambda a: (levenshtein(name, a), a))


_KB_CHECKS = {"id": STRING, "name": STRING, "aliases": STRINGS,
              "description": STRING}


def load_kb(path: str | Path) -> list[KBEntry]:
    """JSON Lines ``{id, name, aliases, description}`` -> KB entries; a bad
    record, or a value of the wrong type, raises ValueError naming the file
    and line."""
    entries: list[KBEntry] = []
    for line_no, rec in read_jsonl(path, ("id", "name"), _KB_CHECKS):
        terms = term_bag(rec.get("description", ""))
        if not terms:
            log.warning("%s: line %d: empty description, entry skipped",
                        path, line_no)
            continue
        entries.append(KBEntry(rec["id"], rec["name"],
                               list(rec.get("aliases", [])), terms))
    return entries


def term_bag(text: str) -> Counter:
    return Counter(w.lower() for w in _TERM_RE.findall(text))


def kb_name_candidates(name: str, kb: list[KBEntry]) -> list[KBEntry]:
    """KB entries whose canonical name or any alias matches, case-insensitively."""
    wanted = name.lower()
    out = []
    for entry in kb:
        names = [entry.canonical_name.lower()] + [a.lower() for a in entry.aliases]
        if wanted in names:
            out.append(entry)
    return out


def kb_idf(kb: list[KBEntry]) -> dict[str, float]:
    """Smoothed inverse document frequency of each description term."""
    n = len(kb)
    df: Counter = Counter()
    for entry in kb:
        df.update(set(entry.description_terms))
    return {t: math.log((1 + n) / (1 + d)) + 1.0 for t, d in df.items()}


def tfidf_cosine(a: Counter, b: Counter, idf: dict[str, float]) -> float:
    """Cosine of two term bags under TF-IDF weighting (unknown terms idf 1)."""
    if not a or not b:
        return 0.0
    dot = 0.0
    for t, tf in a.items():
        if t in b:
            w = idf.get(t, 1.0)
            dot += (tf * w) * (b[t] * w)
    na = math.sqrt(sum((tf * idf.get(t, 1.0)) ** 2 for t, tf in a.items()))
    nb = math.sqrt(sum((tf * idf.get(t, 1.0)) ** 2 for t, tf in b.items()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def link_entity(candidates: list[KBEntry], idf: dict[str, float],
                context_terms: Counter | None = None) -> KBEntry | None:
    """Resolve the query entity to one of ``candidates``, its name-matching
    KB entries (``kb_name_candidates``), ranked by TF-IDF cosine under the
    KB's ``idf`` between entry descriptions and the query's retrieved
    context; ties go to the smallest entity id."""
    if not candidates:
        return None
    if len(candidates) == 1:
        return candidates[0]
    context = context_terms or Counter()
    return min(candidates,
               key=lambda e: (-tfidf_cosine(context, e.description_terms, idf),
                              e.entity_id))


def document_matches_entity(mention_context: Counter, target: KBEntry,
                            candidates: list[KBEntry], idf: dict[str, float],
                            ) -> bool:
    """Gate a retrieved document: keep it unless some other of the entity
    name's ``candidates`` beats the linked target by at least
    ``LINK_MARGIN`` in context cosine under the KB's ``idf``.

    Ambiguity below the margin fails open (document retained), so the gate
    can only ever drop documents.
    """
    if len(candidates) <= 1:
        return True
    target_score = tfidf_cosine(mention_context, target.description_terms, idf)
    best_other = max(
        tfidf_cosine(mention_context, e.description_terms, idf)
        for e in candidates if e.entity_id != target.entity_id
    )
    return best_other - target_score < LINK_MARGIN
