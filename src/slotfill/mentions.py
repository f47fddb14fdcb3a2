"""Entity mention finding: exact and fuzzy name matching, precomputed
coreference chains, the sentence-initial nominal-anaphora heuristic, and
proper-name expansion of person fillers.

The coreference resource is a TSV with one mention per line:
``doc_id  chain_id  sentence_index  token_start  token_end  mention_class  surface``
where mention_class is proper, pronoun or nominal.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from pathlib import Path

from .corpus import Document

log = logging.getLogger(__name__)

FUZZY_MAX_NORM_DIST = 0.2
MENTION_KINDS = ("exact", "fuzzy", "coref", "nominal_heuristic")
_KIND_PRIORITY = {k: i for i, k in enumerate(MENTION_KINDS)}

MENTION_CLASSES = ("proper", "pronoun", "nominal")
PERSON_PRONOUNS = {"he", "she", "him", "her"}

# "the XX-year-old" / "the XX-based company" / "the XX-born", XX of 1-3 tokens
_HEURISTIC_MAX_RUN = 3
_ENTITY_FOLLOW_WINDOW = 3


@dataclass(frozen=True)
class Mention:
    sentence_index: int
    token_start: int
    token_end: int
    surface: str
    kind: str

    @property
    def span(self) -> tuple[int, int, int]:
        return (self.sentence_index, self.token_start, self.token_end)


@dataclass(frozen=True)
class ChainMention:
    sentence_index: int
    token_start: int
    token_end: int
    surface: str
    mention_class: str


# one chain: its mentions in resource order
CorefChain = tuple[ChainMention, ...]


def load_coref_resource(path: str | Path) -> dict[str, list[CorefChain]]:
    """Load coreference chains grouped per document; malformed lines are
    skipped with a warning, chains left with fewer than 2 mentions dropped."""
    raw: dict[tuple[str, str], list[ChainMention]] = {}
    order: list[tuple[str, str]] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 7:
                log.warning("%s: line %d: expected 7 fields, got %d",
                            path, line_no, len(parts))
                continue
            doc_id, chain_id, sent_s, start_s, end_s, mclass, surface = parts
            try:
                sent, start, end = int(sent_s), int(start_s), int(end_s)
            except ValueError:
                log.warning("%s: line %d: non-integer span", path, line_no)
                continue
            if sent < 0 or start < 0 or end <= start:
                log.warning("%s: line %d: invalid span (%d, %d, %d)",
                            path, line_no, sent, start, end)
                continue
            if mclass not in MENTION_CLASSES:
                log.warning("%s: line %d: unknown mention class %r",
                            path, line_no, mclass)
                continue
            key = (doc_id, chain_id)
            if key not in raw:
                raw[key] = []
                order.append(key)
            raw[key].append(ChainMention(sent, start, end, surface, mclass))

    chains: dict[str, list[CorefChain]] = {}
    for doc_id, chain_id in order:
        ms = raw[(doc_id, chain_id)]
        if len(ms) < 2:
            log.warning("chain %s/%s has %d mention(s), dropped",
                        doc_id, chain_id, len(ms))
            continue
        chains.setdefault(doc_id, []).append(tuple(ms))
    return chains


def bounded_levenshtein(a: str, b: str, k: int) -> int:
    """Unit-cost edit distance of ``a`` and ``b`` if it is at most ``k``
    (``k >= 0``), else ``k + 1``.  Only the cells with |i - j| <= k are
    computed, and the scan stops at the first row whose cells all exceed k
    (Ukkonen 1985)."""
    if a == b:
        return 0
    over = k + 1
    la, lb = len(a), len(b)
    if abs(la - lb) > k:
        return over
    # out-of-band cells hold `over`; every computed cell is exact when it
    # is at most k and above k otherwise
    prev = [j if j <= k else over for j in range(lb + 1)]
    for i in range(1, la + 1):
        ca = a[i - 1]
        lo = i - k if i > k else 1
        hi = i + k if i + k < lb else lb
        cur = [over] * (lb + 1)
        if i <= k:
            cur[0] = i
        left = row_min = cur[lo - 1]
        for j in range(lo, hi + 1):
            # v = min(diagonal + cost, up + 1, left + 1)
            v = prev[j - 1] if ca == b[j - 1] else prev[j - 1] + 1
            if prev[j] < v:
                v = prev[j] + 1
            if left < v:
                v = left + 1
            cur[j] = left = v
            if v < row_min:
                row_min = v
        if row_min > k:
            return over
        prev = cur
    return prev[lb] if prev[lb] <= k else over


def _max_accepted_dist(window_len: int, target_len: int) -> int:
    """The largest d in [0, longer] with ``d / longer <= FUZZY_MAX_NORM_DIST``,
    where ``longer`` is the longer of a window and a name of these lengths,
    or -1 when there is none or the length difference alone is too large."""
    longer = max(window_len, target_len)
    if abs(window_len - target_len) / longer > FUZZY_MAX_NORM_DIST:
        return -1
    k = min(longer, max(0, int(FUZZY_MAX_NORM_DIST * longer)))
    while k < longer and (k + 1) / longer <= FUZZY_MAX_NORM_DIST:
        k += 1
    while k >= 0 and k / longer > FUZZY_MAX_NORM_DIST:
        k -= 1
    return k


def split_pieces(target: str, parts: int) -> tuple[str, ...]:
    """``target`` cut into ``parts`` disjoint contiguous pieces whose lengths
    differ by at most one (empty pieces when it is shorter than ``parts``).
    A string within edit distance ``parts - 1`` of ``target`` contains at
    least one piece unchanged: each edit touches one piece (Wu & Manber
    1992; Navarro 2001, section 7)."""
    size, extra = divmod(len(target), parts)
    pieces, pos = [], 0
    for p in range(parts):
        end = pos + size + (p < extra)
        pieces.append(target[pos:end])
        pos = end
    return tuple(pieces)


def lowered_name(name: str) -> str:
    """A name as mention finding matches it: its tokens joined by single
    spaces and lowercased ("" when it has no token)."""
    from .corpus import tokenize
    return " ".join(tokenize(name)).lower()


@dataclass(frozen=True)
class _Target:
    """One lowered name: its accepted distance per window length and its
    exact pieces, one more than the largest of those distances."""
    lowered: str
    max_dist: dict[int, int]
    pieces: tuple[str, ...]


@functools.lru_cache(maxsize=4096)
def _name_table(names: tuple[str, ...]) -> tuple[tuple[int, tuple[_Target, ...]], ...]:
    """Per token width, the distinct lowered names of that width."""
    by_width: dict[int, dict[str, _Target]] = {}
    for name in names:
        lowered = lowered_name(name)
        if not lowered:
            continue
        n = len(lowered)
        # a window twice as long as the name or longer differs by half of
        # its length at least
        max_dist = {w: k for w in range(1, 2 * n + 1)
                    if (k := _max_accepted_dist(w, n)) >= 0}
        # a token holds no whitespace
        by_width.setdefault(lowered.count(" ") + 1, {})[lowered] = _Target(
            lowered, max_dist, split_pieces(lowered, max(max_dist.values()) + 1))
    return tuple((w, tuple(ts.values())) for w, ts in by_width.items())


def find_name_mentions(doc: Document, names: list[str]) -> list[Mention]:
    """Find token windows matching any name within a normalized edit distance
    of FUZZY_MAX_NORM_DIST (distance / length of the longer string).  Window
    sizes follow each name's token count; matching is case-insensitive.

    A window is compared with the bounded edit distance only when one of
    the name's exact pieces occurs in it, and a sentence's windows are not
    built at all when no piece occurs in the whole sentence."""
    found: dict[tuple[int, int, int], Mention] = {}
    table = _name_table(tuple(names))
    for sent in doc.sentences:
        lower = sent.lower
        joined = " ".join(lower)
        for width, targets in table:
            # every window is a substring of the joined sentence
            live = [t for t in targets
                    if any(p in joined for p in t.pieces)]
            if not live:
                continue
            # a lowered window equals its lowered joined surface
            windows = lower if width == 1 else [
                " ".join(lower[i:i + width])
                for i in range(len(lower) - width + 1)]
            for i, lowered in enumerate(windows):
                for target in live:
                    k = target.max_dist.get(len(lowered), -1)
                    if k < 0 or not any(p in lowered for p in target.pieces):
                        continue
                    dist = bounded_levenshtein(lowered, target.lowered, k)
                    if dist > k:
                        continue
                    kind = "exact" if dist == 0 else "fuzzy"
                    span = (sent.index, i, i + width)
                    prev = found.get(span)
                    if prev is None \
                            or _KIND_PRIORITY[kind] < _KIND_PRIORITY[prev.kind]:
                        found[span] = Mention(
                            sent.index, i, i + width,
                            " ".join(sent.texts[i:i + width]), kind)
    return sorted(found.values(), key=lambda m: m.span)


def _overlaps(a: ChainMention, sent: int, start: int, end: int) -> bool:
    return a.sentence_index == sent and a.token_start < end and start < a.token_end


def attach_coref_mentions(doc: Document, chains: list[CorefChain],
                          seed: list[Mention]) -> list[Mention]:
    """Return the NEW mentions contributed by chains overlapping a seed
    mention (spans already present as seeds are not duplicated)."""
    seed_spans = {m.span for m in seed}
    added: dict[tuple[int, int, int], Mention] = {}
    for chain in chains:
        adopted = any(
            _overlaps(cm, s.sentence_index, s.token_start, s.token_end)
            for cm in chain for s in seed
        )
        if not adopted:
            continue
        for cm in chain:
            span = (cm.sentence_index, cm.token_start, cm.token_end)
            if span in seed_spans or span in added:
                continue
            if cm.sentence_index >= len(doc.sentences):
                continue
            sent = doc.sentences[cm.sentence_index]
            if cm.token_end > len(sent.texts):
                continue
            surface = " ".join(sent.texts[cm.token_start:cm.token_end])
            added[span] = Mention(cm.sentence_index, cm.token_start,
                                  cm.token_end, surface, "coref")
    return sorted(added.values(), key=lambda m: m.span)


def _match_heuristic_pattern(lower: tuple[str, ...]) -> tuple[int, int] | None:
    """Match "the XX-year-old" / "the XX-based company" / "the XX-born" at the
    start of a sentence's lowered words; return the pattern span or None."""
    if not lower or lower[0] != "the":
        return None
    limit = min(_HEURISTIC_MAX_RUN, len(lower) - 1)
    for j in range(1, limit + 1):
        word = lower[j]
        if word.endswith("-year-old") or word.endswith("-born"):
            return (0, j + 1)
        if word.endswith("-based") and j + 1 < len(lower) \
                and lower[j + 1] == "company":
            return (0, j + 2)
    return None


def nominal_anaphora_heuristic(doc: Document, seed_mentions: list[Mention],
                               blocked_tokens: dict[int, set[int]] | None = None,
                               ) -> list[Mention]:
    """If the entity occurs in sentence t and sentence t+1 starts with a
    nominal-anaphora pattern not followed by a PER/ORG entity token (within 3
    tokens), emit a mention covering the pattern span.

    ``blocked_tokens`` maps sentence index to token positions covered by
    PER/ORG named-entity spans.
    """
    blocked = blocked_tokens or {}
    seed_sentences = {m.sentence_index for m in seed_mentions}
    existing = {m.span for m in seed_mentions}
    out: list[Mention] = []
    for t in sorted(seed_sentences):
        nxt = t + 1
        if nxt >= len(doc.sentences):
            continue
        texts = doc.sentences[nxt].texts
        span = _match_heuristic_pattern(doc.sentences[nxt].lower)
        if span is None:
            continue
        start, end = span
        follow = range(end, min(end + _ENTITY_FOLLOW_WINDOW, len(texts)))
        if any(i in blocked.get(nxt, set()) for i in follow):
            continue
        key = (nxt, start, end)
        if key in existing:
            continue
        existing.add(key)
        out.append(Mention(nxt, start, end,
                           " ".join(texts[start:end]), "nominal_heuristic"))
    return out


def merge_mentions(*groups: list[Mention]) -> list[Mention]:
    """Merge mention lists, deduplicating spans (earlier groups win)."""
    merged: dict[tuple[int, int, int], Mention] = {}
    for group in groups:
        for m in group:
            if m.span not in merged:
                merged[m.span] = m
    return sorted(merged.values(), key=lambda m: m.span)


def expand_person_fillers(doc: Document, chains: list[CorefChain],
                          span: tuple[int, int, int], surface: str,
                          is_pronoun: bool = False) -> str | None:
    """Canonicalize a person filler via its coreference chain.

    If the filler span lies in a chain with a proper-name mention, the proper
    name is returned (the filler's own surface when it is itself that
    mention).  A pronoun in no chain yields None; a proper name in no chain
    is returned unchanged.
    """
    sent, start, end = span
    for chain in chains:
        hit = next((cm for cm in chain
                    if _overlaps(cm, sent, start, end)), None)
        if hit is None:
            continue
        propers = [cm for cm in chain if cm.mention_class == "proper"]
        if not propers:
            return None if is_pronoun else surface
        if hit.mention_class == "proper" and (hit.token_start, hit.token_end) == (start, end):
            return surface
        return max(propers, key=lambda cm: len(cm.surface)).surface
    return None if is_pronoun else surface
