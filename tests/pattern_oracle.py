"""Slow reference for pattern matching: rebuild the whole sentence from the
three contexts and the two argument spans, then try the template from every
start position with a recursive matcher whose placeholders must land on the
span starts.  Tests use it as the oracle for
``slotfill.classify.match_patterns``'s three-run match on the view."""

from __future__ import annotations

from slotfill.classify import ENTITY_SLOT, FILLER_SLOT, Pattern


def _match_from(template: tuple[str, ...], ti: int, tokens: list[str],
                si: int, entity_span: tuple[int, int],
                filler_span: tuple[int, int]) -> bool:
    if ti == len(template):
        return True
    item = template[ti]
    if item == ENTITY_SLOT:
        start, end = entity_span
        if si != start:
            return False
        return _match_from(template, ti + 1, tokens, end, entity_span, filler_span)
    if item == FILLER_SLOT:
        start, end = filler_span
        if si != start:
            return False
        return _match_from(template, ti + 1, tokens, end, entity_span, filler_span)
    if item.startswith("*"):
        bound = int(item[1:])
        for skip in range(0, bound + 1):
            if si + skip > len(tokens):
                break
            if _match_from(template, ti + 1, tokens, si + skip,
                           entity_span, filler_span):
                return True
        return False
    if si >= len(tokens) or tokens[si].lower() != item.lower():
        return False
    return _match_from(template, ti + 1, tokens, si + 1, entity_span, filler_span)


def candidate_token_layout(example) -> tuple[list[str], tuple[int, int], tuple[int, int]]:
    """Rebuild the sentence token list and argument spans from a
    candidate-shaped example.

    An example may carry its span surfaces as ``entity_tokens`` and
    ``filler_tokens``; without them each span collapses to a single
    placeholder token.
    """
    entity_tokens = list(getattr(example, "entity_tokens", ("<entity>",)))
    filler_tokens = list(getattr(example, "filler_tokens", ("<filler>",)))
    first, second = (entity_tokens, filler_tokens) if example.entity_first \
        else (filler_tokens, entity_tokens)
    tokens = list(example.left)
    s1 = len(tokens)
    tokens.extend(first)
    e1 = len(tokens)
    tokens.extend(example.middle)
    s2 = len(tokens)
    tokens.extend(second)
    e2 = len(tokens)
    tokens.extend(example.right)
    if example.entity_first:
        return tokens, (s1, e1), (s2, e2)
    return tokens, (s2, e2), (s1, e1)


def match_patterns(example, patterns: list[Pattern],
                   swapped: bool = False) -> float:
    """1.0 iff any template matches with the placeholders aligned to the
    example's spans (roles swapped for inverse slots); else 0.0."""
    tokens, entity_span, filler_span = candidate_token_layout(example)
    if swapped:
        entity_span, filler_span = filler_span, entity_span
    for pattern in patterns:
        for start in range(len(tokens) + 1):
            if _match_from(pattern.template, 0, tokens, start,
                           entity_span, filler_span):
                return 1.0
    return 0.0
