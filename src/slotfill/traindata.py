"""Training-data machinery: distant-supervision example generation with
trigger-based negative cleaning, the batched iterative selection loop, and
tuning of output thresholds and interpolation weights.

Noisy distant labels are filtered by training a linear classifier on a clean
seed set, then admitting batch by batch only the examples whose distant label
matches the prediction at high confidence, retraining between batches.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classify import (
    ENTITY_SLOT,
    FILLER_SLOT,
    Pattern,
    combine_scores,
    match_patterns,
    svm_score,
    svm_train,
)
from .corpus import DocumentStore, tokenize
from .extract import Gazetteers, SlotConfig, split_contexts, tag_entities
from .resources import (
    STRING,
    STRINGS,
    ZERO_OR_ONE,
    default_slot_configs,
    read_jsonl,
    read_tsv,
)

log = logging.getLogger(__name__)

THRESHOLD_GRID = [round(i / 100, 2) for i in range(101)]
# the threshold of a slot whose dev data lacks a positive or a negative
DEFAULT_THRESHOLD = 0.5
WEIGHT_GRID_STEPS = 10  # 0.1 steps over the simplex


@dataclass(frozen=True)
class RelationInstance:
    subject: str
    relation: str
    object: str


@dataclass(frozen=True)
class LabeledExample:
    left: tuple[str, ...]
    middle: tuple[str, ...]
    right: tuple[str, ...]
    entity_first: bool
    label: int
    slot: str


def load_kb_instances(path: str | Path) -> list[RelationInstance]:
    """TSV ``subject<TAB>relation<TAB>object``; a bad line or an empty
    field raises ValueError naming the file and line."""
    out = []
    for line_no, fields in read_tsv(path, 3):
        if not all(fields):
            raise ValueError(f"{path}: line {line_no}: empty field")
        out.append(RelationInstance(*fields))
    return out


_EXAMPLE_CHECKS = {
    "left": STRINGS, "middle": STRINGS, "right": STRINGS,
    "entity_first": ("true or false", lambda v: type(v) is bool),
    "label": ZERO_OR_ONE,
    "slot": STRING,
}


def load_examples(path: str | Path) -> list[LabeledExample]:
    """JSON Lines ``{left, middle, right, entity_first, label, slot}``; other
    keys are ignored.  A bad record, a value of the wrong type or a slot
    missing from the bundled slot table raises ValueError naming the file,
    line and field."""
    slots = default_slot_configs()
    known = {"slot": ("a slot of the bundled slot table", lambda v: v in slots)}
    return [LabeledExample(tuple(rec["left"]), tuple(rec["middle"]),
                           tuple(rec["right"]), rec["entity_first"],
                           rec["label"], rec["slot"])
            for _, rec in read_jsonl(path, tuple(_EXAMPLE_CHECKS),
                                     _EXAMPLE_CHECKS, known)]


def load_triggers(path: str | Path) -> dict[str, list]:
    """TSV ``slot<TAB>trigger``; a trigger is a word or a full template.  A
    bad line or template raises ValueError naming the file and line."""
    triggers: dict[str, list] = {}
    for line_no, (slot, trigger) in read_tsv(path, 2):
        if ENTITY_SLOT in trigger or FILLER_SLOT in trigger:
            try:
                pattern = Pattern(tuple(trigger.split()))
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from None
            triggers.setdefault(slot, []).append(pattern)
        else:
            triggers.setdefault(slot, []).append(trigger.lower())
    return triggers


def _surface_tokens(surface: str) -> tuple[str, ...]:
    return tuple(w.lower() for w in tokenize(surface))


def _find_token_seq(haystack: tuple[str, ...], needle: tuple[str, ...],
                    ) -> list[int]:
    """Start positions of every (case-insensitive) occurrence."""
    if not needle or len(needle) > len(haystack):
        return []
    return [i for i in range(len(haystack) - len(needle) + 1)
            if haystack[i:i + len(needle)] == needle]


def generate_positive_examples(store: DocumentStore, kb: list[RelationInstance],
                               slot: str) -> list[LabeledExample]:
    """Every sentence containing both argument surfaces of a KB instance of
    the slot's relation becomes a positive example."""
    instances = [(_surface_tokens(inst.subject), _surface_tokens(inst.object))
                 for inst in kb if inst.relation == slot]
    out: list[LabeledExample] = []
    for doc in store:
        for sent in doc.sentences:
            lower = sent.lower
            for subj, obj in instances:
                for s_start in _find_token_seq(lower, subj):
                    s_span = (s_start, s_start + len(subj))
                    for o_start in _find_token_seq(lower, obj):
                        o_span = (o_start, o_start + len(obj))
                        if s_span[0] < o_span[1] and o_span[0] < s_span[1]:
                            continue
                        left, middle, right, entity_first = split_contexts(
                            sent.texts, s_span, o_span)
                        out.append(LabeledExample(
                            tuple(left), tuple(middle), tuple(right),
                            entity_first, 1, slot))
    return out


def _sentence_triggered(lower_tokens: tuple[str, ...], example: LabeledExample,
                        triggers: list) -> bool:
    for trigger in triggers:
        if isinstance(trigger, Pattern):
            if match_patterns(example, [trigger]) == 1.0:
                return True
        elif trigger in lower_tokens:
            return True
    return False


def generate_negative_examples(store: DocumentStore, kb: list[RelationInstance],
                               slot: str, triggers: dict[str, list],
                               gazetteers: Gazetteers,
                               slot_config: SlotConfig) -> list[LabeledExample]:
    """Sentences with an NE-type-compatible pair absent from the KB become
    negatives, unless a trigger of the relation occurs in the sentence."""
    known_pairs = {(" ".join(_surface_tokens(i.subject)),
                    " ".join(_surface_tokens(i.object)))
                   for i in kb if i.relation == slot}
    entity_type = slot_config.entity_type
    filler_type = slot_config.filler_type
    slot_triggers = triggers.get(slot, [])
    out: list[LabeledExample] = []
    for doc in store:
        for sent in doc.sentences:
            spans = tag_entities(sent, gazetteers)
            subjects = [s for s in spans if s.ne_type == entity_type]
            fillers = [s for s in spans if s.ne_type == filler_type]
            if not subjects or not fillers:
                continue
            for subj in subjects:
                for obj in fillers:
                    if subj == obj:
                        continue
                    if subj.token_start < obj.token_end \
                            and obj.token_start < subj.token_end:
                        continue
                    pair = (subj.surface.lower(), obj.surface.lower())
                    if pair in known_pairs:
                        continue
                    left, middle, right, entity_first = split_contexts(
                        sent.texts, (subj.token_start, subj.token_end),
                        (obj.token_start, obj.token_end))
                    example = LabeledExample(
                        tuple(left), tuple(middle), tuple(right),
                        entity_first, 0, slot)
                    if _sentence_triggered(sent.lower, example, slot_triggers):
                        continue
                    out.append(example)
    return out


@dataclass
class SelectionConfig:
    k: int = 5
    tau: float = 0.8
    seed: int = 13

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.5 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0.5, 1]")


def select_training_data(noisy: list[LabeledExample],
                         seed_data: list[LabeledExample],
                         cfg: SelectionConfig) -> list[LabeledExample]:
    """Batched selection: train on the clean seed set, admit from each batch
    the examples whose distant label matches a confident prediction, retrain,
    and continue; returns the admitted examples (append-only)."""
    if not seed_data:
        raise ValueError("seed data must be nonempty")
    if not noisy:
        return []
    k = cfg.k
    if k > len(noisy):
        log.warning("k=%d exceeds %d noisy examples; reduced", k, len(noisy))
        k = len(noisy)
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(noisy))
    batches = np.array_split(order, k)

    selected: list[LabeledExample] = []
    for batch in batches:
        training = [(ex, ex.label) for ex in seed_data] \
            + [(ex, ex.label) for ex in selected]
        model = svm_train(training)
        for i in batch:
            ex = noisy[int(i)]
            score = svm_score(model, ex)
            predicted = 1 if score >= 0.5 else 0
            confidence = max(score, 1.0 - score)
            if predicted == ex.label and confidence >= cfg.tau:
                selected.append(ex)
    return selected


def _f1_at(scored: list[tuple[float, int]], theta: float) -> float:
    tp = sum(1 for s, y in scored if s >= theta and y == 1)
    fp = sum(1 for s, y in scored if s >= theta and y == 0)
    fn = sum(1 for s, y in scored if s < theta and y == 1)
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def tune_thresholds(dev: dict[str, list[tuple[float, int]]],
                    ) -> dict[str, float]:
    """Per slot, sweep theta over {0.00..1.00} and keep the F1 maximizer
    (ties: smallest theta); slots without both labels fall back to
    ``DEFAULT_THRESHOLD``."""
    out: dict[str, float] = {}
    for slot, scored in dev.items():
        labels = {y for _, y in scored}
        if labels != {0, 1}:
            log.warning("slot %s: dev data lacks both labels, default %.2f",
                        slot, DEFAULT_THRESHOLD)
            out[slot] = DEFAULT_THRESHOLD
            continue
        best_theta, best_f1 = 0.0, -1.0
        for theta in THRESHOLD_GRID:
            f1 = _f1_at(scored, theta)
            if f1 > best_f1:
                best_theta, best_f1 = theta, f1
        out[slot] = best_theta
    return out


def _weight_grids(names: list[str]):
    """All nonnegative 0.1-step weight vectors over ``names`` summing to 1."""
    steps = WEIGHT_GRID_STEPS

    def rec(remaining: int, budget: int):
        if remaining == 1:
            yield (budget,)
            return
        for v in range(budget + 1):
            for rest in rec(remaining - 1, budget - v):
                yield (v,) + rest

    for combo in rec(len(names), steps):
        yield {n: v / steps for n, v in zip(names, combo)}


def _tie_rank(weights: dict[str, float]) -> tuple:
    """Fixed preference: larger svm, then pattern, then cnn, then rnn."""
    return (weights.get("svm", 0.0), weights.get("pattern", 0.0),
            weights.get("cnn", 0.0), weights.get("rnn", 0.0))


def tune_interpolation_weights(dev: list[tuple[dict[str, float], int]],
                               ) -> dict[str, float]:
    """Grid search over the weight simplex (0.1 steps) maximizing dev F1 at
    the best threshold for each weight set."""
    if not dev:
        raise ValueError("dev data must be nonempty")
    names = sorted({n for scores, _ in dev for n in scores})
    if not names:
        raise ValueError("dev data carries no classifier scores")
    if len(names) == 1:
        return {names[0]: 1.0}

    best_weights, best_f1, best_rank = None, -1.0, None
    for weights in _weight_grids(names):
        if sum(weights.values()) <= 0:
            continue
        try:
            scored = [(combine_scores(scores, weights), y) for scores, y in dev]
        except ValueError:
            continue  # a row's present scores all got zero weight
        f1 = max(_f1_at(scored, theta) for theta in THRESHOLD_GRID)
        rank = _tie_rank(weights)
        if f1 > best_f1 or (f1 == best_f1 and rank > best_rank):
            best_weights, best_f1, best_rank = weights, f1, rank
    return best_weights
