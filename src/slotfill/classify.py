"""Pattern matching, the linear max-margin classifier, and linear
interpolation of the per-classifier scores.

All four scorers (patterns, the SVM here, the CNN and the RNNs) read one
view of a candidate: its ``left``, ``middle`` and ``right`` context tokens
and whether the entity comes first, flipped for inverse slots.

Patterns are token templates with one <ENTITY> and one <FILLER> placeholder
and bounded wildcards ``*k`` (matching 0..k tokens, k <= 5).  A template may
match anywhere in the sentence, but the placeholders must sit exactly on the
argument spans, so the span tokens are never compared: the template's
placeholder order must be the view's argument order, the tokens before the
first placeholder must end ``left``, the ones between the placeholders must
fill all of ``middle``, and the ones after the second must begin ``right``.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

ENTITY_SLOT = "<ENTITY>"
FILLER_SLOT = "<FILLER>"
MAX_WILDCARD = 5
DEFAULT_HASH_BITS = 18

CLASSIFIER_ORDER = ("pattern", "svm", "cnn", "rnn")


@dataclass(frozen=True)
class Pattern:
    """A template, compiled once into its argument order (``entity_first``)
    and its three ``runs``: before the first placeholder (reversed, so it
    reads outward from the span), between the placeholders, and after the
    second.  A run holds lowered literals and, for each ``*k``, the int k."""
    template: tuple[str, ...]
    entity_first: bool = field(init=False, repr=False, compare=False)
    runs: tuple[tuple, tuple, tuple] = field(init=False, repr=False,
                                             compare=False)

    def __post_init__(self):
        if self.template.count(ENTITY_SLOT) != 1 \
                or self.template.count(FILLER_SLOT) != 1:
            raise ValueError(
                f"template needs exactly one {ENTITY_SLOT} and one "
                f"{FILLER_SLOT}: {' '.join(self.template)}")
        items = []
        for tok in self.template:
            if not tok.startswith("*"):
                items.append(tok.lower())
                continue
            bound = int(tok[1:]) if tok[1:].isdecimal() else 0
            if not 0 < bound <= MAX_WILDCARD:
                raise ValueError(
                    f"bad wildcard bound {tok} (want *1..*{MAX_WILDCARD}): "
                    f"{' '.join(self.template)}")
            items.append(bound)
        e, f = self.template.index(ENTITY_SLOT), self.template.index(FILLER_SLOT)
        first, second = min(e, f), max(e, f)
        object.__setattr__(self, "entity_first", e < f)
        object.__setattr__(self, "runs", (tuple(items[:first][::-1]),
                                          tuple(items[first + 1:second]),
                                          tuple(items[second + 1:])))


def load_patterns(path: str | Path) -> dict[str, list[Pattern]]:
    """TSV ``slot<TAB>template`` -> patterns grouped by slot; a bad
    template raises ValueError naming the file and line."""
    patterns: dict[str, list[Pattern]] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                log.warning("%s: line %d: expected 2 fields", path, line_no)
                continue
            slot, template = parts
            try:
                pattern = Pattern(tuple(template.split()))
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from None
            patterns.setdefault(slot, []).append(pattern)
    return patterns


def _run_matches(run: tuple, tokens: Sequence[str], whole: bool = False,
                 i: int = 0) -> bool:
    """Whether ``run`` matches ``tokens[i:]`` to its end (``whole``) or up
    to any position: a literal matches one token case-insensitively, a
    bound k skips 0..k tokens."""
    for j, item in enumerate(run):
        if type(item) is int:
            return any(_run_matches(run[j + 1:], tokens, whole, i + skip)
                       for skip in range(min(item, len(tokens) - i) + 1))
        if i == len(tokens) or tokens[i].lower() != item:
            return False
        i += 1
    return not whole or i == len(tokens)


def match_patterns(view, patterns: list[Pattern]) -> float:
    """1.0 iff any template matches ``view`` (anything with ``left``,
    ``middle``, ``right`` and ``entity_first``) by the module's rule; else 0.0."""
    for pattern in patterns:
        before, between, after = pattern.runs
        if pattern.entity_first == view.entity_first \
                and _run_matches(between, view.middle, whole=True) \
                and _run_matches(after, view.right) \
                and _run_matches(before, view.left[::-1]):
            return 1.0
    return 0.0


# a run hashes about a thousand distinct feature names; the bound keeps a
# long-lived process from growing without limit
@functools.lru_cache(maxsize=1 << 16)
def _hash_feature(name: str, bits: int) -> int:
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % (1 << bits)


def _middle_length_bucket(n: int) -> str:
    if n <= 2:
        return str(n)
    if n <= 5:
        return "3-5"
    return "6+"


def featurize(example, bits: int = DEFAULT_HASH_BITS) -> dict[int, float]:
    """Hashed sparse features: per-segment unigrams (L:/M:/R: prefixes),
    middle bigrams, the argument-order flag, and a middle-length bucket."""
    features: dict[int, float] = {}

    def add(name: str, value: float = 1.0) -> None:
        idx = _hash_feature(name, bits)
        features[idx] = features.get(idx, 0.0) + value

    for prefix, segment in (("L", example.left), ("M", example.middle),
                            ("R", example.right)):
        for word in segment:
            add(f"{prefix}:{word.lower()}")
    middle = [w.lower() for w in example.middle]
    for a, b in zip(middle, middle[1:]):
        add(f"MB:{a}_{b}")
    add(f"EF:{int(bool(example.entity_first))}")
    add(f"ML:{_middle_length_bucket(len(middle))}")
    return features


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float
    feature_hash_bits: int = DEFAULT_HASH_BITS


# the SGD step size and L2 decay of svm_train
SVM_LEARNING_RATE = 0.1
SVM_L2 = 1e-4


@dataclass
class SVMConfig:
    epochs: int = 20
    seed: int = 13
    hash_bits: int = DEFAULT_HASH_BITS


def svm_margin(model: LinearModel, example) -> float:
    features = featurize(example, model.feature_hash_bits)
    return float(sum(model.weights[i] * v for i, v in features.items())
                 + model.bias)


# hinge training settles functional margins near 1; the temperature maps a
# satisfied margin to a confident probability (sigma(3) ~ 0.95)
SVM_SCORE_SCALE = 3.0


def svm_score(model: LinearModel, example) -> float:
    """Logistic squashing of the margin, so the score interpolates."""
    margin = svm_margin(model, example)
    try:
        return 1.0 / (1.0 + math.exp(-SVM_SCORE_SCALE * margin))
    except OverflowError:
        # the margin is below about -236.6; the logistic is under 1e-307
        return 0.0


def svm_train(dataset: list[tuple[object, int]],
              config: SVMConfig | None = None) -> LinearModel:
    """Hinge loss + L2 via SGD, deterministic by seed."""
    if not dataset:
        raise ValueError("dataset must be nonempty")
    config = config or SVMConfig()
    rng = np.random.default_rng(config.seed)
    model = LinearModel(np.zeros(1 << config.hash_bits), 0.0, config.hash_bits)
    featurized = [(featurize(ex, config.hash_bits), 1 if label else -1)
                  for ex, label in dataset]
    for _ in range(config.epochs):
        for i in rng.permutation(len(featurized)):
            features, y = featurized[i]
            margin = sum(model.weights[j] * v for j, v in features.items()) \
                + model.bias
            model.weights *= (1.0 - SVM_LEARNING_RATE * SVM_L2)
            if y * margin < 1.0:
                for j, v in features.items():
                    model.weights[j] += SVM_LEARNING_RATE * y * v
                model.bias += SVM_LEARNING_RATE * y
    return model


def save_svm(model: LinearModel, path: str | Path, slot: str = "") -> None:
    """Sparse: the indices and values of the nonzero weights only."""
    indices = np.flatnonzero(model.weights)
    np.savez(path, indices=indices, values=model.weights[indices],
             bias=np.array([model.bias]),
             bits=np.array([model.feature_hash_bits]),
             slot=np.frombuffer(slot.encode("utf-8"), dtype=np.uint8))


def load_svm(path: str | Path) -> LinearModel:
    with np.load(path) as data:
        if "indices" not in data.files:
            raise ValueError(f"{path}: not a sparse SVM model file (older "
                             "dense layout?); retrain the model")
        weights = np.zeros(1 << int(data["bits"][0]))
        weights[data["indices"]] = data["values"]
        return LinearModel(weights, float(data["bias"][0]), int(data["bits"][0]))


def combine_scores(scores: dict[str, float], weights: dict[str, float]) -> float:
    """Weighted mean over the present scores, weights renormalized to 1."""
    if not scores:
        raise ValueError("at least one score required")
    usable = {k: weights.get(k, 0.0) for k in scores}
    total = sum(usable.values())
    if total <= 0.0:
        raise ValueError("all interpolation weights are zero for the present "
                         f"scores {sorted(scores)}")
    return sum(scores[k] * w / total for k, w in usable.items())


def check_weights(weights, source) -> dict[str, float]:
    """The interpolation weights read from ``source``, as floats; they must
    be a nonempty mapping from classifier kinds to numbers."""
    if not (isinstance(weights, dict) and weights and all(
            k in CLASSIFIER_ORDER and type(v) in (int, float)
            for k, v in weights.items())):
        raise ValueError(f"{source}: interpolation weights must map "
                         f"{', '.join(CLASSIFIER_ORDER)} to numbers: {weights!r}")
    return {k: float(v) for k, v in weights.items()}


def canonicalize_slot(slot: str, slot_configs: dict) -> tuple[str, bool]:
    """Map a slot to its canonical classification slot; swapped is true when
    the canonical slot is the slot's inverse (argument roles flip)."""
    cfg = slot_configs.get(slot)
    if cfg is None:
        raise ValueError(f"unknown slot {slot!r}")
    canonical = cfg.canonical_slot
    swapped = canonical != slot and cfg.inverse_slot == canonical
    return canonical, swapped
