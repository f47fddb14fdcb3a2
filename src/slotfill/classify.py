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
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .resources import read_tsv

ENTITY_SLOT = "<ENTITY>"
FILLER_SLOT = "<FILLER>"
MAX_WILDCARD = 5
HASH_BITS = 18

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
    """TSV ``slot<TAB>template`` -> patterns grouped by slot; a bad line
    or template raises ValueError naming the file and line."""
    patterns: dict[str, list[Pattern]] = {}
    for line_no, (slot, template) in read_tsv(path, 2):
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
def _hash_feature(name: str) -> int:
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % (1 << HASH_BITS)


def _middle_length_bucket(n: int) -> str:
    if n <= 2:
        return str(n)
    if n <= 5:
        return "3-5"
    return "6+"


def featurize(example) -> dict[int, float]:
    """Hashed sparse features: per-segment unigrams (L:/M:/R: prefixes),
    middle bigrams, the argument-order flag, and a middle-length bucket."""
    features: dict[int, float] = {}

    def add(name: str) -> None:
        idx = _hash_feature(name)
        features[idx] = features.get(idx, 0.0) + 1.0

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
    """A linear model over hashed features: ``weights`` maps the index of
    each nonzero weight to its value; every other weight is zero."""
    weights: dict[int, float]
    bias: float


# the SGD step size and L2 decay of svm_train
SVM_LEARNING_RATE = 0.1
SVM_L2 = 1e-4


@dataclass
class SVMConfig:
    epochs: int = 20
    seed: int = 13


def svm_margin(model: LinearModel, example) -> float:
    weights = model.weights
    features = featurize(example)
    return float(sum(weights.get(i, 0.0) * v for i, v in features.items())
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
    """Hinge loss + L2 via SGD over a dense weight array, deterministic by
    seed; the model keeps the nonzero weights."""
    if not dataset:
        raise ValueError("dataset must be nonempty")
    config = config or SVMConfig()
    rng = np.random.default_rng(config.seed)
    weights = np.zeros(1 << HASH_BITS)
    bias = 0.0
    featurized = [(featurize(ex), 1 if label else -1)
                  for ex, label in dataset]
    for _ in range(config.epochs):
        for i in rng.permutation(len(featurized)):
            features, y = featurized[i]
            margin = sum(weights[j] * v for j, v in features.items()) + bias
            weights *= (1.0 - SVM_LEARNING_RATE * SVM_L2)
            if y * margin < 1.0:
                for j, v in features.items():
                    weights[j] += SVM_LEARNING_RATE * y * v
                bias += SVM_LEARNING_RATE * y
    nonzero = np.flatnonzero(weights)
    return LinearModel(dict(zip(nonzero.tolist(), weights[nonzero].tolist())),
                       bias)


def save_svm(model: LinearModel, path: str | Path, slot: str = "") -> None:
    """Sparse: the indices (ascending) and values of the nonzero weights."""
    indices = sorted(i for i, w in model.weights.items() if w)
    np.savez(path, indices=np.array(indices, dtype=np.int64),
             values=np.array([model.weights[i] for i in indices],
                             dtype=np.float64),
             bias=np.array([model.bias]),
             bits=np.array([HASH_BITS]),
             slot=np.frombuffer(slot.encode("utf-8"), dtype=np.uint8))


def load_svm(path: str | Path) -> LinearModel:
    with np.load(path) as data:
        return svm_from_arrays(data, path)


def svm_from_arrays(data, path: str | Path) -> LinearModel:
    """The SVM that ``save_svm`` wrote to ``path``, from its opened
    arrays."""
    if "indices" not in data.files:
        raise ValueError(f"{path}: not a sparse SVM model file (older "
                         "dense layout?); retrain the model")
    bits = int(data["bits"][0])
    if bits != HASH_BITS:
        raise ValueError(f"{path}: SVM features hash to {bits} bits, not "
                         f"{HASH_BITS}; retrain the model")
    return LinearModel(dict(zip(data["indices"].tolist(),
                                data["values"].tolist())),
                       float(data["bias"][0]))


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


def is_finite(number: int | float) -> bool:
    """Whether ``number`` is a float other than NaN and the infinities, or
    an int that converts to one.  JSON files can hold all of these."""
    try:
        return math.isfinite(number)
    except OverflowError:
        return False


def check_weights(weights, source) -> dict[str, float]:
    """The interpolation weights read from ``source``, as floats; they must
    be a nonempty mapping from classifier kinds to finite numbers."""
    if not (isinstance(weights, dict) and weights and all(
            k in CLASSIFIER_ORDER and type(v) in (int, float) and is_finite(v)
            for k, v in weights.items())):
        raise ValueError(f"{source}: interpolation weights must map "
                         f"{', '.join(CLASSIFIER_ORDER)} to finite numbers: "
                         f"{weights!r}")
    return {k: float(v) for k, v in weights.items()}
