"""Slow reference for the linear SVM: the model as a dense array of all
2^HASH_BITS weights, trained, scored and saved as before the model kept only its
nonzero weights.  Tests use it as the oracle for ``classify``'s sparse
``LinearModel``: equal weights after training, bit-identical margins and
scores, and byte-identical saved arrays."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from slotfill.classify import (
    HASH_BITS,
    SVM_L2,
    SVM_LEARNING_RATE,
    SVM_SCORE_SCALE,
    SVMConfig,
    featurize,
)


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float


def dense(weights: dict[int, float], bias: float) -> LinearModel:
    """The dense model holding the sparse ``weights``."""
    array = np.zeros(1 << HASH_BITS)
    for i, w in weights.items():
        array[i] = w
    return LinearModel(array, bias)


def svm_margin(model: LinearModel, example) -> float:
    features = featurize(example)
    return float(sum(model.weights[i] * v for i, v in features.items())
                 + model.bias)


def svm_score(model: LinearModel, example) -> float:
    margin = svm_margin(model, example)
    try:
        return 1.0 / (1.0 + math.exp(-SVM_SCORE_SCALE * margin))
    except OverflowError:
        return 0.0


def svm_train(dataset: list[tuple[object, int]],
              config: SVMConfig | None = None) -> LinearModel:
    config = config or SVMConfig()
    rng = np.random.default_rng(config.seed)
    model = LinearModel(np.zeros(1 << HASH_BITS), 0.0)
    featurized = [(featurize(ex), 1 if label else -1)
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
    indices = np.flatnonzero(model.weights)
    np.savez(path, indices=indices, values=model.weights[indices],
             bias=np.array([model.bias]),
             bits=np.array([HASH_BITS]),
             slot=np.frombuffer(slot.encode("utf-8"), dtype=np.uint8))
