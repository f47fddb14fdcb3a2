"""Mini-batch SGD with backpropagation, gradient clipping and L2 decay."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

# the global gradient norm a batch update is clipped to, and the L2 decay
# of the weight matrices
CLIP_NORM = 5.0
L2 = 1e-4


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 50
    batch_size: int = 16
    seed: int = 13

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning rate must be nonnegative")


@dataclass
class TrainResult:
    loss_trace: list[float] = field(default_factory=list)
    train_accuracy: float = 0.0


def _global_norm(grads: dict[str, np.ndarray]) -> float:
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    return float(np.sqrt(total))


def train(model, dataset: list[tuple[object, int]], config: TrainConfig,
          ) -> TrainResult:
    """Train in place; deterministic given the seed.  The loss is
    cross-entropy (plus the multi-task type loss where applicable); L2 decay
    applies to the model's weight matrices at each update."""
    if not dataset:
        raise ValueError("dataset must be nonempty")
    for _, label in dataset:
        if label not in (0, 1):
            raise ValueError(f"labels must be 0/1, got {label!r}")

    rng = np.random.default_rng(config.seed)
    params = model.params()
    decay = set(getattr(model, "L2_PARAMS", ()))
    result = TrainResult()
    n = len(dataset)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            accum = {name: np.zeros_like(p) for name, p in params.items()}
            batch_loss = 0.0
            for i in batch:
                example, label = dataset[i]
                loss, grads = model.loss_and_grads(example, label)
                if not np.isfinite(loss):
                    raise RuntimeError(
                        f"non-finite loss {loss!r} at epoch {epoch}, "
                        f"example index {int(i)}")
                batch_loss += loss
                for name, g in grads.items():
                    accum[name] += g
            scale = 1.0 / len(batch)
            for name in accum:
                accum[name] *= scale
            norm = _global_norm(accum)
            if norm > CLIP_NORM:
                clip_scale = CLIP_NORM / norm
                for name in accum:
                    accum[name] *= clip_scale
            for name, p in params.items():
                g = accum[name]
                if name in decay:
                    g = g + L2 * p
                p -= config.learning_rate * g
            epoch_loss += batch_loss
        result.loss_trace.append(epoch_loss / n)
    result.train_accuracy = evaluate_accuracy(model, dataset)
    return result


def evaluate_accuracy(model, dataset: list[tuple[object, int]]) -> float:
    if not dataset:
        return 0.0
    correct = sum(1 for ex, label in dataset
                  if (model.forward(ex) >= 0.5) == bool(label))
    return correct / len(dataset)
