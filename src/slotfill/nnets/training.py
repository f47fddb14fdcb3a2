"""Mini-batch SGD with backpropagation, gradient clipping and L2 decay."""

from __future__ import annotations

import numpy as np

# the global gradient norm a batch update is clipped to, and the L2 decay
# of the weight matrices
CLIP_NORM = 5.0
L2 = 1e-4


def _global_norm(grads: dict[str, np.ndarray]) -> float:
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    return float(np.sqrt(total))


def train(model, dataset: list[tuple[object, int]], *, epochs: int,
          learning_rate: float, batch_size: int, seed: int) -> list[float]:
    """Train in place; deterministic given the seed.  The loss is
    cross-entropy (plus the multi-task type loss where applicable); L2 decay
    applies to the model's weight matrices at each update.  Returns the mean
    loss of each epoch."""
    if not dataset:
        raise ValueError("dataset must be nonempty")
    for _, label in dataset:
        if label not in (0, 1):
            raise ValueError(f"labels must be 0/1, got {label!r}")
    if learning_rate < 0:
        raise ValueError("learning rate must be nonnegative")

    rng = np.random.default_rng(seed)
    params = model.params()
    decay = set(getattr(model, "L2_PARAMS", ()))
    losses = []
    n = len(dataset)
    for epoch in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
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
                p -= learning_rate * g
            epoch_loss += batch_loss
        losses.append(epoch_loss / n)
    return losses
