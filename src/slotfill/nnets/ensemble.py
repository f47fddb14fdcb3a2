"""Most-confident selection over the RNN variant scores."""

from __future__ import annotations


def rnn_ensemble_score(scores: list[float]) -> float:
    """Return the score of the most confident RNN, confidence being
    max(p, 1-p).  ``scores`` holds the present variants in ``rnn.VARIANTS``
    order, so ties break uni > bi > multitask."""
    if not scores:
        raise ValueError("at least one RNN score is required")
    return max(scores, key=lambda p: max(p, 1.0 - p))
