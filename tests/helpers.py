"""Code that only the tests use: a store of news documents, the synthetic
separable and label-noised relation datasets, writing labeled examples, the
F1 of a results row, the form of a normalised date, a network's accuracy on
a dataset and the finite-difference gradient checker of the networks."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from slotfill.corpus import DocumentStore, make_document
from slotfill.nnets.persist import model_from_header, model_header
from slotfill.traindata import LabeledExample

# what ``postprocess.normalize_date`` returns: YYYY-MM-DD, with XX for an
# unknown month or day
DATE_RE = re.compile(r"^\d{4}-(\d{2}|XX)-(\d{2}|XX)$")


def news_store(texts: dict[str, str]) -> DocumentStore:
    """A store of one news document per ``doc_id: text``, in order."""
    store = DocumentStore()
    for doc_id, text in texts.items():
        store.add(make_document(doc_id, "news", text))
    return store


# ---------------------------------------------------------------------------
# synthetic datasets: a cleanly separable relation corpus for learnability
# checks and a label-noised variant for the selection-loop experiments

POSITIVE_MIDDLES = (
    ("was", "born", "in"),
    ("was", "raised", "in"),
    ("grew", "up", "in"),
)
NEGATIVE_MIDDLES = (
    ("visited",),
    ("flew", "to"),
    ("wrote", "about"),
    ("never", "saw"),
)
NOISE_VOCAB = ("the", "famous", "young", "reporter", "yesterday", "quietly",
               "again", "meanwhile", "later", "official")


def _make_example(rng: np.random.Generator, label: int,
                  slot: str = "synthetic:relation") -> LabeledExample:
    middles = POSITIVE_MIDDLES if label == 1 else NEGATIVE_MIDDLES
    middle = middles[rng.integers(len(middles))]
    left = tuple(rng.choice(NOISE_VOCAB, size=rng.integers(0, 4)))
    right = tuple(rng.choice(NOISE_VOCAB, size=rng.integers(0, 3)))
    return LabeledExample(left, middle, right,
                          entity_first=bool(rng.random() < 0.5),
                          label=label, slot=slot)


def true_label(example: LabeledExample) -> int:
    """Ground truth by construction: the middle decides the relation."""
    return 1 if tuple(example.middle) in POSITIVE_MIDDLES else 0


def make_separable_dataset(n_train: int = 200, n_test: int = 100,
                           seed: int = 13,
                           ) -> tuple[list[LabeledExample], list[LabeledExample]]:
    """A linearly separable relation dataset with disjoint positive and
    negative context vocabularies."""
    rng = np.random.default_rng(seed)
    train = [_make_example(rng, int(i % 2 == 0)) for i in range(n_train)]
    test = [_make_example(rng, int(i % 2 == 0)) for i in range(n_test)]
    return train, test


def make_noisy_selection_data(n_seed: int = 40, n_noisy: int = 120,
                              noise_rate: float = 0.3, seed: int = 13,
                              ) -> tuple[list[LabeledExample], list[LabeledExample]]:
    """Clean seed examples plus distant examples with flipped labels at the
    given rate; ``true_label`` recovers the ground truth."""
    rng = np.random.default_rng(seed)
    seed_data = [_make_example(rng, int(i % 2 == 0)) for i in range(n_seed)]
    noisy = []
    for i in range(n_noisy):
        ex = _make_example(rng, int(i % 2 == 0))
        if rng.random() < noise_rate:
            ex = LabeledExample(ex.left, ex.middle, ex.right, ex.entity_first,
                                1 - ex.label, ex.slot)
        noisy.append(ex)
    return seed_data, noisy


def purity(examples: list[LabeledExample]) -> float:
    """Fraction of examples whose carried label matches the ground truth."""
    if not examples:
        return 1.0
    return sum(1 for ex in examples if ex.label == true_label(ex)) / len(examples)


# ---------------------------------------------------------------------------
# files, scores and gradients


def save_examples(examples: list[LabeledExample], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps({
                "left": list(ex.left), "middle": list(ex.middle),
                "right": list(ex.right), "entity_first": ex.entity_first,
                "label": ex.label, "slot": ex.slot,
            }) + "\n")


def f1(p: float, r: float) -> float:
    """Harmonic mean of precision/recall percentages, 2 decimals."""
    if p + r == 0:
        return 0.0
    return round(2 * p * r / (p + r), 2)


def evaluate_accuracy(model, dataset: list[tuple[object, int]]) -> float:
    """The share of ``(example, label)`` pairs whose forward score falls on
    the label's side of 0.5."""
    if not dataset:
        return 0.0
    correct = sum(1 for ex, label in dataset
                  if (model.forward(ex) >= 0.5) == bool(label))
    return correct / len(dataset)


def gradient_check(model, example, label: int = 1,
                   epsilon: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central finite
    differences, over every parameter element (embeddings included).

    The check runs in extended precision: the difference quotient of two
    nearly equal float64 losses would otherwise drown near-zero gradients in
    cancellation noise.  For the multi-task RNN, the hard argmax type choices
    are frozen over the perturbations; a perturbation crossing a decision
    boundary would measure the jump of the piecewise-constant path rather
    than the gradient of the smooth piece the analytic backward computes.
    """
    work = model_from_header(model_header(model), {
        k: v.astype(np.longdouble) for k, v in model.params().items()})
    kwargs = {}
    if getattr(work, "variant", "") == "multitask":
        kwargs["frozen_choices"] = work._forward(example)["choices"]
    _, analytic = work.loss_and_grads(example, label, **kwargs)
    params = work.params()
    max_err = 0.0
    for name, arr in params.items():
        flat = arr.ravel()
        grad_flat = analytic[name].ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + epsilon
            loss_plus, _ = work.loss_and_grads(example, label, **kwargs)
            flat[i] = original - epsilon
            loss_minus, _ = work.loss_and_grads(example, label, **kwargs)
            flat[i] = original
            numeric = (loss_plus - loss_minus) / (2 * epsilon)
            ga = grad_flat[i]
            err = float(abs(ga - numeric) / max(abs(ga), abs(numeric), 1e-8))
            max_err = max(max_err, err)
    return max_err
