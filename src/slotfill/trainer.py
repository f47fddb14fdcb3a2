"""Per-slot model training over distant-supervision data.

One classifier is trained per canonical slot (a slot and its inverse share
one model; the location granularities share the merged location slot).
Models land in a directory as single .npz files, one per classifier (three
for the RNN component: uni, bi, multitask).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .classify import SVMConfig, save_svm, svm_train
from .nnets import (
    CNNClassifier,
    EmbeddingMatrix,
    RNNClassifier,
    load_embedding_file,
    save_model,
    train,
)
from .nnets.rnn import VARIANTS as RNN_VARIANTS
from .traindata import (
    LabeledExample,
    SelectionConfig,
    generate_negative_examples,
    generate_positive_examples,
    select_training_data,
)

log = logging.getLogger(__name__)


@dataclass
class ModelTrainingConfig:
    """The settings callers vary.  The CNN filter width, the RNN type width,
    gradient clipping and the L2 decay and SVM step size are constants:
    ``cnn.WIDTH``, ``rnn.TYPE_DIM``, ``training.CLIP_NORM``/``L2`` and
    ``classify.SVM_LEARNING_RATE``/``SVM_L2``."""
    dim: int = 50
    filters: int = 50
    cnn_hidden: int = 100
    rnn_hidden: int = 50
    epochs: int = 50
    learning_rate: float = 0.05
    batch_size: int = 16
    seed: int = 13
    svm_epochs: int = 20
    embedding_file: str | None = None

    def svm_config(self) -> SVMConfig:
        return SVMConfig(epochs=self.svm_epochs, seed=self.seed)


def slot_file_stem(slot: str) -> str:
    return slot.replace(":", "_")


def build_distant_dataset(store, kb, canonical_slot: str, slot_configs,
                          gazetteers, triggers) -> list[LabeledExample]:
    """Distant positives plus trigger-cleaned negatives for one slot."""
    positives = generate_positive_examples(store, kb, canonical_slot)
    negatives = generate_negative_examples(
        store, kb, canonical_slot, triggers, gazetteers,
        slot_configs[canonical_slot])
    log.info("slot %s: %d positive / %d negative distant examples",
             canonical_slot, len(positives), len(negatives))
    return positives + negatives


def apply_selection(noisy: list[LabeledExample], seed_data: list[LabeledExample],
                    cfg: SelectionConfig | None = None) -> list[LabeledExample]:
    """Filter noisy examples through the batched selection loop; the clean
    seed examples join the final training set."""
    selected = select_training_data(noisy, seed_data, cfg or SelectionConfig())
    return seed_data + selected


def _vocabulary(examples: list[LabeledExample]) -> list[str]:
    words: list[str] = []
    for ex in examples:
        words.extend(ex.left)
        words.extend(ex.middle)
        words.extend(ex.right)
    return words


def train_slot_model(examples: list[LabeledExample], slot: str, kind: str,
                     out_dir: str | Path,
                     cfg: ModelTrainingConfig | None = None) -> list[Path]:
    """Train one model kind (svm / cnn / rnn) for a slot and persist it.
    Returns the written paths (three for rnn)."""
    if not examples:
        raise ValueError(f"no training examples for slot {slot!r}")
    cfg = cfg or ModelTrainingConfig()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = slot_file_stem(slot)
    dataset = [(ex, ex.label) for ex in examples]
    if kind == "svm":
        path = out_dir / f"{stem}.svm.npz"
        save_svm(svm_train(dataset, cfg.svm_config()), path, slot=slot)
        return [path]
    if kind == "cnn":
        builders = {"cnn": partial(CNNClassifier, filters=cfg.filters,
                                   hidden=cfg.cnn_hidden, seed=cfg.seed)}
    elif kind == "rnn":
        builders = {f"rnn.{variant}": partial(
            RNNClassifier, variant=variant, hidden=cfg.rnn_hidden,
            seed=cfg.seed) for variant in RNN_VARIANTS}
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    # read once per job; every network still trains its own fresh matrix
    pretrained = (load_embedding_file(cfg.embedding_file)
                  if cfg.embedding_file else None)
    vocabulary = _vocabulary(examples)
    written: list[Path] = []
    for name, build in builders.items():
        # built as it is trained, not all up front, to bound memory
        model = build(EmbeddingMatrix.build(vocabulary, dim=cfg.dim,
                                            seed=cfg.seed, pretrained=pretrained))
        losses = train(model, dataset, epochs=cfg.epochs,
                       learning_rate=cfg.learning_rate,
                       batch_size=cfg.batch_size, seed=cfg.seed)
        if losses:
            log.info("slot %s %s: last epoch mean loss %.4f", slot, name,
                     losses[-1])
        path = out_dir / f"{stem}.{name}.npz"
        save_model(model, path, slot=slot)
        written.append(path)
    return written
