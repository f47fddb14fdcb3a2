"""Per-slot model training over distant-supervision data.

One classifier is trained per canonical slot (a slot and its inverse share
one model; the location granularities share the merged location slot).
Models land in a directory as single .npz files, one per classifier (three
for the RNN component: uni, bi, multitask).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

from .classify import SVMConfig, save_svm, svm_train
from .nnets import (
    CNNClassifier,
    EmbeddingMatrix,
    RNNClassifier,
    TrainConfig,
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
    dim: int = 50
    filters: int = 50
    width: int = 3
    cnn_hidden: int = 100
    rnn_hidden: int = 50
    type_dim: int = 3
    epochs: int = 50
    learning_rate: float = 0.05
    batch_size: int = 16
    clip_norm: float = 5.0
    l2: float = 1e-4
    seed: int = 13
    svm_epochs: int = 20
    svm_learning_rate: float = 0.1
    embedding_file: str | None = None

    def train_config(self) -> TrainConfig:
        return TrainConfig(learning_rate=self.learning_rate, epochs=self.epochs,
                           batch_size=self.batch_size, seed=self.seed,
                           clip_norm=self.clip_norm, l2=self.l2)

    def svm_config(self) -> SVMConfig:
        return SVMConfig(learning_rate=self.svm_learning_rate,
                         epochs=self.svm_epochs, l2=self.l2, seed=self.seed)


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


def _embeddings(examples, cfg: ModelTrainingConfig) -> EmbeddingMatrix:
    pretrained = None
    if cfg.embedding_file:
        pretrained = load_embedding_file(cfg.embedding_file)
    return EmbeddingMatrix.build(_vocabulary(examples), dim=cfg.dim,
                                 seed=cfg.seed, pretrained=pretrained)


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
    written: list[Path] = []

    if kind == "svm":
        model = svm_train(dataset, cfg.svm_config())
        path = out_dir / f"{stem}.svm.npz"
        save_svm(model, path, slot=slot)
        written.append(path)
    elif kind == "cnn":
        model = CNNClassifier(_embeddings(examples, cfg), filters=cfg.filters,
                              width=cfg.width, hidden=cfg.cnn_hidden,
                              seed=cfg.seed)
        result = train(model, dataset, cfg.train_config())
        log.info("slot %s cnn: train accuracy %.3f", slot, result.train_accuracy)
        path = out_dir / f"{stem}.cnn.npz"
        save_model(model, path, slot=slot)
        written.append(path)
    elif kind == "rnn":
        for variant in RNN_VARIANTS:
            model = RNNClassifier(_embeddings(examples, cfg), variant=variant,
                                  hidden=cfg.rnn_hidden, type_dim=cfg.type_dim,
                                  seed=cfg.seed)
            result = train(model, dataset, cfg.train_config())
            log.info("slot %s rnn/%s: train accuracy %.3f", slot, variant,
                     result.train_accuracy)
            path = out_dir / f"{stem}.rnn.{variant}.npz"
            save_model(model, path, slot=slot)
            written.append(path)
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    return written
