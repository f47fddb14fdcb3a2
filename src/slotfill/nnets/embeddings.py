"""Trainable word embeddings with an unknown-word row and argument markers."""

from __future__ import annotations

from pathlib import Path

import numpy as np

UNK = "<unk>"
ENTITY_MARK = "<e>"
FILLER_MARK = "<f>"

INIT_RANGE = 0.1


def load_embedding_file(path: str | Path) -> dict[str, np.ndarray]:
    """Text embeddings, one line per word: ``word v1 v2 ... vd``; blank
    lines are skipped.  A word without values, a value that is not a number
    and a vector whose length differs from the first vector's raise
    ValueError naming the file and line."""
    vectors: dict[str, np.ndarray] = {}
    dim = None
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) == 1:
                raise ValueError(f"{path}: line {line_no}: word {parts[0]!r} "
                                 "has no values")
            try:
                values = [float(x) for x in parts[1:]]
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from None
            if dim is None:
                dim = len(values)
            elif len(values) != dim:
                raise ValueError(f"{path}: line {line_no}: {len(values)} "
                                 f"values, but the first vector has {dim}")
            vectors[parts[0]] = np.array(values, dtype=np.float64)
    return vectors


class EmbeddingMatrix:
    """Vocabulary plus a trainable |V| x d matrix (row per word).

    Unknown words map to a dedicated trained row; the two argument markers
    get their own rows.  Lookup is lowercased.
    """

    def __init__(self, vocab: dict[str, int], vectors: np.ndarray):
        if vectors.ndim != 2 or vectors.shape[0] != len(vocab):
            raise ValueError("vectors shape does not match vocabulary")
        self.vocab = vocab
        self.vectors = np.asarray(vectors)  # float64 normally; dtype preserved
        self.unk_index = vocab[UNK]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @classmethod
    def build(cls, words, dim: int = 50, seed: int = 13,
              pretrained: dict[str, np.ndarray] | None = None) -> "EmbeddingMatrix":
        """Build a vocabulary over ``words`` (lowercased, deduplicated) plus
        the unk row and both markers; rows init uniform(-0.1, 0.1), overridden
        by pretrained vectors where available."""
        rng = np.random.default_rng(seed)
        ordered: list[str] = [UNK, ENTITY_MARK, FILLER_MARK]
        seen = set(ordered)
        for w in words:
            lw = w.lower()
            if lw not in seen:
                seen.add(lw)
                ordered.append(lw)
        vocab = {w: i for i, w in enumerate(ordered)}
        vectors = rng.uniform(-INIT_RANGE, INIT_RANGE, size=(len(ordered), dim))
        if pretrained:
            for w, vec in pretrained.items():
                idx = vocab.get(w.lower())
                if idx is not None:
                    if vec.shape[0] != dim:
                        raise ValueError(
                            f"pretrained vector for {w!r} has dim {vec.shape[0]}, "
                            f"expected {dim}")
                    vectors[idx] = vec
        return cls(vocab, vectors)

    def index(self, token: str) -> int:
        return self.vocab.get(token.lower(), self.unk_index)

    def indices(self, tokens) -> list[int]:
        return [self.index(t) for t in tokens]
