"""Single-file model persistence (.npz with a JSON header entry)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .cnn import CNNClassifier
from .embeddings import EmbeddingMatrix
from .rnn import RNNClassifier


def model_header(model, slot: str = "") -> dict:
    """Kind, slot, vocabulary and the shape settings of a CNN or RNN."""
    header = {
        "kind": model.kind,
        "slot": slot,
        "vocab": model.emb.vocab,
    }
    if model.kind == "cnn":
        header.update(filters=model.filters, width=model.width,
                      hidden=model.hidden)
    else:
        header.update(variant=model.variant, hidden=model.hidden,
                      type_dim=model.type_dim)
    return header


def model_from_header(header: dict, params: dict[str, np.ndarray]):
    """The CNN or RNN that ``header`` describes, over ``params`` (the
    embedding matrix included, under ``emb``)."""
    params = dict(params)
    emb = EmbeddingMatrix(header["vocab"], params.pop("emb"))
    if header["kind"] == "cnn":
        return CNNClassifier(emb, filters=header["filters"],
                             width=header["width"], hidden=header["hidden"],
                             params=params)
    return RNNClassifier(emb, variant=header["variant"],
                         hidden=header["hidden"], type_dim=header["type_dim"],
                         params=params)


def save_model(model, path: str | Path, slot: str = "") -> None:
    """Persist a CNN or RNN classifier: header (kind/variant/dims/vocab) plus
    every parameter tensor."""
    header = model_header(model, slot)
    arrays = {f"param_{k}": v for k, v in model.params().items()}
    np.savez(path, header=np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8), **arrays)


def load_model(path: str | Path):
    with np.load(path) as data:
        return model_from_arrays(read_header(data), data)


def read_header(data) -> dict:
    """The JSON header of an opened model file."""
    return json.loads(bytes(data["header"]).decode("utf-8"))


def model_from_arrays(header: dict, data):
    """The CNN or RNN of an opened model file whose header is ``header``
    (each array is read into memory of its own)."""
    return model_from_header(header, {k[len("param_"):]: data[k]
                                      for k in data.files
                                      if k.startswith("param_")})
