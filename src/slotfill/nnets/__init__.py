"""From-scratch convolutional and recurrent relation classifiers."""

from .cnn import CNNClassifier
from .embeddings import EmbeddingMatrix, ENTITY_MARK, FILLER_MARK, load_embedding_file
from .ensemble import rnn_ensemble_score
from .persist import load_model, save_model
from .rnn import RNNClassifier
from .training import train

__all__ = [
    "CNNClassifier",
    "EmbeddingMatrix",
    "ENTITY_MARK",
    "FILLER_MARK",
    "RNNClassifier",
    "load_embedding_file",
    "load_model",
    "rnn_ensemble_score",
    "save_model",
    "train",
]
