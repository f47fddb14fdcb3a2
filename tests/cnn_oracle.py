"""Slow reference for the CNN forward pass: each of an example's three
segments is padded, windowed, convolved and pooled on its own, and the
pooled vectors feed the hidden and output layers as one vector.  Tests use
it as the oracle for ``CNNClassifier``'s one pass over a token block."""

from __future__ import annotations

import numpy as np

from slotfill.nnets.cnn import softmax


def segment_forward(model, tokens) -> dict:
    params = model.params()
    d = model.emb.dim
    w = model.width
    dtype = model.emb.vectors.dtype
    ids = model.emb.indices(tokens)
    x = model.emb.vectors[ids] if ids else np.zeros((0, d), dtype=dtype)
    if x.shape[0] < w:
        x = np.vstack([x, np.zeros((w - x.shape[0], d), dtype=dtype)])
    positions = x.shape[0] - w + 1
    windows = np.stack([x[p:p + w].ravel() for p in range(positions)])
    z = np.tanh(windows @ params["conv_w"].T + params["conv_b"])
    return {"ids": ids, "windows": windows, "z": z,
            "pooled": z.max(axis=0), "argmax": z.argmax(axis=0)}


def forward(model, example) -> float:
    """Positive-class probability for a candidate-shaped example."""
    params = model.params()
    segs = [segment_forward(model, example.left),
            segment_forward(model, example.middle),
            segment_forward(model, example.right)]
    flag = 1.0 if example.entity_first else 0.0
    feat = np.concatenate([s["pooled"] for s in segs]
                          + [np.array([flag], dtype=model.emb.vectors.dtype)])
    hvec = np.tanh(feat @ params["hidden_w"] + params["hidden_b"])
    probs = softmax(hvec @ params["out_w"] + params["out_b"])
    return float(probs[1])
