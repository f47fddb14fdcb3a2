"""Convolutional relation classifier.

The three contexts (left / middle / right of the two arguments) are convolved
with one shared filter bank, tanh-activated and max-pooled per filter.  The
pooled vectors plus the argument-order flag feed a tanh hidden layer and a
2-way softmax; the positive-class probability is the score.
"""

from __future__ import annotations

import numpy as np

from .embeddings import EmbeddingMatrix, INIT_RANGE

# filter width in tokens; one value is used, and model headers record it
WIDTH = 3


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


class CNNClassifier:
    kind = "cnn"

    def __init__(self, embeddings: EmbeddingMatrix, filters: int = 50,
                 width: int = WIDTH, hidden: int = 100, seed: int = 13,
                 params: dict[str, np.ndarray] | None = None):
        self.emb = embeddings
        self.filters = filters
        self.width = width
        self.hidden = hidden
        d = embeddings.dim
        if params is not None:
            self._params = params
        else:
            rng = np.random.default_rng(seed)

            def init(*shape):
                return rng.uniform(-INIT_RANGE, INIT_RANGE, size=shape)

            self._params = {
                "conv_w": init(filters, width * d),
                "conv_b": np.zeros(filters),
                "hidden_w": init(3 * filters + 1, hidden),
                "hidden_b": np.zeros(hidden),
                "out_w": init(hidden, 2),
                "out_b": np.zeros(2),
            }

    def params(self) -> dict[str, np.ndarray]:
        out = dict(self._params)
        out["emb"] = self.emb.vectors
        return out

    # weight matrices subject to L2 decay (biases and embeddings excluded)
    L2_PARAMS = ("conv_w", "hidden_w", "out_w")

    def _segment_forward(self, tokens) -> dict:
        d = self.emb.dim
        w = self.width
        dtype = self.emb.vectors.dtype
        ids = self.emb.indices(tokens)
        x = self.emb.vectors[ids] if ids else np.zeros((0, d), dtype=dtype)
        if x.shape[0] < w:
            x = np.vstack([x, np.zeros((w - x.shape[0], d), dtype=dtype)])
        positions = x.shape[0] - w + 1
        windows = np.stack([x[p:p + w].ravel() for p in range(positions)])
        pre = windows @ self._params["conv_w"].T + self._params["conv_b"]
        z = np.tanh(pre)
        pooled = z.max(axis=0)
        argmax = z.argmax(axis=0)
        return {"ids": ids, "windows": windows, "z": z,
                "pooled": pooled, "argmax": argmax}

    def _forward(self, example) -> dict:
        segs = [self._segment_forward(example.left),
                self._segment_forward(example.middle),
                self._segment_forward(example.right)]
        flag = 1.0 if example.entity_first else 0.0
        feat = np.concatenate(
            [s["pooled"] for s in segs]
            + [np.array([flag], dtype=self.emb.vectors.dtype)])
        hpre = feat @ self._params["hidden_w"] + self._params["hidden_b"]
        hvec = np.tanh(hpre)
        logits = hvec @ self._params["out_w"] + self._params["out_b"]
        probs = softmax(logits)
        return {"segs": segs, "feat": feat, "hvec": hvec, "probs": probs}

    def forward(self, example) -> float:
        """Positive-class probability for a candidate-shaped example."""
        return float(self._forward(example)["probs"][1])

    def loss_and_grads(self, example, label: int):
        cache = self._forward(example)
        probs = cache["probs"]
        loss = -np.log(max(probs[label], 1e-300))  # numpy scalar, dtype kept

        grads = {name: np.zeros_like(arr) for name, arr in self.params().items()}
        dlogits = probs.copy()
        dlogits[label] -= 1.0
        grads["out_w"] += np.outer(cache["hvec"], dlogits)
        grads["out_b"] += dlogits
        dh = self._params["out_w"] @ dlogits
        dhpre = (1.0 - cache["hvec"] ** 2) * dh
        grads["hidden_w"] += np.outer(cache["feat"], dhpre)
        grads["hidden_b"] += dhpre
        dfeat = self._params["hidden_w"] @ dhpre

        m = self.filters
        w = self.width
        d = self.emb.dim
        for k, seg in enumerate(cache["segs"]):
            dz = dfeat[k * m:(k + 1) * m]
            z = seg["z"]
            dz_full = np.zeros_like(z)
            dz_full[seg["argmax"], np.arange(m)] = dz
            da = (1.0 - z ** 2) * dz_full
            grads["conv_w"] += da.T @ seg["windows"]
            grads["conv_b"] += da.sum(axis=0)
            dwindows = da @ self._params["conv_w"]
            padded_len = seg["windows"].shape[0] + w - 1
            dx = np.zeros((padded_len, d), dtype=dwindows.dtype)
            for p in range(dwindows.shape[0]):
                dx[p:p + w] += dwindows[p].reshape(w, d)
            for t, idx in enumerate(seg["ids"]):  # pad rows carry no grad
                grads["emb"][idx] += dx[t]
        return loss, grads
