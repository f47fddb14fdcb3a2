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
    """Softmax over the last axis: of a vector, or of each row."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


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

    def _block_forward(self, examples) -> dict:
        """The forward pass over every segment of every example at once.

        The left, middle and right segments of the examples lie one after
        another in one token block, each zero-padded to ``width`` rows when
        shorter, so every segment has at least one window.  One gather of
        the window index matrix feeds one conv matmul; ``seg_windows[s]``
        is the first window row of segment ``s``, where its max-pooling
        starts.  Rows of ``feat``, ``hvec`` and ``probs`` are examples."""
        w = self.width
        d = self.emb.dim
        vectors = self.emb.vectors
        ids: list[int] = []         # token ids; pad rows hold 0
        pads: list[int] = []        # token rows that are padding
        seg_tokens: list[int] = []  # first token row of each segment
        seg_windows: list[int] = []
        starts: list[int] = []      # first token row of each window
        flags: list[float] = []
        for ex in examples:
            flags.append(1.0 if ex.entity_first else 0.0)
            for tokens in (ex.left, ex.middle, ex.right):
                row = len(ids)
                seg_tokens.append(row)
                seg_windows.append(len(starts))
                ids.extend(self.emb.indices(tokens))
                short = row + w - len(ids)
                if short > 0:
                    pads.extend(range(len(ids), len(ids) + short))
                    ids.extend([0] * short)
                starts.extend(range(row, len(ids) - w + 1))
        x = vectors[ids]
        x[pads] = 0.0
        window_rows = np.array(starts)[:, None] + np.arange(w)
        windows = x[window_rows].reshape(len(starts), w * d)
        z = np.tanh(windows @ self._params["conv_w"].T + self._params["conv_b"])
        pooled = np.maximum.reduceat(z, seg_windows, axis=0)
        feat = np.concatenate(
            [pooled.reshape(len(flags), 3 * self.filters),
             np.array(flags, dtype=vectors.dtype)[:, None]], axis=1)
        hvec = np.tanh(feat @ self._params["hidden_w"] + self._params["hidden_b"])
        probs = softmax(hvec @ self._params["out_w"] + self._params["out_b"])
        return {"ids": ids, "seg_tokens": seg_tokens, "seg_windows": seg_windows,
                "windows": windows, "z": z, "pooled": pooled, "feat": feat,
                "hvec": hvec, "probs": probs}

    def _forward(self, example) -> dict:
        """``_block_forward`` of one example, with views into its arrays
        per segment: the segment's own token ids (no pad rows), windows,
        activations, pooled vector and the window each filter pooled."""
        block = self._block_forward([example])
        bounds = block["seg_windows"] + [len(block["windows"])]
        segs = []
        for k, tokens in enumerate((example.left, example.middle,
                                    example.right)):
            row = block["seg_tokens"][k]
            lo, hi = bounds[k], bounds[k + 1]
            z = block["z"][lo:hi]
            segs.append({"ids": block["ids"][row:row + len(tokens)],
                         "windows": block["windows"][lo:hi], "z": z,
                         "pooled": block["pooled"][k],
                         "argmax": z.argmax(axis=0)})
        return {"segs": segs, "feat": block["feat"][0],
                "hvec": block["hvec"][0], "probs": block["probs"][0]}

    def forward(self, example) -> float:
        """Positive-class probability for a candidate-shaped example."""
        return self.forward_batch([example])[0]

    def forward_batch(self, examples) -> list[float]:
        """``forward`` of each of ``examples``, from one pass over them."""
        return self._block_forward(examples)["probs"][:, 1].tolist()

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
