"""Recurrent relation classifiers: uni-directional, bi-directional, and a
multi-task variant that predicts the type of the next word.

The input is the example's token sequence with the two spans replaced by
argument-marker tokens (order follows the entity-first flag).  The
uni-directional net reads the sequence once and classifies from the final
hidden state.  The bi-directional net runs two independent recurrences and
sums their final hidden states before the softmax.  The multi-task net adds
a 3-way type softmax at each step (first argument / second argument / other
for the NEXT word); the argmax type is embedded and concatenated onto the
next input, and the type head is supervised from the marker positions.
"""

from __future__ import annotations

import numpy as np

from .cnn import softmax
from .embeddings import ENTITY_MARK, FILLER_MARK, EmbeddingMatrix, INIT_RANGE

VARIANTS = ("uni", "bi", "multitask")

TYPE_OTHER, TYPE_ENTITY, TYPE_FILLER = 0, 1, 2

# the parameters of the forward chain and of bi's reversed chain
CHAIN_KEYS = (("w_in", "w_rec", "b"), ("w_in_b", "w_rec_b", "b_b"))

# width of the embedded next-word type the multitask net feeds back; one
# value is used, and model headers record it
TYPE_DIM = 3


def encode_sequence(example) -> tuple[list[str], list[int]]:
    """Marker-delimited token sequence plus per-token type labels."""
    first, second = (ENTITY_MARK, FILLER_MARK) if example.entity_first \
        else (FILLER_MARK, ENTITY_MARK)
    tokens = (list(example.left) + [first] + list(example.middle)
              + [second] + list(example.right))
    types = []
    for tok in tokens:
        if tok == ENTITY_MARK:
            types.append(TYPE_ENTITY)
        elif tok == FILLER_MARK:
            types.append(TYPE_FILLER)
        else:
            types.append(TYPE_OTHER)
    return tokens, types


class RNNClassifier:
    kind = "rnn"

    def __init__(self, embeddings: EmbeddingMatrix, variant: str = "uni",
                 hidden: int = 50, type_dim: int = TYPE_DIM, seed: int = 13,
                 params: dict[str, np.ndarray] | None = None):
        if variant not in VARIANTS:
            raise ValueError(f"unknown RNN variant {variant!r}")
        self.emb = embeddings
        self.variant = variant
        self.hidden = hidden
        self.type_dim = type_dim
        d = embeddings.dim
        d_in = d + type_dim if variant == "multitask" else d
        if params is not None:
            self._params = params
            return
        rng = np.random.default_rng(seed)

        def init(*shape):
            return rng.uniform(-INIT_RANGE, INIT_RANGE, size=shape)

        self._params = {
            "w_in": init(d_in, hidden),
            "w_rec": init(hidden, hidden),
            "b": np.zeros(hidden),
            "out_w": init(hidden, 2),
            "out_b": np.zeros(2),
        }
        if variant == "bi":
            self._params["w_in_b"] = init(d_in, hidden)
            self._params["w_rec_b"] = init(hidden, hidden)
            self._params["b_b"] = np.zeros(hidden)
        if variant == "multitask":
            self._params["type_w"] = init(hidden, 3)
            self._params["type_b"] = np.zeros(3)
            self._params["type_emb"] = init(3, type_dim)

    def params(self) -> dict[str, np.ndarray]:
        out = dict(self._params)
        out["emb"] = self.emb.vectors
        return out

    L2_PARAMS = ("w_in", "w_rec", "out_w", "w_in_b", "w_rec_b", "type_w")

    def _chain(self, x: np.ndarray, keys) -> np.ndarray:
        """Hidden states of a tanh recurrence over the rows of x, with the
        input, recurrent and bias parameters named by ``keys``."""
        w_in, w_rec, b = (self._params[k] for k in keys)
        T = x.shape[0]
        h = np.zeros((T, self.hidden), dtype=x.dtype)
        prev = np.zeros(self.hidden, dtype=x.dtype)
        for t in range(T):
            prev = np.tanh(x[t] @ w_in + prev @ w_rec + b)
            h[t] = prev
        return h

    def _chain_backward(self, x, h, dh_final, grads, keys=CHAIN_KEYS[0],
                        dh_steps=None):
        """BPTT for one chain; returns d(x).  dh_final is the gradient at the
        final hidden state; dh_steps, if given, holds one extra gradient per
        step (row t joins at hidden state t)."""
        key_in, key_rec, key_b = keys
        w_in, w_rec = self._params[key_in], self._params[key_rec]
        T = x.shape[0]
        dx = np.zeros_like(x)
        dh = dh_final
        for t in range(T - 1, -1, -1):
            if dh_steps is not None:
                dh = dh + dh_steps[t]
            dpre = (1.0 - h[t] ** 2) * dh
            grads[key_in] += np.outer(x[t], dpre)
            grads[key_b] += dpre
            if t > 0:
                grads[key_rec] += np.outer(h[t - 1], dpre)
                dh = w_rec @ dpre
            else:
                dh = np.zeros(self.hidden)
            dx[t] = w_in @ dpre
        return dx

    def _forward_chains(self, ids: list[int]) -> dict:
        """The uni net's one chain, or the bi net's forward chain and its
        chain over the reversed sequence, whose final states sum."""
        x = self.emb.vectors[ids]
        xs = [x, x[::-1]] if self.variant == "bi" else [x]
        hs = [self._chain(xc, keys) for xc, keys in zip(xs, CHAIN_KEYS)]
        final = hs[0][-1] + hs[1][-1] if len(hs) == 2 else hs[0][-1]
        logits = final @ self._params["out_w"] + self._params["out_b"]
        return {"ids": ids, "xs": xs, "hs": hs, "final": final,
                "probs": softmax(logits)}

    def _forward_multitask(self, ids: list[int],
                           frozen_choices=None) -> dict:
        p = self._params
        T = len(ids)
        d = self.emb.dim
        e = self.type_dim
        dtype = self.emb.vectors.dtype
        x = np.zeros((T, d + e), dtype=dtype)
        h = np.zeros((T, self.hidden), dtype=dtype)
        tprobs = np.zeros((T, 3), dtype=dtype)
        choices = np.zeros(T, dtype=int)
        prev = np.zeros(self.hidden, dtype=dtype)
        tfeat = np.zeros(e, dtype=dtype)  # no prediction precedes word one
        for t in range(T):
            x[t] = np.concatenate([self.emb.vectors[ids[t]], tfeat])
            prev = np.tanh(x[t] @ p["w_in"] + prev @ p["w_rec"] + p["b"])
            h[t] = prev
            tlogits = h[t] @ p["type_w"] + p["type_b"]
            tprobs[t] = softmax(tlogits)
            choices[t] = int(np.argmax(tprobs[t])) if frozen_choices is None \
                else int(frozen_choices[t])
            tfeat = p["type_emb"][choices[t]]
        logits = h[-1] @ p["out_w"] + p["out_b"]
        return {"ids": ids, "x": x, "h": h, "tprobs": tprobs,
                "choices": choices, "probs": softmax(logits)}

    def _forward(self, example, frozen_choices=None) -> dict:
        tokens, types = encode_sequence(example)
        if not tokens:
            raise ValueError("empty input sequence")
        ids = self.emb.indices(tokens)
        if self.variant == "multitask":
            cache = self._forward_multitask(ids, frozen_choices)
        else:
            cache = self._forward_chains(ids)
        cache["types"] = types
        return cache

    def forward(self, example) -> float:
        """Positive-class probability for a candidate-shaped example."""
        return float(self._forward(example)["probs"][1])

    def loss_and_grads(self, example, label: int, frozen_choices=None):
        cache = self._forward(example, frozen_choices)
        probs = cache["probs"]
        loss = -np.log(max(probs[label], 1e-300))
        grads = {name: np.zeros_like(arr) for name, arr in self.params().items()}
        dlogits = probs.copy()
        dlogits[label] -= 1.0

        if self.variant == "multitask":
            loss = loss + self._backward_multitask(cache, dlogits, grads)
        else:
            self._backward_chains(cache, dlogits, grads)
        return loss, grads

    def _backward_chains(self, cache, dlogits, grads):
        p = self._params
        grads["out_w"] += np.outer(cache["final"], dlogits)
        grads["out_b"] += dlogits
        dh_final = p["out_w"] @ dlogits
        dxs = [self._chain_backward(xc, h, dh_final, grads, keys)
               for xc, h, keys in zip(cache["xs"], cache["hs"], CHAIN_KEYS)]
        dx = dxs[0] + dxs[1][::-1] if len(dxs) == 2 else dxs[0]
        for t, idx in enumerate(cache["ids"]):
            grads["emb"][idx] += dx[t]

    def _backward_multitask(self, cache, dlogits, grads) -> float:
        """Full BPTT including the type head; returns the type loss."""
        p = self._params
        h = cache["h"]
        x = cache["x"]
        tprobs = cache["tprobs"]
        choices = cache["choices"]
        types = cache["types"]
        T = len(cache["ids"])
        d = self.emb.dim

        # type loss: step t predicts the type of word t+1
        n_steps = T - 1
        type_loss = np.zeros((), dtype=x.dtype)
        dtlogits = np.zeros((T, 3), dtype=x.dtype)
        if n_steps > 0:
            for t in range(n_steps):
                target = types[t + 1]
                type_loss += -np.log(max(tprobs[t][target], 1e-300))
                dt = tprobs[t].copy()
                dt[target] -= 1.0
                dtlogits[t] = dt / n_steps
            type_loss /= n_steps

        # the type head's gradient joins the recurrence at each step; row by
        # row in descending t, the order the accumulations must keep
        dh_steps = np.zeros_like(h)
        for t in range(T - 1, -1, -1):
            grads["type_w"] += np.outer(h[t], dtlogits[t])
            grads["type_b"] += dtlogits[t]
            dh_steps[t] = p["type_w"] @ dtlogits[t]

        grads["out_w"] += np.outer(h[-1], dlogits)
        grads["out_b"] += dlogits
        dx = self._chain_backward(x, h, p["out_w"] @ dlogits, grads,
                                  dh_steps=dh_steps)
        for t in range(T - 1, -1, -1):
            grads["emb"][cache["ids"][t]] += dx[t, :d]
            if t >= 1:
                # the type feature fed into step t was row choices[t-1]; the
                # hard argmax is constant under differentiation
                grads["type_emb"][choices[t - 1]] += dx[t, d:]
        return type_loss
