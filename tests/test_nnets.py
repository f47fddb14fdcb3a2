"""Neural classifiers: forward arithmetic, gradients, training, ensembling."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from slotfill.nnets import (
    CNNClassifier,
    EmbeddingMatrix,
    RNNClassifier,
    load_embedding_file,
    load_model,
    rnn_ensemble_score,
    save_model,
    train,
)
from slotfill.nnets.rnn import encode_sequence

from helpers import evaluate_accuracy, gradient_check


@dataclass
class Example:
    left: tuple
    middle: tuple
    right: tuple
    entity_first: bool = True


EX = Example(("the", "young"), ("was", "born", "in"), ("yesterday",))


def small_embeddings(dim=5, seed=3):
    words = ["the", "young", "was", "born", "in", "yesterday", "city", "a", "b"]
    return EmbeddingMatrix.build(words, dim=dim, seed=seed)


class TestEmbeddings:
    def test_unknown_maps_to_unk_row(self):
        emb = small_embeddings()
        assert emb.index("zzz-not-there") == emb.unk_index

    def test_lookup_lowercases(self):
        emb = small_embeddings()
        assert emb.index("Born") == emb.index("born")

    def test_pretrained_overrides(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("born 1 2 3\n")
        pre = load_embedding_file(p)
        emb = EmbeddingMatrix.build(["born", "other"], dim=3, pretrained=pre)
        assert np.allclose(emb.vectors[emb.index("born")], [1, 2, 3])

    def test_bad_value_names_file_and_line(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("born 1 2 3\n\nparis 0.1 x\n")
        with pytest.raises(ValueError) as err:
            load_embedding_file(p)
        assert str(err.value) == (f"{p}: line 3: could not convert string "
                                  "to float: 'x'")

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingMatrix.build(["a"], dim=4,
                                  pretrained={"a": np.array([1.0, 2.0])})


class TestCNNForward:
    def test_zero_params_gives_half(self):
        emb = small_embeddings()
        model = CNNClassifier(emb, filters=4, width=2, hidden=3)
        for name, arr in model._params.items():
            arr[:] = 0.0
        assert model.forward(EX) == pytest.approx(0.5, abs=1e-15)

    def test_hand_computed_one_filter(self):
        # d=1, one width-1 filter, hidden size 2: every number done by hand
        emb = EmbeddingMatrix.build(["a", "b"], dim=1, seed=0)
        emb.vectors[emb.index("a")] = 0.3
        emb.vectors[emb.index("b")] = -0.2
        model = CNNClassifier(emb, filters=1, width=1, hidden=2)
        model._params["conv_w"][:] = [[2.0]]
        model._params["conv_b"][:] = [0.1]
        model._params["hidden_w"][:] = [[0.5, -0.5], [1.0, 0.2],
                                        [-1.0, 0.3], [0.25, 0.75]]
        model._params["hidden_b"][:] = [0.05, -0.05]
        model._params["out_w"][:] = [[1.5, -1.0], [0.5, 2.0]]
        model._params["out_b"][:] = [0.1, -0.2]

        ex = Example(("a",), ("b",), (), entity_first=True)
        pl = math.tanh(0.3 * 2.0 + 0.1)
        pm = math.tanh(-0.2 * 2.0 + 0.1)
        pr = math.tanh(0.0 * 2.0 + 0.1)  # empty segment: zero padding
        feat = [pl, pm, pr, 1.0]
        h0 = math.tanh(feat[0] * 0.5 + feat[1] * 1.0 + feat[2] * -1.0
                       + feat[3] * 0.25 + 0.05)
        h1 = math.tanh(feat[0] * -0.5 + feat[1] * 0.2 + feat[2] * 0.3
                       + feat[3] * 0.75 - 0.05)
        l0 = h0 * 1.5 + h1 * 0.5 + 0.1
        l1 = h0 * -1.0 + h1 * 2.0 - 0.2
        expected = math.exp(l1) / (math.exp(l0) + math.exp(l1))
        assert model.forward(ex) == pytest.approx(expected, abs=1e-12)

    def test_empty_middle_finite(self):
        emb = small_embeddings()
        model = CNNClassifier(emb, filters=3, width=3, hidden=4)
        ex = Example(("the",), (), ("city",))
        p = model.forward(ex)
        assert 0.0 < p < 1.0

    def test_probability_in_open_interval(self):
        emb = small_embeddings()
        model = CNNClassifier(emb, filters=4, width=2, hidden=3, seed=7)
        p = model.forward(EX)
        assert 0.0 < p < 1.0

    def test_pooling_shift_invariance(self):
        # an n-gram at two interior positions of a zero-token segment yields
        # the same window multiset, so per-filter max pooling is unchanged
        emb = small_embeddings(dim=3)
        emb.vectors[emb.index("a")] = 0.0  # "a" acts as an explicit zero token
        model = CNNClassifier(emb, filters=4, width=2, hidden=3, seed=1)
        seg_a = model._forward(
            Example(("a", "born", "in", "a", "a", "a"), (), ()))["segs"][0]
        seg_b = model._forward(
            Example(("a", "a", "a", "born", "in", "a"), (), ()))["segs"][0]
        assert np.array_equal(seg_a["pooled"], seg_b["pooled"])

    def test_shared_filters_across_segments(self):
        # permuting which segment holds the words permutes pooled blocks only
        emb = small_embeddings()
        model = CNNClassifier(emb, filters=4, width=2, hidden=3, seed=2)
        seg1 = model._forward(Example(("was", "born"), (), ()))["segs"][0]
        seg2 = model._forward(Example((), ("was", "born"), ()))["segs"][1]
        assert np.array_equal(seg1["pooled"], seg2["pooled"])

        a = model._forward(Example(("was", "born"), ("in",), ()))
        b = model._forward(Example(("in",), ("was", "born"), ()))
        pooled_a = [s["pooled"] for s in a["segs"]]
        pooled_b = [s["pooled"] for s in b["segs"]]
        assert np.array_equal(pooled_a[0], pooled_b[1])
        assert np.array_equal(pooled_a[1], pooled_b[0])
        assert np.array_equal(pooled_a[2], pooled_b[2])

    def test_softmax_sums_to_one(self):
        emb = small_embeddings()
        model = CNNClassifier(emb, filters=4, width=2, hidden=3, seed=5)
        probs = model._forward(EX)["probs"]
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestRNNForward:
    def test_zero_params_gives_half(self):
        emb = small_embeddings()
        for variant in ("uni", "bi", "multitask"):
            model = RNNClassifier(emb, variant=variant, hidden=4)
            for name, arr in model._params.items():
                arr[:] = 0.0
            assert model.forward(EX) == pytest.approx(0.5, abs=1e-15), variant

    def test_single_token_hand_computed(self):
        emb = EmbeddingMatrix.build(["a"], dim=1, seed=0)
        emb.vectors[emb.index("a")] = 0.3
        model = RNNClassifier(emb, variant="uni", hidden=1)
        model._params["w_in"][:] = [[0.5]]
        model._params["w_rec"][:] = [[0.25]]
        model._params["b"][:] = [0.1]
        model._params["out_w"][:] = [[0.7, -0.3]]
        model._params["out_b"][:] = [0.05, -0.05]
        # sequence is <e> then <f> for an empty example with one left token:
        # build explicitly: left=("a",) middle=() right=() -> a, <e>, <f>
        ex = Example(("a",), (), ())
        e_vec = float(emb.vectors[emb.index("<e>")][0])
        f_vec = float(emb.vectors[emb.index("<f>")][0])
        h = 0.0
        for x in (0.3, e_vec, f_vec):
            h = math.tanh(x * 0.5 + h * 0.25 + 0.1)
        l0, l1 = h * 0.7 + 0.05, h * -0.3 - 0.05
        expected = math.exp(l1) / (math.exp(l0) + math.exp(l1))
        assert model.forward(ex) == pytest.approx(expected, abs=1e-12)

    def test_bi_with_zero_backward_equals_uni(self):
        emb = small_embeddings()
        bi = RNNClassifier(emb, variant="bi", hidden=4, seed=11)
        bi._params["w_in_b"][:] = 0.0
        bi._params["w_rec_b"][:] = 0.0
        bi._params["b_b"][:] = 0.0
        uni = RNNClassifier(emb, variant="uni", hidden=4, seed=99)
        for name in ("w_in", "w_rec", "b", "out_w", "out_b"):
            uni._params[name][:] = bi._params[name]
        assert bi.forward(EX) == uni.forward(EX)  # exact equality

    def test_marker_sequence_order_follows_flag(self):
        ex_first = Example(("x",), ("y",), ("z",), entity_first=True)
        ex_second = Example(("x",), ("y",), ("z",), entity_first=False)
        toks_first, types_first = encode_sequence(ex_first)
        toks_second, types_second = encode_sequence(ex_second)
        assert toks_first == ["x", "<e>", "y", "<f>", "z"]
        assert toks_second == ["x", "<f>", "y", "<e>", "z"]
        assert types_first == [0, 1, 0, 2, 0]
        assert types_second == [0, 2, 0, 1, 0]


class TestGradientChecks:
    def test_cnn(self):
        emb = small_embeddings(dim=4, seed=21)
        model = CNNClassifier(emb, filters=3, width=2, hidden=4, seed=21)
        err = gradient_check(model, EX, label=1)
        assert err < 1e-4

    @pytest.mark.parametrize("variant", ["uni", "bi", "multitask"])
    def test_rnn_variants(self, variant):
        emb = small_embeddings(dim=4, seed=22)
        model = RNNClassifier(emb, variant=variant, hidden=4, seed=22)
        err = gradient_check(model, EX, label=0)
        assert err < 1e-4

    def test_cnn_zero_input_bias_grads(self):
        emb = small_embeddings(dim=3, seed=23)
        model = CNNClassifier(emb, filters=2, width=2, hidden=3, seed=23)
        ex = Example((), (), ())
        err = gradient_check(model, ex, label=1)
        assert err < 1e-4


def toy_dataset(emb_words, n=40, seed=5):
    rng = np.random.default_rng(seed)
    data = []
    for _ in range(n):
        if rng.random() < 0.5:
            mid = ("was", "born", "in")
            label = 1
        else:
            mid = ("visited",)
            label = 0
        noise = tuple(rng.choice(emb_words, size=rng.integers(0, 3)))
        data.append((Example(noise, mid, (), entity_first=True), label))
    return data


class TestTraining:
    def test_zero_learning_rate_keeps_params(self):
        emb = small_embeddings()
        model = CNNClassifier(emb, filters=3, width=2, hidden=3, seed=4)
        before = {k: v.copy() for k, v in model.params().items()}
        data = toy_dataset(["the", "young"], n=8)
        train(model, data, epochs=2, learning_rate=0.0, batch_size=16, seed=1)
        after = model.params()
        for name in before:
            assert np.array_equal(before[name], after[name]), name

    def test_identical_seeds_identical_params(self):
        data = toy_dataset(["the", "young"], n=16)
        results = []
        for _ in range(2):
            emb = small_embeddings(seed=6)
            model = RNNClassifier(emb, variant="uni", hidden=4, seed=6)
            train(model, data, epochs=3, learning_rate=0.05, batch_size=16,
                  seed=2)
            results.append({k: v.copy() for k, v in model.params().items()})
        for name in results[0]:
            assert np.array_equal(results[0][name], results[1][name]), name

    def test_learns_separable_data(self):
        emb = small_embeddings(seed=8)
        model = CNNClassifier(emb, filters=6, width=2, hidden=8, seed=8)
        data = toy_dataset(["the", "young", "city"], n=60, seed=9)
        losses = train(model, data, epochs=40, learning_rate=0.5,
                       batch_size=16, seed=3)
        assert len(losses) == 40
        assert evaluate_accuracy(model, data) >= 0.95

    def test_empty_dataset_rejected(self):
        emb = small_embeddings()
        model = CNNClassifier(emb, filters=2, width=2, hidden=2)
        with pytest.raises(ValueError):
            train(model, [], epochs=1, learning_rate=0.05, batch_size=16,
                  seed=13)

    def test_bad_label_rejected(self):
        emb = small_embeddings()
        model = CNNClassifier(emb, filters=2, width=2, hidden=2)
        with pytest.raises(ValueError):
            train(model, [(EX, 2)], epochs=1, learning_rate=0.05,
                  batch_size=16, seed=13)

    def test_negative_learning_rate_rejected(self):
        emb = small_embeddings()
        model = CNNClassifier(emb, filters=2, width=2, hidden=2)
        with pytest.raises(ValueError, match="learning rate"):
            train(model, [(EX, 1)], epochs=1, learning_rate=-0.1,
                  batch_size=16, seed=13)


class TestEnsemble:
    def test_most_confident_wins(self):
        assert rnn_ensemble_score([0.9, 0.6, 0.2]) == 0.9

    def test_tie_prefers_uni(self):
        assert rnn_ensemble_score([0.3, 0.7]) == 0.3

    def test_single_score(self):
        assert rnn_ensemble_score([0.42]) == 0.42

    def test_all_absent_rejected(self):
        with pytest.raises(ValueError):
            rnn_ensemble_score([])

    def test_low_score_can_be_most_confident(self):
        assert rnn_ensemble_score([0.6, 0.1]) == 0.1

    def test_equal_confidence_keeps_the_earlier_variant(self):
        assert rnn_ensemble_score([0.7, 0.3]) == 0.7


class TestExtremeParameters:
    """Scaled-up weights saturate every tanh and softmax; the score must stay
    a probability and the loss and gradients finite, with no float error."""

    @pytest.mark.parametrize("scale", [1e3, 1e6, 1e12])
    @pytest.mark.parametrize("variant", ["cnn", "uni", "bi", "multitask"])
    def test_scores_loss_and_grads_stay_finite(self, scale, variant):
        emb = small_embeddings()
        model = CNNClassifier(emb, filters=4, width=2, hidden=3, seed=1) \
            if variant == "cnn" else RNNClassifier(emb, variant=variant,
                                                   hidden=4, seed=1)
        for arr in model.params().values():
            arr *= scale
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for ex in (EX, Example(("a",), (), (), False)):
                assert 0.0 <= model.forward(ex) <= 1.0
                for label in (0, 1):
                    loss, grads = model.loss_and_grads(ex, label)
                    assert np.isfinite(loss)
                    assert all(np.isfinite(g).all() for g in grads.values())


class TestPersistence:
    def test_cnn_round_trip(self, tmp_path):
        emb = small_embeddings()
        model = CNNClassifier(emb, filters=3, width=2, hidden=4, seed=31)
        p = tmp_path / "model.npz"
        save_model(model, p, slot="per:age")
        loaded = load_model(p)
        assert loaded.forward(EX) == model.forward(EX)

    def test_rnn_round_trip(self, tmp_path):
        emb = small_embeddings()
        for variant in ("uni", "bi", "multitask"):
            model = RNNClassifier(emb, variant=variant, hidden=4, seed=32)
            p = tmp_path / f"{variant}.npz"
            save_model(model, p)
            loaded = load_model(p)
            assert loaded.variant == variant
            assert loaded.forward(EX) == model.forward(EX)


class TestEmbeddingsPerJob:
    def test_rnn_job_reads_embeddings_once(self, tmp_path, monkeypatch,
                                           fixtures_dir):
        from slotfill import trainer
        from slotfill.nnets.rnn import VARIANTS
        from slotfill.traindata import load_examples

        slot = "per:location_of_birth"
        examples = [e for e in load_examples(fixtures_dir / "seed_examples.jsonl")
                    if e.slot == slot]
        vec = tmp_path / "vec.txt"
        vec.write_text("born 0.5 -0.5 0.5 -0.5\n")
        cfg = trainer.ModelTrainingConfig(dim=4, rnn_hidden=4, epochs=2,
                                          batch_size=4, embedding_file=str(vec))
        calls = []

        def load(path):
            calls.append(path)
            return load_embedding_file(path)

        monkeypatch.setattr(trainer, "load_embedding_file", load)
        paths = trainer.train_slot_model(examples, slot, "rnn",
                                         tmp_path / "models", cfg)
        assert calls == [str(vec)]
        # oracle: each network built from its own read of the file
        words = [w for e in examples for w in e.left + e.middle + e.right]
        dataset = [(e, e.label) for e in examples]
        for path, variant in zip(paths, VARIANTS):
            emb = EmbeddingMatrix.build(words, dim=4, seed=cfg.seed,
                                        pretrained=load_embedding_file(vec))
            model = RNNClassifier(emb, variant=variant, hidden=4, seed=cfg.seed)
            train(model, dataset, epochs=cfg.epochs,
                  learning_rate=cfg.learning_rate, batch_size=cfg.batch_size,
                  seed=cfg.seed)
            expected = tmp_path / f"expected.{variant}.npz"
            save_model(model, expected, slot=slot)
            with np.load(path) as got, np.load(expected) as want:
                assert got.files == want.files
                for key in want.files:
                    assert np.array_equal(got[key], want[key]), (variant, key)


class TestTrainingJob:
    @pytest.mark.parametrize("kind", ["cnn", "rnn"])
    def test_job_scores_nothing_after_training(self, kind, tmp_path,
                                               monkeypatch, caplog,
                                               fixtures_dir):
        """A training job runs the networks only through ``loss_and_grads``:
        no forward pass scores the training set once the epochs are done."""
        import logging

        from slotfill import trainer
        from slotfill.traindata import load_examples

        def forbidden(self, *args, **kwargs):
            raise AssertionError("forward pass during a training job")

        for cls in (CNNClassifier, RNNClassifier):
            monkeypatch.setattr(cls, "forward", forbidden)
        monkeypatch.setattr(CNNClassifier, "forward_batch", forbidden)
        slot = "per:location_of_birth"
        examples = [e for e in load_examples(fixtures_dir / "seed_examples.jsonl")
                    if e.slot == slot]
        cfg = trainer.ModelTrainingConfig(dim=4, filters=3, cnn_hidden=4,
                                          rnn_hidden=4, epochs=2, batch_size=4)
        with caplog.at_level(logging.INFO, logger=trainer.__name__):
            paths = trainer.train_slot_model(examples, slot, kind,
                                             tmp_path / "models", cfg)
        assert len(paths) == (3 if kind == "rnn" else 1)
        assert all(path.exists() for path in paths)
        losses = [r.getMessage() for r in caplog.records
                  if "last epoch mean loss" in r.getMessage()]
        assert len(losses) == len(paths)
