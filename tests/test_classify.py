"""Patterns, featurization, the linear classifier, score interpolation."""

import math
import re
from dataclasses import dataclass

import numpy as np
import pytest

from slotfill.classify import (
    HASH_BITS,
    LinearModel,
    Pattern,
    SVMConfig,
    check_weights,
    combine_scores,
    featurize,
    load_patterns,
    load_svm,
    match_patterns,
    save_svm,
    svm_margin,
    svm_score,
    svm_train,
)
from slotfill.pipeline import classifier_view, configure_run, run_query
from slotfill.query import SlotQuery
from slotfill.resources import default_slot_configs, default_weights


@dataclass
class Example:
    left: tuple
    middle: tuple
    right: tuple
    entity_first: bool = True


def example_from_sentence(tokens, entity_span, filler_span):
    (s1, e1), (s2, e2) = sorted([entity_span, filler_span])
    return Example(
        left=tuple(tokens[:s1]),
        middle=tuple(tokens[e1:s2]),
        right=tuple(tokens[e2:]),
        entity_first=entity_span[0] < filler_span[0],
    )


class TestPatternParsing:
    def test_requires_both_placeholders(self):
        with pytest.raises(ValueError):
            Pattern(("<ENTITY>", "alone"))

    def test_wildcard_bound_enforced(self):
        with pytest.raises(ValueError):
            Pattern(("<ENTITY>", "*9", "<FILLER>"))

    @pytest.mark.parametrize("tok", ["*x", "*", "*0", "*6"])
    def test_bad_wildcard_bound_named(self, tok):
        with pytest.raises(ValueError, match=r"bad wildcard bound \*"):
            Pattern(("<ENTITY>", tok, "<FILLER>"))

    def test_load(self, tmp_path):
        p = tmp_path / "patterns.tsv"
        p.write_text("per:age\t<ENTITY> is <FILLER> years old\n")
        patterns = load_patterns(p)
        assert len(patterns["per:age"]) == 1

    def test_load_reports_bad_template_location(self, tmp_path):
        p = tmp_path / "patterns.tsv"
        p.write_text("# header\nper:age\t<ENTITY> is <FILLER> years old\n"
                     "per:age\t<ENTITY> *x <FILLER>\n")
        with pytest.raises(ValueError) as err:
            load_patterns(p)
        assert str(err.value) == (
            f"{p}: line 3: bad wildcard bound *x (want *1..*5): "
            "<ENTITY> *x <FILLER>")


class TestMatchPatterns:
    def test_literal_match(self):
        ex = example_from_sentence(
            ["Obama", "was", "born", "in", "Hawaii"], (0, 1), (4, 5))
        pattern = Pattern(tuple("<ENTITY> was born in <FILLER>".split()))
        assert match_patterns(ex, [pattern]) == 1.0

    def test_wildcard_backtracking(self):
        # independent check: "<ENTITY> *3 born *3 <FILLER>" must align on
        # "X , who was born near Y" with skips of 3 and 1
        tokens = "X , who was born near Y".split()
        ex = example_from_sentence(tokens, (0, 1), (6, 7))
        pattern = Pattern(tuple("<ENTITY> *3 born *3 <FILLER>".split()))
        assert match_patterns(ex, [pattern]) == 1.0

    def test_no_match(self):
        ex = example_from_sentence(["A", "met", "B"], (0, 1), (2, 3))
        pattern = Pattern(tuple("<ENTITY> was born in <FILLER>".split()))
        assert match_patterns(ex, [pattern]) == 0.0

    def test_position_independent(self):
        base = "Obama was born in Hawaii".split()
        prefixed = "Yesterday we learned that".split() + base
        ex = example_from_sentence(prefixed, (4, 5), (8, 9))
        pattern = Pattern(tuple("<ENTITY> was born in <FILLER>".split()))
        assert match_patterns(ex, [pattern]) == 1.0

    def test_case_insensitive_literals(self):
        ex = example_from_sentence(
            ["Obama", "WAS", "BORN", "IN", "Hawaii"], (0, 1), (4, 5))
        pattern = Pattern(tuple("<ENTITY> was born in <FILLER>".split()))
        assert match_patterns(ex, [pattern]) == 1.0

    def test_swapped_roles(self):
        # canonical direction: person (<ENTITY>) studied at school (<FILLER>);
        # an inverse-slot candidate has the school as its entity
        tokens = "John studied at Yale".split()
        ex = example_from_sentence(tokens, (3, 4), (0, 1))  # entity=Yale
        pattern = Pattern(tuple("<ENTITY> studied at <FILLER>".split()))
        assert match_patterns(ex, [pattern]) == 0.0
        assert match_patterns(classifier_view(ex, True), [pattern]) == 1.0

    def test_wildcard_can_match_zero_tokens(self):
        tokens = "X born Y".split()
        ex = example_from_sentence(tokens, (0, 1), (2, 3))
        pattern = Pattern(tuple("<ENTITY> *2 born *2 <FILLER>".split()))
        assert match_patterns(ex, [pattern]) == 1.0


class TestFeaturize:
    def test_deterministic(self):
        ex = Example(("a",), ("b", "c"), ("d",))
        assert featurize(ex) == featurize(ex)

    def test_empty_contexts_still_have_flag_and_bucket(self):
        ex = Example((), (), ())
        feats = featurize(ex)
        assert len(feats) == 2  # EF flag + length bucket

    def test_segment_prefixes_disjoint(self):
        # the same word hashed under different segment prefixes gets its own key
        from slotfill.classify import _hash_feature
        keys = {_hash_feature(f"{p}:word") for p in ("L", "M", "R")}
        assert len(keys) == 3


def separable_dataset(n=40, seed=7):
    rng = np.random.default_rng(seed)
    data = []
    for _ in range(n):
        if rng.random() < 0.5:
            data.append((Example((), ("works", "for"), ()), 1))
        else:
            data.append((Example((), ("sued",), ()), 0))
    return data


class TestSVM:
    def test_zero_weights_score_half(self):
        model = LinearModel({}, 0.0)
        assert svm_score(model, Example((), ("x",), ())) == pytest.approx(0.5)

    def test_extreme_margins_stay_in_unit_interval(self):
        ex = Example((), ("x",), ())
        for bias in (-300.0, -1e6, -1e300, 300.0, 1e300):
            model = LinearModel({}, bias)
            assert 0.0 <= svm_score(model, ex) <= 1.0
        assert svm_score(LinearModel({}, -300.0), ex) == 0.0

    def test_ordinary_margins_bit_identical_to_logistic(self):
        ex = Example((), ("x",), ())
        for margin in np.linspace(-236.0, 236.0, 947):
            model = LinearModel({}, float(margin))
            expected = 1.0 / (1.0 + math.exp(-3.0 * float(margin)))
            assert svm_score(model, ex) == expected

    def test_separable_training_scores(self):
        data = separable_dataset()
        model = svm_train(data, SVMConfig(seed=1))
        for ex, label in data:
            if label == 1:
                assert svm_score(model, ex) > 0.9

    def test_score_monotone_in_margin(self):
        data = separable_dataset()
        model = svm_train(data, SVMConfig(seed=1))
        ex = Example((), ("works", "for"), ())
        s1 = svm_score(model, ex)
        model.weights = {i: w * 2.0 for i, w in model.weights.items()}
        model.bias *= 2.0
        s2 = svm_score(model, ex)
        assert svm_margin(model, ex) > 0
        assert s2 > s1

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            svm_train([])

    def test_deterministic(self):
        data = separable_dataset()
        m1 = svm_train(data, SVMConfig(seed=3))
        m2 = svm_train(data, SVMConfig(seed=3))
        assert m1.weights == m2.weights
        assert m1.bias == m2.bias

    def test_persistence_round_trip(self, tmp_path):
        model = svm_train(separable_dataset(), SVMConfig(seed=5))
        p = tmp_path / "svm.npz"
        save_svm(model, p, slot="per:age")
        loaded = load_svm(p)
        assert loaded.weights == model.weights
        assert loaded.bias == model.bias
        ex = Example((), ("works", "for"), ())
        assert svm_score(loaded, ex) == svm_score(model, ex)
        with np.load(p) as data:
            assert all(data[k].size < 1 << HASH_BITS for k in data.files)

    def test_dense_file_rejected(self, tmp_path):
        p = tmp_path / "dense.svm.npz"
        np.savez(p, weights=np.zeros(1 << 4), bias=np.array([0.0]),
                 bits=np.array([4]), slot=np.frombuffer(b"per:age", np.uint8))
        with pytest.raises(ValueError, match=r"dense\.svm\.npz.*retrain"):
            load_svm(p)

    def test_other_hash_width_rejected(self, tmp_path):
        p = tmp_path / "narrow.svm.npz"
        np.savez(p, indices=np.array([3]), values=np.array([0.5]),
                 bias=np.array([0.0]), bits=np.array([14]),
                 slot=np.frombuffer(b"per:age", np.uint8))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: SVM "
                           rf"features hash to 14 bits, not {HASH_BITS};"):
            load_svm(p)


class TestCombineScores:
    def test_weighted_arithmetic(self):
        weights = {"pattern": 0.4, "svm": 0.3, "cnn": 0.2, "rnn": 0.1}
        scores = {"pattern": 1.0, "svm": 0.0, "cnn": 0.0, "rnn": 0.0}
        assert combine_scores(scores, weights) == pytest.approx(0.4)

    def test_equal_scores_preserved(self):
        weights = {"pattern": 0.4, "svm": 0.3, "cnn": 0.2, "rnn": 0.1}
        scores = {k: 0.7 for k in weights}
        assert combine_scores(scores, weights) == pytest.approx(0.7)

    def test_renormalization_over_present(self):
        weights = {"pattern": 0.4, "svm": 0.3, "cnn": 0.2, "rnn": 0.1}
        scores = {"pattern": 1.0, "svm": 0.0}
        assert combine_scores(scores, weights) == pytest.approx(0.4 / 0.7)

    def test_convexity(self):
        weights = default_weights()
        scores = {"pattern": 0.1, "svm": 0.9, "cnn": 0.4}
        combined = combine_scores(scores, weights)
        assert min(scores.values()) <= combined <= max(scores.values())

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            combine_scores({"pattern": 1.0}, {"pattern": 0.0})

    def test_check_weights(self):
        checked = check_weights({"pattern": 1, "svm": 0.5}, "w.json")
        assert checked == {"pattern": 1.0, "svm": 0.5}
        assert all(type(v) is float for v in checked.values())

    @pytest.mark.parametrize("weights", [
        {"default": {"pattern": 1.0}, "per:age": {"svm": 1.0}},
        {"pattern": 0.5, "per:age": {"svm": 1.0}},
        {"pattern": "0.5"},
        {"svm": True},
        {},
        [0.5, 0.5],
        {"pattern": float("nan")},
        {"pattern": 1.0, "svm": float("-inf")},
        {"pattern": 10 ** 400},
    ])
    def test_check_weights_rejects(self, weights):
        with pytest.raises(ValueError, match=r"w\.json: interpolation weights"):
            check_weights(weights, "w.json")


@pytest.fixture(scope="module")
def slots():
    return default_slot_configs()


def canonical(cfg) -> tuple[str, bool]:
    return cfg.canonical_slot, cfg.swapped


class TestCanonicalizeSlot:
    """The slot table settles each slot's canonical classification slot,
    and whether it is the slot's inverse (argument roles flip)."""

    def test_inverse_slot_swapped(self, slots):
        assert canonical(slots["org:students"]) == \
            ("per:schools_attended", True)

    def test_location_merge_not_swapped(self, slots):
        assert canonical(slots["per:city_of_birth"]) == \
            ("per:location_of_birth", False)

    def test_canonical_identity(self, slots):
        assert canonical(slots["per:schools_attended"]) == \
            ("per:schools_attended", False)

    def test_idempotent(self, slots):
        for cfg in slots.values():
            again, swapped = canonical(slots[cfg.canonical_slot])
            assert again == cfg.canonical_slot
            assert swapped is False

    def test_unknown_slot_rejected(self, system_state):
        query = SlotQuery("q1", "Steve Miller", "PER", "per:shoe_size")
        with pytest.raises(ValueError, match="unknown slot 'per:shoe_size'"):
            run_query(system_state, query, configure_run(2))
