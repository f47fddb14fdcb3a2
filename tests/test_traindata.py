"""Distant supervision, trigger cleaning, the selection loop, tuning."""

import pytest

from slotfill.corpus import DocumentStore, make_document
from slotfill.resources import default_gazetteers, default_slot_configs
from slotfill.traindata import (
    LabeledExample,
    RelationInstance,
    SelectionConfig,
    generate_negative_examples,
    generate_positive_examples,
    load_examples,
    load_kb_instances,
    load_triggers,
    select_training_data,
    tune_interpolation_weights,
    tune_thresholds,
)

from helpers import make_noisy_selection_data, purity, save_examples


@pytest.fixture(scope="module")
def gaz():
    return default_gazetteers()


@pytest.fixture(scope="module")
def slots():
    return default_slot_configs()


def store_of(*texts):
    return DocumentStore([make_document(f"d{i}", "news", t)
                          for i, t in enumerate(texts)])


BIRTH_KB = [
    RelationInstance("Karl Braun", "per:location_of_birth", "Dresden"),
    RelationInstance("Emma Stein", "per:location_of_birth", "Leipzig"),
]


class TestGeneratePositives:
    def test_definitional(self):
        store = store_of("Karl Braun was born in Dresden last century.")
        out = generate_positive_examples(store, BIRTH_KB, "per:location_of_birth")
        assert len(out) == 1
        ex = out[0]
        assert ex.label == 1
        assert ex.middle == ("was", "born", "in")
        assert ex.entity_first is True

    def test_single_argument_sentence_yields_nothing(self):
        store = store_of("Karl Braun went home.")
        assert generate_positive_examples(store, BIRTH_KB,
                                          "per:location_of_birth") == []

    def test_two_instances_one_sentence(self):
        store = store_of("Karl Braun met Emma Stein in Dresden and Leipzig.")
        out = generate_positive_examples(store, BIRTH_KB, "per:location_of_birth")
        # Karl+Dresden and Emma+Leipzig both match this sentence
        assert len(out) == 2

    def test_other_relation_ignored(self):
        store = store_of("Karl Braun was born in Dresden.")
        assert generate_positive_examples(store, BIRTH_KB, "per:spouse") == []


class TestGenerateNegatives:
    def test_untyped_pair_not_in_kb(self, gaz, slots):
        store = store_of("Tom Clark moved to Hamburg at once.")
        triggers = {"per:location_of_birth": ["born"]}
        out = generate_negative_examples(store, BIRTH_KB, "per:location_of_birth",
                                         triggers, gaz,
                                         slots["per:location_of_birth"])
        assert len(out) == 1
        assert out[0].label == 0
        assert out[0].middle == ("moved", "to")

    def test_trigger_word_excludes_sentence(self, gaz, slots):
        store = store_of("Tom Clark was born in Hamburg that year.")
        triggers = {"per:location_of_birth": ["born"]}
        out = generate_negative_examples(store, BIRTH_KB, "per:location_of_birth",
                                         triggers, gaz,
                                         slots["per:location_of_birth"])
        assert out == []

    def test_kb_pair_excluded(self, gaz, slots):
        store = store_of("Karl Braun lives near Dresden today.")
        out = generate_negative_examples(store, BIRTH_KB, "per:location_of_birth",
                                         {}, gaz, slots["per:location_of_birth"])
        assert out == []

    def test_commutes_with_document_order(self, gaz, slots):
        texts = ["Tom Clark moved to Hamburg at once.",
                 "Lisa Wolf flew to Vienna in spring.",
                 "Hans Weber speaks about Berlin daily."]
        triggers = {"per:location_of_birth": ["born"]}

        def as_set(store):
            out = generate_negative_examples(
                store, BIRTH_KB, "per:location_of_birth", triggers, gaz,
                slots["per:location_of_birth"])
            return {(e.left, e.middle, e.right, e.entity_first) for e in out}

        a = DocumentStore([make_document(f"d{i}", "news", t)
                           for i, t in enumerate(texts)])
        b = DocumentStore([make_document(f"d{i}", "news", t)
                           for i, t in enumerate(reversed(texts))])
        assert as_set(a) == as_set(b)


class TestSelectionLoop:
    def test_purity_improves_on_noisy_data(self):
        seed_data, noisy = make_noisy_selection_data(seed=5)
        input_purity = purity(noisy)
        assert 0.6 < input_purity < 0.8
        cfg = SelectionConfig(k=5, tau=0.8, seed=5)
        selected = select_training_data(noisy, seed_data, cfg)
        assert selected  # something must be admitted
        assert purity(selected) >= 0.85
        assert purity(selected) >= input_purity

    def test_selected_is_subset_of_noisy(self):
        seed_data, noisy = make_noisy_selection_data(seed=6)
        selected = select_training_data(noisy, seed_data,
                                        SelectionConfig(seed=6))
        noisy_keys = {(e.left, e.middle, e.right, e.entity_first, e.label)
                      for e in noisy}
        for ex in selected:
            assert (ex.left, ex.middle, ex.right, ex.entity_first,
                    ex.label) in noisy_keys
            assert ex.origin == "selected"

    def test_k_one_single_pass(self):
        seed_data, noisy = make_noisy_selection_data(seed=7)
        selected = select_training_data(noisy, seed_data,
                                        SelectionConfig(k=1, seed=7))
        assert purity(selected) >= 0.85

    def test_k_reduced_with_warning(self, caplog):
        seed_data, noisy = make_noisy_selection_data(n_noisy=3, seed=8)
        import logging
        with caplog.at_level(logging.WARNING):
            select_training_data(noisy, seed_data, SelectionConfig(k=10, seed=8))
        assert any("reduced" in r.message for r in caplog.records)

    def test_empty_seed_rejected(self):
        _, noisy = make_noisy_selection_data(seed=9)
        with pytest.raises(ValueError):
            select_training_data(noisy, [], SelectionConfig())

    def test_tau_bounds(self):
        with pytest.raises(ValueError):
            SelectionConfig(tau=0.5)
        with pytest.raises(ValueError):
            SelectionConfig(tau=1.2)


def sweep_oracle(scored):
    """Exhaustive independent sweep used to cross-check tune_thresholds."""
    best_theta, best_f1 = None, -1.0
    for i in range(101):
        theta = round(i / 100, 2)
        tp = sum(1 for s, y in scored if s >= theta and y == 1)
        fp = sum(1 for s, y in scored if s >= theta and y == 0)
        fn = sum(1 for s, y in scored if s < theta and y == 1)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        if f1 > best_f1:
            best_theta, best_f1 = theta, f1
    return best_theta, best_f1


class TestTuneThresholds:
    def test_constructed_peak_at_037(self):
        scored = [(0.37, 1), (0.50, 1), (0.90, 1), (0.10, 0), (0.36, 0)]
        oracle_theta, oracle_f1 = sweep_oracle(scored)
        assert oracle_theta == 0.37  # fixture built so F1 peaks exactly here
        got = tune_thresholds({"per:age": scored})
        assert got["per:age"] == 0.37

    def test_perfect_separation_smallest_theta(self):
        scored = [(0.8, 1), (0.9, 1), (0.1, 0), (0.2, 0)]
        got = tune_thresholds({"s": scored})
        # every theta in (0.2, 0.8] gives F1=1; the tie rule keeps the smallest
        # grid point with that F1, which is 0.21
        assert got["s"] == 0.21

    def test_no_dev_data_default(self, caplog):
        import logging
        with caplog.at_level(logging.WARNING):
            got = tune_thresholds({"s": [(0.9, 1)]})
        assert got["s"] == 0.5

    def test_matches_oracle_on_random_data(self):
        import random
        rng = random.Random(11)
        for _ in range(20):
            scored = [(round(rng.random(), 2), rng.randint(0, 1))
                      for _ in range(30)]
            if {y for _, y in scored} != {0, 1}:
                continue
            oracle_theta, oracle_f1 = sweep_oracle(scored)
            got = tune_thresholds({"s": scored})["s"]
            tp = sum(1 for s, y in scored if s >= got and y == 1)
            fp = sum(1 for s, y in scored if s >= got and y == 0)
            fn = sum(1 for s, y in scored if s < got and y == 1)
            p = tp / (tp + fp) if tp + fp else 0
            r = tp / (tp + fn) if tp + fn else 0
            f1 = 2 * p * r / (p + r) if p + r else 0.0
            assert f1 == pytest.approx(oracle_f1)


class TestTuneWeights:
    def test_only_pattern_informative(self):
        # pattern separates weakly (0.55 vs 0.45) while the other scores are
        # anti-correlated; algebra: combined_pos > combined_neg iff
        # 0.45w + 0.45w > 0.8 iff pattern weight > 8/9, so only the 0.9 and
        # 1.0 grid points reach F1 = 1
        dev = []
        for i in range(20):
            label = i % 2
            if label:
                scores = {"pattern": 0.55, "svm": 0.1, "cnn": 0.1, "rnn": 0.1}
            else:
                scores = {"pattern": 0.45, "svm": 0.9, "cnn": 0.9, "rnn": 0.9}
            dev.append((scores, label))
        weights = tune_interpolation_weights(dev)
        assert weights["pattern"] >= 0.9

    def test_identical_scores_tie_order(self):
        dev = [({"pattern": 0.6, "svm": 0.6}, 1), ({"pattern": 0.6, "svm": 0.6}, 0),
               ({"pattern": 0.2, "svm": 0.2}, 1)]
        weights = tune_interpolation_weights(dev)
        # all weightings give identical combined scores; svm preferred on ties
        assert weights["svm"] == 1.0

    def test_single_classifier(self):
        dev = [({"svm": 0.9}, 1), ({"svm": 0.1}, 0)]
        assert tune_interpolation_weights(dev) == {"svm": 1.0}

    def test_weights_sum_to_one(self):
        dev = [({"pattern": 0.9, "svm": 0.2}, 1),
               ({"pattern": 0.1, "svm": 0.8}, 0)]
        weights = tune_interpolation_weights(dev)
        assert sum(weights.values()) == pytest.approx(1.0)


class TestExampleIO:
    def test_round_trip(self, tmp_path):
        examples = [LabeledExample(("a",), ("b", "c"), (), True, 1, "per:age"),
                    LabeledExample((), ("x",), ("y",), False, 0, "per:age",
                                   origin="selected")]
        p = tmp_path / "examples.jsonl"
        save_examples(examples, p)
        assert load_examples(p) == examples

    def test_bad_example_names_file_and_line(self, tmp_path):
        p = tmp_path / "examples.jsonl"
        p.write_text('{"left": [], "middle": ["b"], "right": [], '
                     '"entity_first": true, "label": 1, "slot": "per:age"}\n'
                     '{"left": [], "middle": ["b"], '
                     '"entity_first": true, "label": 1, "slot": "per:age"}\n')
        with pytest.raises(ValueError, match=r"examples\.jsonl: line 2: "
                                             r"missing field 'right'$"):
            load_examples(p)
        p.write_text('\n{"left": [\n')
        with pytest.raises(ValueError, match=r"examples\.jsonl: line 2: "
                                             r"invalid JSON \("):
            load_examples(p)

    def test_kb_instances(self, tmp_path):
        p = tmp_path / "kb.tsv"
        p.write_text("Karl Braun\tper:location_of_birth\tDresden\nbad line\n")
        out = load_kb_instances(p)
        assert out == [RelationInstance("Karl Braun", "per:location_of_birth",
                                        "Dresden")]

    def test_triggers_words_and_templates(self, tmp_path):
        p = tmp_path / "triggers.tsv"
        p.write_text("per:age\tborn\nper:age\t<ENTITY> is <FILLER> years old\n")
        triggers = load_triggers(p)
        assert triggers["per:age"][0] == "born"
        assert triggers["per:age"][1].template == \
            ("<ENTITY>", "is", "<FILLER>", "years", "old")

    def test_triggers_report_bad_template_location(self, tmp_path):
        p = tmp_path / "triggers.tsv"
        p.write_text("per:age\tborn\n\nper:age\t<ENTITY> is * <FILLER>\n")
        with pytest.raises(ValueError) as err:
            load_triggers(p)
        assert str(err.value) == (
            f"{p}: line 3: bad wildcard bound * (want *1..*5): "
            "<ENTITY> is * <FILLER>")
