"""Command-line entry points: train, tune, run, score."""

import json
import shutil

import numpy as np
import pytest

from slotfill.cli import main, seed_from_env


class TestSeedEnv:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("SF_SEED", raising=False)
        assert seed_from_env() == 13

    def test_override(self, monkeypatch):
        monkeypatch.setenv("SF_SEED", "99")
        assert seed_from_env() == 99

    def test_garbage_ignored(self, monkeypatch):
        monkeypatch.setenv("SF_SEED", "not-a-number")
        assert seed_from_env() == 13


class TestTrainCommand:
    def test_distant_supervision_svm(self, fixtures_dir, tmp_path):
        out_dir = tmp_path / "models"
        rc = main(["train", "--slot", "per:location_of_birth", "--model", "svm",
                   "--corpus", str(fixtures_dir / "train_corpus.jsonl"),
                   "--kb", str(fixtures_dir / "train_kb.tsv"),
                   "--out-dir", str(out_dir)])
        assert rc == 0
        assert (out_dir / "per_location_of_birth.svm.npz").exists()

    def test_examples_file_cnn(self, fixtures_dir, tmp_path):
        out_dir = tmp_path / "models"
        rc = main(["train", "--slot", "per:city_of_birth", "--model", "cnn",
                   "--examples", str(fixtures_dir / "seed_examples.jsonl"),
                   "--out-dir", str(out_dir),
                   "--dim", "8", "--filters", "4", "--cnn-hidden", "8",
                   "--epochs", "5"])
        assert rc == 0
        # the inverse/merge table routes training to the canonical slot
        assert (out_dir / "per_location_of_birth.cnn.npz").exists()

    def test_selection_loop_path(self, fixtures_dir, tmp_path):
        out_dir = tmp_path / "models"
        rc = main(["train", "--slot", "per:location_of_birth", "--model", "svm",
                   "--corpus", str(fixtures_dir / "train_corpus.jsonl"),
                   "--kb", str(fixtures_dir / "train_kb.tsv"),
                   "--select", "--seed-data",
                   str(fixtures_dir / "seed_examples.jsonl"),
                   "--batches", "3",
                   "--out-dir", str(out_dir)])
        assert rc == 0
        assert (out_dir / "per_location_of_birth.svm.npz").exists()

    def test_bad_embeddings_file_is_an_error_line(self, fixtures_dir,
                                                  tmp_path, capsys):
        vec = tmp_path / "vec.txt"
        vec.write_text("paris 0.1 x\n")
        rc = main(["train", "--slot", "per:city_of_birth", "--model", "cnn",
                   "--examples", str(fixtures_dir / "seed_examples.jsonl"),
                   "--out-dir", str(tmp_path / "models"),
                   "--embeddings", str(vec)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {vec}: line 1: could not convert string to float: "
            "'x'\n")

    def test_pattern_kind_is_data(self, capsys):
        rc = main(["train", "--slot", "per:age", "--model", "pattern"])
        assert rc == 0
        assert "patterns are data" in capsys.readouterr().out

    def test_classifier_less_slot_refused(self, capsys):
        rc = main(["train", "--slot", "per:charges", "--model", "svm"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: slot per:charges is classifier-less; only patterns apply\n")

    @pytest.mark.parametrize("given", [
        [],
        ["--kb", "never-read.tsv"],
        ["--corpus", "never-read.jsonl"],
    ])
    def test_missing_corpus_or_kb_refused_before_work(self, given, tmp_path,
                                                      capsys):
        rc = main(["train", "--slot", "per:location_of_birth", "--model",
                   "svm", "--out-dir", str(tmp_path / "models"), *given])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: train needs --examples, or --corpus and --kb\n")
        assert not (tmp_path / "models").exists()

    def test_select_without_seed_data_refused_before_work(self, tmp_path,
                                                          capsys):
        # neither input exists: the refusal comes before either is read
        rc = main(["train", "--slot", "per:location_of_birth", "--model", "svm",
                   "--corpus", "never-read.jsonl", "--kb", "never-read.tsv",
                   "--select", "--out-dir", str(tmp_path / "models")])
        assert rc == 1
        assert capsys.readouterr() == (
            "", "error: train --select needs --seed-data\n")
        assert not (tmp_path / "models").exists()

    def test_unknown_slot_refused(self, fixtures_dir, tmp_path, capsys):
        rc = main(["train", "--slot", "per:shoe_size", "--model", "svm",
                   "--examples", str(fixtures_dir / "seed_examples.jsonl"),
                   "--out-dir", str(tmp_path / "models")])
        assert rc == 1
        assert "error: unknown slot 'per:shoe_size'" in capsys.readouterr().err
        assert not (tmp_path / "models").exists()


class TestTuneCommand:
    def test_tunes_weights_and_thresholds(self, fixtures_dir,
                                          trained_models_dir, tmp_path):
        out = tmp_path / "tuned.json"
        rc = main(["tune", "--dev", str(fixtures_dir / "dev_examples.jsonl"),
                   "--models", str(trained_models_dir), "--out", str(out)])
        assert rc == 0
        tuned = json.loads(out.read_text())
        assert set(tuned) == {"thresholds", "weights"}
        assert sum(tuned["weights"].values()) == pytest.approx(1.0)
        assert "per:location_of_birth" in tuned["thresholds"]

    def test_unknown_slot_names_file_line_and_field(
            self, fixtures_dir, trained_models_dir, tmp_path, capsys):
        lines = (fixtures_dir / "dev_examples.jsonl").read_text().splitlines()
        bad = json.loads(lines[0])
        bad["slot"] = "per:shoe_size"
        dev = tmp_path / "dev.jsonl"
        dev.write_text("\n".join([lines[0], json.dumps(bad)]) + "\n")
        rc = main(["tune", "--dev", str(dev), "--models",
                   str(trained_models_dir), "--out", str(tmp_path / "t.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {dev}: line 2: field 'slot' must be a slot of the bundled "
            "slot table, got 'per:shoe_size'\n")
        assert not (tmp_path / "t.json").exists()

    def test_empty_dev_file_is_an_error_line(self, trained_models_dir,
                                             tmp_path, capsys):
        dev = tmp_path / "dev.jsonl"
        dev.write_text("")
        rc = main(["tune", "--dev", str(dev), "--models",
                   str(trained_models_dir), "--out", str(tmp_path / "t.json")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {dev}: no dev examples\n"
        assert not (tmp_path / "t.json").exists()

    def test_tuned_file_feeds_run(self, fixtures_dir, trained_models_dir,
                                  tmp_path):
        tuned = tmp_path / "tuned.json"
        rc = main(["tune", "--dev", str(fixtures_dir / "dev_examples.jsonl"),
                   "--models", str(trained_models_dir), "--out", str(tuned)])
        assert rc == 0
        out = tmp_path / "answers.tsv"
        rc = main(["run", "--queries", str(fixtures_dir / "queries.jsonl"),
                   "--corpus", str(fixtures_dir / "corpus.jsonl"),
                   "--coref", str(fixtures_dir / "coref.tsv"),
                   "--models", str(trained_models_dir),
                   "--run", "2", "--tuned", str(tuned), "--out", str(out)])
        assert rc == 0
        assert out.exists()


class TestNonFiniteTunedFile:
    """A tuned file that holds NaN or Infinity, which Python's json reads
    as floats, is refused before any corpus work."""

    def run_with(self, tmp_path, content: str) -> int:
        tuned = tmp_path / "tuned.json"
        tuned.write_text(content)
        return main(["run", "--queries", str(tmp_path / "never-read.jsonl"),
                     "--corpus", str(tmp_path / "never-read.jsonl"),
                     "--run", "2", "--tuned", str(tuned),
                     "--out", str(tmp_path / "answers.tsv")])

    def test_nan_threshold_names_file_and_slot(self, tmp_path, capsys):
        rc = self.run_with(tmp_path, '{"thresholds": {"per:age": NaN}}')
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'tuned.json'}: threshold of slot 'per:age' "
            "must be finite, got nan\n")
        assert not (tmp_path / "answers.tsv").exists()

    def test_infinite_weight_names_file(self, tmp_path, capsys):
        rc = self.run_with(tmp_path,
                           '{"weights": {"pattern": 1.0, "svm": Infinity}}')
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'tuned.json'}: interpolation weights must "
            "map pattern, svm, cnn, rnn to finite numbers: "
            "{'pattern': 1.0, 'svm': inf}\n")
        assert not (tmp_path / "answers.tsv").exists()


class TestRunAndScore:
    def test_run_3_without_rnn_for_a_slot(self, fixtures_dir,
                                          trained_models_dir, tmp_path,
                                          capsys):
        # the fixture models hold RNNs for per:location_of_birth only
        out = tmp_path / "answers.tsv"
        rc = main(["run", "--queries", str(fixtures_dir / "queries.jsonl"),
                   "--corpus", str(fixtures_dir / "corpus.jsonl"),
                   "--coref", str(fixtures_dir / "coref.tsv"),
                   "--models", str(trained_models_dir),
                   "--run", "3", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert str(trained_models_dir) in err
        assert "no rnn model for slot 'per:location_of_residence'" in err
        assert not out.exists()

    def test_bad_queries_file_is_an_error_line(self, fixtures_dir,
                                               trained_models_dir, tmp_path,
                                               capsys):
        queries = tmp_path / "queries.jsonl"
        queries.write_text('{"id": "q1", "name": "Steve Miller", '
                           '"type": "PER", "slot": "per:nonsense"}\n')
        out = tmp_path / "answers.tsv"
        rc = main(["run", "--queries", str(queries),
                   "--corpus", str(fixtures_dir / "corpus.jsonl"),
                   "--models", str(trained_models_dir),
                   "--run", "2", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {queries}: line 1: field 'slot' must be a slot of the "
            "bundled slot table, got 'per:nonsense'\n")
        assert not out.exists()

    def test_svm_of_another_hash_width_is_an_error_line(
            self, fixtures_dir, trained_models_dir, tmp_path, capsys):
        models = tmp_path / "models"
        shutil.copytree(trained_models_dir, models)
        svm = next(models.glob("*.svm.npz"))
        with np.load(svm) as data:
            arrays = {k: data[k] for k in data.files}
        np.savez(svm, **{**arrays, "bits": np.array([14])})
        out = tmp_path / "answers.tsv"
        rc = main(["run", "--queries", str(fixtures_dir / "queries.jsonl"),
                   "--corpus", str(fixtures_dir / "corpus.jsonl"),
                   "--models", str(models), "--run", "2", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {svm}: SVM features hash to 14 bits, not 18; retrain "
            "the model\n")
        assert not out.exists()

    def test_missing_corpus_is_an_error_line(self, fixtures_dir, tmp_path,
                                             capsys):
        corpus = tmp_path / "absent.jsonl"
        rc = main(["run", "--queries", str(fixtures_dir / "queries.jsonl"),
                   "--corpus", str(corpus), "--run", "2",
                   "--out", str(tmp_path / "answers.tsv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(corpus) in err
        assert err.count("\n") == 1

    def test_no_coref_flag(self, fixtures_dir, trained_models_dir, tmp_path):
        out = tmp_path / "answers.tsv"
        rc = main(["run", "--queries", str(fixtures_dir / "queries.jsonl"),
                   "--corpus", str(fixtures_dir / "corpus.jsonl"),
                   "--coref", str(fixtures_dir / "coref.tsv"),
                   "--models", str(trained_models_dir),
                   "--run", "2", "--no-coref", "--out", str(out)])
        assert rc == 0
        fillers = [line.split("\t")[3] for line in out.read_text().splitlines()]
        assert "Garching" not in fillers  # heuristic mention gated off

    def test_score_command(self, fixtures_dir, trained_models_dir, tmp_path,
                           capsys):
        out = tmp_path / "answers.tsv"
        main(["run", "--queries", str(fixtures_dir / "queries.jsonl"),
              "--corpus", str(fixtures_dir / "corpus.jsonl"),
              "--coref", str(fixtures_dir / "coref.tsv"),
              "--models", str(trained_models_dir),
              "--run", "2", "--out", str(out)])
        rc = main(["score", "--system", str(out),
                   "--gold", str(fixtures_dir / "gold.tsv")])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "tp=11 fp=0 fn=2" in printed
        assert "P=100.00 R=84.62 F1=91.67" in printed
