"""Shared fixtures: the mini corpus, trained models, an assembled system."""

from pathlib import Path

import pytest

from slotfill.cli import seed_from_env
from slotfill.corpus import ingest_documents
from slotfill.pipeline import load_system
from slotfill.resources import (
    default_gazetteers,
    default_slot_configs,
    default_triggers,
)
from slotfill.trainer import ModelTrainingConfig, build_distant_dataset, train_slot_model
from slotfill.traindata import load_kb_instances

FIXTURES = Path(__file__).parent / "fixtures"

# canonical slots exercised by the bundled queries
TRAINED_SLOTS = (
    "per:location_of_birth",
    "per:location_of_residence",
    "per:schools_attended",
    "org:location_of_headquarters",
    "per:date_of_birth",
)
RNN_SLOTS = ("per:location_of_birth",)  # run-3 smoke coverage

FIXTURE_TRAIN_CONFIG = dict(dim=16, filters=12, cnn_hidden=16,
                            rnn_hidden=16, epochs=60, learning_rate=0.5,
                            batch_size=8)


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def trained_models_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("models")
    store = ingest_documents(FIXTURES / "train_corpus.jsonl")
    kb = load_kb_instances(FIXTURES / "train_kb.tsv")
    slot_configs = default_slot_configs()
    gazetteers = default_gazetteers()
    triggers = default_triggers()
    cfg = ModelTrainingConfig(seed=seed_from_env(), **FIXTURE_TRAIN_CONFIG)
    for slot in TRAINED_SLOTS:
        examples = build_distant_dataset(store, kb, slot, slot_configs,
                                         gazetteers, triggers)
        train_slot_model(examples, slot, "svm", out, cfg)
        train_slot_model(examples, slot, "cnn", out, cfg)
        if slot in RNN_SLOTS:
            train_slot_model(examples, slot, "rnn", out, cfg)
    return out


@pytest.fixture(scope="session")
def load_fixture_system(trained_models_dir):
    """Builds a new system over the fixture corpus, with an empty memo."""
    def load():
        return load_system(FIXTURES / "corpus.jsonl",
                           coref_path=FIXTURES / "coref.tsv",
                           models_dir=trained_models_dir)
    return load


@pytest.fixture(scope="session")
def system_state(load_fixture_system):
    return load_fixture_system()
