"""Accessors for the bundled data resources (slot table, gazetteers,
patterns, triggers, alias table, KB, location maps, interpolation weights)."""

from __future__ import annotations

import json
from pathlib import Path

DATA_DIR = Path(__file__).parent / "data"


def data_path(*parts: str) -> Path:
    return DATA_DIR.joinpath(*parts)


def default_slot_configs():
    from .extract import load_slot_configs
    return load_slot_configs(data_path("slots.json"))


def default_validation() -> dict:
    from .extract import load_validation_table
    return load_validation_table(data_path("validation.json"))


def default_gazetteers():
    from .extract import Gazetteers
    return Gazetteers.from_dir(data_path("gazetteers"))


def default_patterns():
    from .classify import load_patterns
    return load_patterns(data_path("patterns.tsv"))


def default_triggers():
    from .traindata import load_triggers
    return load_triggers(data_path("triggers.tsv"))


def default_nicknames() -> dict[str, list[str]]:
    from .query import load_nicknames
    return load_nicknames(data_path("nicknames.tsv"))


def default_alias_table():
    from .query import load_alias_table
    return load_alias_table(data_path("alias_table.tsv"))


def default_kb():
    from .query import load_kb
    return load_kb(data_path("kb.jsonl"))


def default_location_maps():
    from .postprocess import load_location_maps
    return load_location_maps(data_path("locations"))


def default_weights() -> dict[str, float]:
    from .classify import check_weights
    path = data_path("weights.json")
    with open(path, encoding="utf-8") as fh:
        return check_weights(json.load(fh), path)
