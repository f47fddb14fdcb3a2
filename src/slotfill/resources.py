"""Accessors for the bundled data resources (slot table, gazetteers,
patterns, triggers, alias table, KB, location maps, interpolation weights),
and the JSON Lines reader that the query, KB and example loaders share."""

from __future__ import annotations

import json
from collections.abc import Iterator
from pathlib import Path

DATA_DIR = Path(__file__).parent / "data"


def data_path(*parts: str) -> Path:
    return DATA_DIR.joinpath(*parts)


def read_jsonl(path: str | Path, fields: tuple[str, ...],
               ) -> Iterator[tuple[int, dict]]:
    """Each record of a JSON Lines file with its line number, blank lines
    skipped.  A line that is not valid JSON or lacks one of ``fields``
    raises ValueError naming the file and line."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {line_no}: invalid JSON "
                                 f"({exc.msg}: column {exc.colno})") from None
            for key in fields:
                if key not in rec:
                    raise ValueError(f"{path}: line {line_no}: missing field "
                                     f"{key!r}")
            yield line_no, rec


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
