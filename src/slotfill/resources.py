"""Accessors for the bundled data resources (slot table, gazetteers,
patterns, triggers, alias table, KB, location maps, interpolation weights),
the JSON Lines reader that the query, KB and example loaders share, and the
TSV reader that every tab-separated and one-column list file goes through."""

from __future__ import annotations

import functools
import json
from collections.abc import Iterator, Mapping
from pathlib import Path
from types import MappingProxyType

DATA_DIR = Path(__file__).parent / "data"


def data_path(*parts: str) -> Path:
    return DATA_DIR.joinpath(*parts)


# value checks of ``read_jsonl``: what the field must hold, and the test
STRING = ("a string", lambda v: type(v) is str)
STRINGS = ("a list of strings",
           lambda v: type(v) is list and all(type(w) is str for w in v))
ZERO_OR_ONE = ("0 or 1", lambda v: type(v) is int and v in (0, 1))


def read_jsonl(path: str | Path, fields: tuple[str, ...],
               *checks: dict) -> Iterator[tuple[int, dict]]:
    """Each record of a JSON Lines file with its line number, blank lines
    skipped.  A line that is not valid JSON, lacks one of ``fields``, or
    holds a field whose value fails a check ``table[field] = (want, ok)``
    (``ok(value)`` is false) raises ValueError naming the file, line and
    field.  The ``checks`` tables run in turn, so a check may rely on the
    ones of an earlier table."""
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
            for table in checks:
                for key, (want, ok) in table.items():
                    if key in rec and not ok(rec[key]):
                        raise ValueError(f"{path}: line {line_no}: field "
                                         f"{key!r} must be {want}, got "
                                         f"{rec[key]!r}")
            yield line_no, rec


def read_tsv(path: str | Path, width: int) -> Iterator[tuple[int, list[str]]]:
    """Each line of a tab-separated file as ``(line_no, fields)``; blank,
    whitespace-only and ``#`` lines are skipped but counted.  A line that
    does not hold ``width`` fields raises ValueError naming the file and
    line.  A one-column list file is read with ``width=1``.  The file is
    read whole: every such file is small."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    for line_no, line in enumerate(lines, start=1):
        if not line.strip() or line[0] == "#":
            continue
        fields = line.split("\t")
        if len(fields) != width:
            raise ValueError(f"{path}: line {line_no}: expected {width} "
                             f"tab-separated fields, got {len(fields)}")
        yield line_no, fields


@functools.cache
def default_slot_configs() -> Mapping:
    """The bundled slot table, parsed once per process; the view is
    read-only, so a caller that changes a slot's settings copies it."""
    from .extract import load_slot_configs
    return MappingProxyType(load_slot_configs(data_path("slots.json")))


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
